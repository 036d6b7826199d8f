"""Propagator correctness and the two-pulse protocol dynamics."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from afmgate import evolution
from afmgate.basis import afm_manifold_masks, build_full_basis
from afmgate.config import DecayConfig, Model, PulseProfile, pulse_with_tau
from afmgate.errors import PropagationError
from afmgate.evolution import (
    DIAG_BLOCK_STEPS,
    _default_stride,
    _dynamical_phase,
    _phases_from_samples,
    _propagate_protocol,
    _protocol_segments,
    _run_segment,
    _SegmentEngine,
    MERGED_DRIVE_ROWS,
    _chain_hamiltonians,
    _step_count,
    ground_amplitudes,
    parity_roundtrip_check,
    run_protocol,
    tau_batch_amplitudes,
)
from afmgate.hamiltonian import AfmMode, ChainHamiltonian, excitation_numbers, model_basis
from afmgate.spectra import afm_analytic_spectrum
from afmgate.units import mhz

from conftest import reference_config


def wrap_phase(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def segments(nu, cfg):
    """The two segment engines of a protocol on the even sector of the
    model's own basis."""
    return _protocol_segments([ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)], cfg)


def full_segments(nu, cfg):
    """The two segment engines of a protocol on the model's full basis: the
    path the even-sector propagation replaced.  Pulse II runs at rate
    1 / lambda on the step of pulse I."""
    ham = ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)
    gamma_1, gamma_2 = (cfg.decay.gamma_r, cfg.decay.gamma_rp) if cfg.include_decay else (0.0, 0.0)
    lam = cfg.interaction.lambda_ratio
    pulse_2 = cfg.pulse.rescaled(lam)
    return (
        _SegmentEngine([ham], cfg.pulse, gamma_1),
        _SegmentEngine(
            [ham.with_interaction(cfg.interaction.flipped())], pulse_2, gamma_2, t_abs_start=cfg.pulse.tau,
            rate=1.0 / lam,
        ),
    )


def full_hamiltonian(ham):
    """The full-basis Hamiltonian of a chain or of its sector copy."""
    return ChainHamiltonian(ham.model, ham.basis, ham.interaction)


def full_space_h(seg):
    """H at local time t of a one-chain engine's pulse, from
    ``ChainHamiltonian.matrix`` on the chain's full basis plus the decay
    -i (Gamma / 2) n_r; t is clamped into the pulse window."""
    ham = full_hamiltonian(seg.hamiltonian)
    pulse = seg.pulse

    def h_of_t(t):
        t = min(max(t, 0.0), pulse.tau)
        return ham.matrix(pulse.omega(t), pulse.delta(t)) - 0.5j * seg.gamma * np.diag(ham.n_r)

    return h_of_t


def full_ground(basis):
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index(0)] = 1.0
    return psi


def sector_ground(sector):
    """|0...0> on an even sector: its first column."""
    psi = np.zeros(len(sector.n_r), dtype=complex)
    psi[0] = 1.0
    return psi


def vdw_diagonal(basis, interaction):
    return ChainHamiltonian(Model.FULL_VDW, basis, interaction).v


class ConstantEngine(_SegmentEngine):
    """Time-independent H = omega * drive + diag on a hand-built structure."""

    def __init__(self, drive, diag, omega=1.0, tau=1.0):
        self.drive = np.asarray(drive, dtype=float)
        self.hamiltonians = (SimpleNamespace(drive=self.drive),)
        self.scales = (1.0,)
        self.rate = 1.0
        self.diag = np.asarray(diag, dtype=complex)
        self.omega = omega
        self.pulse = SimpleNamespace(tau=tau)

    def tables(self, dt, n_steps):
        t = np.zeros(2 * n_steps + 1)
        return t, np.full_like(t, self.omega), t

    def diagonals(self, t_local, delta):
        return np.broadcast_to(-1j * self.diag, (len(t_local),) + self.diag.shape)


class PoisonedEngine(ConstantEngine):
    """ConstantEngine on real evaluation times whose diagonal turns NaN from
    local time ``bad_from`` on, in the last column of a batch."""

    def __init__(self, drive, diag, bad_from, **kwargs):
        super().__init__(drive, diag, **kwargs)
        self.bad_from = bad_from

    def tables(self, dt, n_steps):
        t = np.arange(2 * n_steps + 1) * (0.5 * dt)
        return t, np.full_like(t, self.omega), t

    def diagonals(self, t_local, delta):
        d = np.array(super().diagonals(t_local, delta))
        d[t_local >= self.bad_from, ..., -1] = np.nan
        return d


def run_constant(engine, psi0, dt, stride=1, renormalize=True):
    n = _step_count(0.0, engine.pulse.tau, dt)
    times, states = _run_segment(engine, np.asarray(psi0, dtype=complex), dt, n, stride, renormalize)
    return np.array(times), np.array(states)


class TestPropagate:
    """The RK4 segment stepper on hand-built two-level Hamiltonians."""

    def test_resonant_rabi_pi_pulse(self):
        om = mhz(4.0)
        t_pi = math.pi / om
        engine = ConstantEngine([[0.0, 0.5], [0.5, 0.0]], [0.0, 0.0], omega=om, tau=t_pi)
        times, states = run_constant(engine, [1.0, 0.0], t_pi / 4000, stride=4000)
        assert times[-1] == t_pi
        assert abs(states[-1][1]) ** 2 == pytest.approx(1.0, abs=1e-8)
        assert states[-1][1] == pytest.approx(-1j, abs=1e-6)

    def test_excited_state_decay_norm(self):
        gamma = 2.0
        engine = ConstantEngine([[0.0]], [-0.5j * gamma])
        _, states = run_constant(engine, [1.0], 1.0 / 4000, renormalize=False)
        norms = np.linalg.norm(states, axis=1)
        assert norms[-1] ** 2 == pytest.approx(math.exp(-gamma), abs=1e-8)
        assert np.all(np.diff(norms) <= 1e-10)

    def test_hermitian_norm_pinned_to_one(self):
        engine = ConstantEngine([[0.0, 0.5], [0.5, 0.0]], [0.0, -mhz(3.0)], omega=mhz(8.0), tau=2.0)
        _, states = run_constant(engine, [1.0, 0.0], 1e-3)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12

    def test_uneven_step_rejected(self):
        with pytest.raises(ValueError):
            _step_count(0.0, 1.0, 0.3)

    def test_numerical_blowup_reported(self):
        engine = ConstantEngine([[0.0, 1e8], [1e8, 0.0]], [0.0, 0.0], tau=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError):
                run_constant(engine, [1.0, 0.0], 0.01, renormalize=False)

    @pytest.mark.parametrize("batch", [False, True])
    def test_first_non_finite_sample_time_reported(self, batch):
        # amplitudes turn NaN in the step ending at 0.42; with stride 5 the
        # first sample holding them is the one after step 44
        dt, bad_from = 0.01, 0.4153
        diag = np.array([[0.0, 0.0], [-mhz(3.0), mhz(1.0)]]) if batch else np.array([0.0, -mhz(3.0)])
        engine = PoisonedEngine([[0.0, 0.5], [0.5, 0.0]], diag, bad_from, omega=mhz(8.0))
        psi0 = np.array([[1.0, 0.6], [0.0, 0.8]]) if batch else np.array([1.0, 0.0])
        with pytest.raises(PropagationError, match=re.escape(f"t = {44 * dt + dt}")):
            run_constant(engine, psi0, dt, stride=5, renormalize=False)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_batch_columns_match_single_states(self, renormalize):
        diag = np.array([[0.0, 0.0], [-mhz(3.0) - 0.1j, mhz(1.0)]])  # one column per trial
        engine = ConstantEngine([[0.0, 0.5], [0.5, 0.0]], diag, omega=mhz(8.0))
        psi0 = np.array([[1.0, 0.6], [0.0, 0.8j]])
        _, batch = run_constant(engine, psi0, 1e-3, stride=1000, renormalize=renormalize)
        for col in range(2):
            single = ConstantEngine(engine.drive, diag[:, col], omega=mhz(8.0))
            _, states = run_constant(single, psi0[:, col], 1e-3, stride=1000, renormalize=renormalize)
            assert np.abs(batch[-1][:, col] - states[-1]).max() < 1e-12


def plain_rk4(h_of_t, psi, dt, n_steps, renormalize):
    """Textbook RK4 on psi' = -i H(t) psi, one matrix per evaluation."""
    for step in range(n_steps):
        t = step * dt
        f = lambda tt, y: -1j * (h_of_t(tt) @ y)
        k1 = f(t, psi)
        k2 = f(t + dt / 2, psi + dt / 2 * k1)
        k3 = f(t + dt / 2, psi + dt / 2 * k2)
        k4 = f(t + dt, psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if renormalize:
            psi = psi / np.linalg.norm(psi)
    return psi


class TestFusedStepper:
    """The tabulated, fused stepper over one reference segment against a
    plain RK4 on the chain's full-space Hamiltonian matrices."""

    def test_single_state_with_decay_matches_plain_rk4(self):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.05))
        seg1, _ = segments(3, cfg)
        sector = seg1.hamiltonian
        n = _step_count(0.0, cfg.pulse.tau, cfg.dt)
        _, (fused,) = _run_segment(seg1, sector_ground(sector), cfg.dt, n, n, renormalize=False)
        plain = plain_rk4(full_space_h(seg1), full_ground(seg1.basis), cfg.dt, n, renormalize=False)
        assert np.linalg.norm(plain) < 1.0
        assert np.abs(sector.u @ fused - plain).max() < 1e-12

    @pytest.mark.parametrize("nu", [3, 5])
    def test_single_hermitian_state_matches_renormalized_plain_rk4(self, nu):
        cfg = reference_config(model=Model.FULL_VDW)
        seg1, _ = segments(nu, cfg)
        sector = seg1.hamiltonian
        n = _step_count(0.0, cfg.pulse.tau, cfg.dt)
        _, (fused,) = _run_segment(seg1, sector_ground(sector), cfg.dt, n, n, renormalize=True)
        plain = plain_rk4(full_space_h(seg1), full_ground(seg1.basis), cfg.dt, n, renormalize=True)
        assert abs(np.linalg.norm(fused) - 1.0) < 1e-14
        assert np.abs(sector.u @ fused - plain).max() < 1e-12

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_batch_with_per_column_diagonal_matches_plain_rk4(self, include_decay):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        basis, v0 = ham.basis, ham.v
        rates = np.array([0.0, 0.3, -0.2])

        def v_int_at(t_abs):  # (times, dim, 3): one drifting interaction per column
            return v0[None, :, None] * (1.0 + rates[None, None, :] * t_abs[:, None, None])

        _, seg2 = _protocol_segments([ham], cfg, (v_int_at, v_int_at))
        dt = seg2.pulse.tau / 1000
        psi0 = np.zeros((basis.dim, 3), dtype=complex)
        psi0[0, :] = 1.0
        renormalize = not include_decay
        _, (fused,) = _run_segment(seg2, psi0, dt, 1000, 1000, renormalize)
        for col in range(3):

            def h_col(t):
                t = min(max(t, 0.0), seg2.pulse.tau)
                v_col = v_int_at(np.array([seg2.t_abs_start + t]))[0, :, col]
                return ham.matrix(seg2.pulse.omega(t), seg2.pulse.delta(t)) + np.diag(
                    v_col - ham.v - 0.5j * seg2.gamma * ham.n_r
                )

            plain = plain_rk4(h_col, psi0[:, col], dt, 1000, renormalize)
            assert np.abs(fused[:, col] - plain).max() < 1e-12
        assert np.abs(fused[:, 1] - fused[:, 0]).max() > 1e-6  # the columns really differ

    def test_hermitian_samples_normalised_per_block_and_column(self):
        # two chain blocks x 3 columns, each column with its own drifting
        # interaction, sampled every 150 of 1000 steps: the running state
        # is never rescaled, the samples are
        cfg = reference_config(model=Model.FULL_VDW)
        hams = [ChainHamiltonian(Model.FULL_VDW, build_full_basis(nu), cfg.interaction) for nu in (2, 3)]
        v0 = np.concatenate([h.v for h in hams])
        rates = np.array([0.0, 0.3, -0.2])

        def v_int_at(t_abs):  # (times, dim, 3)
            return v0[None, :, None] * (1.0 + rates[None, None, :] * t_abs[:, None, None])

        seg, _ = _protocol_segments(hams, cfg, (v_int_at, v_int_at))
        dt = cfg.pulse.tau / 1000
        psi0 = np.zeros((seg.chains[-1].stop, 3), dtype=complex)
        psi0[[c.start for c in seg.chains], :] = 1.0
        _, samples = _run_segment(seg, psi0, dt, 1000, 150, renormalize=True)
        steps = [150, 300, 450, 600, 750, 900, 1000]
        assert len(samples) == len(steps)
        for c, ham in zip(seg.chains, hams):
            assert np.abs(np.linalg.norm(samples[:, c], axis=1) - 1.0).max() < 1e-14
            for col in range(3):

                def h_col(t):
                    t = min(max(t, 0.0), seg.pulse.tau)
                    v_col = v_int_at(np.array([t]))[0, c, col]
                    return ham.matrix(seg.pulse.omega(t), seg.pulse.delta(t)) + np.diag(v_col - ham.v)

                plain, done = psi0[c, col], 0
                for sample, step in zip(samples, steps):
                    plain = plain_rk4(lambda t, t0=done * dt: h_col(t0 + t), plain, dt, step - done, True)
                    done = step
                    assert np.abs(sample[c, col] - plain).max() < 1e-12

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_non_contiguous_initial_state_gives_same_states(self, renormalize):
        cfg = reference_config(model=Model.FULL_VDW)
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        v0 = ham.v
        rates = np.array([0.0, 0.3, -0.2])

        def v_int_at(t_abs):  # (times, dim, 3): one drifting interaction per column
            return v0[None, :, None] * (1.0 + rates[None, None, :] * t_abs[:, None, None])

        batch_seg, _ = _protocol_segments([ham], cfg, (v_int_at, v_int_at))
        single_seg = _SegmentEngine([ham], cfg.pulse)
        rng = np.random.default_rng(5)
        wide = rng.normal(size=(ham.basis.dim, 6)) + 1j * rng.normal(size=(ham.basis.dim, 6))
        wide /= np.linalg.norm(wide, axis=0)
        batch = np.ascontiguousarray(wide[:, ::2])
        _, ref_batch = _run_segment(batch_seg, batch, cfg.dt, 200, 50, renormalize)
        _, ref_single = _run_segment(single_seg, wide[:, 0].copy(), cfg.dt, 200, 50, renormalize)
        for psi0 in (np.asfortranarray(batch), wide[:, ::2]):
            assert not psi0.flags.c_contiguous
            _, states = _run_segment(batch_seg, psi0, cfg.dt, 200, 50, renormalize)
            assert np.array_equal(states, ref_batch)
        _, states = _run_segment(single_seg, wide[:, 0], cfg.dt, 200, 50, renormalize)  # strided column
        assert np.array_equal(states, ref_single)

    def test_samples_are_distinct_rows_at_their_steps(self):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.05))
        seg1, _ = segments(3, cfg)
        psi0 = sector_ground(seg1.hamiltonian)
        times, every = _run_segment(seg1, psi0, cfg.dt, 45, 1, renormalize=False)
        assert every.shape == (45, len(psi0)) and times.shape == (45,)
        assert len({row.tobytes() for row in every}) == 45
        times7, strided = _run_segment(seg1, psi0, cfg.dt, 45, 7, renormalize=False)
        # steps 7, 14, ..., 42 and the last one
        assert np.array_equal(strided, every[[6, 13, 20, 27, 34, 41, 44]])
        assert np.array_equal(times7[:-1], times[[6, 13, 20, 27, 34, 41]])

    def test_tables_equal_scalar_pulse_values(self):
        cfg = reference_config(model=Model.PXP)
        seg1, _ = segments(3, cfg)
        pulse = seg1.pulse
        n = 93  # (n - 1) * dt + dt rounds past tau = 1, so the last end is clamped
        dt = pulse.tau / n
        assert (n - 1) * dt + dt > pulse.tau
        t, om, dl = seg1.tables(dt, n)
        assert t[-1] == pulse.tau and om[-1] == 0.0 and dl[-1] == pulse.delta0
        expect_t = [0.0] + [x for s in range(n) for x in (s * dt + 0.5 * dt, min(s * dt + dt, pulse.tau))]
        assert t.tolist() == expect_t
        assert om.tolist() == [pulse.omega(x) for x in expect_t]
        assert dl.tolist() == [pulse.delta(x) for x in expect_t]


def record_diagonals(engine, monkeypatch):
    """Wrap ``engine.diagonals``; returns the list of (t_local, delta, result)
    of every call."""
    calls = []
    real = engine.diagonals

    def recording(t_local, delta):
        out = real(t_local, delta)
        calls.append((t_local.copy(), delta.copy(), out))
        return out

    monkeypatch.setattr(engine, "diagonals", recording)
    return calls


def check_block_coverage(calls, t_tab, n_steps):
    """The stepper asked for the diagonal at every evaluation time once, in
    order: entry 0, then blocks of DIAG_BLOCK_STEPS steps and a short last one."""
    sizes = [len(c[0]) for c in calls]
    assert sizes == [1] + [2 * DIAG_BLOCK_STEPS] * (n_steps // DIAG_BLOCK_STEPS) + [2 * (n_steps % DIAG_BLOCK_STEPS)]
    assert np.concatenate([c[0] for c in calls]).tolist() == t_tab.tolist()


class TestBlockDiagonal:
    """The block-tabulated -iH diagonal against the per-evaluation formula
    Delta * i n_r - i (v_int + decay), over a segment whose step count is not
    a multiple of the block."""

    N_STEPS = 3 * DIAG_BLOCK_STEPS + 5

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_static_blocks_equal_scalar_formula_bitwise(self, include_decay, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        _, seg2 = full_segments(4, cfg)
        basis = seg2.basis
        dt = seg2.pulse.tau / self.N_STEPS
        calls = record_diagonals(seg2, monkeypatch)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[0] = 1.0
        _run_segment(seg2, psi0, dt, self.N_STEPS, self.N_STEPS, not include_decay)
        t_tab, _, dl = seg2.tables(dt, self.N_STEPS)
        check_block_coverage(calls, t_tab, self.N_STEPS)

        n_r = excitation_numbers(basis)
        v = vdw_diagonal(basis, cfg.interaction.flipped())
        if include_decay:
            v = v - 0.5j * cfg.decay.gamma_rp * n_r
        for delta, d in zip(dl, np.concatenate([c[2] for c in calls])):
            assert np.array_equal(d, delta * (1j * n_r) + -1j * v)

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_per_column_blocks_match_scalar_formula(self, include_decay, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        basis, v0 = ham.basis, ham.v
        rates = np.array([0.0, 0.3, -0.2])

        def v_at(t_abs):  # scalar time -> (dim, 3)
            return v0[:, None] * (1.0 + rates[None, :] * t_abs)

        def v_int_at(t_abs):  # array of times -> (times, dim, 3)
            return np.stack([v_at(t) for t in t_abs])

        _, seg2 = _protocol_segments([ham], cfg, (v_int_at, v_int_at))
        dt = seg2.pulse.tau / self.N_STEPS
        calls = record_diagonals(seg2, monkeypatch)
        psi0 = np.zeros((basis.dim, 3), dtype=complex)
        psi0[0, :] = 1.0
        _run_segment(seg2, psi0, dt, self.N_STEPS, self.N_STEPS, not include_decay)
        t_tab, _, dl = seg2.tables(dt, self.N_STEPS)
        check_block_coverage(calls, t_tab, self.N_STEPS)

        n_r = excitation_numbers(basis)[:, None]
        decay = -0.5j * cfg.decay.gamma_rp * n_r if include_decay else 0.0
        for t, delta, d in zip(t_tab, dl, np.concatenate([c[2] for c in calls])):
            scalar = delta * (1j * n_r) - 1j * v_at(seg2.t_abs_start + t) - 1j * decay
            assert d.shape == (basis.dim, 3)
            assert np.abs(d - scalar).max() < 1e-12


class TestRunProtocol:
    def test_afm_transfer_after_first_pulse(self):
        cfg = reference_config(model=Model.PXP)
        run = run_protocol(5, cfg)
        traj = run.trajectory
        i_tau = int(np.searchsorted(traj.times, cfg.pulse.tau))
        assert traj.populations["afm"][i_tau] > 0.99

    def test_ground_return_and_phase_nu3(self):
        run = run_protocol(3, reference_config(model=Model.PXP))
        assert run.trajectory.populations["ground"][-1] > 0.99
        assert abs(wrap_phase(run.phases.final_total())) < 0.05

    def test_vdw_nu4_population_splits_over_bright_afm_pair(self):
        cfg = reference_config(model=Model.FULL_VDW)
        run = run_protocol(4, cfg)
        traj = run.trajectory
        i_tau = int(np.searchsorted(traj.times, cfg.pulse.tau))
        p_sum = traj.populations["afm"][i_tau] + traj.populations["afm_excited"][i_tau]
        assert p_sum > 0.95
        assert traj.populations["ground"][-1] > 0.98
        assert abs(wrap_phase(run.phases.final_total())) < 0.05

    @pytest.mark.parametrize("model,nu", [(Model.PXP, 4), (Model.PXP, 6), (Model.FULL_VDW, 4), (Model.FULL_VDW, 6)])
    def test_afm_populations_project_on_the_analytic_vectors(self, model, nu):
        """PXP "afm" is the ladder ground; vdW "afm" is the split regime's
        bulk-band head and "afm_excited" its bright ordered pair, each placed
        from ``afm_analytic_spectrum`` on ``afm_manifold_masks``."""
        cfg = reference_config(model=model)
        traj = run_protocol(nu, cfg, compute_phases=False).trajectory
        mode = AfmMode.PXP if model is Model.PXP else AfmMode.VDW_SPLIT
        spec = afm_analytic_spectrum(nu, 1.0, 10.0, cfg.interaction, mode)
        rows = {"afm": 0} if model is Model.PXP else {"afm": 0, "afm_excited": nu // 2 - 1}
        assert set(traj.populations) == {"ground", *rows}
        idx = [traj.basis.index(mask) for mask in afm_manifold_masks(nu)]
        for name, row in rows.items():
            v = np.zeros(traj.basis.dim, dtype=complex)
            v[idx] = spec.vectors[row]
            assert np.array_equal(traj.populations[name], np.abs(traj.states @ v.conj()) ** 2)

    def test_vdw_nu2_has_no_bulk_afm_population(self):
        traj = run_protocol(2, reference_config(model=Model.FULL_VDW), compute_phases=False).trajectory
        assert not traj.populations["afm"].any()
        assert traj.populations["afm_excited"].max() > 0.5

    def test_corrections_model_not_propagatable(self):
        with pytest.raises(ValueError):
            run_protocol(3, reference_config(model=Model.PXP_PLUS_CORRECTIONS))

    def test_decay_reduces_norm_monotonically(self):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.01))
        run = run_protocol(3, cfg, compute_phases=False)
        norms = run.trajectory.norms
        assert norms[-1] < 1.0
        assert np.all(np.diff(norms) <= 1e-10)

    def test_hermitian_norm_within_1e8(self):
        run = run_protocol(4, reference_config(model=Model.FULL_VDW), compute_phases=False)
        assert np.abs(run.trajectory.norms - 1.0).max() < 1e-8


def phase_decomposition(traj, h_of_t, boundaries=()):
    """Phase bookkeeping for an arbitrary trajectory, the reference for
    the record ``run_protocol`` keeps.

    ``h_of_t`` must return the (possibly non-Hermitian) Hamiltonian matrix
    at a sample time.  The dynamical phase integrates the energy of the
    dominantly occupied adiabatic branch (maximal overlap with the state),
    which reduces to <H> under perfect adiabatic following but stays clean
    under leakage.  ``boundaries`` lists times where H jumps (e.g. the
    pulse handover); the action integral is split there, evaluating the
    right side just past the jump.
    """
    cuts = [0]
    for b in boundaries:
        i = int(np.searchsorted(traj.times, b))
        if 0 < i < len(traj.times) - 1:
            cuts.append(i)
    cuts.append(len(traj.times) - 1)

    def energy_at(k, i):
        t = traj.times[i]
        if k > 0 and i == cuts[k]:
            t = np.nextafter(t, np.inf)  # right side of the jump
        h = np.asarray(h_of_t(t), dtype=complex)
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        return float(w[int(np.argmax(np.abs(v.conj().T @ traj.states[i])))])

    def energy(k, lo, hi):
        return np.array([energy_at(k, i) for i in range(lo, hi + 1)])

    phi_dyn = _dynamical_phase(traj.times, cuts, energy)
    return _phases_from_samples(traj.times, traj.states, phi_dynamical=phi_dyn)


class TestPhases:
    def test_stationary_ground_state_accumulates_nothing(self):
        cfg = reference_config(model=Model.PXP)
        dead = replace(cfg, pulse=PulseProfile(0.0, cfg.pulse.delta0, cfg.pulse.tau))
        run = run_protocol(3, dead)
        assert np.abs(run.phases.phi_total).max() < 1e-9
        assert np.abs(run.phases.phi_dynamical).max() < 1e-9
        assert np.abs(run.phases.phi_geometric).max() < 1e-9

    def test_single_atom_double_sweep_leaves_geometric_pi(self):
        run = run_protocol(1, reference_config(model=Model.PXP))
        assert abs(wrap_phase(run.phases.final_total() - math.pi)) < 0.02
        assert abs(run.phases.final_dynamical()) < 0.02
        assert abs(wrap_phase(float(run.phases.phi_geometric[-1]) - math.pi)) < 0.02

    def test_dynamical_phase_cancels_for_nu5(self):
        run = run_protocol(5, reference_config(model=Model.FULL_VDW))
        assert abs(run.phases.final_dynamical()) < 0.05
        assert abs(wrap_phase(float(run.phases.phi_geometric[-1]) - math.pi)) < 0.05

    def test_overlap_validity_flagged_mid_protocol(self):
        run = run_protocol(5, reference_config(model=Model.PXP))
        assert not run.phases.valid.all()
        assert run.phases.valid[0] and run.phases.valid[-1]

    def test_total_phase_unwraps_over_valid_samples_only(self):
        # valid samples at angles 0, 0.1, 0.2, 0.3; the round-off overlaps of
        # the three invalid samples between them wind once around the circle
        angles = np.array([0.0, 0.1, 2.0, -2.18, 0.15, 0.2, 0.3])
        magnitudes = np.array([1.0, 1.0, 1e-12, 1e-12, 1e-12, 1.0, 1.0])
        overlaps = magnitudes * np.exp(1j * angles)
        states = np.stack([overlaps, np.sqrt(1.0 - magnitudes**2)], axis=1)
        assert np.unwrap(angles)[-1] == pytest.approx(0.3 + 2.0 * math.pi)  # through every sample
        rec = _phases_from_samples(np.arange(7.0), states, phi_dynamical=np.zeros(7))
        assert rec.valid.tolist() == [True, True, False, False, False, True, True]
        assert np.abs(rec.phi_total[rec.valid] - [0.0, 0.1, 0.2, 0.3]).max() < 1e-15
        # invalid samples: their own angle, within pi of the last valid total
        assert np.abs(rec.phi_total[2:5] - angles[2:5]).max() < 1e-15
        assert np.abs(rec.phi_total[2:5] - rec.phi_total[1]).max() <= math.pi
        assert np.array_equal(rec.phi_geometric, rec.phi_total)

    def test_invalid_sample_angle_taken_within_pi_of_last_valid_total(self):
        # the last valid sample sits at 2 pi + 0.2 after unwrapping; the
        # invalid one after it, at angle -3, is placed at 4 pi - 3
        angles = np.array([0.0, 2.0, -2.5, 0.2, -3.0])
        magnitudes = np.array([1.0, 1.0, 1.0, 1.0, 1e-9])
        states = (magnitudes * np.exp(1j * angles))[:, None]
        rec = _phases_from_samples(np.arange(5.0), states, phi_dynamical=np.zeros(5))
        assert rec.phi_total[3] == pytest.approx(0.2 + 2.0 * math.pi, abs=1e-14)
        assert rec.phi_total[4] == pytest.approx(4.0 * math.pi - 3.0, abs=1e-14)

    def test_dynamical_phase_equals_scipy_cumulative_trapezoid_bitwise(self):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(0.5, 1.5, 40))
        cuts = [0, 17, 39]
        energies = [rng.normal(size=18) * 1e3, rng.normal(size=23) * 1e3]
        phi = _dynamical_phase(times, cuts, lambda k, lo, hi: energies[k])
        ref = np.zeros(len(times))
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            ref[lo : hi + 1] = ref[lo] + cumulative_trapezoid(energies[k], times[lo : hi + 1], initial=0.0)
        assert np.array_equal(phi, ref)

    def test_phase_decomposition_matches_protocol_record(self):
        cfg = reference_config(model=Model.PXP)
        run = run_protocol(3, cfg)
        h1, h2 = (full_space_h(seg) for seg in segments(3, cfg))
        tau = cfg.pulse.tau

        def h_of_t(t):
            return h1(t) if t <= tau else h2(t - tau)

        rec = phase_decomposition(run.trajectory, h_of_t, boundaries=[tau])
        assert rec.final_dynamical() == pytest.approx(run.phases.final_dynamical(), abs=2e-3)
        assert rec.final_total() == pytest.approx(run.phases.final_total(), abs=1e-9)


def full_space_branch_energy(seg, t_local, psi):
    """The full-space formula the even-sector path replaced: eigh of the
    whole real H and the eigenvalue of maximal overlap with the state."""
    t = min(max(t_local, 0.0), seg.pulse.tau)
    w, v = np.linalg.eigh(full_hamiltonian(seg.hamiltonian).matrix(seg.pulse.omega(t), seg.pulse.delta(t)))
    return float(w[int(np.argmax(np.abs(v.conj().T @ psi)))])


def record_fallback(monkeypatch):
    """Rows of each call to the eigenvector fallback of ``branch_energies``."""
    rows = []
    dense = evolution._max_overlap_energies

    def counting(h, phi):
        rows.append(len(h))
        return dense(h, phi)

    monkeypatch.setattr(evolution, "_max_overlap_energies", counting)
    return rows


def segment_samples(run, nu, cfg):
    """(segment engine, first and last sample index, segment start time) of
    both pulses of ``run_protocol(nu, cfg)``; the boundary sample belongs to
    both."""
    times = run.trajectory.times
    tau = cfg.pulse.tau
    cut = int(np.searchsorted(times, tau))
    seg1, seg2 = segments(nu, cfg)
    return ((seg1, 0, cut, 0.0), (seg2, cut, len(times) - 1, tau))


class TestEvenSectorBranchEnergies:
    """Branch energies on the inversion-even sector against the full-space
    formula.  Every sample is compared up to dim 34 (with the dynamical
    phase); larger bases compare every 8th sample, which still spans many
    eigensolve chunks."""

    CASES = [(Model.FULL_VDW, nu) for nu in range(1, 8)] + [(Model.PXP, nu) for nu in range(1, 10)]

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model,nu", CASES)
    def test_energies_match_full_space_eigh(self, model, nu, include_decay):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05))
        every = 1 if model_basis(model, nu).dim <= 34 else 8
        run = run_protocol(nu, cfg, compute_phases=every == 1)
        traj = run.trajectory
        reference = []
        for seg, lo, hi, start in segment_samples(run, nu, cfg):
            idx = np.arange(lo, hi + 1, every)
            energies = seg.branch_energies(traj.times[idx] - start, traj.states[idx] @ seg.hamiltonian.u)
            ref = np.array([full_space_branch_energy(seg, traj.times[i] - start, traj.states[i]) for i in idx])
            assert np.abs(energies - ref).max() <= 1e-12 * np.abs(ref).max()
            reference.append(ref)
        if every == 1:
            cuts = [0, segment_samples(run, nu, cfg)[1][1], len(traj.times) - 1]
            phi = _dynamical_phase(traj.times, cuts, lambda k, lo, hi: reference[k])
            assert np.abs(run.phases.phi_dynamical - phi).max() <= 1e-11

    def test_energies_independent_of_chunk_size(self, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW)
        run = run_protocol(5, cfg, compute_phases=False)
        traj = run.trajectory
        seg, lo, hi, start = segment_samples(run, 5, cfg)[0]
        idx = np.arange(lo, hi + 1, 13)
        states = traj.states[idx] @ seg.hamiltonian.u
        whole = seg.branch_energies(traj.times[idx] - start, states)
        monkeypatch.setattr(evolution, "PHASE_CHUNK_ENTRIES", 3 * 20**2)  # 3 samples per chunk
        assert len(idx) % 3 != 0
        chunked = seg.branch_energies(traj.times[idx] - start, states)
        assert np.array_equal(chunked, whole)

    def test_equal_mix_of_two_branches_falls_back_to_dense(self, monkeypatch):
        seg, _ = segments(5, reference_config(model=Model.FULL_VDW))
        t = 0.4 * seg.pulse.tau
        h = seg.hamiltonian.matrix(seg.pulse.omega(t), seg.pulse.delta(t))
        w, v = np.linalg.eigh(h)
        mix = (v[:, 2] + np.exp(0.7j) * v[:, 3]) / math.sqrt(2.0)
        dense = evolution._max_overlap_energies(h[None], mix[None])[0]
        rows = record_fallback(monkeypatch)
        energies = seg.branch_energies(np.array([t, t]), np.array([np.exp(0.3j) * v[:, 2], mix]))
        assert rows == [1]  # the eigenvector is settled by the bound, the mix is not
        assert energies[0] == pytest.approx(w[2], rel=1e-12)
        assert energies[1] == dense

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_vdw_nu4_fallback_rows_match_dense_argmax(self, monkeypatch, include_decay):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        run = run_protocol(4, cfg, compute_phases=False)
        traj = run.trajectory
        dense_energies = evolution._max_overlap_energies
        rows = record_fallback(monkeypatch)
        for seg, lo, hi, start in segment_samples(run, 4, cfg):
            t = traj.times[lo : hi + 1] - start
            states = traj.states[lo : hi + 1] @ seg.hamiltonian.u
            energies = seg.branch_energies(t, states)
            tc = np.clip(t, 0.0, seg.pulse.tau)
            h = np.array([seg.hamiltonian.matrix(o, d) for o, d in zip(seg.pulse.omega(tc), seg.pulse.delta(tc))])
            dense = dense_energies(h, states)
            assert np.abs(energies - dense).max() <= 1e-12 * np.abs(dense).max()
        # the even-nu AFM doublet: some rows, not all, need the eigenvectors
        assert 0 < sum(rows) < len(traj.times) // 2

    @pytest.mark.parametrize("shift,raises", [(1e-13, False), (1e-9, True)])
    def test_interaction_must_be_mirror_symmetric(self, shift, raises):
        # sector operators are built from a hand-made asymmetric v
        cfg = reference_config(model=Model.FULL_VDW)
        ham = ChainHamiltonian(Model.FULL_VDW, model_basis(Model.FULL_VDW, 4), cfg.interaction)
        ham.v = ham.v.copy()
        ham.v[ham.basis.index(0b0011)] += shift * np.abs(ham.v).max()
        if raises:
            with pytest.raises(ValueError, match="inversion"):
                _protocol_segments([ham], cfg)
        else:
            _protocol_segments([ham], cfg)

    def test_broken_drive_symmetry_raises(self):
        cfg = reference_config(model=Model.PXP)
        ham = ChainHamiltonian(Model.PXP, model_basis(Model.PXP, 3))
        ham.drive = ham.drive.copy()
        ham.drive[0, ham.basis.index(0b001)] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="inversion"):
            ham.sector()


class TestGroundAmplitudes:
    """A gate's chains propagated as one direct-sum state against one
    ``run_protocol`` per chain."""

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("n_atoms", [3, 4, 5, 6, 7, 8])
    def test_direct_sum_matches_per_chain_runs(self, n_atoms, model, include_decay):
        cfg = reference_config(n_atoms=n_atoms, model=model, include_decay=include_decay, gamma=mhz(0.05))
        nus = [n_atoms - 2, n_atoms - 1, n_atoms]
        amps = ground_amplitudes(nus, cfg)
        assert list(amps) == nus
        for nu in nus:
            ref = run_protocol(nu, cfg, compute_phases=False).ground_amplitude()
            assert abs(amps[nu] - ref) < 1e-13

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model,nu", [(Model.PXP, 5), (Model.FULL_VDW, 4)])
    def test_single_chain_bitwise_equal_to_run_protocol(self, model, nu, include_decay):
        # bitwise while pulse II runs after pulse I (decay-free); with decay
        # pulse II runs transposed, which reorders the round-off
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05))
        amp = ground_amplitudes([nu], cfg)[nu]
        ref = run_protocol(nu, cfg, compute_phases=False).ground_amplitude()
        if include_decay:
            assert abs(amp - ref) < 1e-13
        else:
            assert amp == ref

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_hermitian_blocks_each_keep_unit_norm(self, model):
        cfg = reference_config(model=model)
        seg1, _, _, _, (_, states) = _propagate_protocol(_chain_hamiltonians([3, 4, 5], cfg), cfg)
        final = states[-1]
        assert len(seg1.chains) == 3 and seg1.chains[-1].stop == len(final)
        for chain in seg1.chains:
            assert abs(np.linalg.norm(final[chain]) - 1.0) < 1e-13

    @pytest.mark.parametrize("n_atoms,rows", [(3, [11]), (5, [36]), (6, [30, 36]), (7, [56, 72]), (8, [36, 72, 136])])
    def test_drive_products_merge_blocks_up_to_the_row_limit(self, n_atoms, rows):
        # vdW even sectors: 2 + 3 + 6 rows at N = 3, 6 + 10 + 20 at N = 5,
        # 10 + 20 + 36 at N = 6, 20 + 36 + 72 at N = 7, 36 + 72 + 136 at N = 8
        assert MERGED_DRIVE_ROWS == 64
        cfg = reference_config(model=Model.FULL_VDW)
        hams = [ChainHamiltonian(Model.FULL_VDW, build_full_basis(nu), cfg.interaction) for nu in range(n_atoms - 2, n_atoms + 1)]
        for seg in _protocol_segments(hams, cfg):
            assert [m.shape[0] for _, m in seg.drives] == rows
            merged = np.zeros((seg.chains[-1].stop,) * 2)
            for c, m in seg.drives:
                merged[c, c] = m
            for chain, h in zip(seg.chains, seg.hamiltonians):
                assert np.array_equal(merged[chain, chain], h.drive)
                merged[chain, chain] = 0.0
            assert not merged.any()  # nothing off the chain blocks

    def test_one_chain_engine_keeps_its_own_drive(self):
        seg1, _ = segments(5, reference_config(model=Model.FULL_VDW))
        ((rows, drive),) = seg1.drives
        assert drive is seg1.hamiltonian.drive and rows == seg1.chains[0]

    @pytest.mark.parametrize("nus", [[0, 1], [3, 3], [2, 3, 2]])
    def test_bad_chain_sizes_rejected(self, nus):
        with pytest.raises(ValueError):
            ground_amplitudes(nus, reference_config(model=Model.PXP))

    def test_branch_energies_refuse_a_direct_sum(self):
        cfg = reference_config(model=Model.PXP)
        seg1, _ = _protocol_segments([ChainHamiltonian(Model.PXP, model_basis(Model.PXP, nu)) for nu in (2, 3)], cfg)
        psi = np.zeros((1, seg1.chains[-1].stop), dtype=complex)
        psi[0, 0] = 1.0
        with pytest.raises(ValueError, match="2 chains"):
            seg1.branch_energies(np.array([0.5]), psi)


def record_runs(monkeypatch):
    """Record (engines, renormalize) of every ``_run_segment`` call, with a
    single engine as a tuple of one."""
    runs = []
    real = evolution._run_segment

    def recording(engines, psi0, dt, n_steps, stride, renormalize):
        runs.append((engines if isinstance(engines, tuple) else (engines,), renormalize))
        return real(engines, psi0, dt, n_steps, stride, renormalize)

    monkeypatch.setattr(evolution, "_run_segment", recording)
    return runs


def decay_config(gamma_r, gamma_rp, **kwargs):
    cfg = reference_config(include_decay=True, **kwargs)
    return replace(cfg, decay=DecayConfig(gamma_r=gamma_r, gamma_rp=gamma_rp))


class TestTransposedPulse:
    """Pulse II run transposed, from its end, in the loop of pulse I: the
    transpose of an RK4 step of -iH (complex symmetric) is the same step
    with its stages in reverse time order."""

    DIM = 6

    def engine(self, reverse, rate=1.0):
        """A one-chain engine on a random real symmetric drive, with the
        decay and a time-dependent interaction in every column of a batch."""
        rng = np.random.default_rng(11)
        a = rng.normal(size=(self.DIM, self.DIM))
        ham = SimpleNamespace(drive=a + a.T, n_r=rng.uniform(0.0, 2.0, self.DIM), v=rng.normal(size=self.DIM))
        drift = rng.normal(size=self.DIM)

        def v_int_at(t_abs):  # (times, dim, batch)
            v = ham.v + 40.0 * drift * np.sin(3.0 * t_abs[:, None])
            return np.repeat(v[:, :, None], self.DIM, axis=2)

        pulse = PulseProfile(mhz(8.0), mhz(20.0), 0.4)
        return _SegmentEngine(
            [ham], pulse, gamma=mhz(1.0), v_int_fn=v_int_at, t_abs_start=0.3, rate=rate, reverse=reverse
        )

    @pytest.mark.parametrize("rate", [1.0, 0.6])
    def test_reversed_run_matrix_is_the_transpose(self, rate):
        fwd, rev = self.engine(False, rate), self.engine(True, rate)
        n = 400
        dt = fwd.pulse.tau / (rate * n)
        eye = np.eye(self.DIM, dtype=complex)
        # both runs as the stacked blocks of one state; each column of the
        # batch starts from a basis vector, so each block ends as its run's
        # matrix
        _, (final,) = _run_segment((fwd, rev), np.vstack([eye, eye]), dt, n, n, (False, False))
        m, m_rev = final[: self.DIM], final[self.DIM :]
        assert np.abs(m).max() > 0.1 and np.abs(m - np.eye(self.DIM)).max() > 0.1  # not the identity
        assert np.abs(m_rev - m.T).max() < 1e-13
        assert np.abs(m_rev - m).max() > 1e-3  # the test has a non-symmetric M to tell apart
        _, (alone,) = _run_segment(fwd, eye, dt, n, n, False)
        assert np.abs(m - alone).max() < 1e-14

    def test_reversed_tables_list_the_forward_evaluations_backwards(self):
        fwd, rev = self.engine(False, 0.6), self.engine(True, 0.6)
        for a, b in zip(fwd.tables(0.001, 50), rev.tables(0.001, 50)):
            assert np.array_equal(a[::-1], b)
        assert fwd.scales == (0.6,)

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("n_atoms", [3, 4, 5, 6, 7, 8])
    def test_decay_on_gate_matches_per_chain_runs(self, n_atoms, model, monkeypatch):
        # lambda = 1 is TestGroundAmplitudes::test_direct_sum_matches_per_chain_runs
        lam = 1.7
        cfg = reference_config(n_atoms=n_atoms, model=model, include_decay=True, gamma=mhz(0.05), lambda_ratio=lam)
        nus = [n_atoms - 2, n_atoms - 1, n_atoms]
        runs = record_runs(monkeypatch)
        amps = ground_amplitudes(nus, cfg)
        (engines, renormalize), = runs
        assert [e.reverse for e in engines] == [False, True] and renormalize == (False, False)
        assert engines[1].rate == 1.0 / lam
        for nu in nus:
            ref = run_protocol(nu, cfg, compute_phases=False).ground_amplitude()
            assert abs(amps[nu] - ref) < 1e-13

    @pytest.mark.parametrize("model,nu", [(Model.PXP, 5), (Model.FULL_VDW, 4)])
    def test_decay_free_pulse_one_is_normalised_in_the_joint_run(self, model, nu, monkeypatch):
        cfg = decay_config(0.0, mhz(0.05), model=model, lambda_ratio=1.7)
        runs = record_runs(monkeypatch)
        amps = ground_amplitudes([nu, nu + 1], cfg)
        (engines, renormalize), = runs
        assert len(engines) == 2 and renormalize == (True, False)
        for k in (nu, nu + 1):
            ref = run_protocol(k, cfg, compute_phases=False).ground_amplitude()
            assert abs(amps[k] - ref) < 1e-13
        # pulse II's decay is the only loss
        assert 0.0 < 1.0 - abs(amps[nu]) < 0.2

    @pytest.mark.parametrize("model,nu", [(Model.PXP, 5), (Model.FULL_VDW, 4)])
    def test_decay_free_pulse_two_runs_after_pulse_one(self, model, nu, monkeypatch):
        cfg = decay_config(mhz(0.05), 0.0, model=model)
        runs = record_runs(monkeypatch)
        amp = ground_amplitudes([nu], cfg)[nu]
        assert [(len(engines), norm) for engines, norm in runs] == [(1, False), (1, True)]
        assert amp == run_protocol(nu, cfg, compute_phases=False).ground_amplitude()

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_decay_on_tau_batch_matches_per_tau_runs(self, model, lam):
        cfg = reference_config(model=model, include_decay=True, gamma=mhz(0.05), lambda_ratio=lam)
        nus = [3, 4, 5]
        taus = [0.6, 1.3, 2.1]
        amps = tau_batch_amplitudes(nus, cfg, taus)
        for tau, row in zip(taus, amps):
            run_cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau), dt=None)
            ref = [run_protocol(nu, run_cfg, compute_phases=False).ground_amplitude() for nu in nus]
            assert np.abs(row - ref).max() < 1e-12

    @pytest.mark.parametrize("gamma_r,gamma_rp", [(1e6, mhz(0.05)), (0.0, 1e6)])
    def test_blow_up_in_either_half_raises(self, gamma_r, gamma_rp):
        # a decay rate far beyond RK4's stability bound at the default step
        cfg = decay_config(gamma_r, gamma_rp, model=Model.PXP)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PropagationError, match="non-finite"):
            ground_amplitudes([3, 4], cfg)


class TestTauBatch:
    """Pulse durations propagated as blocks of one direct-sum state on the
    step grid of the first, against one ``ground_amplitudes`` call per
    duration."""

    TAUS = [0.6, 1.3, 0.6, 2.1]  # the first duration again, as a scaled block

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_batch_matches_one_call_per_tau(self, model, include_decay, lam):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam)
        nus = [3, 4, 5]
        amps = tau_batch_amplitudes(nus, cfg, self.TAUS)
        assert amps.shape == (len(self.TAUS), len(nus))
        for tau, row in zip(self.TAUS, amps):
            ref = ground_amplitudes(nus, replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau), dt=None))
            assert np.abs(row - [ref[nu] for nu in nus]).max() < 1e-12

    def test_hermitian_blocks_each_keep_unit_norm(self):
        cfg = reference_config(model=Model.PXP)
        seg1, _, _, _, (_, states) = _propagate_protocol(_chain_hamiltonians([1, 2, 3], cfg), cfg, None, [1.0, 2.2, 0.7])
        assert len(seg1.chains) == 9
        for chain in seg1.chains:
            assert abs(np.linalg.norm(states[-1][chain]) - 1.0) < 1e-14

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_one_tau_batch_bitwise_equal_to_ground_amplitudes(self, model, include_decay):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), tau=0.8)
        amps = tau_batch_amplitudes([3, 4, 5], cfg, [0.8])
        ref = ground_amplitudes([3, 4, 5], cfg)
        assert amps[0].tolist() == [ref[nu] for nu in (3, 4, 5)]


class TestSectorPropagation:
    """Static chains propagated on the even sector against the same
    ``_run_segment`` on full-space engines, the path the sector replaced."""

    CASES = [(Model.PXP, nu) for nu in range(1, 10)] + [(Model.FULL_VDW, nu) for nu in range(1, 8)]

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model,nu", CASES)
    def test_sector_matches_full_space_path(self, model, nu, include_decay, lam):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam)
        run = run_protocol(nu, cfg, compute_phases=False)
        seg1, seg2 = full_segments(nu, cfg)
        n = _step_count(0.0, cfg.pulse.tau, cfg.dt)
        pulse = cfg.pulse
        h_scale = nu * (abs(pulse.delta0) + abs(pulse.omega0)) * max(1.0, lam) + np.abs(seg1.hamiltonian.v).max()
        stride = _default_stride(h_scale, cfg.dt, n)
        t1, s1 = _run_segment(seg1, full_ground(seg1.basis), cfg.dt, n, stride, not include_decay)
        t2, s2 = _run_segment(seg2, s1[-1], cfg.dt, n, stride, not include_decay)
        assert np.array_equal(run.trajectory.times, np.concatenate([[0.0], t1, pulse.tau + t2]))
        assert np.abs(run.trajectory.states[-1] - s2[-1]).max() < 1e-13

    @pytest.mark.parametrize("kind", ["1-D", "strided 1-D", "column batch", "Fortran batch", "strided batch"])
    def test_real_views_share_memory_with_the_state_rows(self, kind, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW)
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        rng = np.random.default_rng(3)
        wide = rng.normal(size=(ham.basis.dim, 6)) + 1j * rng.normal(size=(ham.basis.dim, 6))
        psi0 = {
            "1-D": wide[:, 0].copy(),
            "strided 1-D": wide[:, 0],
            "column batch": np.ascontiguousarray(wide[:, :3]),
            "Fortran batch": np.asfortranarray(wide[:, :3]),
            "strided batch": wide[:, ::2],
        }[kind]

        def v_int_at(t_abs):  # (times, dim, 3): the static interaction per column
            return np.broadcast_to(ham.v[:, None], (len(t_abs), ham.basis.dim, 3))

        engine = _SegmentEngine([ham], cfg.pulse, v_int_fn=v_int_at if psi0.ndim == 2 else None)
        views = []
        real = evolution._real

        def recording(rows):
            out = real(rows)
            views.append((rows, out))
            return out

        monkeypatch.setattr(evolution, "_real", recording)
        _run_segment(engine, psi0, cfg.dt, 20, 20, renormalize=True)
        assert len(views) == 4  # psi and y as sources, dy as destination, bound once per segment
        for rows, out in views:
            assert np.shares_memory(out, rows)
            assert out.dtype == np.float64 and out.shape == (len(rows), 2 * (rows.size // len(rows)))


class TestParityRoundtrip:
    @pytest.mark.parametrize("nu,sign", [(3, 1.0), (4, 1.0), (5, -1.0)])
    def test_overlap_phase_follows_excitation_parity(self, nu, sign):
        cfg = reference_config(model=Model.FULL_VDW)
        amp = parity_roundtrip_check(nu, cfg)
        assert abs(amp) ** 2 > 0.95
        target = 0.0 if sign > 0 else math.pi
        assert abs(wrap_phase(np.angle(amp) - target)) < 0.05


class TestConvergence:
    def test_rk4_order_between_8x_and_32x_per_halving(self):
        cfg = reference_config(model=Model.PXP)
        runs = {}
        for steps in (2000, 4000, 8000):
            c = replace(cfg, dt=cfg.pulse.tau / steps)
            runs[steps] = run_protocol(3, c, compute_phases=False).trajectory.states[-1]
        err_coarse = np.linalg.norm(runs[2000] - runs[4000])
        err_fine = np.linalg.norm(runs[4000] - runs[8000])
        assert 8.0 < err_coarse / err_fine < 32.0

    def test_pxp_nu5_return_matches_adaptive_integrator(self):
        # Independent check of the fixed-step RK4: an adaptive 8th-order
        # integrator on the same segment Hamiltonians must give the same
        # ground-state return (~0.968) and the parity phase pi.
        cfg = reference_config(model=Model.PXP)
        run = run_protocol(5, cfg, compute_phases=False)
        basis = run.trajectory.basis
        psi = full_ground(basis)
        for seg in segments(5, cfg):
            h_of_t = full_space_h(seg)
            sol = solve_ivp(
                lambda t, y: -1j * (h_of_t(t) @ y),
                (0.0, seg.pulse.tau), psi, method="DOP853", rtol=1e-10, atol=1e-12,
            )
            assert sol.success
            psi = sol.y[:, -1]
        amp = psi[basis.index(0)]
        assert abs(abs(amp) ** 2 - abs(run.ground_amplitude()) ** 2) < 1e-6
        assert abs(wrap_phase(np.angle(amp) - math.pi)) < 0.05

    def test_lambda_rescaled_second_pulse_reproduces_phases(self):
        for nu in (3, 4, 5):
            amp1 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=1.0))
            amp2 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=2.0))
            assert abs(wrap_phase(np.angle(amp2) - np.angle(amp1))) < 0.02
