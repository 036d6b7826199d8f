"""Propagator correctness and the two-pulse protocol dynamics."""

import math
import re
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from afmgate import evolution
from afmgate.basis import afm_manifold_masks, build_full_basis
from afmgate.config import DecayConfig, Model, PulseProfile, pulse_with_tau
from afmgate.errors import ConfigError, PropagationError
from afmgate.evolution import (
    DIAG_BLOCK_STEPS,
    STEPS_PER_PULSE,
    _default_stride,
    _dynamical_phase,
    _phases_from_samples,
    _branch_energies,
    _protocol_start,
    _pulse_one,
    _rk4_stable_dt,
    _run_segment,
    _run_split,
    _SegmentEngine,
    _split_tables,
    MERGED_DRIVE_ROWS,
    PHASE_SAMPLE_MARGIN,
    _chain_hamiltonians,
    _step_count,
    ground_amplitudes,
    parity_roundtrip_check,
    run_protocol,
    tau_batch_amplitudes,
)
from afmgate.hamiltonian import ChainHamiltonian, excitation_numbers, model_basis, pair_incidence, pair_sites
from afmgate.units import mhz

from conftest import reference_config, reference_pulse
from oracles import AfmMode, afm_analytic_spectrum, flipped_interaction, ground_amplitude, rescaled_pulse


def wrap_phase(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def physical_pulse_two(hams, cfg, v_int_fn=None):
    """Pulse II as the physics defines it, the oracle of the engine on pulse
    I's clock: the lambda-rescaled pulse at decay rate gamma_rp under the
    flipped interaction -lambda C6, on the even sectors of static chains;
    moving atoms keep their full bases and take pulse II's own per-trial
    interaction at absolute protocol times (``v_int_fn``, built from
    -lambda C6) at tau + t'.  It runs at the step dt / lambda."""
    lam, tau = cfg.interaction.lambda_ratio, cfg.pulse.tau
    gamma_2 = cfg.decay.gamma_rp if cfg.include_decay else 0.0
    if v_int_fn is None:
        hams = [ChainHamiltonian(h.model, h.basis, flipped_interaction(cfg.interaction)).sector() for h in hams]
    fn = None if v_int_fn is None else lambda t: v_int_fn(tau + t)
    return _SegmentEngine(hams, rescaled_pulse(cfg.pulse, lam), [(gamma_2, 1.0)], fn)


def segments(nu, cfg):
    """Pulse I's engine of a protocol on the even sector of the model's own
    basis (``_protocol_start``) and the physical pulse II
    (``physical_pulse_two``)."""
    hams = [ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)]
    return _protocol_start(hams, cfg)[0], physical_pulse_two(hams, cfg)


def protocol_final_state(hams, cfg, scales=(1.0,)):
    """Pulse I's engine of ``_protocol_start`` and the state (rows, scales)
    after both pulses, run one after the other at the split step of the
    final amplitudes, each pulse's engine with one column group per
    scale."""
    seg1, seg2, psi, _ = _protocol_start(hams, cfg)
    psi = np.repeat(psi[:, None, None], len(scales), axis=1)
    for seg in (seg1, seg2):
        ((gamma, _),) = seg.groups
        scaled = _SegmentEngine(seg.hamiltonians, seg.pulse, [(gamma, s) for s in scales], seg.v)
        _, (psi,) = _run_split(scaled, psi, cfg.pulse.tau / STEPS_PER_PULSE, STEPS_PER_PULSE, STEPS_PER_PULSE)
    return seg1, psi[:, :, 0]


def split_samples(nu, cfg):
    """The states of a chain's even sector after every split step of both
    pulses, one after the other, at the step of the final amplitudes."""
    seg1, seg2, psi, _ = _protocol_start(_chain_hamiltonians([nu], cfg), cfg)
    dt = cfg.pulse.tau / STEPS_PER_PULSE
    _, s1 = _run_split(seg1, psi, dt, STEPS_PER_PULSE, 1)
    _, s2 = _run_split(seg2, s1[-1], dt, STEPS_PER_PULSE, 1)
    return np.concatenate([s1, s2])


def sequential_amplitude(nu, cfg):
    """<0...0| M_II M_I |0...0> of one chain with both pulses run one after
    the other, as ``run_protocol`` runs them, at the split step of the final
    amplitudes (coarser than the step ``evolve`` takes).  ``final_amplitudes``
    runs pulse I alone (the mirror identity), so the two agree to round-off,
    which grows with the step count: 3.0e-13 for the PXP N = 3 gate at 500
    steps per pulse, 1.5e-13, 5.9e-13 and 1.2e-12 at 250, 1000 and 2000."""
    _, final = protocol_final_state(_chain_hamiltonians([nu], cfg), cfg)
    return final[0, 0]


def negated(interaction):
    """The interaction of pulse II on pulse I's clock: C6 -> -C6."""
    return replace(interaction, c6=-interaction.c6)


def full_segments(nu, cfg):
    """The two segment engines of a protocol on the model's full basis: the
    path the even-sector propagation replaced.  Pulse II runs on pulse I's
    clock: pulse I's pulse under the negated interaction at decay rate
    gamma_rp / lambda."""
    ham = ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)
    gamma_1, gamma_2 = (cfg.decay.gamma_r, cfg.decay.gamma_rp) if cfg.include_decay else (0.0, 0.0)
    lam = cfg.interaction.lambda_ratio
    return (
        _SegmentEngine([ham], cfg.pulse, [(gamma_1, 1.0)]),
        _SegmentEngine([ChainHamiltonian(ham.model, ham.basis, negated(cfg.interaction))], cfg.pulse, [(gamma_2 / lam, 1.0)]),
    )


def full_hamiltonian(ham):
    """The full-basis Hamiltonian of a chain or of its sector copy."""
    return ChainHamiltonian(ham.model, ham.basis, ham.interaction)


def full_space_h(seg):
    """H at local time t of a one-chain engine's pulse, from
    ``ChainHamiltonian.matrix`` on the chain's full basis plus the decay
    -i (Gamma / 2) n_r; t is clamped into the pulse window."""
    ham = full_hamiltonian(seg.hamiltonians[0])
    pulse = seg.pulse
    ((gamma, _),) = seg.groups

    def h_of_t(t):
        t = min(max(t, 0.0), pulse.tau)
        return ham.matrix(pulse.omega(t), pulse.delta(t)) - 0.5j * gamma * np.diag(ham.n_r)

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
        self.groups = ((0.0, 1.0),)
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
    n = _step_count(engine.pulse.tau, dt)
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
            _step_count(1.0, 0.3)

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
        sector = seg1.hamiltonians[0]
        n = _step_count(cfg.pulse.tau, cfg.dt)
        _, (fused,) = _run_segment(seg1, sector_ground(sector), cfg.dt, n, n, renormalize=False)
        plain = plain_rk4(full_space_h(seg1), full_ground(seg1.hamiltonians[0].basis), cfg.dt, n, renormalize=False)
        assert np.linalg.norm(plain) < 1.0
        assert np.abs(sector.u @ fused - plain).max() < 1e-12

    @pytest.mark.parametrize("nu", [3, 5])
    def test_single_hermitian_state_matches_renormalized_plain_rk4(self, nu):
        cfg = reference_config(model=Model.FULL_VDW)
        seg1, _ = segments(nu, cfg)
        sector = seg1.hamiltonians[0]
        n = _step_count(cfg.pulse.tau, cfg.dt)
        _, (fused,) = _run_segment(seg1, sector_ground(sector), cfg.dt, n, n, renormalize=True)
        plain = plain_rk4(full_space_h(seg1), full_ground(seg1.hamiltonians[0].basis), cfg.dt, n, renormalize=True)
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

        _, seg2 = _protocol_start([ham], cfg, v_int_at)[:2]
        ((gamma, _),) = seg2.groups
        dt = seg2.pulse.tau / 1000
        psi0 = np.zeros((basis.dim, 3), dtype=complex)
        psi0[0, :] = 1.0
        renormalize = not include_decay
        _, (fused,) = _run_segment(seg2, psi0, dt, 1000, 1000, renormalize)
        lam = cfg.interaction.lambda_ratio
        for col in range(3):

            def h_col(u):
                # pulse II at time u of pulse I's clock: pulse I's pulse
                # under the negated interaction at the protocol time
                # tau + u / lambda
                u = min(max(u, 0.0), seg2.pulse.tau)
                v_col = v_int_at(np.array([cfg.pulse.tau + u / lam]))[0, :, col]
                return ham.matrix(seg2.pulse.omega(u), seg2.pulse.delta(u)) + np.diag(
                    -v_col - ham.v - 0.5j * gamma * ham.n_r
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

        seg, _ = _protocol_start(hams, cfg, v_int_at)[:2]
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

        batch_seg, _ = _protocol_start([ham], cfg, v_int_at)[:2]
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
        psi0 = sector_ground(seg1.hamiltonians[0])
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
        basis = seg2.hamiltonians[0].basis
        dt = seg2.pulse.tau / self.N_STEPS
        calls = record_diagonals(seg2, monkeypatch)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[0] = 1.0
        _run_segment(seg2, psi0, dt, self.N_STEPS, self.N_STEPS, not include_decay)
        t_tab, _, dl = seg2.tables(dt, self.N_STEPS)
        check_block_coverage(calls, t_tab, self.N_STEPS)

        n_r = excitation_numbers(basis)
        v = vdw_diagonal(basis, negated(cfg.interaction))  # pulse II on pulse I's clock
        if include_decay:
            v = v - 0.5j * (cfg.decay.gamma_rp / cfg.interaction.lambda_ratio) * n_r
        for delta, d in zip(dl, np.concatenate([c[2] for c in calls])):
            assert np.array_equal(d, delta * (1j * n_r) + -1j * v)

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("include_decay", [False, True])
    def test_per_column_blocks_match_scalar_formula(self, include_decay, lam, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam)
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        basis, v0 = ham.basis, ham.v
        rates = np.array([0.0, 0.3, -0.2])

        def v_at(t_abs):  # scalar time -> (dim, 3)
            return v0[:, None] * (1.0 + rates[None, :] * t_abs)

        seen = []

        def v_int_at(t_abs):  # array of times -> (times, dim, 3)
            seen.append(t_abs)
            return np.stack([v_at(t) for t in t_abs])

        _, seg2 = _protocol_start([ham], cfg, v_int_at)[:2]
        dt = seg2.pulse.tau / self.N_STEPS
        calls = record_diagonals(seg2, monkeypatch)
        psi0 = np.zeros((basis.dim, 3), dtype=complex)
        psi0[0, :] = 1.0
        _run_segment(seg2, psi0, dt, self.N_STEPS, self.N_STEPS, not include_decay)
        t_tab, _, dl = seg2.tables(dt, self.N_STEPS)
        check_block_coverage(calls, t_tab, self.N_STEPS)
        # pulse II's engine runs on pulse I's clock u: the function sees the
        # protocol time tau + u / lambda
        assert np.array_equal(np.concatenate(seen), cfg.pulse.tau + t_tab / lam)

        n_r = excitation_numbers(basis)[:, None]
        decay = -0.5j * (cfg.decay.gamma_rp / lam) * n_r if include_decay else 0.0
        for t, delta, d in zip(t_tab, dl, np.concatenate([c[2] for c in calls])):
            # the negated interaction: -i (-v) = +i v
            scalar = delta * (1j * n_r) + 1j * v_at(cfg.pulse.tau + t / lam) - 1j * decay
            assert d.shape == (basis.dim, 3)
            assert np.abs(d - scalar).max() < 1e-12


class TestRk4StepBound:
    """``run_protocol`` refuses a step past RK4's stability bound on the
    chain (``_rk4_stable_dt``) and admits every default step."""

    @staticmethod
    def stable_dt(nu, cfg):
        return _rk4_stable_dt(_protocol_start(_chain_hamiltonians([nu], cfg), cfg)[0])

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_default_step_admitted_up_to_nu10(self, model):
        cfg = reference_config(model=model)
        for nu in range(1, 11):
            assert cfg.dt <= self.stable_dt(nu, cfg)

    def test_coarsest_legal_step_admitted_at_vdw_nu5(self):
        cfg = reference_config(model=Model.FULL_VDW, dt=0.001)
        assert cfg.dt <= self.stable_dt(5, cfg)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_bound_covers_the_spectrum_of_both_pulses(self, lam):
        # Gershgorin: dt |E| <= 2.8 for every eigenvalue of H along pulse I,
        # and (dt / lambda) |E| <= 2.8 along the physical pulse II, which
        # runs at the step dt / lambda
        cfg = reference_config(model=Model.FULL_VDW, lambda_ratio=lam)
        seg1, seg2 = segments(6, cfg)
        dt = _rk4_stable_dt(seg1)
        for seg, step in ((seg1, dt), (seg2, dt / lam)):
            t = np.linspace(0.0, seg.pulse.tau, 41)
            h = seg.hamiltonians[0].matrix(seg.pulse.omega(t), seg.pulse.delta(t)).real
            assert step * np.abs(np.linalg.eigvalsh(h)).max() <= evolution.RK4_STABLE_DT_RHO

    def test_unstable_step_refused_before_propagation(self, monkeypatch):
        monkeypatch.setattr(evolution, "_run_segment", None)  # never reached
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, dt=0.001)
        with pytest.raises(ConfigError, match=r"dt_us = 0\.001 .* need dt_us <= 0\.000779"):
            run_protocol(9, cfg)


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
        assert abs(wrap_phase(run.phases.phi_total[-1])) < 0.05

    def test_vdw_nu4_population_splits_over_bright_afm_pair(self):
        cfg = reference_config(model=Model.FULL_VDW)
        run = run_protocol(4, cfg)
        traj = run.trajectory
        i_tau = int(np.searchsorted(traj.times, cfg.pulse.tau))
        p_sum = traj.populations["afm"][i_tau] + traj.populations["afm_excited"][i_tau]
        assert p_sum > 0.95
        assert traj.populations["ground"][-1] > 0.98
        assert abs(wrap_phase(run.phases.phi_total[-1])) < 0.05

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

    @pytest.mark.parametrize("gamma_r,gamma_rp", [(mhz(0.05), 0.0), (0.0, mhz(0.05))])
    def test_one_sided_decay_norm_never_rises(self, gamma_r, gamma_rp):
        # a decay-free pulse after a lossy one keeps the norm it starts with
        run = run_protocol(3, decay_config(gamma_r, gamma_rp, tau=0.4), compute_phases=False)
        norms, times = run.trajectory.norms, run.trajectory.times
        boundary = norms[np.searchsorted(times, 0.4)]
        assert norms[-1] < 1.0 - 1e-3
        assert np.all(np.diff(norms) <= 1e-10)
        if gamma_rp == 0.0:
            assert abs(norms[-1] - boundary) < 1e-6
        else:
            assert abs(boundary - 1.0) < 1e-12

    def test_hermitian_norm_within_1e8(self):
        run = run_protocol(4, reference_config(model=Model.FULL_VDW), compute_phases=False)
        assert np.abs(run.trajectory.norms - 1.0).max() < 1e-8

    # per-step max |norm - 1| over both pulses: vdW nu = 3..7 and PXP
    # nu = 3, 5, 7, 9 (6.1e-13, 8.3e-13, 6.7e-13, 2.6e-13)
    @pytest.mark.parametrize(
        "model,nu", [(Model.FULL_VDW, nu) for nu in (3, 5, 7)] + [(Model.PXP, nu) for nu in (3, 5, 7, 9)]
    )
    def test_decay_free_split_drifts_below_1e12_without_renormalisation(self, model, nu):
        norms = np.linalg.norm(split_samples(nu, reference_config(model=model)), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("nu", [3, 5])
    def test_decay_on_split_norm_decays_monotonically(self, nu):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.05))
        norms = np.linalg.norm(split_samples(nu, cfg), axis=1)
        assert norms[-1] < 1.0 - 1e-3
        assert np.all(np.diff(norms) <= 1e-15)  # while nothing is excited, round-off


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

    energies = [
        np.array([energy_at(k, i) for i in range(lo, hi + 1)]) for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))
    ]
    phi_dyn = _dynamical_phase(traj.times, energies)
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
        assert abs(wrap_phase(run.phases.phi_total[-1] - math.pi)) < 0.02
        assert abs(run.phases.phi_dynamical[-1]) < 0.02
        assert abs(wrap_phase(float(run.phases.phi_geometric[-1]) - math.pi)) < 0.02

    def test_dynamical_phase_cancels_for_nu5(self):
        run = run_protocol(5, reference_config(model=Model.FULL_VDW))
        assert abs(run.phases.phi_dynamical[-1]) < 0.05
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
        phi = _dynamical_phase(times, energies)
        ref = np.zeros(len(times))
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            ref[lo : hi + 1] = ref[lo] + cumulative_trapezoid(energies[k], times[lo : hi + 1], initial=0.0)
        assert np.array_equal(phi, ref)

    def test_phase_decomposition_matches_protocol_record(self):
        # pulse II's full-space H from the physical pulse and interaction
        cfg = reference_config(model=Model.PXP)
        run = run_protocol(3, cfg)
        h1, h2 = (full_space_h(seg) for seg in segments(3, cfg))
        tau = cfg.pulse.tau

        def h_of_t(t):
            return h1(t) if t <= tau else h2(t - tau)

        rec = phase_decomposition(run.trajectory, h_of_t, boundaries=[tau])
        assert rec.phi_dynamical[-1] == pytest.approx(run.phases.phi_dynamical[-1], abs=2e-3)
        assert rec.phi_total[-1] == pytest.approx(run.phases.phi_total[-1], abs=1e-9)


def branch_energies(ham, pulse, t_local, states):
    """``_branch_energies`` with the eigenvalues of ``_eigenvalue_table`` at
    the same times."""
    return _branch_energies(ham, pulse, t_local, states, evolution._eigenvalue_table(ham, pulse, t_local))


def full_space_branch_energies(seg, t_local, *states):
    """The full-space formula the even-sector path replaced: eigh of the
    whole real H and, for each state, the eigenvalue of maximal overlap."""
    t = min(max(t_local, 0.0), seg.pulse.tau)
    w, v = np.linalg.eigh(full_hamiltonian(seg.hamiltonians[0]).matrix(seg.pulse.omega(t), seg.pulse.delta(t)))
    return [float(w[int(np.argmax(np.abs(v.conj().T @ psi)))]) for psi in states]


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
    both pulses of ``run_protocol(nu, cfg)``, pulse II's the physical one
    (``segments``); the boundary sample belongs to both."""
    times = run.trajectory.times
    tau = cfg.pulse.tau
    cut = int(np.searchsorted(times, tau))
    seg1, seg2 = segments(nu, cfg)
    return ((seg1, 0, cut, 0.0), (seg2, cut, len(times) - 1, tau))


def compared_samples(model, nu):
    """Every sample up to dim 34, every 8th on larger bases."""
    return 1 if model_basis(model, nu).dim <= 34 else 8


def full_space_references(model, nu):
    """For both decay settings, the ``run_protocol`` of a chain and the
    full-space branch energies (``full_space_branch_energies``) of its
    compared samples, per segment.  H has no decay and both runs share
    their sample times, so one full-space ``eigh`` per sample serves both."""
    every = compared_samples(model, nu)
    cfgs = {d: reference_config(model=model, include_decay=d, gamma=mhz(0.05)) for d in (False, True)}
    runs = {d: run_protocol(nu, cfg, compute_phases=every == 1) for d, cfg in cfgs.items()}
    times = runs[False].trajectory.times
    assert np.array_equal(times, runs[True].trajectory.times)
    refs = {d: [] for d in runs}
    for seg, lo, hi, start in segment_samples(runs[False], nu, cfgs[False]):
        rows = [
            full_space_branch_energies(seg, times[i] - start, *(runs[d].trajectory.states[i] for d in refs))
            for i in range(lo, hi + 1, every)
        ]
        for d, column in zip(refs, np.array(rows).T):
            refs[d].append(column)
    return {d: (runs[d], refs[d]) for d in runs}


@pytest.fixture(scope="module")
def branch_references():
    """``full_space_references`` of (model, nu), computed once for both decay
    settings; only the latest pair is kept."""
    cache = {}

    def get(model, nu):
        if (model, nu) not in cache:
            cache.clear()
            cache[model, nu] = full_space_references(model, nu)
        return cache[model, nu]

    return get


class TestEvenSectorBranchEnergies:
    """Branch energies on the inversion-even sector against the full-space
    formula.  Every sample is compared up to dim 34 (with the dynamical
    phase); larger bases compare every 8th sample, which still spans many
    eigensolve chunks."""

    CASES = [(Model.FULL_VDW, nu) for nu in range(1, 8)] + [(Model.PXP, nu) for nu in range(1, 10)]

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model,nu", CASES)
    def test_energies_match_full_space_eigh(self, model, nu, include_decay, branch_references):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05))
        every = compared_samples(model, nu)
        run, reference = branch_references(model, nu)[include_decay]
        traj = run.trajectory
        for (seg, lo, hi, start), ref in zip(segment_samples(run, nu, cfg), reference, strict=True):
            idx = np.arange(lo, hi + 1, every)
            states = traj.states[idx] @ seg.hamiltonians[0].u
            energies = branch_energies(seg.hamiltonians[0], seg.pulse, traj.times[idx] - start, states)
            assert np.abs(energies - ref).max() <= 1e-12 * np.abs(ref).max()
        if every == 1:
            phi = _dynamical_phase(traj.times, reference)
            assert np.abs(run.phases.phi_dynamical - phi).max() <= 1e-11

    def test_energies_independent_of_chunk_size(self, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW)
        run = run_protocol(5, cfg, compute_phases=False)
        traj = run.trajectory
        seg, lo, hi, start = segment_samples(run, 5, cfg)[0]
        idx = np.arange(lo, hi + 1, 13)
        states = traj.states[idx] @ seg.hamiltonians[0].u
        whole = branch_energies(seg.hamiltonians[0], seg.pulse, traj.times[idx] - start, states)
        monkeypatch.setattr(evolution, "PHASE_CHUNK_ENTRIES", 3 * 20**2)  # 3 samples per chunk
        assert len(idx) % 3 != 0
        chunked = branch_energies(seg.hamiltonians[0], seg.pulse, traj.times[idx] - start, states)
        assert np.array_equal(chunked, whole)

    def test_equal_mix_of_two_branches_falls_back_to_dense(self, monkeypatch):
        seg, _ = segments(5, reference_config(model=Model.FULL_VDW))
        t = 0.4 * seg.pulse.tau
        h = seg.hamiltonians[0].matrix(seg.pulse.omega(t), seg.pulse.delta(t))
        w, v = np.linalg.eigh(h)
        mix = (v[:, 2] + np.exp(0.7j) * v[:, 3]) / math.sqrt(2.0)
        dense = evolution._max_overlap_energies(h[None], mix[None])[0]
        rows = record_fallback(monkeypatch)
        states = np.array([np.exp(0.3j) * v[:, 2], mix])
        energies = branch_energies(seg.hamiltonians[0], seg.pulse, np.array([t, t]), states)
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
            states = traj.states[lo : hi + 1] @ seg.hamiltonians[0].u
            energies = branch_energies(seg.hamiltonians[0], seg.pulse, t, states)
            tc = np.clip(t, 0.0, seg.pulse.tau)
            h = np.array([seg.hamiltonians[0].matrix(o, d) for o, d in zip(seg.pulse.omega(tc), seg.pulse.delta(tc))])
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
                _protocol_start([ham], cfg)
        else:
            _protocol_start([ham], cfg)

    def test_broken_drive_symmetry_raises(self):
        cfg = reference_config(model=Model.PXP)
        ham = ChainHamiltonian(Model.PXP, model_basis(Model.PXP, 3))
        ham.drive = ham.drive.copy()
        ham.drive[0, ham.basis.index(0b001)] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="inversion"):
            ham.sector()


def mirror_config(model, lam, sigma):
    """The reference config at ``lam`` with the pulse width ``sigma`` (None:
    the default ratio)."""
    cfg = reference_config(model=model, lambda_ratio=lam)
    return replace(cfg, pulse=PulseProfile(cfg.pulse.omega0, cfg.pulse.delta0, cfg.pulse.tau, sigma))


def count_eigvalsh_rows(monkeypatch):
    """Matrices passed to ``np.linalg.eigvalsh``, one entry per call."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(h):
        rows.append(len(h))
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


def pulse_steps(run, cfg):
    """The integer steps after which pulse I stored its samples (0 first)
    and the step count of a pulse."""
    times = run.trajectory.times
    cut = int(np.searchsorted(times, cfg.pulse.tau))
    return np.rint(times[: cut + 1] / cfg.dt).astype(int), round(cfg.pulse.tau / cfg.dt)


class TestMirroredEigenvalues:
    """Pulse II retraces pulse I: H_II(t') = -lambda G H_I(tau - lambda t') G
    with G = diag((-1)^n_r), so the phase record reads both pulses'
    eigenvalues off one table of pulse I's.  lambda = 0.7 and 1.3 are not
    powers of 2, so their scaling rounds."""

    MIRROR_CASES = [(Model.FULL_VDW, 3), (Model.FULL_VDW, 6), (Model.PXP, 7)]

    @pytest.mark.parametrize("sigma", [None, 0.3])
    @pytest.mark.parametrize("lam", [0.7, 1.3])
    def test_pulse_is_even_and_detuning_odd_about_mid_pulse(self, lam, sigma):
        pulse = rescaled_pulse(mirror_config(Model.FULL_VDW, lam, sigma).pulse, lam)
        t = np.linspace(0.0, pulse.tau, 1001)
        assert np.abs(pulse.omega(pulse.tau - t) - pulse.omega(t)).max() <= 1e-14 * pulse.omega0
        assert np.abs(pulse.delta(pulse.tau - t) + pulse.delta(t)).max() <= 1e-14 * pulse.delta0

    @pytest.mark.parametrize("sigma", [None, 0.3])
    @pytest.mark.parametrize("lam", [0.7, 1.3])
    @pytest.mark.parametrize("model,nu", MIRROR_CASES)
    def test_pulse_two_spectra_are_pulse_one_mirrored(self, model, nu, lam, sigma):
        seg1, seg2 = segments(nu, mirror_config(model, lam, sigma))
        t2 = np.linspace(0.0, seg2.pulse.tau, 201)
        direct = evolution._eigenvalue_table(seg2.hamiltonians[0], seg2.pulse, t2)
        one = evolution._eigenvalue_table(seg1.hamiltonians[0], seg1.pulse, seg1.pulse.tau - lam * t2)
        assert np.abs(-lam * one[:, ::-1] - direct).max() <= 1e-14 * np.abs(direct).max()

    @pytest.mark.parametrize("sigma", [None, 0.3])
    @pytest.mark.parametrize("lam", [0.7, 1.3])
    @pytest.mark.parametrize("model,nu", MIRROR_CASES)
    def test_table_rows_match_each_pulses_own_eigenvalues(self, model, nu, lam, sigma):
        # pulse I's rows at its samples' own times; pulse II's, at the
        # mirrored times, are its physical eigenvalues as -lambda times the
        # reversed rows
        cfg = mirror_config(model, lam, sigma)
        run = run_protocol(nu, cfg, compute_phases=False)
        times = run.trajectory.times
        stride = int(np.diff(pulse_steps(run, cfg)[0])[0])
        rows = evolution._mirrored_eigenvalues(segments(nu, cfg)[0], cfg.dt, round(cfg.pulse.tau / cfg.dt), stride)
        (seg1, lo1, hi1, _), (seg2, lo2, hi2, start) = segment_samples(run, nu, cfg)
        (t_one, w_one), (t_two, w_two) = rows
        assert np.array_equal(t_one, times[lo1 : hi1 + 1])
        direct = evolution._eigenvalue_table(seg1.hamiltonians[0], seg1.pulse, t_one)
        assert np.abs(w_one - direct).max() <= 1e-14 * np.abs(direct).max()
        local = times[lo2 : hi2 + 1] - start
        assert np.abs(t_two - (cfg.pulse.tau - lam * local)).max() <= 1e-14
        direct = evolution._eigenvalue_table(seg2.hamiltonians[0], seg2.pulse, local)
        assert np.abs(-lam * w_two[:, ::-1] - direct).max() <= 1e-14 * np.abs(direct).max()

    def test_reference_config_solves_one_pulse_of_matrices(self, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW)
        rows = count_eigvalsh_rows(monkeypatch)
        run = run_protocol(5, cfg)
        assert len(run.trajectory.times) == 8001
        assert sum(rows) == 4001

    def test_stride_not_dividing_the_steps_solves_the_union(self, monkeypatch):
        cfg = reference_config(model=Model.PXP)
        rows = count_eigvalsh_rows(monkeypatch)
        run = run_protocol(5, cfg)
        a, n = pulse_steps(run, cfg)
        union = np.union1d(a, n - a)
        assert len(a) < len(union) < 2 * len(a)  # the stride does not divide n
        assert sum(rows) == len(union)

    @pytest.mark.parametrize("model,nu", [(Model.FULL_VDW, 5), (Model.PXP, 5)])
    def test_dynamical_phase_matches_per_pulse_eigenvalues(self, model, nu):
        cfg = reference_config(model=model, lambda_ratio=0.7)
        run = run_protocol(nu, cfg)
        traj = run.trajectory
        samples = segment_samples(run, nu, cfg)
        direct = _dynamical_phase(
            traj.times,
            [
                branch_energies(
                    seg.hamiltonians[0], seg.pulse, traj.times[lo : hi + 1] - start,
                    traj.states[lo : hi + 1] @ seg.hamiltonians[0].u,
                )
                for seg, lo, hi, start in samples
            ],
        )
        assert np.abs(run.phases.phi_dynamical - direct).max() <= 1e-11


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
            assert abs(amps[nu] - sequential_amplitude(nu, cfg)) < 1e-12

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model,nu", [(Model.PXP, 5), (Model.FULL_VDW, 4)])
    def test_single_chain_matches_its_split_run(self, model, nu, include_decay):
        # pulse I alone by the mirror identity against pulse II's own split
        # steps after pulse I: two computations, equal to round-off
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05))
        assert abs(ground_amplitudes([nu], cfg)[nu] - sequential_amplitude(nu, cfg)) < 1e-12

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_final_amplitudes_agree_with_rk4_run_protocol(self, n_atoms):
        # the two steppers at their own steps: split at tau / 500, RK4 at
        # tau / 4000, whose own error is 2.3e-7 to 1.35e-5 here
        cfg = reference_config(n_atoms=n_atoms, include_decay=True)
        nus = [n_atoms - 2, n_atoms - 1, n_atoms]
        amps = ground_amplitudes(nus, cfg)
        for nu in nus:
            assert abs(amps[nu] - ground_amplitude(run_protocol(nu, cfg, compute_phases=False))) < 2e-5

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_hermitian_blocks_each_keep_unit_norm(self, model):
        cfg = reference_config(model=model)
        seg1, final = protocol_final_state(_chain_hamiltonians([3, 4, 5], cfg), cfg)
        assert len(seg1.chains) == 3 and seg1.chains[-1].stop == len(final)
        # unitary steps, no renormalisation: rounding drifts the norm by
        # about 1e-16 per drive exponential
        for chain in seg1.chains:
            assert abs(np.linalg.norm(final[chain]) - 1.0) < 1e-12

    @pytest.mark.parametrize("n_atoms,rows", [(3, [11]), (5, [36]), (6, [30, 36]), (7, [56, 72]), (8, [36, 72, 136])])
    def test_drive_products_merge_blocks_up_to_the_row_limit(self, n_atoms, rows):
        # vdW even sectors: 2 + 3 + 6 rows at N = 3, 6 + 10 + 20 at N = 5,
        # 10 + 20 + 36 at N = 6, 20 + 36 + 72 at N = 7, 36 + 72 + 136 at N = 8
        assert MERGED_DRIVE_ROWS == 64
        cfg = reference_config(model=Model.FULL_VDW)
        hams = [ChainHamiltonian(Model.FULL_VDW, build_full_basis(nu), cfg.interaction) for nu in range(n_atoms - 2, n_atoms + 1)]
        for seg in _protocol_start(hams, cfg)[:2]:
            assert [m.shape[0] for _, m in seg.drives] == rows
            merged = np.zeros((seg.chains[-1].stop,) * 2)
            for c, m in seg.drives:
                merged[c, c] = m
            for chain, h in zip(seg.chains, seg.hamiltonians):
                assert np.array_equal(merged[chain, chain], h.drive)
                merged[chain, chain] = 0.0
            assert not merged.any()  # nothing off the chain blocks

    @pytest.mark.parametrize("n_atoms", [5, 7])
    def test_merged_blocks_bitwise_equal_to_scipy_block_diag(self, n_atoms, monkeypatch):
        from scipy.linalg import block_diag

        cfg = reference_config(model=Model.FULL_VDW)
        hams = _chain_hamiltonians([n_atoms - 2, n_atoms - 1, n_atoms], cfg)
        ours = _protocol_start(hams, cfg)[:2]
        monkeypatch.setattr(evolution, "_block_diag", block_diag)
        ref = _protocol_start(hams, cfg)[:2]
        for a, b in zip(ours, ref):
            assert len(a.drives) < len(a.chains)  # at least one merged product
            for (ca, ma), (cb, mb) in zip(a.drives, b.drives, strict=True):
                assert ca == cb and ma.dtype == mb.dtype and ma.tobytes() == mb.tobytes()
            for (ca, wa), (cb, wb) in zip(a.eigenbases, b.eigenbases, strict=True):
                assert ca == cb and wa.dtype == wb.dtype and wa.shape == wb.shape and wa.tobytes() == wb.tobytes()
            for la, lb in zip(a.drive_levels, b.drive_levels, strict=True):
                assert np.array_equal(la, lb)

    def test_one_chain_engine_keeps_its_own_drive(self):
        seg1, _ = segments(5, reference_config(model=Model.FULL_VDW))
        ((rows, drive),) = seg1.drives
        assert drive is seg1.hamiltonians[0].drive and rows == seg1.chains[0]

    @pytest.mark.parametrize("nus", [[0, 1], [3, 3], [2, 3, 2]])
    def test_bad_chain_sizes_rejected(self, nus):
        with pytest.raises(ValueError):
            ground_amplitudes(nus, reference_config(model=Model.PXP))


def record_runs(monkeypatch):
    """Record (engine, final state) of every ``_run_split`` call."""
    runs = []
    real = evolution._run_split

    def recording(engine, psi0, dt, n_steps, stride):
        times, samples = real(engine, psi0, dt, n_steps, stride)
        runs.append((engine, samples[-1]))
        return times, samples

    monkeypatch.setattr(evolution, "_run_split", recording)
    return runs


def decay_config(gamma_r, gamma_rp, **kwargs):
    cfg = reference_config(include_decay=True, **kwargs)
    return replace(cfg, decay=DecayConfig(gamma_r=gamma_r, gamma_rp=gamma_rp))


def random_engine(*gammas):
    """A one-chain engine on a random real symmetric drive of 6 rows, with
    non-integer excitation numbers, a static interaction and one column
    group per decay rate in ``gammas``."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    ham = SimpleNamespace(drive=a + a.T, n_r=rng.uniform(0.0, 2.0, 6), v=rng.normal(size=6))
    return _SegmentEngine([ham], PulseProfile(mhz(8.0), mhz(20.0), 0.4), [(g, 1.0) for g in gammas])


def split_propagator(engine, dt, n_steps):
    """The matrix of ``n_steps`` split steps of ``engine``: its run on the
    columns of the identity."""
    _, (m,) = _run_split(engine, np.eye(engine.chains[-1].stop, dtype=complex), dt, n_steps, n_steps)
    return m


class TestMirrorIdentity:
    """Pulse II retraces pulse I: M_II = G M_I[gamma_rp / lambda]^dagger G
    with G = diag((-1)^n_r), so ``final_amplitudes`` takes a gate's
    amplitudes <c'| G |c> from pulse I's split alone, c at gamma_r and c' at
    gamma_rp / lambda (a second column group only when that rate differs)."""

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("lam", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("nu", [3, 4, 5, 6])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_pulse_two_split_is_the_mirrored_adjoint_of_pulse_one(self, model, nu, lam, include_decay):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam)
        hams = _chain_hamiltonians([nu], cfg)
        _, seg2, _, _ = _protocol_start(hams, cfg)
        mirror, _ = _pulse_one(hams, cfg, [cfg.decay.gamma_rp / lam if include_decay else 0.0])
        dt = cfg.pulse.tau / STEPS_PER_PULSE
        m2 = split_propagator(seg2, dt, STEPS_PER_PULSE)
        m1 = split_propagator(mirror, dt, STEPS_PER_PULSE)
        g = 1.0 - 2.0 * (mirror.hamiltonians[0].n_r % 2)
        assert np.abs(m2 - g[:, None] * m1.conj().T * g).max() < 1e-12
        # the identity tells the adjoint from the transpose, and M_II is far
        # from the identity matrix
        assert np.abs(m2 - g[:, None] * m1.T * g).max() > 1e-3
        assert np.abs(m2 - np.eye(len(g))).max() > 0.1

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_decay_free_amplitudes_are_real_and_independent_of_lambda(self, model):
        nus = [3, 4, 5, 6, 7]
        amps = [ground_amplitudes(nus, reference_config(model=model, lambda_ratio=lam)) for lam in (0.7, 1.0, 1.3)]
        for a in amps:
            assert max(abs(a[nu].imag) for nu in nus) < 1e-12
            assert min(abs(a[nu]) for nu in nus) > 0.5
            assert max(abs(a[nu] - amps[1][nu]) for nu in nus) < 1e-12

    @pytest.mark.parametrize(
        "include_decay,lam,rates", [(False, 1.7, [0.0]), (True, 1.0, [1.0]), (True, 1.7, [1.0, 1.0 / 1.7])]
    )
    def test_second_column_group_only_for_unequal_rates(self, include_decay, lam, rates, monkeypatch):
        gamma = mhz(0.05)
        cfg = reference_config(model=Model.PXP, include_decay=include_decay, gamma=gamma, lambda_ratio=lam)
        runs = record_runs(monkeypatch)
        ground_amplitudes([3, 4], cfg)
        (engine, final), = runs
        assert engine.groups == tuple((gamma * r, 1.0) for r in rates)
        assert engine.pulse == cfg.pulse
        assert final.shape == (engine.chains[-1].stop, len(rates), 1)

    def test_two_rate_groups_of_one_engine_equal_each_rate_alone(self):
        # the two decay rates of unequal-rate gates, gamma and gamma / 1.7:
        # one run holding both column groups gives each rate's run alone,
        # bit for bit
        gamma = mhz(1.0)
        both_rates = random_engine(gamma, gamma / 1.7)
        n = 100
        dt = both_rates.pulse.tau / n
        eye = np.eye(6, dtype=complex)
        _, (both,) = _run_split(both_rates, np.stack([eye, eye], axis=1), dt, n, n)
        for k, g in enumerate((gamma, gamma / 1.7)):
            assert np.array_equal(both[:, k], split_propagator(random_engine(g), dt, n))
        assert np.abs(both[:, 0] - both[:, 1]).max() > 1e-3  # the rates tell the groups apart

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("n_atoms", [3, 4, 5, 6, 7, 8])
    def test_decay_on_gate_matches_per_chain_runs(self, n_atoms, model):
        # lambda = 1 is TestGroundAmplitudes::test_direct_sum_matches_per_chain_runs
        cfg = reference_config(n_atoms=n_atoms, model=model, include_decay=True, gamma=mhz(0.05), lambda_ratio=1.7)
        nus = [n_atoms - 2, n_atoms - 1, n_atoms]
        amps = ground_amplitudes(nus, cfg)
        for nu in nus:
            assert abs(amps[nu] - sequential_amplitude(nu, cfg)) < 1e-12

    # the loss bound of each side: at PXP nu = 5 pulse II loses 0.14 and
    # pulse I, 1.7 times longer, 0.22
    @pytest.mark.parametrize("gamma_r,gamma_rp,max_loss", [(0.0, mhz(0.05), 0.2), (mhz(0.05), 0.0, 0.25)])
    @pytest.mark.parametrize("model,nu", [(Model.PXP, 5), (Model.FULL_VDW, 4)])
    def test_one_sided_decay_matches_sequential_pulses(self, model, nu, gamma_r, gamma_rp, max_loss, monkeypatch):
        lam = 1.7
        cfg = decay_config(gamma_r, gamma_rp, model=model, lambda_ratio=lam)
        runs = record_runs(monkeypatch)
        amps = ground_amplitudes([nu, nu + 1], cfg)
        (engine, final), = runs
        assert engine.groups == ((gamma_r, 1.0), (gamma_rp / lam, 1.0))
        # a decay-free split step is unitary: the decay-free group keeps
        # each block's norm with no renormalisation
        lossless = [g for g, _ in engine.groups].index(0.0)
        for chain in engine.chains:
            assert abs(np.linalg.norm(final[chain, lossless]) - 1.0) < 1e-12
        for k in (nu, nu + 1):
            assert abs(amps[k] - sequential_amplitude(k, cfg)) < 1e-12
        # one pulse's decay is the only loss
        assert 0.0 < 1.0 - abs(amps[nu]) < max_loss

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_decay_on_tau_batch_matches_per_tau_runs(self, model, lam):
        cfg = reference_config(model=model, include_decay=True, gamma=mhz(0.05), lambda_ratio=lam)
        nus = [3, 4, 5]
        taus = [0.6, 1.3, 2.1]
        amps = tau_batch_amplitudes(nus, cfg, taus)
        for tau, row in zip(taus, amps):
            run_cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau))
            ref = [sequential_amplitude(nu, run_cfg) for nu in nus]
            assert np.abs(row - ref).max() < 1e-12

    @pytest.mark.parametrize("gamma_r,gamma_rp", [(1e6, mhz(0.05)), (0.0, 1e6)])
    def test_blow_up_at_either_rate_raises(self, gamma_r, gamma_rp):
        # a decay rate far beyond what the split's backward substeps
        # (w0 < 0) hold: each grows the excited rows by exp(Gamma/2 * 0.18 h)
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
            ref = ground_amplitudes(nus, replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau)))
            assert np.abs(row - [ref[nu] for nu in nus]).max() < 1e-12

    def test_hermitian_blocks_each_keep_unit_norm(self):
        cfg = reference_config(model=Model.PXP)
        seg1, final = protocol_final_state(_chain_hamiltonians([1, 2, 3], cfg), cfg, [1.0, 2.2, 0.7])
        assert len(seg1.chains) == 3 and final.shape == (seg1.chains[-1].stop, 3)
        # unitary steps, no renormalisation: rounding drifts the norm by
        # about 1e-16 per drive exponential (1.1e-12 here)
        for chain in seg1.chains:
            assert np.abs(np.linalg.norm(final[chain], axis=0) - 1.0).max() < 2e-12

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_one_tau_batch_bitwise_equal_to_ground_amplitudes(self, model, include_decay):
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), tau=0.8)
        amps = tau_batch_amplitudes([3, 4, 5], cfg, [0.8])
        ref = ground_amplitudes([3, 4, 5], cfg)
        assert amps[0].tolist() == [ref[nu] for nu in (3, 4, 5)]


def direct_split_tables(engine, dt, n_steps, steps):
    """The diagonal factors (len(steps), 6, rows, groups), tails
    (len(steps), rows, groups) and drive phases (len(steps), 6, rows,
    groups) of the split steps ``steps`` of ``engine`` as one np.exp per
    row, node and column group: the full diagonal of -iH,
    (-Gamma/2 + i Delta) n_r - i v with each group's decay rate Gamma, at
    each factor's midpoint times its span of ``STEP_A`` times dt and the
    group's scale (the first factor of a step merges the previous step's
    tail; the segment's first starts at its first node), and every
    eigenvalue of the drives from ``eigh``."""
    a = dt * np.array(evolution.STEP_A)
    spans = np.tile(np.r_[a[0] + a[6], a[1:6], a[6]], (n_steps, 1))
    spans[0, 0] = a[0]
    spans = spans[steps]
    s = np.concatenate([np.linalg.eigh(h.drive)[0] for h in engine.hamiltonians])
    n_r = np.concatenate([h.n_r for h in engine.hamiltonians])
    u, omega = engine.nodes(dt, n_steps)
    local = np.clip(u, 0.0, engine.pulse.tau)
    starts = np.column_stack([np.r_[local[0, 0], local[:-1, -2]], local[:, 1:-1]])
    delta = engine.pulse.delta((0.5 * (starts + local[:, 1:]))[steps])
    diags, phases = [], []
    for gamma, scale in engine.groups:
        d = (1j * delta[..., None] - 0.5 * gamma) * n_r - 1j * engine.v
        diags.append(np.exp(d * (scale * spans)[..., None]))
        theta = scale * evolution.DRIVE_WEIGHTS * dt * omega[steps]
        phases.append(np.exp(-1j * theta[..., None] * s))
    diag = np.stack(diags, axis=-1)
    return diag[:, :6], diag[:, 6], np.stack(phases, axis=-1)


class TestSplitTables:
    """The split's diagonal factors and drive phases, built from per-level
    phases, against one np.exp per row, node and column group."""

    def assert_tables_match(self, engine, dt, n_steps):
        factors, tails = _split_tables(engine, dt, n_steps)
        for lo in range(0, n_steps, DIAG_BLOCK_STEPS):
            hi = min(lo + DIAG_BLOCK_STEPS, n_steps)
            ref_diag, ref_tail, ref_phases = direct_split_tables(engine, dt, n_steps, np.arange(lo, hi))
            diag, phases = factors(lo, hi)
            assert diag.shape == ref_diag.shape + (1,) and phases.shape == diag.shape
            assert np.abs(diag[..., 0] - ref_diag).max() < 1e-14
            assert np.abs(phases[..., 0] - ref_phases).max() < 1e-14
            steps = np.arange(lo, hi, 3)
            assert np.abs(tails(steps)[..., 0] - ref_tail[::3]).max() < 1e-14

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("n_atoms", [3, 4, 5, 6, 7, 8])
    def test_gate_tables_match_direct_exponentials(self, n_atoms, model, include_decay):
        # pulse I at the two decay rates of the mirror identity, gamma_r and
        # gamma_rp / lambda, each with three tau-batch scales
        lam = 1.7
        gamma = mhz(0.05) if include_decay else 0.0
        cfg = reference_config(model=model, lambda_ratio=lam)
        hams = _chain_hamiltonians([n_atoms - 2, n_atoms - 1, n_atoms], cfg)
        engine, _ = _pulse_one(hams, cfg, (gamma, gamma / lam), (0.5, 1.0, 2.0))
        assert engine.groups == tuple((g, s) for g in (gamma, gamma / lam) for s in (0.5, 1.0, 2.0))
        assert STEPS_PER_PULSE % DIAG_BLOCK_STEPS  # the last block is partial
        self.assert_tables_match(engine, cfg.pulse.tau / STEPS_PER_PULSE, STEPS_PER_PULSE)

    def test_random_engine_tables_match_direct_exponentials(self):
        # non-integer n_r and no repeated eigenvalue: one level per row
        engine = random_engine(mhz(1.0), mhz(0.4))
        levels, index = engine.drive_levels
        assert len(levels) == 6 and np.array_equal(index, np.arange(6))
        assert len(np.unique(engine.hamiltonians[0].n_r)) == 6
        n = 100
        self.assert_tables_match(engine, engine.pulse.tau / n, n)

    def test_split_nodes_follow_the_diagonal_coefficients(self):
        u, omega = random_engine(0.0).nodes(0.001, 50)
        # a step's drive nodes follow the diagonal coefficients a: each sits
        # where the diagonal factors before it end
        a = np.diff(u[:, :-1], axis=1) / 0.001
        assert np.allclose(a, np.r_[evolution.SPLIT_A, 1.0 - 2.0 * sum(evolution.SPLIT_A), evolution.SPLIT_A[:0:-1]])
        assert u[0, 0] == 0.0 and u[-1, -1] == pytest.approx(50 * 0.001)
        assert omega.shape == (50, 6)

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("n_atoms", [3, 5, 7, 8])
    def test_chain_levels_bitwise_the_same_alone_and_in_a_direct_sum(self, n_atoms, model):
        cfg = reference_config(model=model)
        hams = [h.sector() for h in _chain_hamiltonians([n_atoms - 2, n_atoms - 1, n_atoms], cfg)]
        direct_sum = _SegmentEngine(hams, cfg.pulse)
        levels, index = direct_sum.drive_levels
        for chain, h in zip(direct_sum.chains, hams):
            alone, alone_index = _SegmentEngine([h], cfg.pulse).drive_levels
            assert levels[index[chain]].tobytes() == alone[alone_index].tobytes()
            assert len(np.unique(index[chain])) == len(alone)

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("nu", [3, 6, 7, 8, 10])
    def test_levels_move_only_clustered_eigenvalues(self, model, nu):
        (h,) = [h.sector() for h in _chain_hamiltonians([nu], reference_config(model=model))]
        s = np.linalg.eigh(h.drive)[0]
        levels, index = _SegmentEngine([h], reference_pulse()).drive_levels
        ulp = np.spacing(np.abs(s).max())
        assert np.abs(levels[index] - s).max() <= evolution.SAME_LEVEL_ULPS * ulp  # 6 ulps at most
        alone = np.bincount(index) == 1
        assert np.array_equal(levels[alone], s[alone[index]])  # never moved
        if model is Model.FULL_VDW:
            # the sector drive is a sum of sigma_x / 2: levels -nu/2 .. nu/2
            assert np.abs(levels - (np.arange(nu + 1) - nu / 2)).max() < 1e-12

    def test_gate_tables_take_few_levels(self):
        cfg = reference_config(model=Model.FULL_VDW)
        seg1, _ = _protocol_start(_chain_hamiltonians([5, 6, 7], cfg), cfg)[:2]
        levels, index = seg1.drive_levels
        assert len(index) == 128 and len(levels) == 21

    @pytest.mark.parametrize(
        "run,limit",
        [
            # 2.7 MB at DIAG_BLOCK_STEPS = 16 with pulse I alone (4.3 MB
            # with pulse II as a second column group, 6.7 MB with one
            # exponential per row, node and column group)
            (lambda cfg: ground_amplitudes([6, 7, 8], cfg), 6.7),
            # 4.6 MB (9.2 MB, 15.9 MB): two block tables of 12 column groups
            (lambda cfg: tau_batch_amplitudes([7], cfg, np.linspace(0.5, 3.0, 12)), 15.9),
        ],
        ids=["gate", "tau_batch"],
    )
    def test_split_tables_stay_small(self, run, limit):
        cfg = reference_config(n_atoms=8, include_decay=True)
        run(cfg)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20


class TestPulseTwoInteraction:
    """Pulse II's engine of a static chain is pulse I's chains under the
    interaction input -v: one sector per chain, and RK4 engines of one
    column group at scale 1."""

    def test_run_protocol_builds_one_sector_per_chain(self, monkeypatch):
        calls = []
        real = ChainHamiltonian.sector

        def counting(self, odd=False):
            calls.append(odd)
            return real(self, odd)

        monkeypatch.setattr(ChainHamiltonian, "sector", counting)
        run_protocol(5, reference_config(model=Model.FULL_VDW))
        assert calls == [False]

    @pytest.mark.parametrize("lam", [0.7, 1.0, 1.7])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_pulse_two_negates_the_sector_diagonal(self, model, lam):
        # -v of pulse I's sector is the even-sector v of the chain under the
        # negated interaction C6 -> -C6, which pulse II took before
        cfg = reference_config(model=model, lambda_ratio=lam)
        for nu in range(1, 9):
            (ham,) = hams = _chain_hamiltonians([nu], cfg)
            seg1, seg2, _, _ = _protocol_start(hams, cfg)
            assert seg2.v.tobytes() == (-seg1.v).tobytes()
            assert all(a is b for a, b in zip(seg1.hamiltonians, seg2.hamiltonians, strict=True))
            assert np.array_equal(seg2.v, ChainHamiltonian(model, ham.basis, negated(cfg.interaction)).sector().v)

    @pytest.mark.parametrize("groups", [[(0.0, 2.0)], [(0.0, 1.0), (0.1, 1.0)]])
    def test_rk4_refuses_other_column_groups(self, groups):
        cfg = reference_config(model=Model.PXP)
        sector = _chain_hamiltonians([3], cfg)[0].sector()
        with pytest.raises(ValueError, match="one column group at scale 1"):
            _run_segment(_SegmentEngine([sector], cfg.pulse, groups), sector_ground(sector), cfg.dt, 10, 10, True)


class TestPulseTwoClock:
    """Pulse II's RK4 engine of ``_protocol_start`` runs on pulse I's clock
    at the step dt; the physical pulse II (``physical_pulse_two``) runs at
    dt / lambda.  Both start from pulse I's final state and must agree
    within 1e-13, bit for bit at lambda = 1."""

    @staticmethod
    def assert_same(lam, seg1, seg2, physical, psi, dt, n, stride):
        _, (start,) = _run_segment(seg1, psi, dt, n, n, False)
        t_clock, clock = _run_segment(seg2, start, dt, n, stride, False)
        t_phys, phys = _run_segment(physical, start, dt / lam, n, stride, False)
        assert len(clock) > 4 and np.abs(clock[-1] - start).max() > 0.1  # pulse II moves the state
        if lam == 1.0:
            assert t_clock.tobytes() == t_phys.tobytes() and clock.tobytes() == phys.tobytes()
        else:
            assert np.abs(t_clock / lam - t_phys).max() <= 1e-15
            assert np.abs(clock - phys).max() < 1e-13

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("lam", [0.7, 1.0, 1.3, 1.7])
    @pytest.mark.parametrize("nu", [3, 4, 5, 6])
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_static_chain_matches_the_physical_pulse(self, model, nu, lam, include_decay):
        # the coarsest legal step, within RK4's bound up to nu = 6
        cfg = reference_config(model=model, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam, dt=0.001)
        hams = _chain_hamiltonians([nu], cfg)
        seg1, seg2, psi, n = _protocol_start(hams, cfg)
        assert cfg.dt <= _rk4_stable_dt(seg1)
        self.assert_same(lam, seg1, seg2, physical_pulse_two(hams, cfg), psi, cfg.dt, n, 200)

    @pytest.mark.parametrize("include_decay", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 1.7])
    def test_moving_atoms_match_the_physical_pulse(self, lam, include_decay):
        # three trials of four moving atoms; pulse II's physical interaction
        # is its own per-trial function of -lambda C6 at tau + t'
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05), lambda_ratio=lam)
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(4), cfg.interaction)
        rng = np.random.default_rng(7)
        x0 = cfg.chain.spacing * np.arange(4) + rng.normal(0.0, 0.02, (3, 4))
        v = rng.normal(0.0, 0.1, (3, 4))
        pairs = pair_sites(4, cfg.interaction.range_cutoff)
        incidence = pair_incidence(ham.basis.masks, pairs)
        i, j = np.array(pairs).T
        d0, dv = (x0[:, j] - x0[:, i]).T, (v[:, j] - v[:, i]).T  # (pairs, trials)

        def v_int_at(c6, t_abs):
            return incidence @ (c6 / (d0 + dv * t_abs[:, None, None]) ** 6)

        c6 = cfg.interaction.c6
        seg1, seg2, psi, n = _protocol_start([ham], cfg, partial(v_int_at, c6))
        physical = physical_pulse_two([ham], cfg, partial(v_int_at, -lam * c6))
        psi = np.repeat(psi[:, None], 3, axis=1)
        self.assert_same(lam, seg1, seg2, physical, psi, cfg.dt, n, 500)

    @pytest.mark.parametrize("nu", [5, 7])
    def test_sample_stride_does_not_depend_on_lambda(self, nu):
        # on pulse I's clock pulse II's samples span pulse I's steps, and its
        # branch energy -lambda E over a physical step dt / lambda takes
        # pulse I's phase step: the stride and the per-sample phase
        # increments of lambda = 1.7 are those of lambda = 1
        cfgs = {lam: reference_config(model=Model.PXP, lambda_ratio=lam) for lam in (1.0, 1.7)}
        runs = {lam: run_protocol(nu, cfg) for lam, cfg in cfgs.items()}
        steps, steps_lam = (pulse_steps(runs[lam], cfgs[lam])[0] for lam in (1.0, 1.7))
        assert steps[1] > 1
        assert np.array_equal(steps_lam, steps)
        assert len(runs[1.7].trajectory.times) == len(runs[1.0].trajectory.times)
        phases, ref = runs[1.7].phases, runs[1.0].phases
        assert np.abs(np.diff(phases.phi_dynamical)).max() < PHASE_SAMPLE_MARGIN
        assert abs(phases.phi_dynamical[-1]) < 1e-9
        # the AFM state's parity, pi times its excitation number (nu + 1) / 2
        assert abs(wrap_phase(float(phases.phi_geometric[-1]) - math.pi * ((nu + 1) // 2))) < 1e-9
        assert abs(wrap_phase(phases.phi_total[-1] - ref.phi_total[-1])) < 1e-9


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
        n = _step_count(cfg.pulse.tau, cfg.dt)
        pulse = cfg.pulse
        h_scale = nu * (abs(pulse.delta0) + abs(pulse.omega0)) + np.abs(seg1.hamiltonians[0].v).max()
        stride = _default_stride(h_scale, cfg.dt, n)
        t1, s1 = _run_segment(seg1, full_ground(seg1.hamiltonians[0].basis), cfg.dt, n, stride, not include_decay)
        t2, s2 = _run_segment(seg2, s1[-1], cfg.dt, n, stride, not include_decay)
        assert np.array_equal(run.trajectory.times, np.concatenate([[0.0], t1, pulse.tau + t2 / lam]))
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

        engine = _SegmentEngine([ham], cfg.pulse, v=v_int_at if psi0.ndim == 2 else None)
        views = []
        real = evolution._real

        def recording(rows):
            out = real(rows)
            views.append((rows, out))
            return out

        monkeypatch.setattr(evolution, "_real", recording)
        _run_segment(engine, psi0, cfg.dt, 20, 20, renormalize=True)
        # bound once per segment: one state takes u as source and its four
        # K u rows as destinations (``_rk4_rows``), a batch psi and y as
        # sources and dy as destination (``_rk4_columns``)
        assert len(views) == (5 if psi0.ndim == 1 else 4)
        for rows, out in views:
            assert np.shares_memory(out, rows)
            assert out.dtype == np.float64 and out.shape == (len(rows), 2 * (rows.size // len(rows)))


class TestRowAndColumnBodies:
    """One state steps by numpy row combinations (``_rk4_rows``), a batch by
    level-1 BLAS calls (``_rk4_columns``): the same engine run both ways."""

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("include_decay", [False, True])
    def test_one_state_matches_a_one_column_batch(self, include_decay, renormalize, monkeypatch):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        seg1, _, psi, n = _protocol_start(_chain_hamiltonians([5], cfg), cfg)
        assert n == 4000
        rows = len(psi)
        # the same static diagonal as one column of per-trial interactions
        column = _SegmentEngine(
            seg1.hamiltonians, seg1.pulse, seg1.groups, lambda t: np.broadcast_to(seg1.v[:, None], (len(t), rows, 1))
        )
        bodies = []

        def spy(name):
            body = getattr(evolution, name)

            def recording(*args):
                bodies.append(name)
                return body(*args)

            monkeypatch.setattr(evolution, name, recording)

        spy("_rk4_rows")
        spy("_rk4_columns")
        t_row, row = _run_segment(seg1, psi, cfg.dt, n, 250, renormalize)
        t_col, col = _run_segment(column, psi[:, None], cfg.dt, n, 250, renormalize)
        assert bodies == ["_rk4_rows", "_rk4_columns"]
        assert np.array_equal(t_row, t_col) and row.shape == (16, rows) and col.shape == (16, rows, 1)
        assert np.abs(row - col[:, :, 0]).max() < 1e-12
        if include_decay and not renormalize:
            assert np.linalg.norm(row[-1]) < 1.0 - 1e-6


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

    def test_split_order_between_8x_and_32x_per_halving(self, monkeypatch):
        # fourth order: 16x per halving of the step, where the error of the
        # final amplitudes is far above round-off
        cfg = reference_config(n_atoms=7, include_decay=True)
        amps = {}
        for steps in (250, 500, 1000):
            monkeypatch.setattr(evolution, "STEPS_PER_PULSE", steps)
            amps[steps] = np.array(list(ground_amplitudes([5, 6, 7], cfg).values()))
        assert 8.0 < np.abs(amps[250] - amps[500]).max() / np.abs(amps[500] - amps[1000]).max() < 32.0

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
        assert abs(abs(amp) ** 2 - abs(ground_amplitude(run)) ** 2) < 1e-6
        assert abs(wrap_phase(np.angle(amp) - math.pi)) < 0.05

    def test_lambda_rescaled_second_pulse_reproduces_phases(self):
        for nu in (3, 4, 5):
            amp1 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=1.0))
            amp2 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=2.0))
            assert abs(wrap_phase(np.angle(amp2) - np.angle(amp1))) < 0.02
