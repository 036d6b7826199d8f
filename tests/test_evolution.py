"""Propagator correctness and the two-pulse protocol dynamics."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from afmgate.basis import build_full_basis
from afmgate.config import Model, PulseProfile
from afmgate.errors import PropagationError
from afmgate.evolution import (
    DIAG_BLOCK_STEPS,
    _dynamical_phase,
    _phases_from_samples,
    _protocol_segments,
    _run_segment,
    _SegmentEngine,
    _step_count,
    parity_roundtrip_check,
    run_protocol,
)
from afmgate.hamiltonian import ChainHamiltonian, excitation_numbers, model_basis
from afmgate.units import mhz

from conftest import reference_config


def wrap_phase(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def segments(nu, cfg):
    """The two segment engines of a protocol on the model's own basis."""
    return _protocol_segments(ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction), cfg)


def vdw_diagonal(basis, interaction):
    return ChainHamiltonian(Model.FULL_VDW, basis, interaction).v


class ConstantEngine(_SegmentEngine):
    """Time-independent H = omega * drive + diag on a hand-built structure."""

    def __init__(self, drive, diag, omega=1.0, tau=1.0):
        self.drive = np.asarray(drive, dtype=complex)
        self.gen = -1j * self.drive
        self.diag = np.asarray(diag, dtype=complex)
        self.omega = omega
        self.pulse = SimpleNamespace(tau=tau)

    def tables(self, dt, n_steps):
        t = np.zeros(2 * n_steps + 1)
        return t, np.full_like(t, self.omega), t

    def diagonals(self, t_local, delta):
        return np.broadcast_to(-1j * self.diag, (len(t_local),) + self.diag.shape)


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
    """The tabulated, fused stepper against a plain RK4 on the engine's own
    Hamiltonian matrices over one reference segment."""

    def test_single_state_with_decay_matches_plain_rk4(self):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.05))
        seg1, _ = segments(3, cfg)
        n = _step_count(0.0, cfg.pulse.tau, cfg.dt)
        psi0 = np.zeros(seg1.basis.dim, dtype=complex)
        psi0[0] = 1.0
        _, (fused,) = _run_segment(seg1, psi0, cfg.dt, n, n, renormalize=False)
        plain = plain_rk4(seg1.matrix, psi0, cfg.dt, n, renormalize=False)
        assert np.linalg.norm(plain) < 1.0
        assert np.abs(fused - plain).max() < 1e-12

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_batch_with_per_column_diagonal_matches_plain_rk4(self, include_decay):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=include_decay, gamma=mhz(0.05))
        ham = ChainHamiltonian(Model.FULL_VDW, build_full_basis(3), cfg.interaction)
        basis, v0 = ham.basis, ham.v
        rates = np.array([0.0, 0.3, -0.2])

        def v_int_at(t_abs):  # (times, dim, 3): one drifting interaction per column
            return v0[None, :, None] * (1.0 + rates[None, None, :] * t_abs[:, None, None])

        _, seg2 = _protocol_segments(ham, cfg, (v_int_at, v_int_at))
        dt = seg2.pulse.tau / 1000
        psi0 = np.zeros((basis.dim, 3), dtype=complex)
        psi0[0, :] = 1.0
        renormalize = not include_decay
        _, (fused,) = _run_segment(seg2, psi0, dt, 1000, 1000, renormalize)
        for col in range(3):

            def h_col(t):
                omega, diag = seg2.coeffs(t)
                return omega * seg2.drive + np.diag(diag[:, col])

            plain = plain_rk4(h_col, psi0[:, col], dt, 1000, renormalize)
            assert np.abs(fused[:, col] - plain).max() < 1e-12
        assert np.abs(fused[:, 1] - fused[:, 0]).max() > 1e-6  # the columns really differ

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
        _, seg2 = segments(4, cfg)
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

        _, seg2 = _protocol_segments(ham, cfg, (v_int_at, v_int_at))
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

    def test_coeffs_use_the_block_formula(self):
        cfg = reference_config(model=Model.FULL_VDW, include_decay=True, gamma=mhz(0.05))
        seg1, _ = segments(4, cfg)
        basis = seg1.basis
        n_r = excitation_numbers(basis)
        v = vdw_diagonal(basis, cfg.interaction) - 0.5j * cfg.decay.gamma_r * n_r
        for t in (0.0, 0.37, seg1.pulse.tau):
            omega, diag = seg1.coeffs(t)
            assert omega == seg1.pulse.omega(t)
            assert np.array_equal(diag, 1j * (seg1.pulse.delta(t) * (1j * n_r) + -1j * v))


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

    def energy(k, i):
        t = traj.times[i]
        if k > 0 and i == cuts[k]:
            t = np.nextafter(t, np.inf)  # right side of the jump
        h = np.asarray(h_of_t(t), dtype=complex)
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        return float(w[int(np.argmax(np.abs(v.conj().T @ traj.states[i])))])

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

    def test_phase_decomposition_matches_protocol_record(self):
        cfg = reference_config(model=Model.PXP)
        run = run_protocol(3, cfg)
        seg1, seg2 = run.segments
        tau = cfg.pulse.tau

        def h_of_t(t):
            if t <= tau:
                return seg1.matrix(t)
            return seg2.matrix(min(t - tau, seg2.pulse.tau))

        rec = phase_decomposition(run.trajectory, h_of_t, boundaries=[tau])
        assert rec.final_dynamical() == pytest.approx(run.phases.final_dynamical(), abs=2e-3)
        assert rec.final_total() == pytest.approx(run.phases.final_total(), abs=1e-9)


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
            runs[steps] = run_protocol(3, c, compute_phases=False).final_state()
        err_coarse = np.linalg.norm(runs[2000] - runs[4000])
        err_fine = np.linalg.norm(runs[4000] - runs[8000])
        assert 8.0 < err_coarse / err_fine < 32.0

    def test_pxp_nu5_return_matches_adaptive_integrator(self):
        # Independent check of the fixed-step RK4: an adaptive 8th-order
        # integrator on the same segment Hamiltonians must give the same
        # ground-state return (~0.968) and the parity phase pi.
        run = run_protocol(5, reference_config(model=Model.PXP), compute_phases=False)
        basis = run.trajectory.basis
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index[0]] = 1.0
        for seg in run.segments:
            sol = solve_ivp(
                lambda t, y: -1j * (seg.matrix(t) @ y),
                (0.0, seg.pulse.tau), psi, method="DOP853", rtol=1e-10, atol=1e-12,
            )
            assert sol.success
            psi = sol.y[:, -1]
        amp = psi[basis.index[0]]
        assert abs(abs(amp) ** 2 - abs(run.ground_amplitude()) ** 2) < 1e-6
        assert abs(wrap_phase(np.angle(amp) - math.pi)) < 0.05

    def test_lambda_rescaled_second_pulse_reproduces_phases(self):
        for nu in (3, 4, 5):
            amp1 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=1.0))
            amp2 = parity_roundtrip_check(nu, reference_config(model=Model.FULL_VDW, lambda_ratio=2.0))
            assert abs(wrap_phase(np.angle(amp2) - np.angle(amp1))) < 0.02
