"""Time-dependent Schroedinger propagation of the two-pulse protocol.

Fixed-step classical RK4 with midpoint Hamiltonian evaluations, in one
segment stepper that every propagation goes through: a single state or a
batch of states held as the columns of one array.  The operator
structures come from one ``ChainHamiltonian`` per protocol, shared by both
segments, and the pulse is tabulated once per segment.  The diagonal of
-iH is tabulated for a block of ``DIAG_BLOCK_STEPS`` steps at a time, so
each evaluation only rescales the drive and reads its diagonal.
Hermitian runs renormalize the state after every step (removing the RK4
amplitude artifact, which would otherwise mask real norm errors);
non-Hermitian runs keep the physical norm decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .basis import Basis, afm_manifold_masks, ordered_afm_masks
from .config import Model, ProtocolConfig, PulseProfile
from .errors import PropagationError
from .hamiltonian import ChainHamiltonian, model_basis

OVERLAP_VALID_MIN = 0.1
PHASE_SAMPLE_MARGIN = math.pi / 4.0
# RK4 steps whose -iH diagonals are tabulated together: long enough to
# amortise the per-call cost, short enough to keep a thermal block of
# (2 * steps, dim, batch) complex entries small
DIAG_BLOCK_STEPS = 16


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled state history of one propagation."""

    basis: Basis
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim)
    norms: np.ndarray
    populations: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PhaseRecord:
    """Total / dynamical / geometric phase along a trajectory.

    phi_total is the unwrapped arg<Psi(0)|Psi(t)>; phi_dynamical the action
    integral of the occupied adiabatic branch energy (the two-pulse mirror
    symmetry cancels it exactly, leakage notwithstanding); the geometric
    part is their difference.  ``valid`` flags samples with enough overlap
    for the total phase to mean anything.
    """

    times: np.ndarray
    phi_total: np.ndarray
    phi_dynamical: np.ndarray
    phi_geometric: np.ndarray
    valid: np.ndarray

    def final_total(self) -> float:
        return float(self.phi_total[-1])

    def final_dynamical(self) -> float:
        return float(self.phi_dynamical[-1])


def _step_count(t0: float, t1: float, dt: float) -> int:
    span = t1 - t0
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > 1e-9 * max(span, dt):
        raise ValueError(f"dt = {dt} does not evenly divide the interval {span}")
    return n


def _check_state(psi: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(psi)):
        raise PropagationError(f"non-finite amplitudes at t = {t}")


class _SegmentEngine:
    """One pulse segment: the chain Hamiltonian of its interaction plus the
    pulse scaling.

    ``gen`` is the complex -i * drive the stepper multiplies with, built
    once per basis and shared by the segments of a protocol.  ``v_int_fn``,
    when given, supplies the interaction diagonal of a (dim, batch) state
    with moving atoms: called with an array of k absolute protocol times it
    returns the real (k, dim, batch) diagonals, one column per trial.  The
    excitation counts are then kept as a column so the diagonal broadcasts
    against the batch.  Otherwise the static diagonal of ``hamiltonian``
    is used.
    """

    def __init__(
        self,
        hamiltonian: ChainHamiltonian,
        pulse: PulseProfile,
        gen: np.ndarray,
        gamma: float = 0.0,
        v_int_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        t_abs_start: float = 0.0,
    ):
        self.hamiltonian = hamiltonian
        self.basis = hamiltonian.basis
        self.drive = hamiltonian.drive
        self.pulse = pulse
        self.gen = gen
        self.gamma = gamma
        self.v_int_fn = v_int_fn
        self.t_abs_start = t_abs_start
        self._n_r = hamiltonian.n_r if v_int_fn is None else hamiltonian.n_r[:, None]
        # -iH = Omega * gen - (Gamma / 2) n_r + i (Delta n_r - v)
        self._decay_rate = -0.5 * gamma * self._n_r if gamma else 0.0

    def coeffs(self, t_local: float) -> Tuple[float, np.ndarray]:
        """(Omega, complex diagonal) at local pulse time; endpoint round-off
        is clamped into the pulse window."""
        t = min(max(t_local, 0.0), self.pulse.tau)
        diag = self.diagonals(np.array([t]), np.array([self.pulse.delta(t)]))[0]
        return self.pulse.omega(t), 1j * diag

    def tables(self, dt: float, n_steps: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local times of every RK4 evaluation of the segment, clamped into
        the pulse window, with Omega and Delta there.

        Entry 2s is the start of step s (the end of step s - 1), entry
        2s + 1 its midpoint.
        """
        t = np.empty(2 * n_steps + 1)
        t[0] = 0.0
        starts = np.arange(n_steps) * dt
        t[1::2] = starts + 0.5 * dt
        t[2::2] = starts + dt
        np.clip(t, 0.0, self.pulse.tau, out=t)
        return t, self.pulse.omega(t), self.pulse.delta(t)

    def diagonals(self, t_local: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Diagonals of -iH at an array of tabulated local times and their
        detunings, stacked on axis 0: (k, dim), or (k, dim, batch) with a
        per-trial interaction.  Real and imaginary parts are written into
        one complex buffer."""
        v = self.hamiltonian.v if self.v_int_fn is None else self.v_int_fn(self.t_abs_start + t_local)
        delta_n_r = delta.reshape((-1,) + (1,) * self._n_r.ndim) * self._n_r
        out = np.empty(np.broadcast_shapes(delta_n_r.shape, v.shape), dtype=complex)
        out.real = self._decay_rate
        np.subtract(delta_n_r, v, out=out.imag)
        return out

    def branch_energy(self, t_local: float, psi: np.ndarray) -> float:
        """Instantaneous eigenvalue of the dominantly occupied branch of the
        Hermitian part (maximal overlap with the state)."""
        t = min(max(t_local, 0.0), self.pulse.tau)
        w, v = np.linalg.eigh(self.hamiltonian.matrix(self.pulse.omega(t), self.pulse.delta(t)).real)
        return float(w[int(np.argmax(np.abs(v.conj().T @ psi)))])

    def matrix(self, t_local: float) -> np.ndarray:
        omega, diag = self.coeffs(t_local)
        return omega * self.drive + np.diag(diag)


def _run_segment(
    engine: _SegmentEngine,
    psi: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int,
    renormalize: bool,
) -> Tuple[List[float], List[np.ndarray]]:
    """RK4 over one segment; returns samples at local times (excluding t=0)
    every ``stride`` steps and at the segment end.

    ``psi`` is one state (dim,) or a batch of states as columns
    (dim, batch); renormalization then acts on each column.  The pulse is
    tabulated once for the segment, the complex diagonal d of -iH once per
    block of ``DIAG_BLOCK_STEPS`` steps, and each derivative is the fused
    Omega * (gen @ y) + d * y.  Raises PropagationError on non-finite
    amplitudes at a sample.
    """
    times: List[float] = []
    states: List[np.ndarray] = []
    gen = engine.gen
    t_tab, om, dl = engine.tables(dt, n_steps)
    half = 0.5 * dt
    sixth = dt / 6.0
    block_len = 2 * DIAG_BLOCK_STEPS
    psi = np.array(psi, dtype=complex)
    k1, k2, k3, k4, y, dy = (np.empty_like(psi) for _ in range(6))

    def deriv(j: int, d: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        np.dot(gen, y, out=out)
        out *= om[j]
        np.multiply(d, y, out=dy)
        out += dy

    d_end = engine.diagonals(t_tab[:1], dl[:1])[0]
    for step in range(n_steps):
        j = 2 * step
        i = j % block_len
        if i == 0:
            # midpoints and ends of the next block of steps (the last block
            # may be shorter)
            block = engine.diagonals(t_tab[j + 1 : j + 1 + block_len], dl[j + 1 : j + 1 + block_len])
        d_start = d_end
        d_mid = block[i]
        d_end = block[i + 1]
        deriv(j, d_start, psi, k1)
        np.multiply(k1, half, out=y)
        y += psi
        deriv(j + 1, d_mid, y, k2)
        np.multiply(k2, half, out=y)
        y += psi
        deriv(j + 1, d_mid, y, k3)
        np.multiply(k3, dt, out=y)
        y += psi
        deriv(j + 2, d_end, y, k4)
        # psi += dt/6 (k1 + 2 (k2 + k3) + k4), in the reference order
        k2 += k3
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= sixth
        psi += k1
        if renormalize:
            if psi.ndim == 1:
                psi /= math.sqrt(np.vdot(psi, psi).real)
            else:
                psi /= np.linalg.norm(psi, axis=0, keepdims=True)
        if (step + 1) % stride == 0 or step == n_steps - 1:
            t = step * dt + dt
            _check_state(psi, t)
            # pin the final sample to the exact pulse end so segment
            # boundaries are found exactly downstream
            times.append(engine.pulse.tau if step == n_steps - 1 else t)
            states.append(psi.copy())
    return times, states


def _default_stride(h_scale: float, dt: float, n_steps: int) -> int:
    """Largest stride keeping per-sample phase increments below pi/4."""
    if h_scale <= 0.0:
        return max(1, n_steps // 1024)
    stride = int(PHASE_SAMPLE_MARGIN / (h_scale * dt))
    return max(1, min(stride, max(1, n_steps // 8)))


def _afm_projectors(basis: Basis, model: Model) -> Dict[str, np.ndarray]:
    """Named projection vectors: ground, AFM-like target and (even nu, vdW)
    the bright ordered combination."""
    nu = basis.nu
    dim = basis.dim
    ground = np.zeros(dim, dtype=complex)
    ground[basis.index[0]] = 1.0
    out = {"ground": ground}

    if nu % 2 == 1:
        afm = np.zeros(dim, dtype=complex)
        afm[basis.index[ordered_afm_masks(nu)[0]]] = 1.0
        out["afm"] = afm
        return out

    masks = afm_manifold_masks(nu)
    m = len(masks)
    if model is Model.PXP:
        # uniform-ladder ground state: sine profile over all configurations
        afm = np.zeros(dim, dtype=complex)
        for j, mask in enumerate(masks, start=1):
            afm[basis.index[mask]] = math.sqrt(2.0 / (m + 1)) * math.sin(j * math.pi / (m + 1))
        out["afm"] = afm
    else:
        # split-regime ground (bulk-defect band head) and the bright ordered combo
        afm = np.zeros(dim, dtype=complex)
        n_bulk = m - 2
        for j in range(2, m):
            afm[basis.index[masks[j - 1]]] = math.sqrt(2.0 / (n_bulk + 1)) * math.sin(
                (j - 1) * math.pi / (n_bulk + 1)
            )
        out["afm"] = afm
        bright = np.zeros(dim, dtype=complex)
        bright[basis.index[masks[0]]] = 1.0 / math.sqrt(2.0)
        bright[basis.index[masks[-1]]] = 1.0 / math.sqrt(2.0)
        out["afm_excited"] = bright
    return out


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Full two-pulse result: trajectory, phases and the segment engines."""

    trajectory: Trajectory
    phases: Optional[PhaseRecord]
    segments: Tuple[_SegmentEngine, ...]
    boundaries: Tuple[float, ...]

    def final_state(self) -> np.ndarray:
        return self.trajectory.states[-1]

    def ground_amplitude(self) -> complex:
        return complex(self.trajectory.states[-1][self.trajectory.basis.index[0]])


def _protocol_segments(
    hamiltonian: ChainHamiltonian,
    cfg: ProtocolConfig,
    v_int_fn_steps: Optional[Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = None,
) -> Tuple[_SegmentEngine, _SegmentEngine]:
    """Engines of the two pulses: step II runs the lambda-rescaled pulse
    under the flipped interaction on the same operator structures."""
    if hamiltonian.model is Model.PXP_PLUS_CORRECTIONS:
        raise ValueError("time propagation supports the PXP and full vdW models only")
    lam = cfg.interaction.lambda_ratio
    pulse_1 = cfg.pulse
    pulse_2 = cfg.pulse.rescaled(lam)
    gamma_1 = cfg.decay.gamma_r if cfg.include_decay else 0.0
    gamma_2 = cfg.decay.gamma_rp if cfg.include_decay else 0.0
    fn1, fn2 = v_int_fn_steps if v_int_fn_steps is not None else (None, None)
    gen = -1j * hamiltonian.drive
    seg1 = _SegmentEngine(hamiltonian, pulse_1, gen, gamma_1, fn1, t_abs_start=0.0)
    flipped = hamiltonian.with_interaction(cfg.interaction.flipped())
    seg2 = _SegmentEngine(flipped, pulse_2, gen, gamma_2, fn2, t_abs_start=pulse_1.tau)
    return seg1, seg2


def run_protocol(nu: int, cfg: ProtocolConfig, compute_phases: bool = True) -> ProtocolRun:
    """Two chirped pulses: step I with interaction B, step II with the
    lambda-rescaled pulse and flipped interaction -lambda B (a no-op for
    the PXP model).  The r -> r' swap between steps is modeled as
    instantaneous and exact.  Starts from the collective ground state.

    The dynamical phase integrates the energy of the dominantly occupied
    adiabatic branch (the lowest branch during step I and the highest
    during step II when the transfer works as designed).
    """
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    ham = ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)
    seg1, seg2 = _protocol_segments(ham, cfg)
    basis = ham.basis
    lam = cfg.interaction.lambda_ratio

    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index[0]] = 1.0

    n1 = _step_count(0.0, cfg.pulse.tau, cfg.dt)
    dt2 = cfg.dt / lam
    h_scale = float(
        basis.nu * (abs(cfg.pulse.delta0) + abs(cfg.pulse.omega0)) * max(1.0, lam)
        + np.abs(ham.v).max()
    )
    stride = _default_stride(h_scale, cfg.dt, n1)

    times = [0.0]
    states = [psi.copy()]
    t1, s1 = _run_segment(seg1, psi, cfg.dt, n1, stride, seg1.gamma == 0.0)
    times.extend(t1)
    states.extend(s1)
    psi = s1[-1]
    t2, s2 = _run_segment(seg2, psi, dt2, n1, stride, seg2.gamma == 0.0)
    times.extend(cfg.pulse.tau + t for t in t2)
    states.extend(s2)

    state_arr = np.array(states)
    time_arr = np.array(times)
    norms = np.linalg.norm(state_arr, axis=1)

    populations = {}
    for name, vec in _afm_projectors(basis, cfg.model).items():
        populations[name] = np.abs(state_arr @ vec.conj()) ** 2

    traj = Trajectory(basis=basis, times=time_arr, states=state_arr, norms=norms, populations=populations)

    tau1 = cfg.pulse.tau
    phases = None
    if compute_phases:
        # The branch energy jumps at the segment boundary (the detuning
        # resets to -delta0'); the boundary sample is evaluated under both
        # segments.
        segs, starts = (seg1, seg2), (0.0, tau1)
        phi_dyn = _dynamical_phase(
            time_arr,
            [0, int(np.searchsorted(time_arr, tau1)), len(time_arr) - 1],
            lambda k, i: segs[k].branch_energy(time_arr[i] - starts[k], state_arr[i]),
        )
        phases = _phases_from_samples(time_arr, state_arr, phi_dynamical=phi_dyn)
    return ProtocolRun(
        trajectory=traj,
        phases=phases,
        segments=(seg1, seg2),
        boundaries=(0.0, tau1, tau1 + cfg.pulse.tau / lam),
    )


def _dynamical_phase(
    times: np.ndarray, cuts: Sequence[int], energy: Callable[[int, int], float]
) -> np.ndarray:
    """Action integral of the dominantly occupied branch energy along the
    samples, accumulated per segment between the sample indices ``cuts``
    (first 0, last the final sample) where H jumps.

    ``energy(k, i)`` is the branch energy of sample i under the Hamiltonian
    of segment k.  Each segment evaluates its own first sample, so a jump is
    integrated with both-sided boundary values.
    """
    phi = np.zeros(len(times))
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        e = np.array([energy(k, i) for i in range(lo, hi + 1)])
        phi[lo : hi + 1] = phi[lo] + cumulative_trapezoid(e, times[lo : hi + 1], initial=0.0)
    return phi


def _phases_from_samples(
    times: np.ndarray,
    states: np.ndarray,
    phi_dynamical: np.ndarray,
) -> PhaseRecord:
    psi0 = states[0]
    overlaps = states @ psi0.conj()
    valid = np.abs(overlaps) > OVERLAP_VALID_MIN
    phi_total = np.unwrap(np.angle(overlaps))
    return PhaseRecord(
        times=times,
        phi_total=phi_total,
        phi_dynamical=phi_dynamical,
        phi_geometric=phi_total - phi_dynamical,
        valid=valid,
    )


def parity_roundtrip_check(nu: int, cfg: ProtocolConfig) -> complex:
    """Signed overlap <G_nu|Psi(tau_tot)> after the two-pulse protocol
    without decay; its phase is nu_r pi mod 2pi, its squared magnitude
    1 - leakage."""
    run = run_protocol(nu, replace(cfg, include_decay=False), compute_phases=False)
    return run.ground_amplitude()
