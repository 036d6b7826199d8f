"""Two-qubit gate assembly, average fidelity and the analytic error model.

The gate diagonal is obtained by running the two-pulse protocol for the
active chains selected by the four qubit inputs (nu = N-2, N-1, N-1, N
atoms) and projecting each final state back onto its initial configuration.
Decay population is treated as lost, which lower-bounds the fidelity.
``sweep_tau`` and ``fit_c_nu`` cut their pulse-duration grids into fixed
chunks of ``TAU_CHUNK`` durations and propagate each chunk, with all of
its chains, as one state (``evolution.tau_batch_amplitudes``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ProtocolConfig, PulseProfile, mean_rydberg_number, pulse_with_tau
from .errors import ConfigError, FitQualityError, RegimeError
from .evolution import ground_amplitudes, tau_batch_amplitudes
from .spectra import check_gap_pulse, min_gap

INPUT_LABELS = ("00", "01", "10", "11")
CZ_DIAG = np.array([1.0, 1.0, 1.0, -1.0])
FIT_E_BOUNDS = (1e-4, 0.3)
FIT_R2_MIN = 0.95
# Pulse durations propagated as one state by ``sweep_tau`` and ``fit_c_nu``,
# fixed so that results do not depend on the worker count.  12 holds the
# default fit grid and an 11-point sweep in one chunk: fit_c_nu at
# nu = 3 / 5 / 7 took 0.26 / 0.41 / 1.02 s, against 0.34 / 0.55 / 1.17 s in
# chunks of 8 and 1.5 / 1.75 / 2.4 s with one duration per propagation
TAU_CHUNK = 12


def active_atoms(n_atoms: int, label: str) -> Tuple[int, ...]:
    """Absolute chain indices of the laser-coupled atoms for a qubit input.

    Qubit atoms in |0> are decoupled from the drive and drop out of the
    simulated chain; the bus atoms (1 .. N-2) are always active.
    """
    if label not in INPUT_LABELS:
        raise ValueError(f"unknown input label {label!r}")
    q1, q2 = (c == "1" for c in label)
    start = 0 if q1 else 1
    stop = n_atoms if q2 else n_atoms - 1
    return tuple(range(start, stop))


def ideal_phase_factor(n_atoms: int) -> float:
    """Common factor (-1)^{(N-1)/2} (odd N) or (-1)^{N/2} (even N) that the
    protocol imprints on every input."""
    k = (n_atoms - 1) // 2 if n_atoms % 2 == 1 else n_atoms // 2
    return -1.0 if k % 2 else 1.0


def average_fidelity(u: np.ndarray) -> float:
    """Average two-qubit gate fidelity (Tr{MM+} + |Tr M|^2) / 20 with
    M = U_CZ^+ U.  ``u`` is the gate diagonal (length 4) or a 4x4 matrix."""
    u = np.asarray(u, dtype=complex)
    diag = np.diagonal(u) if u.ndim == 2 else u
    if diag.shape != (4,):
        raise ValueError(f"expected a 4-entry gate diagonal, got shape {u.shape}")
    if np.any(np.abs(diag) > 1.0 + 1e-9):
        raise ValueError("gate diagonal entries must have magnitude <= 1")
    m = CZ_DIAG * diag
    return float((np.sum(np.abs(m) ** 2) + abs(np.sum(m)) ** 2) / 20.0)


def fidelity_from_diag(n_atoms: int, diag: Sequence[complex]) -> float:
    """Fidelity against CZ; for even N the comparison is made after the
    qubit flips |0> <-> |1> (reversing the diagonal)."""
    d = np.asarray(diag, dtype=complex)
    if n_atoms % 2 == 0:
        d = d[::-1]
    return average_fidelity(d)


@dataclass(frozen=True, eq=False)
class GateReport:
    """Gate diagonal (global parity factor removed), fidelity and inputs."""

    n_atoms: int
    u_diag: np.ndarray
    fidelity: float
    infidelity: float
    per_input: Dict[str, complex]
    global_phase_removed: float


def assemble_gate(n_atoms: int, cfg: ProtocolConfig) -> GateReport:
    """Run the protocol for the four inputs and assemble the diagonal gate.

    On the uniform static chain the |01> and |10> placements are mirror
    images with identical Hamiltonians, so each distinct active-chain size
    (N-2, N-1, N) is propagated once, and the three share one pulse, step
    and step count: they run as one direct-sum state through one
    ``ground_amplitudes`` call.
    """
    if n_atoms != cfg.chain.n_atoms:
        raise ValueError(f"n_atoms = {n_atoms} disagrees with the config chain ({cfg.chain.n_atoms})")
    return _gate_report(n_atoms, ground_amplitudes(_gate_chain_sizes(n_atoms), cfg))


def _gate_chain_sizes(n_atoms: int) -> list:
    """The distinct active-chain sizes of the four inputs: N-2, N-1, N."""
    return sorted({len(active_atoms(n_atoms, label)) for label in INPUT_LABELS})


def _gate_report(n_atoms: int, amp_by_nu: Mapping[int, complex]) -> GateReport:
    """The gate of the ground amplitudes of its active chains."""
    per_input = {label: amp_by_nu[len(active_atoms(n_atoms, label))] for label in INPUT_LABELS}
    raw = np.array([per_input[label] for label in INPUT_LABELS])
    factor = ideal_phase_factor(n_atoms)
    fid = fidelity_from_diag(n_atoms, raw)
    return GateReport(
        n_atoms=n_atoms,
        u_diag=raw / factor,
        fidelity=fid,
        infidelity=1.0 - fid,
        per_input=per_input,
        global_phase_removed=factor,
    )


def decay_error(n_atoms: int, gamma_mean: float, tau_total: float) -> float:
    """Input-averaged decay error 1 - exp(-nu_bar Gamma tau_tot / 2)."""
    if gamma_mean < 0.0 or tau_total < 0.0:
        raise ValueError("decay rate and duration must be >= 0")
    nu_bar = mean_rydberg_number(n_atoms)
    return 1.0 - math.exp(-0.5 * nu_bar * gamma_mean * tau_total)


def leakage_mu_nu(n_atoms: int) -> Tuple[int, int]:
    """Degeneracy prefactor and dominant chain size: (1, N) for odd N,
    (2, N-1) for even N."""
    return (1, n_atoms) if n_atoms % 2 == 1 else (2, n_atoms - 1)


@dataclass(frozen=True)
class LeakageEstimate:
    full: float        # p(N-2) + 2 p(N-1) + p(N)
    dominant: float    # mu * p(nu_dominant)
    mu: int
    nu_dominant: int


def leakage_error(n_atoms: int, c_table: Mapping[int, float], pulse: PulseProfile) -> LeakageEstimate:
    """Input-averaged non-adiabatic leakage from the Landau-Zener constants.

    p_LZ(nu) = exp(-c_nu Omega0^2 tau / Delta0); the full sum covers the
    three active-chain sizes, the dominant form keeps the largest odd one.
    """
    x = pulse.omega0**2 * pulse.tau / abs(pulse.delta0)

    def p(nu: int) -> float:
        try:
            c = c_table[nu]
        except KeyError:
            raise ConfigError(f"no Landau-Zener constant c_nu for nu = {nu}") from None
        return math.exp(-c * x)

    full = p(n_atoms - 2) + 2.0 * p(n_atoms - 1) + p(n_atoms)
    mu, nu_dom = leakage_mu_nu(n_atoms)
    return LeakageEstimate(full=full, dominant=mu * p(nu_dom), mu=mu, nu_dominant=nu_dom)


def kappa_c_table(nus: Sequence[int], pulse: PulseProfile) -> Dict[int, float]:
    """Gap-derived constants c_nu = pi kappa_nu^2 / 4 from the PXP chain's
    minimal avoided-crossing gaps (``spectra.min_gap``)."""
    return {nu: math.pi * min_gap(nu, pulse).kappa ** 2 / 4.0 for nu in nus}


@dataclass(frozen=True, eq=False)
class CnuFit:
    """Least-squares Landau-Zener constant from leakage-vs-tau data."""

    nu: int
    c: float
    intercept: float
    r_squared: float
    taus: np.ndarray
    leakages: np.ndarray


def fit_c_nu(
    nu: int,
    cfg: ProtocolConfig,
    taus: Optional[Sequence[float]] = None,
) -> CnuFit:
    """Fit ln E_leak = intercept - c * (Omega0^2/Delta0) tau on a tau grid.

    E_leak(tau) = 1 - |<G_nu|Psi(tau_tot)>|^2 from decay-free protocol runs.
    Grid points outside the leakage window ``FIT_E_BOUNDS`` (noise floor below,
    breakdown of the single-crossing picture above) are discarded.  The
    abscissa needs a chirp and a drive: a pulse without either is refused
    (``spectra.check_gap_pulse``) before any duration is propagated.
    """
    if nu % 2 != 1:
        raise ValueError(f"c_nu is fitted for odd chain sizes, got nu = {nu}")
    check_gap_pulse(cfg.pulse)
    base = replace(cfg, include_decay=False)
    if taus is None:
        taus = np.geomspace(0.25, 3.2, 12)
    taus = [float(tau) for tau in taus]
    amps = np.concatenate([tau_batch_amplitudes([nu], base, chunk)[:, 0] for chunk in _tau_chunks(taus)])
    pts = [
        (tau, e_leak)
        for tau, e_leak in zip(taus, 1.0 - np.abs(amps) ** 2)
        if FIT_E_BOUNDS[0] < e_leak < FIT_E_BOUNDS[1]
    ]
    if len(pts) < 4:
        raise FitQualityError(
            f"only {len(pts)} tau points fall in the leakage window {FIT_E_BOUNDS} for nu = {nu}"
        )
    t_arr = np.array([p[0] for p in pts])
    e_arr = np.array([p[1] for p in pts])
    x = cfg.pulse.omega0**2 / abs(cfg.pulse.delta0) * t_arr
    y = np.log(e_arr)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    if r2 < FIT_R2_MIN:
        raise FitQualityError(f"leakage fit for nu = {nu} has R^2 = {r2:.3f} < {FIT_R2_MIN}")
    return CnuFit(nu=nu, c=-float(slope), intercept=float(intercept), r_squared=r2,
                  taus=t_arr, leakages=e_arr)


def optimal_tau(
    n_atoms: int, c_dominant: float, pulse: PulseProfile, gamma_mean: float
) -> Tuple[float, float]:
    """Closed-form optimal pulse duration and minimal error (tau_tot ~ 2 tau).

    tau_opt = (1/c) (Delta0/Omega0^2) ln[mu c Omega0^2 / (nu_bar Gamma Delta0)];
    E_min follows from evaluating decay + dominant leakage there.
    """
    if gamma_mean <= 0.0:
        raise RegimeError("no finite optimum without decay (tau_opt -> infinity)")
    mu, _ = leakage_mu_nu(n_atoms)
    nu_bar = mean_rydberg_number(n_atoms)
    om2 = pulse.omega0**2
    d0 = abs(pulse.delta0)
    arg = mu * c_dominant * om2 / (nu_bar * gamma_mean * d0)
    if arg <= 1.0:
        raise RegimeError(f"decay dominates at all tau (log argument {arg:.3g} <= 1)")
    log = math.log(arg)
    tau_opt = d0 / (c_dominant * om2) * log
    e_min = nu_bar / c_dominant * gamma_mean * d0 / om2 * (1.0 + log)
    return tau_opt, e_min


def e_min_vs_interaction(
    n_atoms: int, c_dominant: float, lambda1: float, lambda2: float, gamma_mean: float, b_nn: float
) -> float:
    """Minimal error in terms of the interaction strength, with the drive
    amplitudes tied to it as Omega0 = lambda1 |B|, Delta0 = lambda2 |B|."""
    if not 0.0 < lambda1 < lambda2 < 1.0:
        raise ValueError(f"need 0 < lambda1 < lambda2 < 1, got {lambda1}, {lambda2}")
    if gamma_mean <= 0.0 or b_nn == 0.0:
        raise ValueError("gamma_mean must be > 0 and B nonzero")
    mu, _ = leakage_mu_nu(n_atoms)
    nu_bar = mean_rydberg_number(n_atoms)
    b = abs(b_nn)
    arg = mu * c_dominant * lambda1**2 * b / (nu_bar * lambda2 * gamma_mean)
    if arg <= 1.0:
        raise RegimeError(f"decay dominates at all tau (log argument {arg:.3g} <= 1)")
    return nu_bar * lambda2 / (c_dominant * lambda1**2) * gamma_mean / b * (1.0 + math.log(arg))


def scaling_emin(length: float, n_atoms: int, c6: float, gamma_mean: float) -> float:
    """Large-N scaling law Gamma L^6 / (C6 N^3) (logarithm omitted)."""
    if length <= 0.0 or n_atoms < 1 or c6 == 0.0:
        raise ValueError("need L > 0, N >= 1 and C6 != 0")
    return gamma_mean * length**6 / (abs(c6) * n_atoms**3)


def transfer_error(b_nn: float, b_nn_prime: float, omega_sd: float) -> float:
    """Error of the two-photon r -> r' transfer pulse for an atom with one
    next-nearest neighbour: |(B - B') / (2^6 Omega_SD)|^2."""
    if omega_sd == 0.0:
        raise ValueError("transfer Rabi frequency must be nonzero")
    return abs((b_nn - b_nn_prime) / (64.0 * omega_sd)) ** 2


def compensating_detuning(b_nnn: float, b_nnn_prime: float) -> float:
    """Two-photon detuning 2 (B2 - B2') compensating the bulk level shifts."""
    return 2.0 * (b_nnn - b_nnn_prime)


@dataclass(frozen=True, eq=False)
class ErrorModel:
    """Analytic error budget for an N-atom gate at a given pulse."""

    n_atoms: int
    c_nu: Dict[int, float]
    mu: int
    nu_bar: float
    e_decay: float
    e_leakage: float
    e_leakage_dominant: float
    tau_opt: Optional[float]  # None without decay: no finite optimum
    e_min: Optional[float]
    lambda1: float
    lambda2: float


def build_error_model(
    n_atoms: int,
    cfg: ProtocolConfig,
    fitted_c: Optional[Mapping[int, float]] = None,
) -> ErrorModel:
    """Evaluate the full error model at the configured pulse duration.

    Fitted constants are used where provided; other chain sizes fall back
    to gap-derived values.  Without decay (mean rate 0) the error falls
    with tau forever, so ``tau_opt`` and ``e_min`` are None.
    """
    nus = sorted({n_atoms - 2, n_atoms - 1, n_atoms})
    c_table: Dict[int, float] = dict(fitted_c or {})
    missing = [nu for nu in nus if nu not in c_table]
    if missing:
        c_table.update(kappa_c_table(missing, cfg.pulse))
    gamma = cfg.decay.mean_rate(cfg.pulse.tau, cfg.interaction.lambda_ratio)
    leak = leakage_error(n_atoms, c_table, cfg.pulse)
    tau_opt = e_min = None
    if gamma > 0.0:
        tau_opt, e_min = optimal_tau(n_atoms, c_table[leak.nu_dominant], cfg.pulse, gamma)
    b = abs(cfg.interaction.b_nn)
    return ErrorModel(
        n_atoms=n_atoms,
        c_nu=c_table,
        mu=leak.mu,
        nu_bar=mean_rydberg_number(n_atoms),
        e_decay=decay_error(n_atoms, gamma, cfg.tau_total),
        e_leakage=leak.full,
        e_leakage_dominant=leak.dominant,
        tau_opt=tau_opt,
        e_min=e_min,
        lambda1=cfg.pulse.omega0 / b if b else math.nan,
        lambda2=abs(cfg.pulse.delta0) / b if b else math.nan,
    )


@dataclass(frozen=True)
class SweepPoint:
    n_atoms: int
    tau: float
    e_numeric: float
    fidelity: float
    e_decay: float
    e_leakage: float
    e_model: float


def _tau_chunks(taus: Sequence[float]) -> list:
    """Consecutive runs of ``TAU_CHUNK`` pulse durations (the last may be shorter)."""
    return [list(taus[i : i + TAU_CHUNK]) for i in range(0, len(taus), TAU_CHUNK)]


def _sweep_chunk(args) -> list:
    """The sweep points of one chunk of pulse durations: the gate's chains
    at every duration, propagated as one state."""
    n_atoms, cfg, taus, c_table = args
    nus = _gate_chain_sizes(n_atoms)
    points = []
    for tau, amps in zip(taus, tau_batch_amplitudes(nus, cfg, taus)):
        report = _gate_report(n_atoms, dict(zip(nus, amps)))
        run_cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau))
        gamma = run_cfg.decay.mean_rate(tau, run_cfg.interaction.lambda_ratio)
        e_dec = decay_error(n_atoms, gamma, run_cfg.tau_total)
        e_leak = leakage_error(n_atoms, c_table, run_cfg.pulse).full
        points.append(SweepPoint(
            n_atoms=n_atoms,
            tau=tau,
            e_numeric=report.infidelity,
            fidelity=report.fidelity,
            e_decay=e_dec,
            e_leakage=e_leak,
            e_model=e_dec + e_leak,
        ))
    return points


def sweep_tau(
    n_atoms: Union[int, Sequence[int]],
    cfg: ProtocolConfig,
    taus: Sequence[float],
    c_table: Mapping[int, float],
    jobs: int = 1,
) -> Tuple[SweepPoint, ...]:
    """Numeric infidelity versus pulse duration, alongside the analytic
    decay + leakage model (the data behind the error-vs-tau curves).

    ``n_atoms`` is one chain length, which must agree with the config
    chain, or a list of lengths, each run on the config with its chain
    set to that length.  Each pulse duration runs
    ``evolution.STEPS_PER_PULSE`` split steps per pulse, whatever the
    config's ``dt_us``.  The grid is cut into fixed chunks of ``TAU_CHUNK``
    durations, each propagated as one state (``tau_batch_amplitudes``);
    every (length, chunk) pair is one task, and ``jobs`` > 1 runs the tasks
    in worker processes, with the same results in the same order: length
    by length, each in the order of ``taus``."""
    if np.ndim(n_atoms) == 0:
        if n_atoms != cfg.chain.n_atoms:
            raise ValueError(f"n_atoms = {n_atoms} disagrees with the config chain ({cfg.chain.n_atoms})")
        sizes = [n_atoms]
    else:
        sizes = list(n_atoms)
    chunks = _tau_chunks([float(tau) for tau in taus])
    tasks = [
        (n, replace(cfg, chain=replace(cfg.chain, n_atoms=n)), chunk, dict(c_table))
        for n in sizes
        for chunk in chunks
    ]
    return tuple(point for points in map_tasks(_sweep_chunk, tasks, jobs) for point in points)


def map_tasks(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, run in min(jobs, CPU count, task count)
    worker processes when that is more than one; results keep task order."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a one-worker run starts no pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]
