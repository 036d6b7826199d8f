"""Classical Monte Carlo over thermal atomic motion.

Atoms move ballistically along the chain axis during the protocol
(x_i(t) = x_i(0) + v_i t, velocities Gaussian with the 1D thermal scale
sqrt(k_B T / m)), so every pair distance is linear in time, d0 + dv t, and
the pairwise interactions are tabulated from it for a block of integrator
evaluations at a time.  Each chunk of trials, with the frozen-chain
baseline as one more row of the first chunk, is propagated once by RK4
(``_thermal_dt`` sets its step), the stepper of ``evolution.run_protocol``:
moving atoms break the mirror identity that lets the gates run pulse I
alone, so pulse II runs after pulse I, from its final state
(``evolution._protocol_start`` and ``evolution._rk4_pulses``).  The chunk
passes one per-trial interaction function of absolute protocol time;
``evolution._protocol_start`` alone builds pulse II's from it.  The
active chains of the four input branches (nu = N-2, N-1, N-1, N) are the
blocks of one direct-sum state, each trial is one column, and their
interaction is one chain-pair incidence of all their states.  The
residual |11>-branch phase and the fidelity loss against the baseline
quantify the dephasing caused by imperfect cancellation between the two
pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from .basis import build_full_basis
from .config import ChainConfig, InteractionConfig, Model, ProtocolConfig
from .errors import ConfigError, SampleRejected
from .evolution import RK4_STABLE_DT_RHO, _protocol_start, _rk4_pulses
from .gate import INPUT_LABELS, active_atoms, fidelity_from_diag, map_tasks
from .hamiltonian import ChainHamiltonian, pair_incidence, pair_sites
from .units import M_RB87, thermal_velocity

# RK4 steps per pulse.  Moving atoms keep RK4 (see ``evolution``): the
# split steps of the gates reach the thermal fingerprints' accuracy only
# past 3000 steps, where their per-trial exponentials cost twice RK4's run
DT_STEPS_THERMAL = 1500
# a trial's Philox key holds the seed as one uint64 word
SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class ThermalConfig:
    """Monte Carlo ensemble parameters.

    ``temperature`` in kelvin of Rb-87 atoms, ``position_sigma`` the
    initial per-atom position spread in um (0 = perfectly ordered traps).
    """

    temperature: float
    position_sigma: float = 0.0
    trials: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature < 0.0 or self.position_sigma < 0.0:
            raise ValueError("temperature and position spread must be >= 0")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    @property
    def v_th(self) -> float:
        """1D thermal velocity sqrt(k_B T / m) in um/us."""
        return thermal_velocity(self.temperature, M_RB87)


@dataclass(frozen=True)
class KinematicDraw:
    """One sample of per-atom position offsets (um) and velocities (um/us)."""

    offsets: np.ndarray
    velocities: np.ndarray


def sample_kinematics(tcfg: ThermalConfig, n_atoms: int, trial: int) -> KinematicDraw:
    """Counter-based per-trial draw: reproducible for a (seed, trial) pair
    independent of execution order or worker count."""
    rng = np.random.Generator(np.random.Philox(key=np.array([tcfg.seed, trial], dtype=np.uint64)))
    offsets = rng.normal(0.0, tcfg.position_sigma, n_atoms) if tcfg.position_sigma > 0.0 else np.zeros(n_atoms)
    velocities = rng.normal(0.0, tcfg.v_th, n_atoms) if tcfg.v_th > 0.0 else np.zeros(n_atoms)
    return KinematicDraw(offsets=offsets, velocities=velocities)


@dataclass(frozen=True)
class DephasingEstimate:
    """Closed-form dephasing scale: next-nearest interaction drift and the
    resulting phase error delta_phi = delta_B2 * tau."""

    delta_b2: float
    delta_phi: float


def analytic_dephasing(
    tcfg: ThermalConfig, chain: ChainConfig, interaction: InteractionConfig, tau: float
) -> DephasingEstimate:
    """delta_B2 = B2 * 3 sqrt(2) v_th tau / a and delta_phi = delta_B2 tau."""
    db2 = abs(interaction.b_nnn) * 3.0 * math.sqrt(2.0) * tcfg.v_th * tau / chain.spacing
    return DephasingEstimate(delta_b2=db2, delta_phi=db2 * tau)


def _thermal_dt(cfg: ProtocolConfig, d0: np.ndarray, dv: np.ndarray, n_atoms: int) -> float:
    """Integrator step for kinematic draws whose atom pairs start at
    distances ``d0`` that change at rates ``dv`` ((pairs, trials), over
    ``n_atoms`` atoms; systematic discretization phase errors cancel against
    the identically discretized baseline): tau / ``DT_STEPS_THERMAL``, or
    finer where a close pair would put RK4 outside its stability interval.

    Gershgorin bounds the spectral radius of H on the full basis by
    sum_pairs |C6| / d^6 + (|Delta0| + |Omega0| / 2) N, with each pair at
    its closest over the protocol (an end, as the distance is linear in t);
    pulse II on pulse I's clock has the same bound.
    """
    d = np.minimum(d0, d0 + dv * cfg.tau_total)
    pulse = cfg.pulse
    rho = np.max(np.sum(abs(cfg.interaction.c6) / d**6, axis=0)) + (abs(pulse.delta0) + 0.5 * abs(pulse.omega0)) * n_atoms
    return pulse.tau / max(DT_STEPS_THERMAL, math.ceil(pulse.tau * rho / RK4_STABLE_DT_RHO))


def _pair_motion(
    cfg: ProtocolConfig, offsets: np.ndarray, velocities: np.ndarray, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j) of the run of atoms lo..hi within the interaction
    range, (pairs, 2), and their distances at t = 0 and rates of change for
    the draws in the rows of ``offsets`` / ``velocities``, (pairs, trials)."""
    pairs = lo + np.array(pair_sites(hi + 1 - lo, cfg.interaction.range_cutoff), dtype=int).reshape(-1, 2)
    ia, ib = pairs.T
    base = cfg.chain.spacing * np.arange(offsets.shape[1]) + offsets
    return pairs, (base[:, ib] - base[:, ia]).T, (velocities[:, ib] - velocities[:, ia]).T


def _stays_ordered(x0: np.ndarray, velocities: np.ndarray, t_end: float) -> np.ndarray:
    """Whether each row's ballistic positions x0 + v t (um, um/us) increase
    along the row over 0 <= t <= t_end: the distances are linear in t, so
    both ends decide."""
    return np.all([np.diff(x0 + velocities * t, axis=1) > 0.0 for t in (0.0, t_end)], axis=(0, 2))


def _batch_branch_amplitudes(
    n_atoms: int,
    cfg: ProtocolConfig,
    offsets: np.ndarray,
    velocities: np.ndarray,
    labels: Sequence[str],
) -> np.ndarray:
    """Final ground-state amplitudes of input branches with moving atoms: a
    (trials, len(labels)) array for the kinematic samples in the rows of
    ``offsets`` / ``velocities``.

    The active chain of each label is one block of a single direct-sum state
    (full basis: moving atoms break the mirror) and each trial one column,
    propagated by RK4 through both pulses in sequence
    (``evolution._rk4_pulses``), so one run serves every (label, trial)
    pair.  Positions evolve over absolute protocol time, so each pair
    distance is d0 + dv t.  A block is a run of the chain, so its states are
    its masks shifted to its first atom, and the interaction diagonal of a
    block of evaluation times is one product of their incidence on the pairs
    of the atoms the blocks cover (no atom outside a block) with the pair
    strengths C6 / d^6; ``evolution._protocol_start`` builds pulse II's
    interaction from this one function.  Pulse II runs after pulse I; with
    ``cfg.include_decay`` the states keep the physical norm decay of either
    pulse, otherwise they are normalised (the rule of
    ``evolution._rk4_pulses``).  Raises ConfigError for a model other than
    full vdW.
    """
    if cfg.model is not Model.FULL_VDW:
        raise ConfigError("thermal motion requires the full van der Waals model")
    atom_sets = [np.array(active_atoms(n_atoms, label)) for label in labels]
    hams = [ChainHamiltonian(cfg.model, build_full_basis(len(atoms)), cfg.interaction) for atoms in atom_sets]

    base = cfg.chain.spacing * np.arange(n_atoms)[None, :] + offsets  # (trials, n_atoms)
    ok = np.all([_stays_ordered(base[:, atoms], velocities[:, atoms], cfg.tau_total) for atoms in atom_sets], axis=0)
    if not np.all(ok):
        raise SampleRejected(f"atom ordering violated for batch rows {np.flatnonzero(~ok).tolist()}")

    # the pairs of the run of atoms the blocks cover
    lo, hi = min(atoms[0] for atoms in atom_sets), max(atoms[-1] for atoms in atom_sets)
    pairs, d0, dv = _pair_motion(cfg, offsets, velocities, lo, hi)
    masks = np.concatenate([h.basis.masks << atoms[0] for atoms, h in zip(atom_sets, hams)])
    inc = pair_incidence(masks, pairs)  # (dim, pairs)

    c6 = cfg.interaction.c6

    def v_int_at(t_abs: np.ndarray) -> np.ndarray:
        d = d0 + dv * t_abs[:, None, None]  # (times, pairs, trials)
        return inc @ (c6 / d**6)  # (times, dim, trials)

    run_cfg = replace(cfg, dt=_thermal_dt(cfg, d0, dv, hi + 1 - lo))
    seg1, seg2, psi, n = _protocol_start(hams, run_cfg, v_int_at)
    *_, s2 = _rk4_pulses(seg1, seg2, np.repeat(psi[:, None], len(offsets), axis=1), run_cfg.dt, n, n)
    return s2[-1][[chain.start for chain in seg1.chains]].T


def _wrap_phase(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True, eq=False)
class ThermalReport:
    """Ensemble summary of the thermal dephasing Monte Carlo.

    ``fidelity_loss`` is the mean infidelity 1 - F over trials;
    ``thermal_excess_loss`` subtracts the frozen-chain baseline run at the
    identical discretization and isolates the motional contribution (the
    quantity with the tau^4 scaling).  ``dt`` is the RK4 step of the first
    pulse: tau / ``DT_STEPS_THERMAL``, or the finest step a close pair set
    for a chunk (``_thermal_dt``).
    """

    n_atoms: int
    trials: int
    seed: int
    rejected: int
    dt: float
    delta_phi_samples: np.ndarray
    delta_phi_rms: float
    fidelity_samples: np.ndarray
    fidelity_loss: float
    thermal_excess_loss: float
    baseline_fidelity: float
    analytic_estimate: DephasingEstimate


_BATCH_CHUNK = 64  # fixed so results do not depend on the worker count


def _chunk_worker(args: Tuple[int, ProtocolConfig, np.ndarray, np.ndarray]) -> np.ndarray:
    """(trials, 4) input-branch amplitudes of one chunk of kinematic samples,
    from one propagation."""
    return _batch_branch_amplitudes(*args, INPUT_LABELS)


def run_thermal_ensemble(
    n_atoms: int,
    cfg: ProtocolConfig,
    tcfg: ThermalConfig,
    jobs: int = 1,
) -> ThermalReport:
    """Monte Carlo over kinematic draws against the frozen-chain baseline.

    Trials are propagated in fixed-size column batches, so results are
    bitwise reproducible for a given (seed, trials) regardless of ``jobs``.
    The baseline is the zero-draw run through the identical code path: one
    more row at the head of the first batch.
    """
    draws = [sample_kinematics(tcfg, n_atoms, trial) for trial in range(tcfg.trials)]
    offsets = np.stack([d.offsets for d in draws])
    velocities = np.stack([d.velocities for d in draws])

    # ballistic trajectories must keep the chain ordered over the protocol
    ok = _stays_ordered(cfg.chain.spacing * np.arange(n_atoms)[None, :] + offsets, velocities, cfg.tau_total)
    rejected = int(np.sum(~ok))
    if not np.any(ok):
        raise SampleRejected("all thermal samples were rejected")

    zero = np.zeros((1, n_atoms))
    offsets = np.concatenate([zero, offsets[ok]])
    velocities = np.concatenate([zero, velocities[ok]])
    # chunk k holds trials [64 k, 64 (k + 1)); the first also the baseline row
    rows = offsets.shape[0]
    bounds = [0, *range(_BATCH_CHUNK + 1, rows, _BATCH_CHUNK), rows]
    chunks = [(n_atoms, cfg, offsets[a:b], velocities[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    baseline, *diags = np.concatenate(map_tasks(_chunk_worker, chunks, jobs), axis=0)
    f_base = fidelity_from_diag(n_atoms, baseline)
    ref_phase = np.angle(baseline[3])

    fids = np.array([fidelity_from_diag(n_atoms, d) for d in diags])
    dphi = np.array([_wrap_phase(float(np.angle(d[3]) - ref_phase)) for d in diags])
    return ThermalReport(
        n_atoms=n_atoms,
        trials=len(diags),
        seed=tcfg.seed,
        rejected=rejected,
        dt=_thermal_dt(cfg, *_pair_motion(cfg, offsets, velocities, 0, n_atoms - 1)[1:], n_atoms),
        delta_phi_samples=dphi,
        delta_phi_rms=float(np.sqrt(np.mean(dphi**2))),
        fidelity_samples=fids,
        fidelity_loss=float(np.mean(1.0 - fids)),
        thermal_excess_loss=float(np.mean(f_base - fids)),
        baseline_fidelity=f_base,
        analytic_estimate=analytic_dephasing(tcfg, cfg.chain, cfg.interaction, cfg.pulse.tau),
    )
