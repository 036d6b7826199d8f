"""Time-dependent Schroedinger propagation of the two-pulse protocol.

H(t) = Omega(t) drive + diag(-Delta(t) n_r + v) - i (Gamma / 2) n_r is a
fixed real symmetric drive times a scalar plus a diagonal.  Pulse II
retraces pulse I: Omega is even and Delta odd about tau / 2, the flipped
interaction is -lambda v, and G = diag((-1)^n_r) flips only the sign of
the drive, so H_II(t') = -lambda G H_I(tau - lambda t') G for the
Hermitian parts.  In pulse I's time s = tau - lambda t', pulse II runs
backwards under G H_I[gamma]^dagger G, H_I[gamma] being pulse I's H at
decay rate gamma = gamma_rp / lambda: M_II = G M_I[gamma_rp / lambda]^dagger G
for the pulses' propagators.  G commutes with the inversion, so this holds
on the even sectors too.  Per unit of u = lambda t', pulse II's generator
H_II(u / lambda) / lambda is pulse I's Omega(u) and Delta(u) under the
negated interaction -v at decay rate gamma_rp / lambda: every engine runs
on pulse I's clock, with pulse I's pulse and step.

Gates and pulse-duration batches need only <0...0| M_II M_I |0...0> =
<c'| G |c>, with c = M_I[gamma_r] |0...0> and c' = M_I[gamma_rp / lambda]
|0...0>: ``final_amplitudes`` runs pulse I alone on one engine whose
column groups each carry a decay rate and a scale, with c' in groups of
its own rate only when the two rates differ.  With equal rates (decay-free,
or lambda = 1 with gamma_r = gamma_rp) c' = c and the amplitude is
sum_k |c_k|^2 (-1)^n_r(k): real, and the same at every lambda.  Static
chains take a fourth-order splitting, ``_run_split``: Blanes & Moan's
six-stage S6 (J. Comput. Appl. Math. 142, 313 (2002)), the palindrome
exp(a1 h A) exp(b1 h B) exp(a2 h A) ... exp(b1 h B) exp(a1 h A) of the
diagonal A and the drive B (``SPLIT_A``, ``SPLIT_B``).  The diagonal flow
carries the time, so each drive exponential takes Omega where the
diagonal factors before it end (``STEP_NODES``), and a step's last
diagonal factor merges with the next step's first: six drive and six
diagonal exponentials per step.  The diagonal is exponentiated exactly
(Delta is linear in t, so its midpoint value times the span is its
integral, and v is constant).  The drive is diagonalised once per chain,
s, W = eigh(drive), and exp(-i theta drive) = W diag(exp(-i theta s)) W^T
is two real products on the float64 view of the state.  A decay-free step
is unitary, so the norm holds to round-off without renormalisation, and
no step size blows up.  After one pulse the split at 500 steps errs 8e-6
at vdW nu = 3; its steps obey the mirror identity to round-off (the nodes
are a palindrome), so the mirror-image pulses cancel most of that, and
the final amplitudes at 500 steps per pulse err 300-2000 times less than
RK4 at 4000 (``STEPS_PER_PULSE``).

Trajectories (``run_protocol``, sampled every few steps and read between
the pulses) and moving atoms (thermal chunks, whose motion breaks the
mirror and whose per-trial interaction would need one complex exponential
exp(-i x v) per row and trial in every diagonal factor) run both pulses
with fixed-step classical RK4 with midpoint evaluations, ``_run_segment``:
one real matrix product per stage on the float64 view (rows, 2 * batch)
of the state per entry of ``_SegmentEngine.drives`` (consecutive chain
blocks share one block-diagonal drive while it has at most
``MERGED_DRIVE_ROWS`` rows).  The state's shape picks the rest of a step.
One state (``run_protocol``) steps by numpy row combinations
(``_rk4_rows``): the step start, each stage's d * u and its drive product
are rows of one array, so a stage input is one ``np.dot`` of three
coefficients with three rows and the step end one of 11 with all rows, 13
calls per step.  A batch of trial columns (a thermal chunk) takes level-1
BLAS calls (``zaxpy``, ``zcopy``) for the -i Omega scaling, the stage
states and the update on the flat rows of one preallocated array
(``_rk4_columns``), imported from ``scipy.linalg.blas`` in its body, the
package's only scipy import: on a 64-column batch of the vdW nu = 5 basis
the row combinations take 1.21 times as long.  One CPU, one BLAS thread:
the row body steps vdW nu = 3..9 at 0.86-1.02 of the BLAS body's time, and
without the import a cold ``evolve --nu 5`` (vdW) takes 0.43 s and peaks
at 46 MB of resident memory, against 0.65 s and 72.5 MB; only ``thermal``
loads scipy.
``run_protocol`` refuses a config step coarser than tau /
``config.DT_STEPS_MIN`` or past RK4's stability bound
(``RK4_STABLE_DT_RHO`` over a Gershgorin bound of H, pulse I's bounding
both pulses on one clock).  ``_rk4_pulses`` runs pulse II after pulse I
for both RK4 callers and normalises each chain block of every stored
sample of a Hermitian run (removing the RK4 amplitude artifact): pulse
I's samples iff pulse I is decay-free, pulse II's iff both pulses are, so
the norm never rises across the pulse boundary.  The step is linear and
block-diagonal, so this equals renormalising after every step up to
round-off.

Both steppers tabulate the pulse once per segment and the diagonal once
per block of ``DIAG_BLOCK_STEPS`` steps, and share their sample grid
(``_sample_grid``) and their look for non-finite amplitudes
(``_check_finite``).  The split builds its tables from per-level phases
(``_split_tables``): a diagonal factor exp(x (-Gamma/2 + i Delta_mid) n_r)
exp(-i x v) over a span x takes one exponential per node, column group and
distinct n_r, times a fixed table per group of exp(-i x v) over the five
span lengths of a step, and a drive phase exp(-i theta s) one per distinct
eigenvalue of each chain's drive (``_SegmentEngine.drive_levels``: 21 for
the 128 rows of the vdW N = 7 gate).  ``_pulse_one`` builds pulse I's
engine, one column group per decay rate and scale, and the initial state;
``_protocol_start`` adds pulse II's engine on pulse I's clock and on pulse
I's own chains, whose one interaction input is -v (the negated static
diagonal of pulse I's sector chains, or the negated per-trial interaction
at tau + u / lambda of moving atoms), and the step count for both RK4
callers, ``run_protocol`` and a thermal chunk
(``thermal._batch_branch_amplitudes``).  ``ground_amplitudes`` propagates
the chains of a gate (nu = N-2, N-1, N) as one direct sum,
``tau_batch_amplitudes`` adds one column group per pulse duration (the
pulse is a function of t / tau, so each duration runs on the step grid of
the first with its H scaled by tau / tau_ref), and a thermal chunk takes
one column per trial.  A static chain is mirror-symmetric and starts in
|0...0>, so static chains run on the inversion-even sectors
(``ChainHamiltonian.sector``; 20 of 32 states at vdW nu = 5, 72 of 128 at
nu = 7); a thermal chunk keeps the full basis.  Both RK4 callers hold one
sample array (``_rk4_pulses``): the start state, pulse I's samples, then
pulse II's, which start from pulse I's last row.  ``run_protocol`` keeps it
on the sector (``Trajectory.samples``) and takes the norms and populations
from full-basis rows a chunk at a time; ``Trajectory.states`` is built on
first access.  Its traced peak at vdW nu = 5 is 4.7 MB, 13.6 MB when it
held both pulses' samples, their concatenation and the full basis.

The dynamical phase integrates the energy of the branch that holds the
state (``_branch_energies``): a residual bound proves which eigenvalue of
the Hermitian part of H on the sector holds more than half of each state;
only the samples it cannot settle (near-degenerate partners, such as the
even-nu vdW AFM doublet) take eigenvectors.  By the mirror identity,
pulse II's branch energy of psi after step a is -lambda times pulse I's of
G psi after step n - a, so the phase record takes one Hamiltonian, pulse
I's, and one table of its eigenvalues (``_mirrored_eigenvalues``): one
stacked real ``eigvalsh`` per chunk of pulse I's H (``_eigenvalue_table``)
at the sample steps A of a pulse and their mirrors n - A, one pulse of
eigensolves when the stride divides the step count n.  Each chunk of
samples gathers its rows of the table, and pulse II's chunks take G there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .basis import Basis, afm_manifold_masks, ordered_afm_masks
from .config import DT_STEPS_MIN, Model, ProtocolConfig, PulseProfile, pulse_with_tau
from .errors import ConfigError, PropagationError
from .hamiltonian import ChainHamiltonian, ladder_modes, model_basis

OVERLAP_VALID_MIN = 0.1
PHASE_SAMPLE_MARGIN = math.pi / 4.0
# Blanes & Moan's six-stage fourth-order splitting (S6 of J. Comput. Appl.
# Math. 142, 313 (2002)): a step is exp(a1 h A) exp(b1 h B) exp(a2 h A) ...
# exp(b1 h B) exp(a1 h A) with the palindromes a = (a1, a2, a3, a4, a3, a2,
# a1) on the diagonal A and b = (b1, b2, b3, b3, b2, b1) on the drive B
SPLIT_A = (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
SPLIT_B = (0.209515106613362, -0.143851773179818)
# The seven diagonal coefficients of a step, and its nodes as fractions of h:
# its start, the six drive nodes (the diagonal flow carries the time, so
# each drive exponential sits where the diagonal factors before it end) and
# its end
STEP_A = SPLIT_A + (1.0 - 2.0 * sum(SPLIT_A),) + SPLIT_A[::-1]
STEP_NODES = np.r_[0.0, np.cumsum(STEP_A)[:-1], 1.0]
DRIVE_WEIGHTS = np.array(SPLIT_B + (0.5 - sum(SPLIT_B),) * 2 + SPLIT_B[::-1])
# Steps per pulse of every final-amplitude run of static chains (gates, tau
# batches, fit-c, the parity round trip).  Halving study: the gate's three
# chains, even sectors, decay on, lambda = 1; max |amp - RK4 at tau/32000|,
# whose own error is about 4e-10 at N = 7 and 1.5e-9 at N = 9 (lambda = 0.5
# and 2 agree within 10 % from N = 5 on, and within a factor 2 below):
#
#   N    RK4 4000 steps   split 125   split 250   split 500   split 1000
#   3    2.3e-7           3.9e-5      1.8e-9      1.0e-10     3.1e-12
#   4    2.7e-7           7.4e-5      2.6e-9      1.7e-10     1.8e-11
#   5    2.5e-6           7.5e-5      5.3e-8      3.2e-9      1.3e-10
#   6    2.9e-6           1.4e-4      5.3e-8      3.2e-9      1.3e-10
#   7    1.35e-5          1.4e-4      6.4e-7      3.9e-8      2.1e-9
#   8    1.5e-5           2.1e-4      6.4e-7      3.9e-8      2.1e-9
#   9    4.8e-5           2.1e-4      1.5e-6      9.3e-8      4.4e-9
#   10   5.7e-5           2.8e-4      1.5e-6      9.3e-8      4.4e-9
#
# A step makes twice the exponentials of a step of Yoshida's triple jump,
# whose 1000 steps cost as much as these 500 and err 8-26x more in the
# amplitudes (5.3e-7 at N = 7) and 65x more in the infidelity of N = 3 at
# tau = 0.5 us (3.9e-8 against 6e-10)
STEPS_PER_PULSE = 500
# RK4 is stable while dt |E| <= 2 sqrt(2) for every eigenvalue E of H; a
# step past 2.8 over a Gershgorin bound of |E| is refused (``run_protocol``)
# or refined (``thermal._thermal_dt``)
RK4_STABLE_DT_RHO = 2.8
# Steps whose diagonals (RK4) or diagonal factors and drive phases (split)
# are tabulated together: long enough to amortise the per-call cost, short
# enough to keep a thermal block of (2 * steps, dim, batch) complex entries
# small, and the split's two tables of (steps, 6, rows, groups) entries,
# built from per-level phases.  Decay on, lambda = 1, one CPU: at 8, 16
# and 32 steps ground_amplitudes([6, 7, 8]) peaks at 2.3, 2.7 and 3.6 MB
# traced and a 12-duration tau batch at nu = 7 at 3.0, 4.6 and 7.5 MB;
# both run fastest at 16 (2-5 % slower at 8, 5-16 % at 32)
DIAG_BLOCK_STEPS = 16
# Consecutive drive eigenvalues this many ulps of the largest |eigenvalue|
# apart or closer are one level of the split's drive phases
SAME_LEVEL_ULPS = 16
# Rows of the largest block-diagonal drive (RK4) or eigenbasis (split) that
# merges consecutive chain blocks of a direct sum into one product per RK4
# stage or drive exponential.  Merging saves a
# call (about 0.6 us) but multiplies the zero blocks (about 0.2 ns per
# entry), so it pays for small blocks only.  Measured RK4 steps on the even
# sectors (one BLAS thread, 2.1 GHz Xeon): the vdW gate at N = 7
# (20 + 36 + 72 rows) takes 19.8 us in three products, 19.3 us as 56 + 72
# and 22.0 us as one product of 128 rows; at N = 8 (36 + 72 + 136) it takes
# 35.6 us apart, 36.2 us as 108 + 136; six nu = 5 blocks of 20 rows take
# 37.9 us apart, 30.1 us in products of 60 and 31.0 us in one of 120.  The
# split's gate (pulse I, decay on): N = 3 10.2 ms, 15.5 ms apart; N = 5
# 12.9 ms in one product, 17.3 ms apart; N = 7 25.0 ms as 56 + 72,
# 27.8 ms apart, 27.5 ms as one; N = 8 46.2 ms apart, 50.8 ms as 108 + 136
MERGED_DRIVE_ROWS = 64
# Entries of one chunk of a trajectory's bookkeeping: of a stacked
# even-sector eigenproblem of the branch energies (samples times d_even^2,
# 256 KB of float64 at 2^15) and of the full-basis rows of the norms and
# populations (samples times dim).  A vdW nu = 5 evolve (decay on,
# tools/peak_memory.py) peaks at 4.8 MB traced from 2^12 to 2^15 and at
# 7.2 MB at 2^17; its phase record takes 0.19 s at 2^12, 0.16 s at 2^14
# and 0.13 s at 2^15 and 2^17 (best of 5, one CPU)
PHASE_CHUNK_ENTRIES = 1 << 15
# Per-trial interaction diagonals at an array of times
VIntFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled state history of one propagation: the amplitudes on the
    inversion-even sector, ``samples`` (n_samples, d_even), and the sector
    isometry ``u`` (dim, d_even) of ``basis``."""

    basis: Basis
    times: np.ndarray
    samples: np.ndarray
    u: np.ndarray
    norms: np.ndarray
    populations: Dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def states(self) -> np.ndarray:
        """The samples on the full basis, (n_samples, dim), built on first
        access."""
        return self.samples @ self.u.T


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


def _step_count(tau: float, dt: float) -> int:
    """The steps of ``dt`` in a pulse of duration ``tau``; raises ConfigError
    unless dt evenly divides tau."""
    n = round(tau / dt)
    if n < 1 or abs(n * dt - tau) > 1e-9 * max(tau, dt):
        raise ConfigError(f"dt_us = {dt} does not evenly divide tau_us = {tau}")
    return n


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The square ``blocks`` on the diagonal of one matrix, zero elsewhere,
    in the dtype ``scipy.linalg.block_diag`` gives them."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.result_type(*blocks))
    k = 0
    for b in blocks:
        out[k : k + len(b), k : k + len(b)] = b
        k += len(b)
    return out


class _SegmentEngine:
    """One pulse segment over one chain, or over the direct sum of several
    chains driven by the same pulse: the operators of each chain (its
    ``ChainHamiltonian`` or its even-sector copy) plus the pulse scaling.

    The rows of the state are the concatenation of one block per chain
    (``chains`` gives their row ranges); the excitation counts and the
    interaction diagonal are concatenated, so the diagonal of -iH is one
    array for the whole state and only the drive products are made block
    by block (``drives`` for RK4, ``eigenbases`` for the split).

    ``v`` is the one interaction input: by default the chains' static
    diagonals ``h.v`` concatenated, or a given static array over the rows
    (pulse II's -v on pulse I's clock), or, for a batch of trials with
    moving atoms, a function that takes an array of k local times of the
    pulse and returns the real (k, dim, batch) diagonals, one column per
    trial (``diagonals`` calls it).  The engine only steps: the branch
    energies of its samples are ``_branch_energies`` of a chain.  Each
    entry of ``groups`` is one column group of the split's state, a pair
    (decay rate Gamma, scale) whose H has that decay and is times that
    scale (a protocol of duration tau run on the time grid of duration
    tau_ref has H scaled by tau / tau_ref); RK4 runs one group at scale 1.
    Both pulses' engines run on pulse I's clock, ``pulse`` being pulse I's
    (see ``_protocol_start``).
    """

    def __init__(
        self,
        hamiltonians: Sequence[ChainHamiltonian],
        pulse: PulseProfile,
        groups: Sequence[Tuple[float, float]] = ((0.0, 1.0),),
        v: Union[None, np.ndarray, VIntFn] = None,
    ):
        self.hamiltonians = tuple(hamiltonians)
        self.groups = tuple(groups)
        self.pulse = pulse
        self.v = np.concatenate([h.v for h in self.hamiltonians]) if v is None else v
        n_r = np.concatenate([h.n_r for h in self.hamiltonians])
        self._n_r = n_r[:, None] if callable(v) else n_r

    @property
    def chains(self) -> Tuple[slice, ...]:
        """Row range of each chain in the direct-sum state."""
        ends = np.cumsum([h.drive.shape[0] for h in self.hamiltonians]).tolist()
        return tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))

    def _product_groups(self) -> list:
        """Chain indices per drive product: consecutive chain blocks while
        their rows fit in ``MERGED_DRIVE_ROWS``."""
        chains = self.chains
        groups: list = []
        for k, chain in enumerate(chains):
            if groups and chain.stop - chains[groups[-1][0]].start <= MERGED_DRIVE_ROWS:
                groups[-1].append(k)
            else:
                groups.append([k])
        return groups

    @property
    def drives(self) -> Tuple[Tuple[slice, np.ndarray], ...]:
        """The real drive products of one RK4 stage, as (row range, matrix).

        Consecutive chain blocks share one block-diagonal matrix while their
        rows fit in ``MERGED_DRIVE_ROWS``; a block alone keeps its own drive.
        """
        chains = self.chains
        drives = [h.drive for h in self.hamiltonians]
        return tuple(
            (slice(chains[g[0]].start, chains[g[-1]].stop), drives[g[0]] if len(g) == 1 else _block_diag(*(drives[k] for k in g)))
            for g in self._product_groups()
        )

    @cached_property
    def _chain_eigs(self) -> list:
        """(s, W) of each chain's drive = W diag(s) W^T, s ascending."""
        eigs = []
        for h in self.hamiltonians:
            s, w = np.linalg.eigh(h.drive)
            # one Newton-Schulz step restores W^T W = 1 to round-off.
            # Signed largest norm drift of pulse I's 3000 drive
            # exponentials, decay-free, one chain, reference config:
            #
            #   Newton-Schulz steps   PXP nu = 3, 5, 7, 9        vdW nu = 3, 5, 7, 9
            #   0                     +0.8, +9.5, -4.5, +6.4     -4.3, -7.9, +22.8, +1.5
            #   1                     +1.6, -1.7, -3.1, +1.2     +1.4, -2.0, +2.9, -16.3
            #   2                     -1.4, -1.0, +3.8, -5.2     -6.2, -2.9, -2.0, -12.2
            #
            # in units of 1e-13.  No count keeps every chain below 1e-12;
            # one step keeps all but vdW nu = 9 within 3.1e-13
            eigs.append((s, w @ (1.5 * np.eye(len(s)) - 0.5 * (w.T @ w))))
        return eigs

    @cached_property
    def eigenbases(self) -> Tuple[Tuple[slice, np.ndarray], ...]:
        """The real products of one split drive exponential, as (row range,
        eigenvectors W): the chains of one ``drives`` product share one
        block-diagonal W of their own eigenvectors.  Computed once per
        engine."""
        chains, eigs = self.chains, self._chain_eigs
        return tuple(
            (
                slice(chains[g[0]].start, chains[g[-1]].stop),
                eigs[g[0]][1] if len(g) == 1 else _block_diag(*(eigs[k][1] for k in g)),
            )
            for g in self._product_groups()
        )

    @cached_property
    def drive_levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct eigenvalues of the drive, chain by chain, and the
        level of each row of ``eigenbases``: drive = W diag(levels[index])
        W^T.  Each chain's levels are found from its own eigenvalues alone
        (``_distinct_levels``), so a chain takes the same values alone and
        in a direct sum."""
        levels, index = zip(*(_distinct_levels(s) for s, _ in self._chain_eigs))
        offsets = np.cumsum([0] + [len(v) for v in levels[:-1]])
        return np.concatenate(levels), np.concatenate([i + k for i, k in zip(index, offsets)])

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

    def _local(self, u: np.ndarray) -> np.ndarray:
        """Local times u clamped into the pulse window."""
        return np.clip(u, 0.0, self.pulse.tau)

    def nodes(self, dt: float, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        """Local times of the split nodes of every step (``STEP_NODES``
        times dt), (n_steps, nodes), and Omega at its drive nodes (all but
        the first and the last)."""
        u = np.arange(n_steps)[:, None] * dt + STEP_NODES * dt
        return u, self.pulse.omega(self._local(u[:, 1:-1]))

    def diagonals(self, t_local: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Diagonals of -iH of the one column group (RK4) at an array of
        local times and their detunings, stacked on axis 0: (k, dim), or
        (k, dim, batch) with a per-trial interaction (``v`` called at
        ``t_local``).  Real and imaginary parts are written into one complex
        buffer."""
        ((gamma, _),) = self.groups
        v = self.v(t_local) if callable(self.v) else self.v
        delta_n_r = delta.reshape((-1,) + (1,) * self._n_r.ndim) * self._n_r
        out = np.empty(np.broadcast_shapes(delta_n_r.shape, v.shape), dtype=complex)
        # -iH = -i Omega drive - (Gamma / 2) n_r + i (Delta n_r - v)
        out.real = -0.5 * gamma * self._n_r if gamma else 0.0
        np.subtract(delta_n_r, v, out=out.imag)
        return out

    def split_exponents(self, dt: float, n_steps: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-level exponents of the split steps of a static chain at
        step dt, one column per group: for each step its six diagonal
        factors (each leading from the previous node to a drive node, the
        first from the previous step's last drive node) and its tail (from
        the last drive node to the step end), in the order of application.

        Returns ``rates`` x (-Gamma/2 + i Delta_mid), (n_steps, 7, groups),
        for the span x of local time of each factor (times the group's
        scale), the group's decay rate Gamma and Delta at its midpoint
        (Delta is linear in t, so the midpoint value times the span is its
        integral); ``theta`` = b dt Omega of each drive node of ``nodes``
        (b in ``DRIVE_WEIGHTS``) times the group's scale,
        (n_steps, 6, groups); and ``v_phases`` exp(-i x v) of each span,
        (7, dim, groups).  A step's spans are (2 a1, a2, a3, a4, a3, a2)
        and its tail a1 times dt, whatever the step; only the first step of
        the segment starts with a1 (``v_phases[6]``).
        """
        u, omega = self.nodes(dt, n_steps)
        lo = np.column_stack([np.r_[u[0, 0], u[:-1, -2]], u[:, 1:-1]])
        mid = 0.5 * (self._local(lo) + self._local(u[:, 1:]))
        a = SPLIT_A[0]
        span = dt * np.array((2.0 * a,) + STEP_A[1:6] + (a,))
        x = np.repeat(span[None], n_steps, axis=0)
        x[0, 0] = dt * a
        gammas, scales = np.array(self.groups).T
        rates = x[:, :, None] * (-0.5 * gammas + 1j * self.pulse.delta(mid)[:, :, None]) * scales
        theta = (DRIVE_WEIGHTS * dt * omega)[:, :, None] * scales
        v_phases = np.exp(-1j * span[:, None, None] * np.multiply.outer(self.v, scales))
        return rates, theta, v_phases


def _distinct_levels(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of the ascending eigenvalues ``s`` and the level
    of each: consecutive values within ``SAME_LEVEL_ULPS`` ulps of max |s|
    of each other are one level, which takes the value of its middle
    member; a value alone keeps its own.  (eigh spreads the half-integer
    levels of a vdW sector drive by up to 6 ulps between neighbours; the
    smallest gap between distinct PXP levels to nu = 10 is 0.0016.)"""
    gap = np.diff(s) > SAME_LEVEL_ULPS * np.spacing(np.abs(s).max())
    ends = np.r_[np.flatnonzero(gap), len(s) - 1]
    return s[(np.r_[0, ends[:-1] + 1] + ends) // 2], np.r_[0, np.cumsum(gap)]


def _eigenvalue_table(ham: ChainHamiltonian, pulse: PulseProfile, t_local: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``ham`` at each local
    time of ``pulse``, (len(t_local), dim): one stacked real ``eigvalsh``
    of the matrices of ``ChainHamiltonian.matrix`` per chunk of
    ``PHASE_CHUNK_ENTRIES`` matrix entries, and no eigenvectors."""
    t = np.clip(t_local, 0.0, pulse.tau)
    omega, delta = pulse.omega(t), pulse.delta(t)
    chunk = max(1, PHASE_CHUNK_ENTRIES // len(ham.n_r) ** 2)
    w = np.empty((len(t), len(ham.n_r)))
    for lo in range(0, len(t), chunk):
        w[lo : lo + chunk] = np.linalg.eigvalsh(ham.matrix(omega[lo : lo + chunk], delta[lo : lo + chunk]))
    return w


def _mirrored_eigenvalues(
    seg1: _SegmentEngine, dt: float, n_steps: int, stride: int
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """One table of the ascending eigenvalues of the Hermitian part of
    pulse I's H, from which ``run_protocol`` finds the branch energies of
    each pulse's stored samples (the pulse start first, then
    ``_sample_grid``): the times of its rows, the table, and the table row
    of each sample of pulse I (at the sample's own step) and of pulse II
    (at its mirror).

    By the mirror identity (see the module docstring), pulse II's branch
    energy of a state psi after step a is -lambda times pulse I's of G psi
    after step n - a.  Both pulses store the samples after the steps A = 0,
    the strided steps and n, so the table holds pulse I at the steps
    A | (n - A) (A itself when the stride divides n), at the times
    ``_sample_grid`` gives them.
    """
    sample_steps, _ = _sample_grid(seg1, dt, n_steps, stride)
    a = np.r_[0, sample_steps + 1]
    steps, where = np.unique(np.r_[a, n_steps - a], return_inverse=True)
    t = (steps - 1) * dt + dt  # exactly 0 at step 0
    t[-1] = seg1.pulse.tau
    return t, _eigenvalue_table(seg1.hamiltonians[0], seg1.pulse, t), (where[: len(a)], where[len(a) :])


def _branch_energies(
    ham: ChainHamiltonian,
    pulse: PulseProfile,
    t_local: np.ndarray,
    states: np.ndarray,
    table: np.ndarray,
    table_rows: np.ndarray,
    signs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Instantaneous eigenvalue of the dominantly occupied branch of the
    Hermitian part of ``ham`` (maximal overlap with the state) for each
    state row at its local time of ``pulse``, in the space of ``ham`` (the
    even sector of a static PXP or vdW chain); with ``signs``, of each
    state row times ``signs`` (pulse II's G psi), chunk by chunk.

    ``table[table_rows[i]]`` holds the ascending eigenvalues of H at row
    i's time, from ``_eigenvalue_table``; ``run_protocol`` reads both
    pulses' off one table of pulse I's (``_mirrored_eigenvalues``).  For the normalised
    state phi, with Rayleigh quotient r = <phi|H|phi> and residual sigma^2 =
    ||(H - r) phi||^2, the branch weights p_j obey sum_j p_j (w_j - r)^2 =
    sigma^2, so 1 - p_k <= sigma^2 / g^2 for the eigenvalue w_k nearest r
    and the distance g from r to the next-nearest one.  sigma^2 < g^2 / 2
    proves p_k > 1/2: w_k is the branch of maximal overlap.  r and sigma take
    ``ham`` itself, the drive times Omega plus the diagonal, one chunk of
    ``PHASE_CHUNK_ENTRIES`` at a time.  The samples this cannot settle
    (near-degenerate partners sharing the state) take their matrices and the
    eigenvectors through ``_max_overlap_energies``.
    """
    t = np.clip(t_local, 0.0, pulse.tau)
    omega, delta = pulse.omega(t), pulse.delta(t)
    dim = len(ham.n_r)
    chunk = max(1, PHASE_CHUNK_ENTRIES // dim**2)
    energies = np.empty(len(t))
    for lo in range(0, len(t), chunk):
        hi = min(lo + chunk, len(t))
        phi, w = states[lo:hi], table[table_rows[lo:hi]]
        if signs is not None:
            phi = phi * signs
        # H acts on the real and imaginary parts apart: one real product
        # of the (symmetric, zero-diagonal) drive for both, plus H's
        # diagonal -Delta n_r + v
        x = np.stack([phi.real, phi.imag], axis=1)
        hx = (x.reshape(-1, dim) @ ham.drive).reshape(x.shape)
        hx *= omega[lo:hi, None, None]
        hx += (-delta[lo:hi, None] * ham.n_r + ham.v)[:, None, :] * x
        norm2 = np.einsum("ijk,ijk->i", x, x)
        r = np.einsum("ijk,ijk->i", x, hx) / norm2
        hx -= r[:, None, None] * x
        sigma2 = np.einsum("ijk,ijk->i", hx, hx) / norm2
        rows = np.arange(hi - lo)
        dist = np.abs(w - r[:, None])
        k = np.argmin(dist, axis=1)
        nearest = w[rows, k]
        dist[rows, k] = np.inf  # one level alone: g = inf, always settled
        g = np.min(dist, axis=1)
        unsettled = ~(2.0 * sigma2 < g * g)  # a NaN (zero state) is unsettled
        if unsettled.any():
            o, d = omega[lo:hi][unsettled], delta[lo:hi][unsettled]
            nearest[unsettled] = _max_overlap_energies(ham.matrix(o, d), phi[unsettled])
        energies[lo:hi] = nearest
    return energies


def _max_overlap_energies(h: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Eigenvalue of maximal overlap |<v_k|phi>|^2 for each stacked real
    symmetric matrix h (m, d, d) and state row phi (m, d), from one stacked
    ``eigh``."""
    w, vecs = np.linalg.eigh(h)
    # |<v_k|phi>|^2 from real products: no complex copy of vecs
    re = np.matmul(phi.real[:, None, :], vecs)[:, 0, :]
    im = np.matmul(phi.imag[:, None, :], vecs)[:, 0, :]
    return w[np.arange(len(w)), np.argmax(re * re + im * im, axis=1)]


def _real(rows: np.ndarray) -> np.ndarray:
    """The float64 view (rows, 2 * columns) of a C-contiguous complex state
    block, one state (rows,) being one column."""
    return rows.view(np.float64).reshape(len(rows), -1)


def _sample_grid(engine: _SegmentEngine, dt: float, n_steps: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """The steps after which a segment stores a sample (every ``stride``-th
    step and the last one) and their pulse-local times, the last one pinned
    to the exact pulse end so that segment boundaries are found exactly
    downstream."""
    steps = np.minimum(np.arange(stride, n_steps + stride, stride), n_steps) - 1
    times = steps * dt + dt
    times[-1] = engine.pulse.tau
    return steps, times


def _check_finite(times: np.ndarray, samples: np.ndarray) -> None:
    """Raise PropagationError naming the time of the first sample that holds
    non-finite amplitudes."""
    finite = np.isfinite(samples).reshape(len(samples), -1).all(axis=1)
    if not finite.all():
        raise PropagationError(f"non-finite amplitudes at t = {times[np.argmin(finite)]}")


def _split_tables(
    engine: _SegmentEngine, dt: float, n_steps: int
) -> Tuple[Callable[[int, int], Tuple[np.ndarray, np.ndarray]], Callable[[np.ndarray], np.ndarray]]:
    """The diagonal factors and drive phases of the split steps of
    ``engine`` (see ``_run_split``), its column groups side by side, one
    block of steps at a time: ``factors(lo, hi)`` gives those of steps lo
    to hi - 1, (steps, drive nodes, rows, groups, 1) each, and
    ``tails(steps)`` the diagonal factors from the last drive node to the
    end of each step in ``steps`` (within one block), (len(steps), rows,
    groups, 1).  Both write into buffers allocated once, which the next call
    overwrites.

    Each table is built from per-level phases (``split_exponents``).  A
    diagonal factor exp(x (-Gamma/2 + i Delta_mid) n_r - i x v) is
    exp(x (-Gamma/2 + i Delta_mid) n) for each distinct n_r, gathered to
    the rows, times exp(-i x v), a fixed table per group over a step's
    spans.  A drive phase exp(-i theta s) is one exponential per distinct
    eigenvalue of the drive (``_SegmentEngine.drive_levels``), gathered to
    the rows.
    """
    n_levels, n_index = np.unique(engine._n_r, return_inverse=True)
    s_levels, s_index = engine.drive_levels
    rates, theta, v_phases = engine.split_exponents(dt, n_steps)
    v_phases = v_phases[..., None]
    block = min(DIAG_BLOCK_STEPS, n_steps)
    diag = np.empty((block, len(DRIVE_WEIGHTS)) + v_phases.shape[1:], dtype=complex)
    phases = np.empty_like(diag)
    tail = np.empty((block,) + v_phases.shape[1:], dtype=complex)

    # np.take writes straight into a C-contiguous out with mode "clip" (the
    # default "raise" fills a copy first); every index is in range
    def factors(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        d, p = diag[: hi - lo], phases[: hi - lo]
        np.take(np.exp(rates[lo:hi, :6, None, :, None] * n_levels[:, None, None]), n_index, 2, d, "clip")
        first = d[0, 0] * v_phases[6] if lo == 0 else None
        np.multiply(d, v_phases[:6], d)
        if first is not None:
            d[0, 0] = first  # the segment starts with a1, not 2 a1
        np.take(np.exp(-1j * theta[lo:hi, :, None, :, None] * s_levels[:, None, None]), s_index, 2, p, "clip")
        return d, p

    def tails(steps: np.ndarray) -> np.ndarray:
        t = tail[: len(steps)]
        np.take(np.exp(rates[steps, 6, None, :, None] * n_levels[:, None, None]), n_index, 1, t, "clip")
        return np.multiply(t, v_phases[6], t)

    return factors, tails


def _run_split(
    engine: _SegmentEngine,
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The split steps of static chains over one segment; returns the
    pulse-local times (excluding t=0) and the states of the samples taken
    every ``stride`` steps and at the segment end, as arrays (n_samples,)
    and (n_samples, *psi0.shape).

    The column groups of ``engine`` (each a decay rate and a scale) are side
    by side in the state; they share the drive eigenbases, and each has its
    own diagonal factors and drive phases, written side by side into the
    tables of ``_split_tables``.  ``psi0`` is (rows,) or (rows, batch) for an
    engine of one group, or (rows, groups, batch) with the groups in
    order.  A step applies, for each of its drive nodes, the diagonal factor
    that leads to the node (the first one merges the previous step's last),
    then W^T, the drive phases and W as one real product per entry of
    ``_SegmentEngine.eigenbases`` on the float64 views.  A sample applies the
    diagonal factor from the last drive node to the step end, without
    changing the running state.  Raises PropagationError naming the time of
    the first sample that holds non-finite amplitudes.
    """
    shape = np.shape(psi0)
    psi = np.array(psi0, dtype=complex, order="C").reshape(shape[0], len(engine.groups), -1)
    y = np.empty_like(psi)
    psi_r, y_r = _real(psi), _real(y)
    # W^T psi into y and W y into psi on the real views, bound once so that
    # each product is one call with no argument parsing in the loop
    bases = engine.eigenbases
    to_eig = [partial(np.ascontiguousarray(w.T).dot, psi_r[c], y_r[c]) for c, w in bases]
    from_eig = [partial(w.dot, y_r[c], psi_r[c]) for c, w in bases]
    factors, tails = _split_tables(engine, dt, n_steps)
    sample_steps, times = _sample_grid(engine, dt, n_steps, stride)
    samples = np.empty((len(times),) + psi.shape, dtype=complex)

    sample_list = sample_steps.tolist()
    k = 0
    for lo in range(0, n_steps, DIAG_BLOCK_STEPS):
        hi = min(lo + DIAG_BLOCK_STEPS, n_steps)
        diag, phases = factors(lo, hi)
        taken = sample_steps[(sample_steps >= lo) & (sample_steps < hi)]
        tail = iter(tails(taken)) if len(taken) else None
        for i in range(hi - lo):
            for j in range(len(DRIVE_WEIGHTS)):
                # positional out arguments: parsing a keyword costs more
                # than a short call
                np.multiply(psi, diag[i, j], psi)
                for product in to_eig:
                    product()
                np.multiply(y, phases[i, j], y)
                for product in from_eig:
                    product()
            if k < len(sample_list) and lo + i == sample_list[k]:
                np.multiply(psi, next(tail), samples[k])
                k += 1

    samples = samples.reshape((len(times),) + shape)
    _check_finite(times, samples)
    return times, samples


def _stage_diagonals(engine: _SegmentEngine, t_tab: np.ndarray, delta: np.ndarray, n_steps: int) -> Iterator:
    """The diagonals of -iH of each RK4 step at its start, midpoint and end,
    (d_start, d_mid, d_end), from one ``engine.diagonals`` call for the
    segment start and one per block of ``DIAG_BLOCK_STEPS`` steps (the last
    block may be shorter)."""
    block_len = 2 * DIAG_BLOCK_STEPS
    d_end = engine.diagonals(t_tab[:1], delta[:1])[0]
    for j in range(0, 2 * n_steps, 2):
        i = j % block_len
        if i == 0:
            block = engine.diagonals(t_tab[j + 1 : j + 1 + block_len], delta[j + 1 : j + 1 + block_len])
        d_start, d_end = d_end, block[i + 1]
        yield d_start, block[i], d_end


def _rk4_rows(
    engine: _SegmentEngine, psi0: np.ndarray, dt: float, alpha: np.ndarray, diagonals: Iterator,
    stride: int, samples: np.ndarray,
) -> None:
    """The RK4 steps of one state (rows,) with numpy calls only, storing the
    end of every ``stride``-th step and of the last one into ``samples``.

    Classical RK4 in its k-form: stage s takes its input u_s (u_1 = P, the
    step start), e_s = d_s * u_s and K u_s (the drive products), and
    k_s = e_s + alpha_s K u_s with alpha = -i Omega at the stage's
    evaluation; u_{s+1} = P + c_s k_s for c = (dt/2, dt/2, dt), and the
    step ends at P + sum_s w_s k_s, w = dt (1, 2, 2, 1) / 6.  The rows
    [P, e1, Ku1, P, e2, Ku2, P, e3, Ku3, e4, Ku4] of one complex array make
    each stage input one ``np.dot`` of a row (1, c_s, c_s alpha_s) of the
    segment's coefficient table with a window of three rows, and the step
    end one ``np.dot`` of 11 coefficients with all rows into u, copied to
    the three rows of P: 13 calls per step.
    """
    n_steps = len(alpha) // 2
    half, sixth, third = 0.5 * dt, dt / 6.0, dt / 3.0
    # alpha at each step's start, midpoint and end
    a_start, a_mid, a_end = alpha[:-1:2], alpha[1::2], alpha[2::2]
    # per step: the coefficients of the three stage inputs, each over its
    # window of rows, then the 11 of the step end over all rows
    coef = np.stack(
        [np.broadcast_to(x, n_steps) for x in (
            1.0, half, half * a_start,
            1.0, half, half * a_mid,
            1.0, dt, dt * a_mid,
            1.0, sixth, sixth * a_start, 0.0, third, third * a_mid, 0.0, third, third * a_mid, sixth, sixth * a_end,
        )],
        axis=1,
        dtype=complex,
    )
    rows = np.empty((11, len(psi0)), dtype=complex)
    u = np.empty_like(rows[0])
    starts = rows[0:9:3]  # the three rows of P
    u[...] = psi0
    starts[...] = u
    e1, e2, e3, e4 = rows[1], rows[4], rows[7], rows[9]
    w1, w2, w3 = rows[0:3], rows[3:6], rows[6:9]
    # drive @ u into the rows Ku_1 .. Ku_4 on the real views, bound once so
    # that each product is one call with no argument parsing and no
    # array-function dispatch in the loop
    u_r = _real(u)
    k1, k2, k3, k4 = ([partial(m.dot, u_r[c], _real(rows[r, c])) for c, m in engine.drives] for r in (2, 5, 8, 10))
    dot, multiply = np.dot, np.multiply
    s = 0
    tables = zip(diagonals, coef[:, 0:3], coef[:, 3:6], coef[:, 6:9], coef[:, 9:])
    for step, ((d_start, d_mid, d_end), c1, c2, c3, w) in enumerate(tables):
        # the ufuncs and np.dot take positional out arguments, since parsing
        # a keyword costs more than a short call
        multiply(d_start, u, e1)
        for product in k1:
            product()
        dot(c1, w1, u)
        multiply(d_mid, u, e2)
        for product in k2:
            product()
        dot(c2, w2, u)
        multiply(d_mid, u, e3)
        for product in k3:
            product()
        dot(c3, w3, u)
        multiply(d_end, u, e4)
        for product in k4:
            product()
        dot(w, rows, u)
        starts[...] = u
        if (step + 1) % stride == 0 or step == n_steps - 1:
            samples[s] = u
            s += 1


def _rk4_columns(
    engine: _SegmentEngine, psi0: np.ndarray, dt: float, alpha: np.ndarray, diagonals: Iterator,
    stride: int, samples: np.ndarray,
) -> None:
    """The RK4 steps of a batch of states as columns (rows, batch), as
    ``_rk4_rows`` stores them: each derivative is d * y + alpha (drive @ y),
    with one real product per entry of the engine's ``drives`` on the
    float64 views of y and of a scratch row, and level-1 BLAS calls
    (``zaxpy``, ``zcopy``) for the alpha scaling, the stage states and the
    update on the flat rows of one preallocated array."""
    # the package's only scipy import, here so that no other path loads
    # scipy (see the module docstring for why a batch keeps the BLAS calls)
    from scipy.linalg.blas import zaxpy, zcopy

    n_steps = len(alpha) // 2
    half = 0.5 * dt
    sixth = dt / 6.0
    third = dt / 3.0
    shape = np.shape(psi0)
    # psi, k1..k4, y and dy are the rows of one C-contiguous array; the
    # BLAS wrappers get those flat rows, which alias the shaped views (a
    # non-contiguous argument would be copied and the update lost)
    rows = np.empty((7, math.prod(shape)), dtype=complex)
    psi, k1, k2, k3, k4, y, dy = (row.reshape(shape) for row in rows)
    psi_r, k1_r, k2_r, k3_r, k4_r, y_r, dy_r = rows
    psi[...] = psi0
    size = rows.shape[1]

    def products(src: np.ndarray) -> list:
        # drive @ src into dy on the real views, bound once so that each
        # product is one call with no argument parsing and no
        # array-function dispatch in the loop
        return [partial(m.dot, _real(src[c]), _real(dy[c])) for c, m in engine.drives]

    drive_psi, drive_y = products(psi), products(y)
    # alpha at every evaluation as Python complex: no numpy scalar boxed per
    # BLAS call
    alpha = alpha.tolist()
    s = 0
    for step, (d_start, d_mid, d_end) in enumerate(diagonals):
        j = 2 * step
        # k = d * y + alpha (drive @ y) for y = psi, psi + dt/2 k1,
        # psi + dt/2 k2 and psi + dt k3; the BLAS calls and ufuncs take
        # positional arguments (out is the third of np.multiply), since
        # parsing a keyword costs more than a short call
        np.multiply(d_start, psi, k1)
        for product in drive_psi:
            product()
        zaxpy(dy_r, k1_r, size, alpha[j])
        zcopy(psi_r, y_r)
        zaxpy(k1_r, y_r, size, half)
        np.multiply(d_mid, y, k2)
        for product in drive_y:
            product()
        zaxpy(dy_r, k2_r, size, alpha[j + 1])
        zcopy(psi_r, y_r)
        zaxpy(k2_r, y_r, size, half)
        np.multiply(d_mid, y, k3)
        for product in drive_y:
            product()
        zaxpy(dy_r, k3_r, size, alpha[j + 1])
        zcopy(psi_r, y_r)
        zaxpy(k3_r, y_r, size, dt)
        np.multiply(d_end, y, k4)
        for product in drive_y:
            product()
        zaxpy(dy_r, k4_r, size, alpha[j + 2])
        # psi += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4
        zaxpy(k1_r, psi_r, size, sixth)
        zaxpy(k2_r, psi_r, size, third)
        zaxpy(k3_r, psi_r, size, third)
        zaxpy(k4_r, psi_r, size, sixth)
        if (step + 1) % stride == 0 or step == n_steps - 1:
            samples[s] = psi
            s += 1


def _run_segment(
    engine: _SegmentEngine,
    states: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int,
    renormalize: bool,
) -> np.ndarray:
    """RK4 over one segment (trajectories and moving atoms) from the state
    ``states[0]``; writes the samples taken every ``stride`` steps and at
    the segment end into ``states[1:]``, (n_samples, *states[0].shape), and
    returns their pulse-local times (excluding t=0).

    ``engine`` runs one column group (``groups``) at scale 1 forward over
    one chain or the direct sum of its chains; any other groups raise
    ValueError.  The pulse is tabulated once for the segment and the
    complex diagonal d of -iH once per block of ``DIAG_BLOCK_STEPS`` steps
    (``_stage_diagonals``); each derivative is d * y - i Omega (drive @ y).
    The state's shape picks the body: one state (rows,) steps by numpy row
    combinations (``_rk4_rows``), a batch of states as columns (rows,
    batch) by level-1 BLAS calls (``_rk4_columns``).  ``renormalize``
    normalises the stored samples, each chain block and within it each
    column of a batch; the running state is never rescaled (its norm
    drifts by 1.7e-4 over a 1500-step thermal pulse at N = 5 and 9e-4 at
    N = 7), so the samples do not depend on the stride.  Raises
    PropagationError naming the time of the first sample that holds
    non-finite amplitudes.
    """
    if [scale for _, scale in engine.groups] != [1.0]:
        raise ValueError(f"an RK4 engine runs one column group at scale 1, got {list(engine.groups)}")
    t_tab, omega, delta = engine.tables(dt, n_steps)
    _, times = _sample_grid(engine, dt, n_steps, stride)
    samples = states[1:]
    body = _rk4_rows if samples.ndim == 2 else _rk4_columns
    body(engine, states[0], dt, -1j * omega, _stage_diagonals(engine, t_tab, delta, n_steps), stride, samples)

    # RK4 on psi' = -iH psi is linear and block-diagonal over the chain
    # blocks and the columns, so scaling a block's column commutes with
    # every later step: normalising the samples gives the states of a run
    # renormalised after every step, up to round-off.  Dividing by the
    # largest amplitude first keeps the norm finite when a step too coarse
    # for RK4 has grown the state past 1e154; a non-finite sample stays
    # non-finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in engine.chains if renormalize else ():
            block = samples[:, c]
            block /= np.abs(block).max(axis=1, keepdims=True)
            block /= np.linalg.norm(block, axis=1, keepdims=True)
    _check_finite(times, samples)
    return times


def _rk4_pulses(
    seg1: _SegmentEngine, seg2: _SegmentEngine, psi: np.ndarray, dt: float, n_steps: int, stride: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 over both pulses, pulse II from pulse I's final sample; returns
    the times of pulse I's and of pulse II's m samples (``_run_segment``)
    and one array (1 + 2m, *psi.shape) of the states: ``psi``, then pulse
    I's samples, then pulse II's.

    The one normalisation rule of the two pulses: pulse I's samples are
    normalised iff pulse I is decay-free, pulse II's iff both pulses are.
    A decay-free pulse II after a lossy pulse I keeps the norm it starts
    with, so the norm never rises across the pulse boundary.
    """
    ((gamma_1, _),), ((gamma_2, _),) = seg1.groups, seg2.groups
    m = -(-n_steps // stride)
    states = np.empty((1 + 2 * m,) + psi.shape, dtype=complex)
    states[0] = psi
    t1 = _run_segment(seg1, states[: m + 1], dt, n_steps, stride, gamma_1 == 0.0)
    t2 = _run_segment(seg2, states[m:], dt, n_steps, stride, gamma_1 == gamma_2 == 0.0)
    return t1, t2, states


def _rk4_stable_dt(engine: _SegmentEngine) -> float:
    """The largest RK4 step that is stable on every static chain of
    ``engine``: ``RK4_STABLE_DT_RHO`` over rho, the Gershgorin bound of |E|
    over the pulse, the largest row sum of |Omega0| |drive| + |Delta0| n_r
    + |v|.  Pulse II on pulse I's clock negates v only, so pulse I's engine
    bounds both pulses."""
    pulse = engine.pulse
    rho = max(
        float(np.max(abs(pulse.omega0) * np.abs(h.drive).sum(axis=1) + abs(pulse.delta0) * h.n_r + np.abs(h.v)))
        for h in engine.hamiltonians
    )
    return RK4_STABLE_DT_RHO / rho if rho > 0.0 else math.inf


def _default_stride(h_scale: float, dt: float, n_steps: int) -> int:
    """Largest stride keeping per-sample phase increments below pi/4."""
    if h_scale <= 0.0:
        return max(1, n_steps // 1024)
    stride = int(PHASE_SAMPLE_MARGIN / (h_scale * dt))
    return max(1, min(stride, max(1, n_steps // 8)))


def _afm_projectors(basis: Basis, model: Model) -> Dict[str, np.ndarray]:
    """Named projection vectors: ground, AFM-like target and (even nu, vdW)
    the bright ordered combination."""
    nu, dim = basis.nu, basis.dim
    out = {name: np.zeros(dim, dtype=complex) for name in ("ground", "afm")}
    out["ground"][basis.index(0)] = 1.0
    afm = out["afm"]
    if nu % 2 == 1:
        afm[basis.index(ordered_afm_masks(nu)[0])] = 1.0
        return out

    idx = basis.index(afm_manifold_masks(nu))
    if model is Model.PXP:
        # uniform-ladder ground state: sine profile over all configurations
        afm[idx] = ladder_modes(len(idx))[0]
        return out
    # split-regime ground (bulk-defect band head; nu = 2 has no bulk) and
    # the bright ordered combo
    if len(idx) > 2:
        afm[idx[1:-1]] = ladder_modes(len(idx) - 2)[0]
    out["afm_excited"] = np.zeros(dim, dtype=complex)
    out["afm_excited"][[idx[0], idx[-1]]] = 1.0 / math.sqrt(2.0)
    return out


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Full two-pulse result: trajectory and phases."""

    trajectory: Trajectory
    phases: Optional[PhaseRecord]


def _chain_hamiltonians(nus: Sequence[int], cfg: ProtocolConfig) -> list:
    """The full chain Hamiltonians of the distinct chain sizes ``nus``, in
    the model and interaction of ``cfg``; the basis builders refuse nu < 1."""
    if len(set(nus)) != len(nus):
        raise ValueError(f"chain sizes must be distinct, got {list(nus)}")
    return [ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction) for nu in nus]


def _decay_rates(cfg: ProtocolConfig) -> Tuple[float, float]:
    """The decay rates (gamma_r, gamma_rp) of the two pulses, zero without
    ``cfg.include_decay``."""
    return (cfg.decay.gamma_r, cfg.decay.gamma_rp) if cfg.include_decay else (0.0, 0.0)


def _pulse_one(
    hamiltonians: Sequence[ChainHamiltonian], cfg: ProtocolConfig, gammas: Sequence[float],
    scales: Sequence[float] = (1.0,), v_int_fn: Optional[VIntFn] = None,
) -> Tuple[_SegmentEngine, np.ndarray]:
    """Pulse I's engine over the direct sum of ``hamiltonians``, with one
    column group per decay rate in ``gammas`` and, within it, per entry of
    ``scales`` (its H times that scale), and the initial state (rows,) with
    each block in its collective ground state.  Static chains run on their
    even sectors, moving atoms (``v_int_fn``, the engine's interaction
    input ``v``) on their full basis."""
    if any(h.model is Model.PXP_PLUS_CORRECTIONS for h in hamiltonians):
        raise ConfigError("time propagation supports the PXP and full vdW models only")
    if v_int_fn is None:
        hamiltonians = [h.sector() for h in hamiltonians]
    engine = _SegmentEngine(hamiltonians, cfg.pulse, [(g, s) for g in gammas for s in scales], v_int_fn)
    # |0...0> (basis state 0, its own mirror image) is the first row of an
    # even sector and of a full basis alike
    psi = np.zeros(engine.chains[-1].stop, dtype=complex)
    psi[[chain.start for chain in engine.chains]] = 1.0
    return engine, psi


def _protocol_start(
    hamiltonians: Sequence[ChainHamiltonian], cfg: ProtocolConfig, v_int_fn: Optional[VIntFn] = None
) -> Tuple[_SegmentEngine, _SegmentEngine, np.ndarray, int]:
    """The setup of the two pulses run in sequence (RK4, ``_rk4_pulses``):
    pulse I's engine and state (``_pulse_one``), pulse II's engine and the
    step count of a pulse at ``cfg.dt``.

    Pulse II runs on pulse I's clock u = lambda t', t' its own time: the
    lambda-rescaled pulse under the flipped interaction -lambda B at decay
    rate gamma_rp is, per unit of u, pulse I's Omega(u) and Delta(u) under
    the negated interaction -B at decay rate gamma_rp / lambda.  So both
    engines take ``cfg.pulse`` and the step ``cfg.dt``; a sample of pulse II
    at u is the physical state at t' = u / lambda.  Pulse II's engine holds
    pulse I's own chains (one sector per static chain) and differs from
    pulse I's only in its decay rate and in its interaction input: -v of
    pulse I's engine for static chains, or, for moving atoms, which pass
    their per-trial interaction at absolute protocol times
    (``v_int_fn``), that function negated at tau + u / lambda."""
    lam, tau = cfg.interaction.lambda_ratio, cfg.pulse.tau
    gamma_1, gamma_2 = _decay_rates(cfg)
    seg1, psi = _pulse_one(hamiltonians, cfg, (gamma_1,), v_int_fn=v_int_fn)
    v2 = -seg1.v if v_int_fn is None else lambda u: -v_int_fn(tau + u / lam)
    seg2 = _SegmentEngine(seg1.hamiltonians, cfg.pulse, [(gamma_2 / lam, 1.0)], v2)
    return seg1, seg2, psi, _step_count(tau, cfg.dt)


def _mirror_signs(n_r: np.ndarray) -> np.ndarray:
    """The diagonal (-1)^n_r of G."""
    return 1.0 - 2.0 * (n_r % 2)


def final_amplitudes(
    hamiltonians: Sequence[ChainHamiltonian], cfg: ProtocolConfig, scales: Sequence[float] = (1.0,)
) -> np.ndarray:
    """<0...0| M_II M_I |0...0> of each block of the direct sum of the
    static chains ``hamiltonians``, scale by scale and within a scale in
    chain order, for the propagators M_I and M_II of the two pulses on the
    block's space.  The one driver of the final amplitudes of gates and
    pulse-duration batches.

    It takes ``STEPS_PER_PULSE`` split steps of pulse I only (``cfg.dt`` is
    not used): by the mirror identity (see the module docstring) the
    amplitude is <c'| G |c>, contracted per chain block, with
    c = M_I[gamma_r] |0...0> and c' = M_I[gamma_rp / lambda] |0...0> in
    column groups of its own rate only when the two rates differ.
    """
    gamma_1, gamma_2 = _decay_rates(cfg)
    rates = dict.fromkeys((gamma_1, gamma_2 / cfg.interaction.lambda_ratio))  # one if they are equal
    engine, psi = _pulse_one(hamiltonians, cfg, rates, scales)
    groups = len(scales)
    state = np.repeat(psi[:, None, None], len(engine.groups), axis=1)
    dt = cfg.pulse.tau / STEPS_PER_PULSE
    _, (final,) = _run_split(engine, state, dt, STEPS_PER_PULSE, STEPS_PER_PULSE)
    c, c_mirror = final[:, :groups, 0], final[:, -groups:, 0]
    signs = _mirror_signs(engine._n_r)[:, None]
    amps = np.add.reduceat(c_mirror.conj() * (signs * c), [chain.start for chain in engine.chains])
    # (chains, scales) -> one entry per (scale, chain) block
    return amps.T.ravel()


def run_protocol(nu: int, cfg: ProtocolConfig, compute_phases: bool = True) -> ProtocolRun:
    """Two chirped pulses: step I with interaction B, step II with the
    lambda-rescaled pulse and flipped interaction -lambda B (a no-op for
    the PXP model), run on pulse I's clock (``_protocol_start``).  The
    r -> r' swap between steps is modeled as instantaneous and exact.
    Starts from the collective ground state and takes RK4 steps of
    ``cfg.dt`` per pulse, and raises ConfigError before it propagates when
    that step does not evenly divide tau, is coarser than tau /
    ``DT_STEPS_MIN`` or is past RK4's stability bound on the chain
    (``_rk4_stable_dt``).

    The dynamical phase integrates the energy of the dominantly occupied
    adiabatic branch (the lowest branch during step I and the highest
    during step II when the transfer works as designed).  Pulse II's is
    -lambda times pulse I's branch energy of G psi at the mirrored step
    (``_branch_energies`` applies G chunk by chunk).
    """
    (ham,) = hams = _chain_hamiltonians([nu], cfg)
    lam = cfg.interaction.lambda_ratio
    # pulse I's energy scale sets the stride of both pulses: on pulse I's
    # clock pulse II's samples take pulse I's phase step for every lambda
    h_scale = float(nu * (abs(cfg.pulse.delta0) + abs(cfg.pulse.omega0)) + np.abs(ham.v).max())
    seg1, seg2, psi, n1 = _protocol_start(hams, cfg)
    if n1 < DT_STEPS_MIN:
        raise ConfigError(f"dt_us = {cfg.dt} is too coarse: need dt_us <= tau_us / {DT_STEPS_MIN} = "
                          f"{cfg.pulse.tau / DT_STEPS_MIN!r}")
    dt_max = _rk4_stable_dt(seg1)
    if cfg.dt > dt_max:
        raise ConfigError(f"dt_us = {cfg.dt} is past RK4's stability bound at nu = {nu}: need dt_us <= {dt_max!r}")
    stride = _default_stride(h_scale, cfg.dt, n1)
    t1, t2, samples = _rk4_pulses(seg1, seg2, psi, cfg.dt, n1, stride)
    basis, sector = ham.basis, seg1.hamiltonians[0]
    time_arr = np.concatenate([[0.0], t1, cfg.pulse.tau + t2 / lam])
    # the norms and populations take full-basis rows, a chunk at a time
    projectors = _afm_projectors(basis, cfg.model)
    norms = np.empty(len(samples))
    populations = {name: np.empty(len(samples)) for name in projectors}
    chunk = max(1, PHASE_CHUNK_ENTRIES // basis.dim)
    for lo in range(0, len(samples), chunk):
        rows = samples[lo : lo + chunk] @ sector.u.T
        norms[lo : lo + chunk] = np.linalg.norm(rows, axis=1)
        for name, vec in projectors.items():
            populations[name][lo : lo + chunk] = np.abs(rows @ vec.conj()) ** 2

    traj = Trajectory(basis=basis, times=time_arr, samples=samples, u=sector.u, norms=norms, populations=populations)

    phases = None
    if compute_phases:
        # The branch energy jumps at the segment boundary (the detuning
        # resets to -delta0'); the boundary sample is evaluated under both
        # segments, pulse II's on G psi after pulse I's on psi
        t, table, (one, two) = _mirrored_eigenvalues(seg1, cfg.dt, n1, stride)
        cut = len(t1)
        e_one = _branch_energies(sector, cfg.pulse, t[one], samples[: cut + 1], table, one)
        e_two = -lam * _branch_energies(
            sector, cfg.pulse, t[two], samples[cut:], table, two, _mirror_signs(sector.n_r)
        )
        phi_dyn = _dynamical_phase(time_arr, (e_one, e_two))
        # <Psi(0)|Psi(t)> is the amplitude on |0...0>, the first sector row
        phases = _phase_record(time_arr, samples[:, 0], phi_dynamical=phi_dyn)
    return ProtocolRun(trajectory=traj, phases=phases)


def ground_amplitudes(nus: Sequence[int], cfg: ProtocolConfig) -> Dict[int, complex]:
    """Signed overlap <G_nu|Psi(tau_tot)> after the two-pulse protocol for
    each distinct chain size in ``nus``.

    The chains share the pulse, the step and the step count, so they are
    propagated together as one direct-sum state through pulse I alone
    (``final_amplitudes``); with equal decay rates each amplitude is real
    and the same at every lambda.  Each block matches the split steps of
    both pulses run on its chain alone, one after the other, to round-off.
    """
    return dict(zip(nus, final_amplitudes(_chain_hamiltonians(nus, cfg), cfg).tolist()))


def tau_batch_amplitudes(nus: Sequence[int], cfg: ProtocolConfig, taus: Sequence[float]) -> np.ndarray:
    """``ground_amplitudes`` of the chains ``nus`` at each pulse duration in
    ``taus``, as a (len(taus), len(nus)) array; each duration runs the pulse
    ``pulse_with_tau(cfg.pulse, tau)`` at the step tau /
    ``STEPS_PER_PULSE``.

    The pulse is a function of t / tau, so a protocol of duration tau is
    the protocol of tau_ref = taus[0] with H scaled by tau / tau_ref, on
    the step grid of tau_ref.  Each duration is one column group of a
    single state over the chains' direct sum (two with unequal decay rates,
    see ``final_amplitudes``), propagated through pulse I in one loop: the
    same steps as one ``ground_amplitudes`` call per duration, up to
    round-off.
    """
    taus = [float(tau) for tau in taus]
    ref = replace(cfg, pulse=pulse_with_tau(cfg.pulse, taus[0]))
    scales = [t / taus[0] for t in taus]
    return final_amplitudes(_chain_hamiltonians(nus, ref), ref, scales).reshape(len(taus), len(nus))


def _dynamical_phase(times: np.ndarray, energies: Sequence[np.ndarray]) -> np.ndarray:
    """Action integral of the dominantly occupied branch energy along the
    samples, accumulated per segment of a run whose H jumps between them.

    ``energies[k]`` holds the branch energies of segment k's samples under
    its own Hamiltonian; a segment's first sample is the previous one's
    last, so a jump is integrated with both-sided boundary values.
    """
    phi = np.zeros(len(times))
    lo = 0
    for e in energies:
        hi = lo + len(e) - 1
        # the trapezoid rule as scipy.integrate.cumulative_trapezoid forms it
        steps = np.diff(times[lo : hi + 1]) * (e[1:] + e[:-1]) / 2.0
        phi[lo : hi + 1] = phi[lo] + np.concatenate([[0.0], np.cumsum(steps)])
        lo = hi
    return phi


def _phase_record(times: np.ndarray, overlaps: np.ndarray, phi_dynamical: np.ndarray) -> PhaseRecord:
    """The phases of samples with the overlaps <Psi(0)|Psi(t)>: the total
    phase is unwrapped over the valid samples only; an invalid sample's
    overlap is round-off, so its angle is taken within pi of the total phase
    of the last valid sample before it."""
    valid = np.abs(overlaps) > OVERLAP_VALID_MIN
    angle = np.angle(overlaps)
    phi_total = np.zeros_like(angle)
    phi_total[valid] = np.unwrap(angle[valid])
    ref = phi_total[np.maximum.accumulate(np.where(valid, np.arange(len(angle)), 0))]
    phi_total[~valid] = ref[~valid] + (angle[~valid] - ref[~valid] + math.pi) % (2.0 * math.pi) - math.pi
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
    return ground_amplitudes([nu], replace(cfg, include_decay=False))[nu]
