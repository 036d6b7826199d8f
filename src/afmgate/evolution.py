"""Time-dependent Schroedinger propagation of the two-pulse protocol.

Fixed-step classical RK4 with midpoint Hamiltonian evaluations, in one
segment stepper that every propagation goes through: a single state or a
batch of states held as the columns of one array, over one chain or over
the direct sum of several chain blocks driven by the same pulse, or over
the row-wise stack of two such engines with their own pulses and a shared
step.  Each pulse is tabulated once per segment and the diagonal of -iH
once per block of ``DIAG_BLOCK_STEPS`` steps.  The drive is real, so each
RK4 stage makes one real matrix product on the float64 view
(rows, 2 * batch) of the state per entry of ``_SegmentEngine.drives``:
consecutive chain blocks share one block-diagonal drive while it has at
most ``MERGED_DRIVE_ROWS`` rows (a gate's three chains up to N = 5 make
one product, N = 6 and 7 two), and a one-chain engine keeps its own
drive.  The -i Omega scaling (one per engine), the stage states and the
update psi += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4 are level-1 BLAS calls
(``zaxpy``, ``zcopy``) on the flat rows of one preallocated array;
non-finite amplitudes are looked for once per segment, over its stored
samples.  Hermitian runs normalise each chain block of every stored
sample (removing the RK4 amplitude artifact, which would otherwise mask
real norm errors): the step is linear and block-diagonal, so this equals
renormalising after every step up to round-off, with no norm in the
loop.  Non-Hermitian runs keep the physical norm decay.

One setup, ``_protocol_start``, builds the two pulse engines, the
initial state and the step count for both callers of the stepper:
``run_protocol`` (one chain, with its sampled trajectory) and
``final_amplitudes``, the one place that runs the two pulses for final
amplitudes only.  That serves ``ground_amplitudes``,
which propagates the chains of a gate (nu = N-2, N-1, N: one pulse, step
and step count) as one concatenated state, ``tau_batch_amplitudes``,
which adds one copy of those blocks per pulse duration (the pulse is a
function of t / tau, so each copy runs on the step grid of the first
duration with its H scaled by tau / tau_ref), and the thermal chunks of
``thermal``, whose chains take a per-trial interaction, one column per
trial.  These need only <0...0| M_II M_I |0...0> for the RK4 matrices of
the pulses.  -iH(t) is complex symmetric (a real symmetric drive, the
rest diagonal), so the transpose of an RK4 step is the same step with its
stages in reverse time order, and the amplitude is
(M_II^T |0...0>)^T (M_I |0...0>): while pulse II keeps its norm decay, it
runs from its end back to its start as more blocks of pulse I's state, in
one loop of half the steps.  A renormalised (decay-free) pulse II needs
the state after pulse I and runs after it, bitwise as ``run_protocol``
does; in both orders pulse II runs at rate 1 / lambda on pulse I's step.
A static chain is mirror-symmetric and starts in |0...0>, so static
chains run on the inversion-even sectors (``ChainHamiltonian.sector``;
20 of 32 states at vdW nu = 5, 72 of 128 at nu = 7): each chain's
operators are projected once per pulse, a Hamiltonian that breaks the
mirror raises there, and ``run_protocol`` maps its samples back to the
full basis.  Moving atoms break the mirror, so a thermal chunk keeps the
full basis and both engines take its chains as they are, each pulse's
interaction being its per-trial function; that interaction is diagonal,
so -iH stays complex symmetric and, with decay, pulse II runs transposed
as in a gate.

The dynamical phase integrates the energy of the branch that holds the
state (``_branch_energies``).  Each chunk of stored samples runs one
stacked real ``eigvalsh`` of the Hermitian part of H on the sector, built
by ``ChainHamiltonian.matrix``, and a residual bound proves which
eigenvalue holds more than half of each state; only the samples it cannot
settle (near-degenerate partners, such as the even-nu vdW AFM doublet)
take eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import block_diag
from scipy.linalg.blas import zaxpy, zcopy

from .basis import Basis, afm_manifold_masks, ordered_afm_masks
from .config import Model, ProtocolConfig, PulseProfile, pulse_with_tau
from .errors import ConfigError, PropagationError
from .hamiltonian import ChainHamiltonian, ladder_modes, model_basis

OVERLAP_VALID_MIN = 0.1
PHASE_SAMPLE_MARGIN = math.pi / 4.0
# RK4 steps whose -iH diagonals are tabulated together: long enough to
# amortise the per-call cost, short enough to keep a thermal block of
# (2 * steps, dim, batch) complex entries small
DIAG_BLOCK_STEPS = 16
# Rows of the largest block-diagonal drive that merges consecutive chain
# blocks of a direct sum into one product per RK4 stage.  Merging saves a
# call (about 0.6 us) but multiplies the zero blocks (about 0.2 ns per
# entry), so it pays for small blocks only.  Measured RK4 steps on the even
# sectors (one BLAS thread, 2.1 GHz Xeon): the vdW gate at N = 7
# (20 + 36 + 72 rows) takes 19.8 us in three products, 19.3 us as 56 + 72
# and 22.0 us as one product of 128 rows; at N = 8 (36 + 72 + 136) it takes
# 35.6 us apart, 36.2 us as 108 + 136; six nu = 5 blocks of 20 rows take
# 37.9 us apart, 30.1 us in products of 60 and 31.0 us in one of 120
MERGED_DRIVE_ROWS = 64
# Branch energies: matrix entries of one stacked even-sector eigenproblem
# (samples per chunk times d_even^2), 256 KB of float64 at 2^15.  With no
# eigenvectors the peak RSS of a vdW nu = 5 evolve does not move with it
# (73.7 MB at 2^12 and 2^15, 73.9 MB at 2^17); below 2^14 the per-chunk
# calls cost time (the phase record of its first pulse takes 0.18 s at
# 2^12 against 0.12-0.13 s from 2^14 to 2^17)
PHASE_CHUNK_ENTRIES = 1 << 15
# Per-trial interaction diagonals at an array of absolute protocol times
VIntFn = Callable[[np.ndarray], np.ndarray]


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


class _SegmentEngine:
    """One pulse segment over one chain, or over the direct sum of several
    chains driven by the same pulse: the operators of each chain (its
    ``ChainHamiltonian`` or its even-sector copy) plus the pulse scaling.

    The state is the concatenation of one block per chain (``chains`` gives
    their row ranges); the excitation counts and the interaction diagonal
    are concatenated, so the diagonal of -iH is one array for the whole
    state and only the drive products are made block by block.
    ``v_int_fn``, when given, supplies the interaction diagonal of a
    (dim, batch) state with moving atoms in place of the static ``v``
    (then None): called with an array of k absolute protocol times it
    returns the real (k, dim, batch) diagonals, one column per trial, and
    the excitation counts are kept as a column to broadcast against the
    batch.  The engine only steps: the branch energies of its samples are
    ``_branch_energies`` of a chain.
    ``scales`` (one per chain block, default 1) multiplies a block's drive,
    n_r and v (or its per-trial interaction), and so its decay: a protocol
    of duration tau run on the time grid of duration tau_ref has H scaled
    by tau / tau_ref.
    ``rate`` is the pulse time that passes per unit of the stepper's time:
    the engine tabulates its pulse at steps rate * dt and scales every block
    by rate, so an engine can share the step of another one.  ``reverse``
    takes the evaluations from the pulse end back to its start: -iH(t) is
    complex symmetric (a real symmetric drive, the rest diagonal), so each
    RK4 step of the reversed run is the transpose of the matching step of
    the forward run, and the reversed run from |x> gives M^T |x> for the
    forward run's matrix M.
    """

    def __init__(
        self,
        hamiltonians: Sequence[ChainHamiltonian],
        pulse: PulseProfile,
        gamma: float = 0.0,
        v_int_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        t_abs_start: float = 0.0,
        scales: Optional[Sequence[float]] = None,
        rate: float = 1.0,
        reverse: bool = False,
    ):
        self.hamiltonians = tuple(hamiltonians)
        scales = (1.0,) * len(self.hamiltonians) if scales is None else scales
        self.scales = tuple(rate * s for s in scales)
        self.rate = rate
        self.reverse = reverse
        self.pulse = pulse
        self.gamma = gamma
        self.v_int_fn = v_int_fn
        self.t_abs_start = t_abs_start
        self.v = (
            np.concatenate([s * h.v for h, s in zip(self.hamiltonians, self.scales)]) if v_int_fn is None else None
        )
        n_r = np.concatenate([s * h.n_r for h, s in zip(self.hamiltonians, self.scales)])
        self._n_r = n_r if v_int_fn is None else n_r[:, None]
        # a per-trial interaction takes the block scales row by row
        scaled = v_int_fn is not None and any(s != 1.0 for s in self.scales)
        self._v_int_scale = np.repeat(self.scales, [len(h.n_r) for h in self.hamiltonians])[:, None] if scaled else None
        # -iH = -i Omega drive - (Gamma / 2) n_r + i (Delta n_r - v)
        self._decay_rate = -0.5 * gamma * self._n_r if gamma else 0.0

    @property
    def chains(self) -> Tuple[slice, ...]:
        """Row range of each chain in the direct-sum state."""
        ends = np.cumsum([h.drive.shape[0] for h in self.hamiltonians]).tolist()
        return tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))

    @property
    def drives(self) -> Tuple[Tuple[slice, np.ndarray], ...]:
        """The real drive products of one RK4 stage, as (row range, matrix).

        Consecutive chain blocks share one block-diagonal matrix, each block
        times its scale, while their rows fit in ``MERGED_DRIVE_ROWS``; a
        block alone at scale 1 keeps its own drive.
        """
        chains = self.chains
        groups: list = []  # chain indices per product
        for k, chain in enumerate(chains):
            if groups and chain.stop - chains[groups[-1][0]].start <= MERGED_DRIVE_ROWS:
                groups[-1].append(k)
            else:
                groups.append([k])
        scaled = [h.drive if s == 1.0 else s * h.drive for h, s in zip(self.hamiltonians, self.scales)]
        return tuple(
            (slice(chains[g[0]].start, chains[g[-1]].stop), scaled[g[0]] if len(g) == 1 else block_diag(*(scaled[k] for k in g)))
            for g in groups
        )

    def tables(self, dt: float, n_steps: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local times of every RK4 evaluation of the segment, at pulse
        steps rate * dt and clamped into the pulse window, with Omega and
        Delta there.

        Entry 2s is the start of step s (the end of step s - 1), entry
        2s + 1 its midpoint; a reversed engine lists the same entries from
        the last one back.
        """
        dt = dt * self.rate
        t = np.empty(2 * n_steps + 1)
        t[0] = 0.0
        starts = np.arange(n_steps) * dt
        t[1::2] = starts + 0.5 * dt
        t[2::2] = starts + dt
        np.clip(t, 0.0, self.pulse.tau, out=t)
        tabs = t, self.pulse.omega(t), self.pulse.delta(t)
        return tuple(a[::-1] for a in tabs) if self.reverse else tabs

    def diagonals(self, t_local: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Diagonals of -iH at an array of tabulated local times and their
        detunings, stacked on axis 0: (k, dim), or (k, dim, batch) with a
        per-trial interaction.  Real and imaginary parts are written into
        one complex buffer."""
        v = self.v if self.v_int_fn is None else self.v_int_fn(self.t_abs_start + t_local)
        if self._v_int_scale is not None:
            v = v * self._v_int_scale
        delta_n_r = delta.reshape((-1,) + (1,) * self._n_r.ndim) * self._n_r
        out = np.empty(np.broadcast_shapes(delta_n_r.shape, v.shape), dtype=complex)
        out.real = self._decay_rate
        np.subtract(delta_n_r, v, out=out.imag)
        return out


def _branch_energies(
    ham: ChainHamiltonian, pulse: PulseProfile, t_local: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Instantaneous eigenvalue of the dominantly occupied branch of the
    Hermitian part of ``ham`` (maximal overlap with the state) for each
    state row at its local time of ``pulse``, in the space of ``ham`` (the
    even sector of a static chain).

    Each chunk of samples stacks its matrices with ``ChainHamiltonian.matrix``
    and runs one stacked ``eigvalsh`` and no eigenvectors.  For the
    normalised state phi, with Rayleigh quotient r = <phi|H|phi> and
    residual sigma^2 = ||(H - r) phi||^2, the branch weights p_j obey
    sum_j p_j (w_j - r)^2 = sigma^2, so 1 - p_k <= sigma^2 / g^2 for the
    eigenvalue w_k nearest r and the distance g from r to the next-nearest
    one.  sigma^2 < g^2 / 2 proves p_k > 1/2: w_k is the branch of maximal
    overlap.  The samples this cannot settle (near-degenerate partners
    sharing the state) take the eigenvectors through
    ``_max_overlap_energies``.
    """
    t = np.clip(t_local, 0.0, pulse.tau)
    omega, delta = pulse.omega(t), pulse.delta(t)
    diag = np.arange(len(ham.n_r))
    chunk = max(1, PHASE_CHUNK_ENTRIES // len(diag) ** 2)
    energies = np.empty(len(t))
    for lo in range(0, len(t), chunk):
        hi = min(lo + chunk, len(t))
        phi = states[lo:hi]
        h = ham.matrix(omega[lo:hi], delta[lo:hi])
        w = np.linalg.eigvalsh(h)
        # H acts on the real and imaginary parts apart: one real product
        # of the (symmetric, zero-diagonal) drive for both, plus H's diagonal
        x = np.stack([phi.real, phi.imag], axis=1)
        hx = (x.reshape(-1, len(diag)) @ ham.drive).reshape(x.shape)
        hx *= omega[lo:hi, None, None]
        hx += h[:, diag, diag][:, None, :] * x
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
            nearest[unsettled] = _max_overlap_energies(h[unsettled], phi[unsettled])
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
    """The float64 view (rows, 2 * batch) of a C-contiguous complex state
    block, one state (rows,) being a batch of one."""
    return rows.view(np.float64).reshape(len(rows), -1)


def _run_segment(
    engines: _SegmentEngine | Tuple[_SegmentEngine, ...],
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int,
    renormalize: bool | Tuple[bool, ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """RK4 over one segment; returns the pulse-local times (excluding t=0)
    and the states of the samples taken every ``stride`` steps and at the
    segment end, as arrays (n_samples,) and (n_samples, *psi0.shape).

    ``engines`` is one engine or a tuple of engines whose states are
    stacked row-wise, each over one chain or the direct sum of its chains;
    they share the step dt and the step count, and each has its own pulse
    table, drive products and rows of the -iH diagonal (the sample times
    are those of the first).  ``psi0`` is one state (rows,) or a batch of
    states as columns (rows, batch).  Each pulse is tabulated once for the
    segment, the complex diagonal d of -iH once per block of
    ``DIAG_BLOCK_STEPS`` steps, and each derivative is
    d * y - i Omega * (drive @ y), with one real product per entry of an
    engine's ``drives`` on the float64 views of y and of a scratch row, and
    one ``zaxpy`` per engine for its Omega.  ``renormalize`` (one flag, or
    one per engine) normalises the stored samples, each chain block and
    within it each column of a batch; the running state is never rescaled
    (its norm drifts by 1.7e-4 over a 1500-step thermal pulse at N = 5 and
    9e-4 at N = 7), so the samples do not depend on the stride.  Raises
    PropagationError naming the time of the first sample that holds
    non-finite amplitudes.
    """
    engines = engines if isinstance(engines, tuple) else (engines,)
    if not isinstance(renormalize, tuple):
        renormalize = (renormalize,) * len(engines)
    ends = np.cumsum([e.chains[-1].stop for e in engines]).tolist()
    offsets = [0] + ends[:-1]
    tabs = [e.tables(dt, n_steps) for e in engines]
    half = 0.5 * dt
    sixth = dt / 6.0
    third = dt / 3.0
    block_len = 2 * DIAG_BLOCK_STEPS
    shape = np.shape(psi0)
    # psi, k1..k4, y and dy are the rows of one C-contiguous array; the
    # BLAS wrappers get those flat rows, which alias the shaped views (a
    # non-contiguous argument would be copied and the update lost)
    rows = np.empty((7, math.prod(shape)), dtype=complex)
    psi, k1, k2, k3, k4, y, dy = (row.reshape(shape) for row in rows)
    psi_r, k1_r, k2_r, k3_r, k4_r, y_r, dy_r = rows
    psi[...] = psi0
    size = rows.shape[1]
    width = size // shape[0]  # flat entries per state row

    drives = [(off, e.drives) for e, off in zip(engines, offsets)]

    def products(src: np.ndarray) -> list:
        # drive @ src into dy on the real views, bound once so that each
        # product is one call with no argument parsing and no
        # array-function dispatch in the loop
        return [
            partial(m.dot, _real(src[off + c.start : off + c.stop]), _real(dy[off + c.start : off + c.stop]))
            for off, engine_drives in drives
            for c, m in engine_drives
        ]

    drive_psi, drive_y = products(psi), products(y)
    # the flat rows of each engine and its -i Omega at every evaluation, as
    # Python complex: no numpy scalar boxed per BLAS call
    spans = [(width * a, width * b, (-1j * om).tolist()) for a, b, (_, om, _) in zip(offsets, ends, tabs)]

    def omega_terms(k_r: np.ndarray) -> list:
        # k += -i Omega (drive @ y), one zaxpy per engine on its flat rows
        return [(dy_r[a:b], k_r[a:b], b - a, scale) for a, b, scale in spans]

    omega_k1, omega_k2, omega_k3, omega_k4 = (omega_terms(k) for k in (k1_r, k2_r, k3_r, k4_r))

    def diagonals(lo: int, hi: int) -> np.ndarray:
        parts = [e.diagonals(t[lo:hi], dl[lo:hi]) for e, (t, _, dl) in zip(engines, tabs)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    # samples after every stride-th step and after the last one
    sample_steps = np.minimum(np.arange(stride, n_steps + stride, stride), n_steps) - 1
    times = (sample_steps * dt + dt) * engines[0].rate
    # pin the final sample to the exact pulse end so segment boundaries
    # are found exactly downstream
    times[-1] = engines[0].pulse.tau
    samples = np.empty((len(times),) + shape, dtype=complex)

    d_end = diagonals(0, 1)[0]
    s = 0
    for step in range(n_steps):
        j = 2 * step
        i = j % block_len
        if i == 0:
            # midpoints and ends of the next block of steps (the last block
            # may be shorter)
            block = diagonals(j + 1, j + 1 + block_len)
        d_start = d_end
        d_mid = block[i]
        d_end = block[i + 1]
        # k = d * y - i Omega (drive @ y) for y = psi, psi + dt/2 k1,
        # psi + dt/2 k2 and psi + dt k3; the BLAS calls and ufuncs take
        # positional arguments (out is the third of np.multiply), since
        # parsing a keyword costs more than a short call
        np.multiply(d_start, psi, k1)
        for product in drive_psi:
            product()
        for dy_e, k_e, n_e, scale in omega_k1:
            zaxpy(dy_e, k_e, n_e, scale[j])
        zcopy(psi_r, y_r)
        zaxpy(k1_r, y_r, size, half)
        np.multiply(d_mid, y, k2)
        for product in drive_y:
            product()
        for dy_e, k_e, n_e, scale in omega_k2:
            zaxpy(dy_e, k_e, n_e, scale[j + 1])
        zcopy(psi_r, y_r)
        zaxpy(k2_r, y_r, size, half)
        np.multiply(d_mid, y, k3)
        for product in drive_y:
            product()
        for dy_e, k_e, n_e, scale in omega_k3:
            zaxpy(dy_e, k_e, n_e, scale[j + 1])
        zcopy(psi_r, y_r)
        zaxpy(k3_r, y_r, size, dt)
        np.multiply(d_end, y, k4)
        for product in drive_y:
            product()
        for dy_e, k_e, n_e, scale in omega_k4:
            zaxpy(dy_e, k_e, n_e, scale[j + 2])
        # psi += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4
        zaxpy(k1_r, psi_r, size, sixth)
        zaxpy(k2_r, psi_r, size, third)
        zaxpy(k3_r, psi_r, size, third)
        zaxpy(k4_r, psi_r, size, sixth)
        if (step + 1) % stride == 0 or step == n_steps - 1:
            samples[s] = psi
            s += 1

    # RK4 on psi' = -iH psi is linear and block-diagonal over the chain
    # blocks and the columns, so scaling a block's column commutes with
    # every later step: normalising the samples gives the states of a run
    # renormalised after every step, up to round-off.  Dividing by the
    # largest amplitude first keeps the norm finite when a step too coarse
    # for RK4 has grown the state past 1e154; a non-finite sample stays
    # non-finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, off, norm in zip(engines, offsets, renormalize):
            for c in e.chains if norm else ():
                block = samples[:, off + c.start : off + c.stop]
                block /= np.abs(block).max(axis=1, keepdims=True)
                block /= np.linalg.norm(block, axis=1, keepdims=True)
    finite = np.isfinite(samples).reshape(len(samples), -1).all(axis=1)
    if not finite.all():
        raise PropagationError(f"non-finite amplitudes at t = {times[np.argmin(finite)]}")
    return times, samples


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

    def ground_amplitude(self) -> complex:
        return complex(self.trajectory.states[-1][self.trajectory.basis.index(0)])


def _chain_hamiltonians(nus: Sequence[int], cfg: ProtocolConfig) -> list:
    """The full chain Hamiltonians of the distinct chain sizes ``nus``, in
    the model and interaction of ``cfg``; the basis builders refuse nu < 1."""
    if len(set(nus)) != len(nus):
        raise ValueError(f"chain sizes must be distinct, got {list(nus)}")
    return [ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction) for nu in nus]


def _protocol_start(
    hamiltonians: Sequence[ChainHamiltonian], cfg: ProtocolConfig, scales: Sequence[float] = (1.0,),
    v_int_fn_steps: Optional[Tuple[VIntFn, VIntFn]] = None, columns: Optional[int] = None,
    reverse: bool = False,
) -> Tuple[_SegmentEngine, _SegmentEngine, np.ndarray, int]:
    """The one setup of the two-pulse protocol over the direct sum of
    ``hamiltonians``: the engines of both pulses, the initial state with
    each block in its collective ground state, as one state or as
    ``columns`` equal columns, and the step count of a pulse.

    Pulse II runs the lambda-rescaled pulse under the flipped interaction on
    the same operator structures, at ``rate`` 1 / lambda so that it shares
    the step of pulse I, and from its end back to its start with
    ``reverse``.  Static chains run on their even sectors; with the
    per-trial interactions ``v_int_fn_steps`` of moving atoms the chains
    keep their full basis and both engines take them as they are (each
    pulse's interaction is its function).  The chains are repeated once per
    entry of ``scales``, each copy with its H times that scale (a batch of
    pulse durations, see ``tau_batch_amplitudes``)."""
    if any(h.model is Model.PXP_PLUS_CORRECTIONS for h in hamiltonians):
        raise ConfigError("time propagation supports the PXP and full vdW models only")
    lam = cfg.interaction.lambda_ratio
    gamma_1, gamma_2 = (cfg.decay.gamma_r, cfg.decay.gamma_rp) if cfg.include_decay else (0.0, 0.0)
    fn1, fn2 = v_int_fn_steps or (None, None)
    flipped = hamiltonians
    if v_int_fn_steps is None:
        flipped = [h.with_interaction(cfg.interaction.flipped()).sector() for h in hamiltonians]
        hamiltonians = [h.sector() for h in hamiltonians]
    block_scales = [s for s in scales for _ in hamiltonians]
    seg1 = _SegmentEngine(list(hamiltonians) * len(scales), cfg.pulse, gamma_1, fn1, 0.0, block_scales)
    seg2 = _SegmentEngine(
        list(flipped) * len(scales), cfg.pulse.rescaled(lam), gamma_2, fn2, cfg.pulse.tau, block_scales, 1 / lam,
        reverse,
    )
    # |0...0> (basis state 0, its own mirror image) is the first row of an
    # even sector and of a full basis alike
    rows = seg1.chains[-1].stop
    psi = np.zeros(rows if columns is None else (rows, columns), dtype=complex)
    psi[[chain.start for chain in seg1.chains]] = 1.0
    return seg1, seg2, psi, _step_count(0.0, cfg.pulse.tau, cfg.dt)


def final_amplitudes(
    hamiltonians: Sequence[ChainHamiltonian], cfg: ProtocolConfig, scales: Sequence[float] = (1.0,),
    v_int_fn_steps: Optional[Tuple[VIntFn, VIntFn]] = None, columns: Optional[int] = None,
) -> np.ndarray:
    """<0...0| M_II M_I |0...0> of each block of the direct sum of
    ``_protocol_start``, in block order, for the RK4 matrices M_I and M_II
    of the two pulses on the block's space: one entry per block, or a
    (blocks, columns) array with ``columns`` and the per-trial
    interactions ``v_int_fn_steps`` of moving atoms.  The one driver of
    final amplitudes: gates, pulse-duration batches and thermal chunks.

    While pulse II keeps its norm decay, the amplitude is
    (M_II^T |0...0>)^T (M_I |0...0>), with no complex conjugate: pulse I
    runs forward and pulse II transposed (``_SegmentEngine`` with
    ``reverse``) as the blocks of one state in one loop of n steps.  A
    renormalised pulse II must start from the state after pulse I, so a
    decay-free pulse II runs after it.
    """
    joint = cfg.include_decay and cfg.decay.gamma_rp > 0.0
    seg1, seg2, psi, n1 = _protocol_start(hamiltonians, cfg, scales, v_int_fn_steps, columns, reverse=joint)
    ground = [chain.start for chain in seg1.chains]
    if not joint:
        _, (psi1,) = _run_segment(seg1, psi, cfg.dt, n1, n1, seg1.gamma == 0.0)
        _, (final,) = _run_segment(seg2, psi1, cfg.dt, n1, n1, seg2.gamma == 0.0)
        return final[ground]
    _, (final,) = _run_segment((seg1, seg2), np.concatenate([psi, psi]), cfg.dt, n1, n1, (seg1.gamma == 0.0, False))
    return np.add.reduceat(final[: len(psi)] * final[len(psi) :], ground)


def run_protocol(nu: int, cfg: ProtocolConfig, compute_phases: bool = True) -> ProtocolRun:
    """Two chirped pulses: step I with interaction B, step II with the
    lambda-rescaled pulse and flipped interaction -lambda B (a no-op for
    the PXP model).  The r -> r' swap between steps is modeled as
    instantaneous and exact.  Starts from the collective ground state.

    The dynamical phase integrates the energy of the dominantly occupied
    adiabatic branch (the lowest branch during step I and the highest
    during step II when the transfer works as designed).
    """
    (ham,) = hams = _chain_hamiltonians([nu], cfg)
    lam = cfg.interaction.lambda_ratio
    h_scale = float(nu * (abs(cfg.pulse.delta0) + abs(cfg.pulse.omega0)) * max(1.0, lam) + np.abs(ham.v).max())
    seg1, seg2, psi, n1 = _protocol_start(hams, cfg)
    stride = _default_stride(h_scale, cfg.dt, n1)
    t1, s1 = _run_segment(seg1, psi, cfg.dt, n1, stride, seg1.gamma == 0.0)
    t2, s2 = _run_segment(seg2, s1[-1], cfg.dt, n1, stride, seg2.gamma == 0.0)
    basis = ham.basis
    sector_arr = np.concatenate([psi[None], s1, s2])
    state_arr = sector_arr @ seg1.hamiltonians[0].u.T
    time_arr = np.concatenate([[0.0], t1, cfg.pulse.tau + t2])
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
            lambda k, lo, hi: _branch_energies(
                segs[k].hamiltonians[0], segs[k].pulse, time_arr[lo : hi + 1] - starts[k], sector_arr[lo : hi + 1]
            ),
        )
        phases = _phases_from_samples(time_arr, state_arr, phi_dynamical=phi_dyn)
    return ProtocolRun(trajectory=traj, phases=phases)


def ground_amplitudes(nus: Sequence[int], cfg: ProtocolConfig) -> Dict[int, complex]:
    """Signed overlap <G_nu|Psi(tau_tot)> after the two-pulse protocol for
    each distinct chain size in ``nus``.

    The chains share the pulse, the step and the step count, so they are
    propagated together as one direct-sum state, and only each segment's
    final state is kept; with the norm decay of pulse II, pulse II runs
    transposed in the loop of pulse I (``final_amplitudes``).  Each block
    matches its own ``run_protocol`` to round-off (bitwise for a single
    decay-free chain).
    """
    return dict(zip(nus, final_amplitudes(_chain_hamiltonians(nus, cfg), cfg).tolist()))


def tau_batch_amplitudes(nus: Sequence[int], cfg: ProtocolConfig, taus: Sequence[float]) -> np.ndarray:
    """``ground_amplitudes`` of the chains ``nus`` at each pulse duration in
    ``taus``, as a (len(taus), len(nus)) array; each duration runs the pulse
    ``pulse_with_tau(cfg.pulse, tau)`` at the default step tau /
    ``DT_STEPS_DEFAULT`` (``cfg.dt`` is not used).

    The pulse is a function of t / tau, so a protocol of duration tau is
    the protocol of tau_ref = taus[0] with H scaled by tau / tau_ref, on
    the step grid of tau_ref.  Every (tau, nu) pair is one block of a
    single direct-sum state, propagated in one RK4 loop: the same RK4 as
    one ``ground_amplitudes`` call per duration, up to round-off.
    """
    taus = [float(tau) for tau in taus]
    ref = replace(cfg, pulse=pulse_with_tau(cfg.pulse, taus[0]), dt=None)
    scales = [t / taus[0] for t in taus]
    return final_amplitudes(_chain_hamiltonians(nus, ref), ref, scales).reshape(len(taus), len(nus))


def _dynamical_phase(
    times: np.ndarray, cuts: Sequence[int], energy: Callable[[int, int, int], np.ndarray]
) -> np.ndarray:
    """Action integral of the dominantly occupied branch energy along the
    samples, accumulated per segment between the sample indices ``cuts``
    (first 0, last the final sample) where H jumps.

    ``energy(k, lo, hi)`` returns the branch energies of samples lo..hi
    (inclusive) under the Hamiltonian of segment k.  Each segment evaluates
    its own first sample, so a jump is integrated with both-sided boundary
    values.
    """
    phi = np.zeros(len(times))
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        e = energy(k, lo, hi)
        # the trapezoid rule as scipy.integrate.cumulative_trapezoid forms it
        steps = np.diff(times[lo : hi + 1]) * (e[1:] + e[:-1]) / 2.0
        phi[lo : hi + 1] = phi[lo] + np.concatenate([[0.0], np.cumsum(steps)])
    return phi


def _phases_from_samples(
    times: np.ndarray,
    states: np.ndarray,
    phi_dynamical: np.ndarray,
) -> PhaseRecord:
    """Total phase unwrapped over the valid samples only (the first one is
    the initial state): an invalid sample's overlap is round-off, so its angle
    is taken within pi of the total phase of the last valid sample before it."""
    psi0 = states[0]
    overlaps = states @ psi0.conj()
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
