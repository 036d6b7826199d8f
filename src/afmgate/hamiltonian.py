"""Dense Hamiltonians of the driven Rydberg chain.

One ``ChainHamiltonian`` per (model, basis, interaction) holds the fixed
operator structures, and ``matrix(omega, delta)`` scales them by the pulse
values: the drive, the excitation numbers, a static interaction diagonal
and, for the corrections model, the level-shift structures M1 and M2.
``ChainHamiltonian.sector`` checks the mirror symmetry once and returns a
copy whose structures act on the inversion-even or -odd sector.
Variants: the blockade-constrained PXP model, the full van der Waals model
on the unconstrained basis, and the PXP model plus next-nearest-neighbour
and second-order (Schrieffer-Wolff) corrections.  The structures are bit
operations on the basis' mask array: a flip or hop couples two states
exactly when both masks are in the basis, so the blockade rule lives only
in the basis.  ``ladder_modes`` gives the sine modes of the uniform
defect-hopping ladder of the even-nu AFM manifold, from which
``evolution`` builds its AFM-like projectors.

Index conventions are 0-based with open boundaries: projectors P outside
the chain count as 1 and Rydberg projectors Q outside as 0.
"""

from __future__ import annotations

import copy
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .basis import (Basis, bit_counts, build_blockade_basis, build_full_basis, flip_pairs, inversion_permutation,
                    sector_isometry)
from .config import InteractionConfig, Model
from .errors import ConfigError, RegimeError

DIM_MAX = 1024
SHIFT_SINGULARITY_RTOL = 1e-6
# Tolerated asymmetry of the interaction diagonal under inversion, relative
# to its largest entry (pair sums in another order)
SYMMETRY_V_RTOL = 1e-12


def _check_dim(dim: int) -> None:
    if dim > DIM_MAX:
        raise ConfigError(f"dense matrix dimension {dim} exceeds the supported {DIM_MAX}")


def excitation_numbers(basis: Basis) -> np.ndarray:
    """Rydberg excitation count per basis state."""
    return bit_counts(basis.masks, basis.nu).astype(float)


def drive_matrix(basis: Basis) -> np.ndarray:
    """Drive structure per unit Rabi frequency: entries 1/2 between masks
    differing by one spin flip.

    The flipped mask is looked up in the basis, so on a constrained basis
    a flip couples only if both neighbours are unexcited (the PXP
    projectors, applied by the basis); on a full basis every flip couples.
    """
    _check_dim(basis.dim)
    d = np.zeros((basis.dim, basis.dim))
    for i in range(basis.nu):
        d[flip_pairs(basis.masks, 1 << i)] = 0.5
    return d


def pair_sites(nu: int, range_cutoff: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
    """Site pairs (i < j) within the interaction range."""
    cutoff = nu - 1 if range_cutoff is None else range_cutoff
    return tuple((i, j) for i in range(nu) for j in range(i + 1, nu) if j - i <= cutoff)


def pair_incidence(masks: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """0/1 matrix over an array of masks: entry (state, pair) = 1 if both
    pair sites are excited.

    The interaction diagonal is then ``incidence @ strengths``, which lets
    time-dependent pair strengths be folded in cheaply.
    """
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    m = masks[:, None]
    return (m >> i & m >> j & 1).astype(float)


def level_shifts(omega, delta, b_nn: float) -> Tuple[float, float]:
    """Second-order shifts S_B and S_2B of a ground atom next to one or two
    Rydberg atoms, at floats or at arrays of omega and delta (then arrays
    of shifts).  Raises near the shift singularities Delta = B, 2B."""
    scale = abs(b_nn)
    if np.any(np.abs(b_nn - delta) <= SHIFT_SINGULARITY_RTOL * scale) or np.any(
        np.abs(2.0 * b_nn - delta) <= SHIFT_SINGULARITY_RTOL * scale
    ):
        raise RegimeError(f"level shift singular at delta = {delta} for B = {b_nn}")
    s_b = omega**2 / (4.0 * (b_nn - delta))
    s_2b = omega**2 / (4.0 * (2.0 * b_nn - delta))
    return s_b, s_2b


def _shift_structures(basis: Basis) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M1 (dense), the diagonal of M2 and the next-nearest-neighbour pair
    counts of the corrections model on a blockade basis.

    M1 counts the ground atoms with exactly one Rydberg neighbour on its
    diagonal and couples the two configurations of each hop of an
    excitation from site i to i + 1 under empty flanks; M2 counts the
    ground atoms with two Rydberg neighbours.
    """
    s, nu = basis.masks, basis.nu
    full = (1 << nu) - 1
    ground = ~s & full
    left, right = (s << 1) & full, s >> 1  # bit i: atom i - 1 / i + 1 excited
    m1 = np.diag(bit_counts(ground & (left ^ right), nu).astype(float))
    m2 = bit_counts(ground & left & right, nu).astype(float)
    # the hop i <-> i + 1 leaves the blockade basis unless atoms i - 1 and
    # i + 2 are empty
    for i in range(nu - 1):
        m1[flip_pairs(s, 3 << i)] = 1.0
    return m1, m2, bit_counts(s & (s >> 2), nu).astype(float)


def model_basis(model: Model, nu: int) -> Basis:
    """Basis appropriate for a Hamiltonian variant."""
    if model is Model.FULL_VDW:
        return build_full_basis(nu)
    return build_blockade_basis(nu)


class ChainHamiltonian:
    """H(omega, delta) of one chain model on one basis: fixed structures
    times scalar pulse profiles.

    PXP and vdW: omega * drive + diag(-delta * n_r + v), with the static
    interaction diagonal v (zero for PXP; for vdW the pair incidence of the
    basis times the pair strengths).  Corrections: v is the
    next-nearest-neighbour term B2 Q_i Q_{i+2}, and H gains
    -S_B(omega, delta) M1 - S_2B(omega, delta) M2, the second-order level
    shifts of ground atoms and the -S_B excitation hop.  These shifts use
    the instantaneous detuning and are singular at Delta = B, 2B.

    A chain is fixed at construction.  It holds ``model``, ``basis``,
    ``interaction``, the structures ``drive``, ``n_r`` and ``v``, ``m1`` and
    the diagonal ``m2`` (None outside the corrections model) and the
    isometry ``u`` (None on the full basis).  A ``sector`` copy holds its
    structures on the columns of ``u``; its ``basis`` stays the chain's.
    """

    def __init__(self, model: Model, basis: Basis, interaction: Optional[InteractionConfig] = None):
        if basis.constrained == (model is Model.FULL_VDW):
            kind = "unconstrained" if model is Model.FULL_VDW else "blockade-constrained"
            raise ValueError(f"the {model.value} model requires the {kind} basis")
        if interaction is None and model is not Model.PXP:
            raise ValueError(f"model {model.value} needs an InteractionConfig")
        self.model = model
        self.basis = basis
        self.interaction = interaction
        self.drive = drive_matrix(basis)
        self.n_r = excitation_numbers(basis)
        self.m1 = self.m2 = self.u = None
        if model is Model.FULL_VDW:
            pairs = pair_sites(basis.nu, interaction.range_cutoff)
            self.v = pair_incidence(basis.masks, pairs) @ np.array([interaction.pair_strength(i, j) for i, j in pairs])
        elif model is Model.PXP_PLUS_CORRECTIONS:
            self.m1, self.m2, nnn_counts = _shift_structures(basis)
            self.v = interaction.b_nnn * nnn_counts
        else:
            self.v = np.zeros(basis.dim)

    def matrix(self, omega, delta) -> np.ndarray:
        """Dense real symmetric H at Rabi frequency omega and detuning
        delta; arrays of k values of each give the stack (k, dim, dim)."""
        omega, delta = np.asarray(omega), np.asarray(delta)
        diag = np.arange(len(self.n_r))
        h = omega[..., None, None] * self.drive
        h[..., diag, diag] += -delta[..., None] * self.n_r + self.v
        if self.m1 is not None:
            s_b, s_2b = level_shifts(omega, delta, self.interaction.b_nn)
            shift = s_b[..., None, None] * self.m1
            shift[..., diag, diag] += s_2b[..., None] * self.m2
            h -= shift
        return h

    def time_derivative(self, omega: float, omega_dot: float, delta: float, delta_dot: float) -> np.ndarray:
        """Real dH/dt along a pulse at (omega, delta) moving at rates
        (omega_dot, delta_dot)."""
        dh = omega_dot * self.drive - delta_dot * np.diag(self.n_r)
        if self.m1 is not None:
            # d/dt omega^2 / 4 (b - delta) for S_B (b = B) and S_2B (b = 2B)
            ds_b, ds_2b = (
                omega * (2.0 * omega_dot * (b - delta) + omega * delta_dot) / (4.0 * (b - delta) ** 2)
                for b in (self.interaction.b_nn, 2.0 * self.interaction.b_nn)
            )
            dh -= ds_b * self.m1 + np.diag(ds_2b * self.m2)
        return dh

    def sector(self, odd: bool = False) -> "ChainHamiltonian":
        """This H on the inversion-even (odd) sector of a full-basis chain
        (``basis.sector_isometry`` U of the chain's one inversion
        permutation): U^T drive U and U^T M1 U, n_r and the M2 diagonal at
        each column's lower orbit index, and the mirror-averaged v.  Raises
        ValueError if H does not commute with the inversion."""
        perm = inversion_permutation(self.basis)
        mirrored = np.ix_(perm, perm)
        tol = SYMMETRY_V_RTOL * np.abs(self.v).max()
        if not (
            np.array_equal(self.drive[mirrored], self.drive)
            and np.array_equal(self.n_r[perm], self.n_r)
            and np.abs(self.v[perm] - self.v).max() <= tol
            and (
                self.m1 is None
                or np.array_equal(self.m1[mirrored], self.m1) and np.array_equal(self.m2[perm], self.m2)
            )
        ):
            raise ValueError("the Hamiltonian does not commute with the spatial inversion")
        u = sector_isometry(perm, odd)
        reps = u.argmax(axis=0)  # lower index of each column's mirror orbit
        out = copy.copy(self)
        out.u, out.drive, out.n_r = u, u.T @ self.drive @ u, self.n_r[reps]
        out.v = 0.5 * (self.v[reps] + self.v[perm[reps]])
        if self.m1 is not None:
            out.m1, out.m2 = u.T @ self.m1 @ u, self.m2[reps]
        return out


def ladder_modes(m: int) -> np.ndarray:
    """Eigenvectors of the uniform m-site tridiagonal ladder: row k - 1 is
    sqrt(2 / (m + 1)) sin(k j pi / (m + 1)) over j = 1..m."""
    return np.array(
        [[math.sqrt(2.0 / (m + 1)) * math.sin(k * j * math.pi / (m + 1)) for j in range(1, m + 1)]
         for k in range(1, m + 1)]
    )

