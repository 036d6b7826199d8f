"""Dense Hamiltonian builders for the driven Rydberg chain.

Variants: the blockade-constrained PXP model, the full van der Waals model
on the unconstrained basis, the PXP model plus next-nearest-neighbour and
second-order (Schrieffer-Wolff) corrections, and the tridiagonal effective
Hamiltonians of the even-nu AFM manifold.  All builders are pure functions
returning immutable dense matrices.

Index conventions are 0-based with open boundaries: projectors P outside
the chain count as 1 and Rydberg projectors Q outside as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .basis import Basis, rydberg_count
from .config import InteractionConfig
from .errors import RegimeError

DIM_MAX = 1024
SHIFT_SINGULARITY_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator with a reference to the basis it was built on.

    ``basis`` is None for operators living on a reduced configuration space
    (the AFM-manifold builders).
    """

    matrix: np.ndarray
    basis: Optional[Basis] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        """max |H - H^dag| relative to max |H| (0 for the zero matrix)."""
        scale = np.abs(self.matrix).max()
        if scale == 0.0:
            return 0.0
        return float(np.abs(self.matrix - self.matrix.conj().T).max() / scale)


def _check_dim(dim: int) -> None:
    if dim > DIM_MAX:
        raise ValueError(f"dense matrix dimension {dim} exceeds the supported {DIM_MAX}")


def excitation_numbers(basis: Basis) -> np.ndarray:
    """Rydberg excitation count per basis state."""
    return np.array([rydberg_count(s) for s in basis.states], dtype=float)


def drive_matrix(basis: Basis) -> np.ndarray:
    """Drive structure per unit Rabi frequency: entries 1/2 between masks
    differing by one spin flip.

    On a constrained basis the flip additionally requires both neighbours
    unexcited (the PXP projectors); on a full basis every flip couples.
    """
    _check_dim(basis.dim)
    d = np.zeros((basis.dim, basis.dim))
    nu = basis.nu
    for k, s in enumerate(basis.states):
        for i in range(nu):
            if basis.constrained:
                left = i > 0 and (s >> (i - 1)) & 1
                right = i < nu - 1 and (s >> (i + 1)) & 1
                if left or right:
                    continue
            t = s ^ (1 << i)
            kt = basis.index.get(t)
            if kt is not None:
                d[k, kt] = 0.5
    return d


def pair_sites(nu: int, range_cutoff: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
    """Site pairs (i < j) within the interaction range."""
    cutoff = nu - 1 if range_cutoff is None else range_cutoff
    return tuple((i, j) for i in range(nu) for j in range(i + 1, nu) if j - i <= cutoff)


def pair_incidence(basis: Basis, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """0/1 matrix: entry (state, pair) = 1 if both pair sites are excited.

    The interaction diagonal is then ``incidence @ strengths``, which lets
    time-dependent pair strengths be folded in cheaply.
    """
    inc = np.zeros((basis.dim, len(pairs)))
    for k, s in enumerate(basis.states):
        for p, (i, j) in enumerate(pairs):
            if (s >> i) & 1 and (s >> j) & 1:
                inc[k, p] = 1.0
    return inc


def interaction_diagonal(basis: Basis, interaction: InteractionConfig) -> np.ndarray:
    """Diagonal of the pairwise interaction sum_{i>j} B_ij Q_i Q_j."""
    pairs = pair_sites(basis.nu, interaction.range_cutoff)
    strengths = np.array([interaction.pair_strength(i, j) for i, j in pairs])
    return pair_incidence(basis, pairs) @ strengths


def chain_matrix(
    omega: float, delta: float, drive: np.ndarray, n_r: np.ndarray, v_int: np.ndarray | float = 0.0
) -> np.ndarray:
    """Dense complex omega * drive + diag(-delta * n_r + v_int) from the
    operator structure of a basis (drive structure, excitation numbers,
    interaction diagonal), so repeated evaluations build it only once."""
    return (omega * drive + np.diag(-delta * n_r + v_int)).astype(complex)


def build_pxp(omega: float, delta: float, basis: Basis) -> OperatorMatrix:
    """PXP Hamiltonian: blockade-projected drive minus delta per excitation."""
    if not basis.constrained:
        raise ValueError("the PXP model requires a blockade-constrained basis")
    return OperatorMatrix(chain_matrix(omega, delta, drive_matrix(basis), excitation_numbers(basis)), basis)


def build_vdw(
    omega: float, delta: float, interaction: InteractionConfig, basis: Basis
) -> OperatorMatrix:
    """Full model: unconstrained drive plus the pairwise interaction diagonal."""
    if basis.constrained:
        raise ValueError("the full van der Waals model requires the unconstrained basis")
    h = chain_matrix(
        omega, delta, drive_matrix(basis), excitation_numbers(basis), interaction_diagonal(basis, interaction)
    )
    return OperatorMatrix(h, basis)


def level_shifts(omega: float, delta: float, b_nn: float) -> Tuple[float, float]:
    """Second-order shifts S_B and S_2B of a ground atom next to one or two
    Rydberg atoms.  Raises near the shift singularities Delta = B, 2B."""
    scale = abs(b_nn)
    if abs(b_nn - delta) <= SHIFT_SINGULARITY_RTOL * scale or abs(
        2.0 * b_nn - delta
    ) <= SHIFT_SINGULARITY_RTOL * scale:
        raise RegimeError(f"level shift singular at delta = {delta} for B = {b_nn}")
    s_b = omega**2 / (4.0 * (b_nn - delta))
    s_2b = omega**2 / (4.0 * (2.0 * b_nn - delta))
    return s_b, s_2b


def build_corrections(
    omega: float, delta: float, interaction: InteractionConfig, basis: Basis
) -> OperatorMatrix:
    """PXP plus the leading finite-blockade corrections.

    Adds to the PXP model the next-nearest-neighbour interaction B2 Q_i Q_{i+2},
    the second-order level shifts -S_B (one Rydberg neighbour) and -S_2B
    (two Rydberg neighbours) of ground atoms, and the -S_B projected hopping
    of a Rydberg excitation between adjacent sites.  Static analysis only:
    the shifts use the instantaneous detuning and are singular at Delta = B, 2B.
    """
    if not basis.constrained:
        raise ValueError("the corrections model requires a blockade-constrained basis")
    nu = basis.nu
    b2 = interaction.b_nnn
    s_b, s_2b = level_shifts(omega, delta, interaction.b_nn)

    h = omega * drive_matrix(basis) + np.diag(-delta * excitation_numbers(basis))

    def q(s: int, i: int) -> bool:
        return 0 <= i < nu and bool((s >> i) & 1)

    def p(s: int, i: int) -> bool:
        return not (0 <= i < nu) or not (s >> i) & 1

    for k, s in enumerate(basis.states):
        shift = 0.0
        for i in range(nu - 2):
            if q(s, i) and q(s, i + 2):
                shift += b2
        for i in range(nu):
            if not p(s, i):
                continue
            left, right = q(s, i - 1), q(s, i + 1)
            if left and right:
                shift -= s_2b
            elif left or right:
                shift -= s_b
        h[k, k] += shift
        # excitation hop between sites i, i+1 under empty flanks; each
        # unordered pair is visited once, so set both matrix elements
        for i in range(nu - 1):
            if q(s, i) and p(s, i + 1) and p(s, i - 1) and p(s, i + 2):
                kt = basis.index[s ^ (1 << i) ^ (1 << (i + 1))]
                h[k, kt] += -s_b
                h[kt, k] += -s_b
    return OperatorMatrix(h.astype(complex), basis)


class AfmMode(Enum):
    """Which effective AFM-manifold Hamiltonian to build."""

    PXP = "pxp"
    VDW_DEGENERATE = "vdw_degenerate"
    VDW_SPLIT = "vdw_split"


class AfmRegime(Enum):
    DEGENERATE = "degenerate"
    SPLIT = "split"


@dataclass(frozen=True)
class AfmManifoldModel:
    """Perturbative parameters of the even-nu AFM manifold at fixed drive.

    S is the level shift of a Rydberg atom from its coupling back to the
    chain, S_B / S_2B the shifts of incompletely blockaded ground atoms,
    J = S + S_B the defect hopping amplitude, and e_ordered / e_defect the
    second-order energies of the ordered and one-defect configurations.
    """

    nu: int
    s: float
    s_b: float
    s_2b: float
    j_hop: float
    e_ordered: float
    e_defect: float
    regime: AfmRegime

    @classmethod
    def evaluate(
        cls, nu: int, omega: float, delta: float, interaction: InteractionConfig
    ) -> "AfmManifoldModel":
        if nu % 2 != 0:
            raise ValueError(f"the AFM manifold model needs even nu, got {nu}")
        if delta == 0.0:
            raise RegimeError("level shift S diverges at delta = 0")
        nu_r = nu // 2
        s = omega**2 / (4.0 * delta)
        s_b, s_2b = level_shifts(omega, delta, interaction.b_nn)
        b2 = interaction.b_nnn
        e_ordered = -nu_r * (delta + s) + (nu_r - 1) * (b2 - s_2b) - s_b
        e_defect = -nu_r * (delta + s) + (nu_r - 2) * (b2 - s_2b) - 2.0 * s_b
        j_hop = s + s_b
        split = e_ordered - e_defect
        regime = AfmRegime.DEGENERATE if abs(j_hop) >= abs(split) else AfmRegime.SPLIT
        return cls(nu, s, s_b, s_2b, j_hop, e_ordered, e_defect, regime)


def build_afm_effective(
    nu: int,
    omega: float,
    delta: float,
    interaction: Optional[InteractionConfig],
    mode: AfmMode,
) -> OperatorMatrix:
    """Tridiagonal defect-hopping Hamiltonian over the AFM configurations.

    PXP mode: uniform diagonal -nu_r (delta + S), hopping -S, over all
    nu/2 + 1 configurations.  VDW_DEGENERATE: the same ladder with the
    ordered/defect diagonal energies resolved and hopping -J.  VDW_SPLIT:
    the bulk-defect subspace only (nu/2 - 1 configurations, the ordered
    pair decouples), uniform diagonal, hopping -J.
    """
    if nu % 2 != 0:
        raise ValueError(f"the AFM manifold is defined for even nu, got {nu}")
    if delta == 0.0:
        raise RegimeError("level shift S diverges at delta = 0")
    nu_r = nu // 2
    if mode is AfmMode.PXP:
        dim = nu_r + 1
        s = omega**2 / (4.0 * delta)
        h = np.diag(np.full(dim, -nu_r * (delta + s)))
        hop = -s
    else:
        if interaction is None:
            raise ValueError("vdW AFM modes need an InteractionConfig")
        model = AfmManifoldModel.evaluate(nu, omega, delta, interaction)
        hop = -model.j_hop
        if mode is AfmMode.VDW_DEGENERATE:
            dim = nu_r + 1
            diag = np.full(dim, model.e_defect)
            diag[0] = diag[-1] = model.e_ordered
            h = np.diag(diag)
        else:
            dim = nu_r - 1
            if dim < 1:
                raise ValueError(f"no bulk-defect subspace for nu = {nu}")
            h = np.diag(np.full(dim, model.e_defect))
    for j in range(h.shape[0] - 1):
        h[j, j + 1] = h[j + 1, j] = hop
    return OperatorMatrix(h.astype(complex), None)

