"""Dense Hamiltonians of the driven Rydberg chain.

One ``ChainHamiltonian`` per (model, basis, interaction) holds the fixed
operator structures, and ``matrix(omega, delta)`` scales them by the pulse
values: the drive, the excitation numbers, a static interaction diagonal
and, for the corrections model, the level-shift structures M1 and M2.
Variants: the blockade-constrained PXP model, the full van der Waals model
on the unconstrained basis, and the PXP model plus next-nearest-neighbour
and second-order (Schrieffer-Wolff) corrections.  The tridiagonal
effective Hamiltonians of the even-nu AFM manifold are built separately.

Index conventions are 0-based with open boundaries: projectors P outside
the chain count as 1 and Rydberg projectors Q outside as 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .basis import Basis, build_blockade_basis, build_full_basis, rydberg_count
from .config import InteractionConfig, Model
from .errors import RegimeError

DIM_MAX = 1024
SHIFT_SINGULARITY_RTOL = 1e-6


def _check_dim(dim: int) -> None:
    if dim > DIM_MAX:
        raise ValueError(f"dense matrix dimension {dim} exceeds the supported {DIM_MAX}")


def _bit_counts(masks) -> np.ndarray:
    return np.array([rydberg_count(int(m)) for m in masks], dtype=float)


def excitation_numbers(basis: Basis) -> np.ndarray:
    """Rydberg excitation count per basis state."""
    return _bit_counts(basis.states)


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


def _shift_structures(basis: Basis) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M1 (dense), the diagonal of M2 and the next-nearest-neighbour pair
    counts of the corrections model on a blockade basis.

    M1 counts the ground atoms with exactly one Rydberg neighbour on its
    diagonal and couples the two configurations of each hop of an
    excitation from site i to i + 1 under empty flanks; M2 counts the
    ground atoms with two Rydberg neighbours.
    """
    s = np.array(basis.states, dtype=np.int64)
    full = (1 << basis.nu) - 1
    ground = ~s & full
    left, right = (s << 1) & full, s >> 1  # bit i: atom i - 1 / i + 1 excited
    m1 = np.diag(_bit_counts(ground & (left ^ right)))
    m2 = _bit_counts(ground & left & right)
    # hop sources: atom i < nu - 1 excited and atom i + 2 empty (atoms
    # i - 1 and i + 1 are empty by the blockade); states are ascending
    hops = s & ~(s >> 2) & (full >> 1)
    for i in range(basis.nu - 1):
        k = np.flatnonzero(hops >> i & 1)
        kt = np.searchsorted(s, s[k] ^ (3 << i))
        m1[k, kt] = m1[kt, k] = 1.0
    return m1, m2, _bit_counts(s & (s >> 2))


def model_basis(model: Model, nu: int) -> Basis:
    """Basis appropriate for a Hamiltonian variant."""
    if model is Model.FULL_VDW:
        return build_full_basis(nu)
    return build_blockade_basis(nu)


class ChainHamiltonian:
    """H(omega, delta) of one chain model on one basis: fixed structures
    times scalar pulse profiles.

    PXP and vdW: omega * drive + diag(-delta * n_r + v), with the static
    interaction diagonal v (zero for PXP; ``incidence @ pair strengths``
    for vdW, whose ``pairs`` and ``incidence`` also serve moving atoms).
    Corrections: v is the next-nearest-neighbour term B2 Q_i Q_{i+2}, and
    H gains -S_B(omega, delta) M1 - S_2B(omega, delta) M2, the second-order
    level shifts of ground atoms and the -S_B excitation hop.  These shifts
    use the instantaneous detuning and are singular at Delta = B, 2B.
    """

    def __init__(self, model: Model, basis: Basis, interaction: Optional[InteractionConfig] = None):
        if basis.constrained == (model is Model.FULL_VDW):
            kind = "unconstrained" if model is Model.FULL_VDW else "blockade-constrained"
            raise ValueError(f"the {model.value} model requires the {kind} basis")
        if interaction is None and model is not Model.PXP:
            raise ValueError(f"model {model.value} needs an InteractionConfig")
        self.model = model
        self.basis = basis
        self.drive = drive_matrix(basis)
        self.n_r = excitation_numbers(basis)
        self.pairs = self.incidence = self.m1 = self.m2 = self._nnn_counts = None
        if model is Model.FULL_VDW:
            self.pairs = pair_sites(basis.nu, interaction.range_cutoff)
            self.incidence = pair_incidence(basis, self.pairs)
        elif model is Model.PXP_PLUS_CORRECTIONS:
            self.m1, self.m2, self._nnn_counts = _shift_structures(basis)
        self._set_interaction(interaction)

    def _set_interaction(self, interaction: Optional[InteractionConfig]) -> None:
        self.interaction = interaction
        if self.model is Model.FULL_VDW:
            self.v = self.incidence @ np.array([interaction.pair_strength(i, j) for i, j in self.pairs])
        elif self.model is Model.PXP_PLUS_CORRECTIONS:
            self.v = interaction.b_nnn * self._nnn_counts
        else:
            self.v = np.zeros(self.basis.dim)

    def with_interaction(self, interaction: InteractionConfig) -> "ChainHamiltonian":
        """The same model and structures under another interaction (the
        flipped one of the second pulse) with the same range cutoff."""
        if self.pairs is not None and interaction.range_cutoff != self.interaction.range_cutoff:
            raise ValueError("the pair structure was built for another range cutoff")
        out = copy.copy(self)
        out._set_interaction(interaction)
        return out

    def matrix(self, omega: float, delta: float) -> np.ndarray:
        """Dense complex H at Rabi frequency omega and detuning delta."""
        h = omega * self.drive + np.diag(-delta * self.n_r + self.v)
        if self.m1 is not None:
            s_b, s_2b = level_shifts(omega, delta, self.interaction.b_nn)
            h -= s_b * self.m1 + np.diag(s_2b * self.m2)
        return h.astype(complex)

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
) -> np.ndarray:
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
    return h.astype(complex)

