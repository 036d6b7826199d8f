"""Reference implementations the tests compare the package against.

None of this is on a program path: the even-nu AFM-manifold picture (the
defect-hopping ladder with J = S + S_B and its closed-form spectrum), the
Landau-Zener crossing probability, the scalar spatial inversion of one
mask and the physical pulse II (the lambda-rescaled drive under the
flipped interaction -lambda B), plus the final ground amplitude of a
protocol run.
Tests import it as they import ``conftest``; pytest does not collect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from afmgate.basis import afm_manifold_masks
from afmgate.config import InteractionConfig, PulseProfile
from afmgate.errors import ConfigError, RegimeError
from afmgate.evolution import ProtocolRun
from afmgate.hamiltonian import ladder_modes, level_shifts


def apply_inversion(mask: int, nu: int) -> int:
    """Spatial inversion: reverse the bit order over ``nu`` atoms."""
    out = 0
    for i in range(nu):
        if mask >> i & 1:
            out |= 1 << (nu - 1 - i)
    return out


def flipped_interaction(interaction: InteractionConfig) -> InteractionConfig:
    """Second-step interaction C6' = -lambda * C6."""
    return replace(interaction, c6=-interaction.lambda_ratio * interaction.c6)


def rescaled_pulse(pulse: PulseProfile, lam: float) -> PulseProfile:
    """Second-step pulse for B' = -lambda B: amplitudes scaled up by
    lambda, duration (and width) down by lambda."""
    if not 0.0 < lam < math.inf:
        raise ConfigError(f"lambda must be finite and > 0, got {lam}")
    return PulseProfile(lam * pulse.omega0, lam * pulse.delta0, pulse.tau / lam, pulse.sigma / lam)


def ground_amplitude(run: ProtocolRun) -> complex:
    """Final amplitude of a run on the all-ground configuration."""
    return complex(run.trajectory.states[-1][run.trajectory.basis.index(0)])


def lz_probability(gap: float, delta0: float, tau: float) -> float:
    """Landau-Zener crossing probability exp[-2 pi (gap/2)^2 / (2 delta0/tau)]."""
    if gap <= 0.0 or delta0 <= 0.0 or tau <= 0.0:
        raise ValueError("gap, delta0 and tau must be > 0")
    return math.exp(-2.0 * math.pi * (gap / 2.0) ** 2 / (2.0 * delta0 / tau))


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
        cls, nu: int, omega: float, delta: float, interaction: Optional[InteractionConfig] = None
    ) -> "AfmManifoldModel":
        """The parameters under a vdW interaction; None is the PXP model, a
        perfect blockade with S_B = S_2B = B2 = 0, whose ladder is uniform:
        e_ordered = e_defect = -nu_r (delta + S) and J = S."""
        if nu % 2 != 0:
            raise ValueError(f"the AFM manifold is defined for even nu, got {nu}")
        if delta == 0.0:
            raise RegimeError("level shift S diverges at delta = 0")
        nu_r = nu // 2
        s = omega**2 / (4.0 * delta)
        base = -nu_r * (delta + s)
        if interaction is None:
            return cls(nu, s, 0.0, 0.0, s, base, base, AfmRegime.DEGENERATE)
        s_b, s_2b = level_shifts(omega, delta, interaction.b_nn)
        b2 = interaction.b_nnn
        e_ordered = base + (nu_r - 1) * (b2 - s_2b) - s_b
        e_defect = base + (nu_r - 2) * (b2 - s_2b) - 2.0 * s_b
        j_hop = s + s_b
        split = e_ordered - e_defect
        regime = AfmRegime.DEGENERATE if abs(j_hop) >= abs(split) else AfmRegime.SPLIT
        return cls(nu, s, s_b, s_2b, j_hop, e_ordered, e_defect, regime)

    @classmethod
    def of_mode(
        cls, nu: int, omega: float, delta: float, interaction: Optional[InteractionConfig], mode: AfmMode
    ) -> "AfmManifoldModel":
        """``evaluate`` for an ``AfmMode``: PXP ignores the interaction, the
        vdW modes need one."""
        model = cls.evaluate(nu, omega, delta, None if mode is AfmMode.PXP else interaction)
        if interaction is None and mode is not AfmMode.PXP:
            raise ValueError("vdW AFM modes need an InteractionConfig")
        return model


def build_afm_effective(
    nu: int,
    omega: float,
    delta: float,
    interaction: Optional[InteractionConfig],
    mode: AfmMode,
) -> np.ndarray:
    """Tridiagonal defect-hopping Hamiltonian over the AFM configurations.

    PXP and VDW_DEGENERATE: the nu/2 + 1 configurations, ordered/defect
    diagonal energies and hopping -J (PXP: uniform diagonal
    -nu_r (delta + S), hopping -S).  VDW_SPLIT: the bulk-defect subspace
    only (nu/2 - 1 configurations, the ordered pair decouples), uniform
    diagonal, hopping -J.
    """
    model = AfmManifoldModel.of_mode(nu, omega, delta, interaction, mode)
    nu_r = nu // 2
    if mode is AfmMode.VDW_SPLIT:
        if nu_r < 2:
            raise ValueError(f"no bulk-defect subspace for nu = {nu}")
        diag = np.full(nu_r - 1, model.e_defect)
    else:
        diag = np.full(nu_r + 1, model.e_defect)
        diag[0] = diag[-1] = model.e_ordered
    h = np.diag(diag)
    for j in range(h.shape[0] - 1):
        h[j, j + 1] = h[j + 1, j] = -model.j_hop
    return h.astype(complex)


@dataclass(frozen=True, eq=False)
class AfmSpectrum:
    """Closed-form AFM-manifold eigensystem.

    ``vectors[k]`` holds the coefficients of eigenstate k over the
    configurations listed in ``masks`` (energy ``energies[k]``).
    """

    nu: int
    mode: AfmMode
    energies: np.ndarray
    vectors: np.ndarray
    masks: Tuple[int, ...]


def afm_analytic_spectrum(
    nu: int,
    omega: float,
    delta: float,
    interaction: Optional[InteractionConfig],
    mode: AfmMode,
) -> AfmSpectrum:
    """Sine-wave eigenstates and cosine-band energies of the AFM manifold.

    PXP mode diagonalizes the uniform defect-hopping ladder exactly.  The
    degenerate vdW mode uses the same band with hopping J (valid when J
    dominates the ordered/defect splitting).  The split mode returns the
    bulk-defect band plus the two decoupled ordered combinations
    (|a_1> +- |a_last>)/sqrt(2) at the ordered energy.
    """
    model = AfmManifoldModel.of_mode(nu, omega, delta, interaction, mode)
    nu_r = nu // 2
    m = nu_r + 1
    masks = afm_manifold_masks(nu)

    if mode is not AfmMode.VDW_SPLIT:
        ks = np.arange(1, m + 1)
        energies = model.e_defect - 2.0 * model.j_hop * np.cos(ks * math.pi / (m + 1))
        return AfmSpectrum(nu, mode, energies, ladder_modes(m), masks)

    # split regime: bulk band over a_2 ... a_{nu/2} plus the ordered pair
    n_bulk = nu_r - 1
    energies = np.empty(m)
    vectors = np.zeros((m, m))
    for k in range(1, n_bulk + 1):
        energies[k - 1] = model.e_defect - 2.0 * model.j_hop * math.cos(k * math.pi / nu_r)
    vectors[:n_bulk, 1:nu_r] = ladder_modes(n_bulk)
    for sign, row in ((1.0, n_bulk), (-1.0, n_bulk + 1)):
        energies[row] = model.e_ordered
        vectors[row, 0] = 1.0 / math.sqrt(2.0)
        vectors[row, -1] = sign / math.sqrt(2.0)
    return AfmSpectrum(nu, AfmMode.VDW_SPLIT, energies, vectors, masks)
