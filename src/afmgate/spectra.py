"""Adiabatic spectrum scans and analytic AFM-manifold spectra.

A scan sweeps the detuning over the pulse window (the drive amplitude
follows the pulse envelope), records the sorted eigensystem with a
continuous sign gauge and evaluates the dimensionless non-adiabatic
couplings eta_lk = |<l| dH/dt |k> / (E_k - E_l)|^2 tau / Delta0 from the
extremal (adiabatically followed) branches l.  The chain is mirror-symmetric:
a level's inversion label is the sector it is solved in, and dH/dt couples
no two levels of different sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import block_diag

from .basis import Basis, afm_manifold_masks
from .config import InteractionConfig, Model, PulseProfile
from .errors import RegimeError
from .hamiltonian import AfmManifoldModel, AfmMode, ChainHamiltonian, model_basis

DEGENERACY_RTOL = 1e-9  # in units of Omega0, for flagging undefined eta
# Matrix entries of one stacked coarse-grid eigenproblem of ``min_gap``
# (grid points per chunk times dim^2), 1 MB of float64: the 101-point grid
# of a PXP chain up to nu = 7 (dim 34) is one chunk
GAP_CHUNK_ENTRIES = 1 << 17


class SymmetryLabel(Enum):
    SYMMETRIC = "S"
    ANTISYMMETRIC = "A"


@dataclass(frozen=True, eq=False)
class SpectrumScan:
    """Eigensystem of the scanned Hamiltonian across the detuning sweep.

    ``eigenvalues[g, k]`` are ascending in k at every grid point g;
    ``eigenvectors[g]`` holds the matching real, sign-fixed columns.  ``eta_low``
    / ``eta_high`` are the couplings from the lowest / highest branch; NaN
    entries mark points where the level pair is degenerate (eta undefined).
    """

    basis: Basis
    delta_grid: np.ndarray
    times: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eta_low: np.ndarray
    eta_high: np.ndarray
    symmetry: List[List[SymmetryLabel]]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]


def _phase_fix(prev: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Sign each real column so its overlap with the previous column is
    positive (columns with negligible overlap are left untouched)."""
    overlaps = np.sum(prev * vecs, axis=0)
    return vecs * np.where(overlaps < -1e-12, -1.0, 1.0)


def scan_spectrum(
    nu: int,
    pulse: PulseProfile,
    model: Model = Model.PXP,
    interaction: Optional[InteractionConfig] = None,
    grid_size: int = 201,
) -> SpectrumScan:
    """Eigensystem, symmetry labels and eta couplings over the sweep: each
    grid point solves the even and odd sectors apart and merges their levels
    by a stable ascending sort (even first at an exact tie)."""
    if grid_size < 3:
        raise ValueError(f"grid size must be >= 3, got {grid_size}")
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    sectors = (ham.sector(), ham.sector(odd=True))
    labels = [SymmetryLabel.SYMMETRIC] * len(sectors[0].n_r) + [SymmetryLabel.ANTISYMMETRIC] * len(sectors[1].n_r)
    deg_tol = DEGENERACY_RTOL * abs(pulse.omega0) if pulse.omega0 else DEGENERACY_RTOL

    times = np.linspace(0.0, pulse.tau, grid_size)
    deltas = np.array([pulse.delta(t) for t in times])
    dim = ham.basis.dim

    eigenvalues = np.empty((grid_size, dim))
    eigenvectors = np.empty((grid_size, dim, dim))
    eta_low = np.zeros((grid_size, dim))
    eta_high = np.zeros((grid_size, dim))
    symmetry: List[List[SymmetryLabel]] = []

    prev_vecs: Optional[np.ndarray] = None
    for g, (t, delta) in enumerate(zip(times, deltas)):
        omega = pulse.omega(t)
        w_s, v_s = zip(*(np.linalg.eigh(sector.matrix(omega, delta)) for sector in sectors))
        w = np.concatenate(w_s)
        order = np.argsort(w, kind="stable")
        w = w[order]
        v = np.hstack([sector.u @ vs for sector, vs in zip(sectors, v_s)])[:, order]
        if prev_vecs is not None:
            v = _phase_fix(prev_vecs, v)
        prev_vecs = v
        eigenvalues[g] = w
        eigenvectors[g] = v
        symmetry.append([labels[k] for k in order])

        # analytic dH/dt in each sector's eigenbasis (Hellmann-Feynman
        # numerators; zero across sectors), rows of the extremal branches
        dh_rows = block_diag(
            *(vs.T @ sector.time_derivative(omega, pulse.omega_dot(t), delta, pulse.beta) @ vs
              for sector, vs in zip(sectors, v_s))
        )[np.ix_(order[[0, -1]], order)]
        for row, l, dh_l in ((eta_low[g], 0, dh_rows[0]), (eta_high[g], dim - 1, dh_rows[1])):
            gaps = w - w[l]
            ratio = np.divide(dh_l, gaps, out=np.full(dim, math.nan), where=np.abs(gaps) >= deg_tol)
            row[:] = ratio**2 * pulse.tau / abs(pulse.delta0)
            row[l] = 0.0

    return SpectrumScan(
        basis=ham.basis,
        delta_grid=deltas,
        times=times,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        eta_low=eta_low,
        eta_high=eta_high,
        symmetry=symmetry,
    )


@dataclass(frozen=True)
class GapReport:
    """Minimal gap between the followed branch and its avoided-crossing
    partner (1-based index 2 for odd nu, nu/2 + 2 for even nu)."""

    nu: int
    delta_at_min: float
    gap: float
    kappa: float
    partner_index: int


def wrong_parity_partner(nu: int) -> int:
    """1-based energy index of the dominant wrong-parity branch."""
    return 2 if nu % 2 == 1 else nu // 2 + 2


def min_gap(
    nu: int,
    pulse: PulseProfile,
    model: Model = Model.PXP,
    interaction: Optional[InteractionConfig] = None,
    coarse_points: int = 101,
) -> GapReport:
    """Minimum over the sweep of the avoided-crossing gap, coarse grid plus
    golden-section refinement."""
    from scipy.optimize import minimize_scalar  # deferred: only this function needs it

    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    partner = wrong_parity_partner(nu)
    if partner > ham.basis.dim:
        raise ValueError(f"basis of dim {ham.basis.dim} has no branch {partner}")
    k0 = partner - 1

    def gaps_at(delta):
        # a float, or an array of detunings solved as one stacked eigvalsh
        w = np.linalg.eigvalsh(ham.matrix(pulse.omega(pulse.time_at_delta(delta)), delta))
        return w[..., k0] - w[..., 0]

    deltas = np.linspace(-abs(pulse.delta0), abs(pulse.delta0), coarse_points)
    chunk = max(1, GAP_CHUNK_ENTRIES // ham.basis.dim**2)
    gaps = np.concatenate([gaps_at(deltas[lo : lo + chunk]) for lo in range(0, coarse_points, chunk)])
    i = int(np.argmin(gaps))
    if 0 < i < coarse_points - 1:
        res = minimize_scalar(
            lambda delta: float(gaps_at(delta)),
            bracket=(deltas[i - 1], deltas[i], deltas[i + 1]), method="golden", options={"xtol": 1e-10},
        )
        d_min, g_min = float(res.x), float(res.fun)
    else:
        d_min, g_min = float(deltas[i]), float(gaps[i])
    if not g_min > 0.0:
        raise RegimeError(f"degenerate branches: gap {g_min} at delta = {d_min}")
    return GapReport(
        nu=nu,
        delta_at_min=d_min,
        gap=g_min,
        kappa=g_min / abs(pulse.omega0),
        partner_index=partner,
    )


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
    if nu % 2 != 0:
        raise ValueError(f"the AFM manifold is defined for even nu, got {nu}")
    if delta == 0.0:
        raise RegimeError("level shift S diverges at delta = 0")
    nu_r = nu // 2
    m = nu_r + 1
    masks = afm_manifold_masks(nu)

    if mode is AfmMode.PXP:
        s = omega**2 / (4.0 * delta)
        base, hop = -nu_r * (delta + s), s
        ks = np.arange(1, m + 1)
        energies = base - 2.0 * hop * np.cos(ks * math.pi / (m + 1))
        vectors = np.array(
            [
                [math.sqrt(2.0 / (m + 1)) * math.sin(k * j * math.pi / (m + 1)) for j in range(1, m + 1)]
                for k in ks
            ]
        )
        return AfmSpectrum(nu, mode, energies, vectors, masks)

    if interaction is None:
        raise ValueError("vdW AFM modes need an InteractionConfig")
    model = AfmManifoldModel.evaluate(nu, omega, delta, interaction)

    if mode is AfmMode.VDW_DEGENERATE:
        ks = np.arange(1, m + 1)
        energies = model.e_defect - 2.0 * model.j_hop * np.cos(ks * math.pi / (m + 1))
        vectors = np.array(
            [
                [math.sqrt(2.0 / (m + 1)) * math.sin(k * j * math.pi / (m + 1)) for j in range(1, m + 1)]
                for k in ks
            ]
        )
        return AfmSpectrum(nu, mode, energies, vectors, masks)

    # split regime: bulk band over a_2 ... a_{nu/2} plus the ordered pair
    n_bulk = nu_r - 1
    energies = np.empty(m)
    vectors = np.zeros((m, m))
    for k in range(1, n_bulk + 1):
        energies[k - 1] = model.e_defect - 2.0 * model.j_hop * math.cos(k * math.pi / nu_r)
        for j in range(2, nu_r + 1):
            vectors[k - 1, j - 1] = math.sqrt(2.0 / nu_r) * math.sin(k * (j - 1) * math.pi / nu_r)
    for sign, row in ((1.0, n_bulk), (-1.0, n_bulk + 1)):
        energies[row] = model.e_ordered
        vectors[row, 0] = 1.0 / math.sqrt(2.0)
        vectors[row, -1] = sign / math.sqrt(2.0)
    return AfmSpectrum(nu, AfmMode.VDW_SPLIT, energies, vectors, masks)
