"""Adiabatic spectrum scans and analytic AFM-manifold spectra.

A scan sweeps the detuning over the pulse window (the drive amplitude
follows the pulse envelope), records the sorted eigensystem with a
continuous phase gauge, classifies each eigenstate under spatial inversion
and evaluates the dimensionless non-adiabatic couplings
eta_lk = |<l| dH/dt |k> / (E_k - E_l)|^2 tau / Delta0 from the extremal
(adiabatically followed) branches l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .basis import Basis, afm_manifold_masks, apply_inversion
from .config import InteractionConfig, Model, PulseProfile
from .errors import RegimeError
from .hamiltonian import AfmManifoldModel, AfmMode, ChainHamiltonian, model_basis

HERMITICITY_RTOL = 1e-10
DEGENERACY_RTOL = 1e-9  # in units of Omega0, for flagging undefined eta
SYMMETRY_GATE = 1e-6


class SymmetryLabel(Enum):
    SYMMETRIC = "S"
    ANTISYMMETRIC = "A"
    MIXED = "M"


def eig_sorted(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian matrix.  Raises on non-Hermitian input (defect max |H - H^dag|
    above HERMITICITY_RTOL relative to max |H|)."""
    h = np.asarray(h, dtype=complex)
    if np.abs(h - h.conj().T).max() > HERMITICITY_RTOL * np.abs(h).max():
        raise ValueError("eig_sorted requires a Hermitian matrix")
    return np.linalg.eigh(h)


def inversion_matrix(basis: Basis) -> np.ndarray:
    """Permutation matrix of the spatial inversion on this basis."""
    mat = np.zeros((basis.dim, basis.dim))
    for k, s in enumerate(basis.states):
        mat[basis.index[apply_inversion(s, basis.nu)], k] = 1.0
    return mat


def _symmetry_label(x: float) -> SymmetryLabel:
    """Label for an inversion expectation value <v|I|v>: MIXED (possible
    only at degeneracies) unless within SYMMETRY_GATE of +-1."""
    if x >= 1.0 - SYMMETRY_GATE:
        return SymmetryLabel.SYMMETRIC
    if x <= -(1.0 - SYMMETRY_GATE):
        return SymmetryLabel.ANTISYMMETRIC
    return SymmetryLabel.MIXED


def classify_symmetry(vec: np.ndarray, basis: Basis) -> SymmetryLabel:
    """Inversion character of a normalized state from <v|I|v>."""
    return _symmetry_label(float(np.real(np.vdot(vec, inversion_matrix(basis) @ vec))))


@dataclass(frozen=True, eq=False)
class SpectrumScan:
    """Eigensystem of the scanned Hamiltonian across the detuning sweep.

    ``eigenvalues[g, k]`` are ascending in k at every grid point g;
    ``eigenvectors[g]`` holds the matching gauge-fixed columns.  ``eta_low``
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
    """Phase each column so its overlap with the previous column is real
    and positive (columns with negligible overlap are left untouched)."""
    out = vecs.copy()
    for k in range(vecs.shape[1]):
        ov = np.vdot(prev[:, k], vecs[:, k])
        mag = abs(ov)
        if mag > 1e-12:
            out[:, k] *= ov.conjugate() / mag
    return out


def scan_spectrum(
    nu: int,
    pulse: PulseProfile,
    model: Model = Model.PXP,
    interaction: Optional[InteractionConfig] = None,
    grid_size: int = 201,
) -> SpectrumScan:
    """Eigensystem, symmetry labels and eta couplings over the sweep."""
    if grid_size < 3:
        raise ValueError(f"grid size must be >= 3, got {grid_size}")
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    basis = ham.basis
    inv = inversion_matrix(basis)
    deg_tol = DEGENERACY_RTOL * abs(pulse.omega0) if pulse.omega0 else DEGENERACY_RTOL

    times = np.linspace(0.0, pulse.tau, grid_size)
    deltas = np.array([pulse.delta(t) for t in times])
    dim = basis.dim

    eigenvalues = np.empty((grid_size, dim))
    eigenvectors = np.empty((grid_size, dim, dim), dtype=complex)
    eta_low = np.zeros((grid_size, dim))
    eta_high = np.zeros((grid_size, dim))
    symmetry: List[List[SymmetryLabel]] = []

    prev_vecs: Optional[np.ndarray] = None
    for g, (t, delta) in enumerate(zip(times, deltas)):
        omega = pulse.omega(t)
        w, v = np.linalg.eigh(ham.matrix(omega, delta))
        if prev_vecs is not None:
            v = _phase_fix(prev_vecs, v)
        prev_vecs = v
        eigenvalues[g] = w
        eigenvectors[g] = v

        # analytic dH/dt in the eigenbasis (Hellmann-Feynman numerators)
        dh = ham.time_derivative(omega, pulse.omega_dot(t), delta, pulse.beta)
        dh_eig = v.conj().T @ dh @ v
        for row, l in ((eta_low[g], 0), (eta_high[g], dim - 1)):
            gaps = w - w[l]
            for k in range(dim):
                if k == l:
                    row[k] = 0.0
                elif abs(gaps[k]) < deg_tol:
                    row[k] = math.nan
                else:
                    row[k] = abs(dh_eig[l, k] / gaps[k]) ** 2 * pulse.tau / abs(pulse.delta0)

        ix = np.real(np.einsum("ik,ij,jk->k", v.conj(), inv, v))
        symmetry.append([_symmetry_label(x) for x in ix])

    return SpectrumScan(
        basis=basis,
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
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    partner = wrong_parity_partner(nu)
    if partner > ham.basis.dim:
        raise ValueError(f"basis of dim {ham.basis.dim} has no branch {partner}")
    k0 = partner - 1

    def gap_at(delta: float) -> float:
        w = np.linalg.eigvalsh(ham.matrix(pulse.omega(pulse.time_at_delta(delta)), delta))
        return float(w[k0] - w[0])

    deltas = np.linspace(-abs(pulse.delta0), abs(pulse.delta0), coarse_points)
    gaps = np.array([gap_at(d) for d in deltas])
    i = int(np.argmin(gaps))
    if 0 < i < coarse_points - 1:
        res = minimize_scalar(
            gap_at, bracket=(deltas[i - 1], deltas[i], deltas[i + 1]), method="golden",
            options={"xtol": 1e-10},
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
