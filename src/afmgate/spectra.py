"""Adiabatic spectrum scans and analytic AFM-manifold spectra.

A scan sweeps the detuning over the pulse window (the drive amplitude
follows the pulse envelope), records the sorted eigenvalues and evaluates
the dimensionless non-adiabatic couplings
eta_lk = |<l| dH/dt |k> / (E_k - E_l)|^2 tau / Delta0 from the extremal
(adiabatically followed) branches l.  The chain is mirror-symmetric: a
level's inversion label is the sector it is solved in, and dH/dt couples no
two levels of different sectors, so each row of eta needs only the followed
branch's own sector.  No eigenvectors are kept: a scan's memory is
O(grid * dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .basis import Basis, afm_manifold_masks
from .config import InteractionConfig, Model, PulseProfile
from .errors import RegimeError
from .hamiltonian import AfmManifoldModel, AfmMode, ChainHamiltonian, ladder_modes, model_basis

DEGENERACY_RTOL = 1e-9  # in units of Omega0, for flagging undefined eta
# Detunings of the coarse grid of ``min_gap``
GAP_COARSE_POINTS = 101
# Matrix entries of one stacked coarse-grid eigenproblem of ``min_gap``
# (grid points per chunk times dim^2), 1 MB of float64: the 101-point grid
# of a PXP chain up to nu = 7 (dim 34) is one chunk
GAP_CHUNK_ENTRIES = 1 << 17
# Golden-section refinement of ``min_gap``: the relative tolerance on the
# detuning and scipy's iteration cap (the test is met after 45-80 gap
# evaluations at PXP nu 2..11 and vdW nu 2..8)
GOLDEN_XTOL = 1e-10
GOLDEN_MAXITER = 5000


class SymmetryLabel(Enum):
    SYMMETRIC = "S"
    ANTISYMMETRIC = "A"


@dataclass(frozen=True, eq=False)
class SpectrumScan:
    """Spectrum of the scanned Hamiltonian across the detuning sweep.

    ``eigenvalues[g, k]`` are ascending in k at every grid point g, and
    ``symmetry[g][k]`` is level k's inversion label.  ``eta_low`` /
    ``eta_high`` are the couplings from the lowest / highest branch; NaN
    entries mark points where the level pair is degenerate (eta undefined).
    """

    basis: Basis
    delta_grid: np.ndarray
    times: np.ndarray
    eigenvalues: np.ndarray
    eta_low: np.ndarray
    eta_high: np.ndarray
    symmetry: List[List[SymmetryLabel]]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]


def scan_spectrum(
    nu: int,
    pulse: PulseProfile,
    model: Model = Model.PXP,
    interaction: Optional[InteractionConfig] = None,
    grid_size: int = 201,
) -> SpectrumScan:
    """Eigenvalues, symmetry labels and eta couplings over the sweep: each
    grid point solves the even and odd sectors apart and merges their levels
    by a stable ascending sort (even first at an exact tie)."""
    if grid_size < 3:
        raise ValueError(f"grid size must be >= 3, got {grid_size}")
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    sectors = (ham.sector(), ham.sector(odd=True))
    offsets = (0, len(sectors[0].n_r))
    labels = [SymmetryLabel.SYMMETRIC] * offsets[1] + [SymmetryLabel.ANTISYMMETRIC] * len(sectors[1].n_r)
    deg_tol = DEGENERACY_RTOL * abs(pulse.omega0) if pulse.omega0 else DEGENERACY_RTOL

    times = np.linspace(0.0, pulse.tau, grid_size)
    omegas, deltas = pulse.omega(times), pulse.delta(times)
    dim = ham.basis.dim

    eigenvalues = np.empty((grid_size, dim))
    eta_low = np.zeros((grid_size, dim))
    eta_high = np.zeros((grid_size, dim))
    symmetry: List[List[SymmetryLabel]] = []

    for g, (t, omega, delta) in enumerate(zip(times, omegas, deltas)):
        w_s, v_s = zip(*(np.linalg.eigh(sector.matrix(omega, delta)) for sector in sectors))
        w = np.concatenate(w_s)
        order = np.argsort(w, kind="stable")
        w = w[order]
        eigenvalues[g] = w
        symmetry.append([labels[k] for k in order])

        omega_dot = pulse.omega_dot(t)
        for row, l in ((eta_low[g], 0), (eta_high[g], dim - 1)):
            # the followed branch's row of the analytic dH/dt in its own
            # sector's eigenbasis (Hellmann-Feynman numerators), zero in the
            # other sector
            s = int(order[l] >= offsets[1])
            vs = v_s[s]
            dh_l = np.zeros(dim)
            dh_l[offsets[s] : offsets[s] + vs.shape[1]] = (
                vs[:, order[l] - offsets[s]] @ sectors[s].time_derivative(omega, omega_dot, delta, pulse.beta) @ vs
            )
            gaps = w - w[l]
            ratio = np.divide(dh_l[order], gaps, out=np.full(dim, math.nan), where=np.abs(gaps) >= deg_tol)
            row[:] = ratio**2 * pulse.tau / abs(pulse.delta0)
            row[l] = 0.0

    return SpectrumScan(
        basis=ham.basis,
        delta_grid=deltas,
        times=times,
        eigenvalues=eigenvalues,
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
) -> GapReport:
    """Minimum over the sweep of the avoided-crossing gap, a coarse grid of
    ``GAP_COARSE_POINTS`` detunings plus golden-section refinement
    (``_golden``) on the bracket of the coarse minimum."""
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

    deltas = np.linspace(-abs(pulse.delta0), abs(pulse.delta0), GAP_COARSE_POINTS)
    chunk = max(1, GAP_CHUNK_ENTRIES // ham.basis.dim**2)
    gaps = np.concatenate([gaps_at(deltas[lo : lo + chunk]) for lo in range(0, GAP_COARSE_POINTS, chunk)])
    i = int(np.argmin(gaps))
    if 0 < i < GAP_COARSE_POINTS - 1:
        d_min, g_min = _golden(lambda delta: float(gaps_at(delta)), *deltas[i - 1 : i + 2].tolist())
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


def _golden(f, xa: float, xb: float, xc: float) -> Tuple[float, float]:
    """(x, f(x)) at the minimum of ``f`` in the bracket xa < xb < xc, by
    golden section to the relative tolerance ``GOLDEN_XTOL``.

    A port of the loop of scipy's ``minimize_scalar(method="golden")``,
    with its constant, its update order, its stopping test and its
    iteration cap, so it returns bitwise the same point.  Unlike scipy it
    does not evaluate f at the bracket to check f(xb) < f(xa), f(xc): the
    loop never reads those values, and the coarse grid's minimum and its
    neighbours bracket by construction (a tie, which scipy refuses, is
    searched too)."""
    g_r = 0.61803399  # scipy's rounding of 2 / (1 + sqrt(5))
    g_c = 1.0 - g_r
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + g_c * (xc - xb)
    else:
        x1, x2 = xb - g_c * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAXITER):
        if abs(x3 - x0) <= GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = g_r * x1 + g_c * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = g_r * x2 + g_c * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


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
