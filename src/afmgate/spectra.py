"""Adiabatic spectrum scans and avoided-crossing gaps.

A scan sweeps the detuning over the pulse window (the drive amplitude
follows the pulse envelope), records the sorted eigenvalues and evaluates
the dimensionless non-adiabatic couplings
eta_lk = |<l| dH/dt |k> / (E_k - E_l)|^2 tau / Delta0 from the extremal
(adiabatically followed) branches l.  The chain is mirror-symmetric: a
level's inversion label is the sector it is solved in, and dH/dt couples no
two levels of different sectors, so each row of eta needs only the followed
branch's own sector.  No eigenvectors are kept: a scan's memory is
O(grid * dim).

``min_gap`` solves the same two sectors for the avoided-crossing gap of
the Landau-Zener constants: a stacked coarse grid, then Brent's method on
the bracket of its minimum.  Neither imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .basis import Basis
from .config import InteractionConfig, Model, PulseProfile
from .errors import ConfigError, RegimeError
from .hamiltonian import ChainHamiltonian, model_basis

DEGENERACY_RTOL = 1e-9  # in units of Omega0, for flagging undefined eta
# Detunings of the coarse grid of ``min_gap``
GAP_COARSE_POINTS = 101
# Matrix entries of one stacked coarse-grid eigenproblem of ``min_gap``
# (grid points per chunk times dim^2), 1 MB of float64: the 101-point grid
# of a PXP chain up to nu = 7 (dim 34) is one chunk
GAP_CHUNK_ENTRIES = 1 << 17
# Brent refinement of ``min_gap`` (scipy's ``Brent`` constants): the
# relative and absolute tolerances on the detuning, the golden-section
# fraction and the iteration cap (the test is met after 14-42 gap
# evaluations at PXP nu 2..11, vdW nu 2..8 and corrections nu 2..8)
BRENT_XTOL = 1e-10
BRENT_MINTOL = 1e-11
BRENT_CG = 0.3819660
BRENT_MAXITER = 500


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
    if pulse.delta0 == 0.0:
        raise ConfigError("the spectrum scan needs a chirped pulse (eta is in units of tau / |Delta0|): "
                          "delta0 (pulse.delta0_mhz) is 0")
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


def check_gap_pulse(pulse: PulseProfile) -> None:
    """Raise ConfigError, naming the config field, for a pulse without a
    chirp or a drive: the Landau-Zener constants need both.  A gap-derived
    constant solves the gap on the sweep of Delta0 and takes kappa as the
    gap over |Omega0|; a fitted one (``gate.fit_c_nu``) has the abscissa
    Omega0^2 tau / |Delta0|."""
    if pulse.delta0 == 0.0:
        raise ConfigError("the Landau-Zener constants need a chirped pulse: delta0 (pulse.delta0_mhz) is 0")
    if pulse.omega0 == 0.0:
        raise ConfigError("the Landau-Zener constants need a driven pulse: omega0 (pulse.omega0_mhz) is 0")


def min_gap(
    nu: int,
    pulse: PulseProfile,
    model: Model = Model.PXP,
    interaction: Optional[InteractionConfig] = None,
) -> GapReport:
    """Minimum over the sweep of the avoided-crossing gap, a coarse grid of
    ``GAP_COARSE_POINTS`` detunings plus Brent refinement (``_brent``) on
    the bracket of the coarse minimum.  Each gap solves the even and odd
    sectors apart and merges their levels by a sort; the partner is the
    full-spectrum index ``wrong_parity_partner(nu)``.  Raises ConfigError
    for a pulse without a chirp or a drive (``check_gap_pulse``)."""
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    check_gap_pulse(pulse)
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    partner = wrong_parity_partner(nu)
    if partner > ham.basis.dim:
        raise ValueError(f"basis of dim {ham.basis.dim} has no branch {partner}")
    k0 = partner - 1
    # the odd sector of a single atom is empty
    sectors = [sector for sector in (ham.sector(), ham.sector(odd=True)) if len(sector.n_r)]

    def gaps_at(delta):
        # a float, or an array of detunings solved as one stacked eigvalsh per sector
        omega = pulse.omega(pulse.time_at_delta(delta))
        w = np.sort(np.concatenate([np.linalg.eigvalsh(s.matrix(omega, delta)) for s in sectors], axis=-1), axis=-1)
        return w[..., k0] - w[..., 0]

    deltas = np.linspace(-abs(pulse.delta0), abs(pulse.delta0), GAP_COARSE_POINTS)
    chunk = max(1, GAP_CHUNK_ENTRIES // len(sectors[0].n_r) ** 2)
    gaps = np.concatenate([gaps_at(deltas[lo : lo + chunk]) for lo in range(0, GAP_COARSE_POINTS, chunk)])
    i = int(np.argmin(gaps))
    if 0 < i < GAP_COARSE_POINTS - 1:
        d_min, g_min = _brent(lambda delta: float(gaps_at(delta)), *deltas[i - 1 : i + 2].tolist(), float(gaps[i]))
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


def _brent(f, xa: float, xb: float, xc: float, fb: float) -> Tuple[float, float]:
    """(x, f(x)) at the minimum of ``f`` in the bracket xa < xb < xc, given
    fb = f(xb), by Brent's safeguarded parabolic search (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5) to the
    tolerance ``BRENT_XTOL`` |x| + ``BRENT_MINTOL``.

    A port of the loop of scipy's ``Brent.optimize``
    (``minimize_scalar(method="brent")``), with its constants, its update
    order, its stopping test and its iteration cap, so it returns bitwise
    the same point.  Unlike scipy it takes f(xb) from the caller and does
    not evaluate f at xa and xc to check f(xb) < f(xa), f(xc): the loop
    never reads those values, and the coarse grid's minimum and its
    neighbours bracket by construction (a tie, which scipy refuses, is
    searched too)."""
    x = w = v = xb
    fx = fw = fv = fb
    a, b = xa, xc
    deltax = rat = 0.0
    for _ in range(BRENT_MAXITER):
        tol1 = BRENT_XTOL * abs(x) + BRENT_MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x  # golden-section step
            rat = BRENT_CG * deltax
        else:
            # parabola through (v, fv), (w, fw), (x, fx): its step is p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            dx_temp, deltax = deltax, rat
            if q * (a - x) < p < q * (b - x) and abs(p) < abs(0.5 * q * dx_temp):
                rat = p / q
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = BRENT_CG * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx

