"""Spectrum scans, symmetry classification, gaps and AFM analytics."""

import math
import tracemalloc

import numpy as np
import pytest

from afmgate.basis import build_blockade_basis, inversion_permutation, sector_isometry
from afmgate.config import InteractionConfig, Model, PulseProfile
from afmgate.errors import ConfigError
from afmgate.hamiltonian import ChainHamiltonian, model_basis
from afmgate.spectra import (
    BRENT_MAXITER,
    BRENT_XTOL,
    GAP_COARSE_POINTS,
    GapReport,
    SymmetryLabel,
    min_gap,
    scan_spectrum,
    wrong_parity_partner,
    _brent,
)
from conftest import B_NN, DELTA0, OMEGA0, SPACING
from oracles import AfmManifoldModel, AfmMode, afm_analytic_spectrum, apply_inversion, build_afm_effective

INTERACTING_MODELS = (Model.FULL_VDW, Model.PXP_PLUS_CORRECTIONS)


def pxp(omega, delta, nu):
    return ChainHamiltonian(Model.PXP, build_blockade_basis(nu)).matrix(omega, delta)


class TestEigSorted:
    """Ascending eigensystems of ``ChainHamiltonian`` matrices from numpy's
    Hermitian solvers."""

    def test_two_level_at_zero_detuning(self):
        w = np.linalg.eigvalsh(pxp(1.0, 0.0, 1))
        assert w == pytest.approx([-0.5, 0.5])

    def test_residuals_and_orthonormality(self):
        h = pxp(1.2, 0.4, 5)
        w, v = np.linalg.eigh(h)
        scale = np.linalg.norm(h)
        for k in range(len(w)):
            assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) < 1e-10 * scale
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() < 1e-10

    def test_pxp_nu3_spectrum_symmetric_about_zero(self):
        # independent 5x5 construction over {000,100,010,001,101}:
        # |000> couples to each single flip; |100>,|001> couple to |101>
        om = 1.7
        h = np.zeros((5, 5))
        h[0, 1] = h[0, 2] = h[0, 3] = om / 2
        h[1, 4] = h[3, 4] = om / 2
        h = h + h.T
        w = np.linalg.eigvalsh(h)
        mine = np.linalg.eigvalsh(pxp(om, 0.0, 3))
        assert mine == pytest.approx(w, abs=1e-12)
        assert mine == pytest.approx(-mine[::-1], abs=1e-12)


def in_sector_span(vec, basis, odd):
    """True if the state lies in the span of the even (odd) isometry."""
    u = sector_isometry(inversion_permutation(basis), odd)
    return np.abs(u @ (u.T @ vec) - vec).max() < 1e-15


class TestClassifySymmetry:
    """The inversion character of a state is the sector whose span holds it."""

    def test_antisymmetric_combination(self):
        basis = build_blockade_basis(3)
        vec = np.zeros(5)
        vec[basis.index(0b100)] = 1 / math.sqrt(2)
        vec[basis.index(0b001)] = -1 / math.sqrt(2)
        assert in_sector_span(vec, basis, odd=True) and not in_sector_span(vec, basis, odd=False)

    def test_symmetric_single_configuration(self):
        basis = build_blockade_basis(3)
        vec = np.zeros(5)
        vec[basis.index(0b010)] = 1.0
        assert in_sector_span(vec, basis, odd=False) and not in_sector_span(vec, basis, odd=True)

    def test_dark_afm_combination_is_antisymmetric(self):
        basis = build_blockade_basis(4)
        vec = np.zeros(basis.dim)
        vec[basis.index(0b1010)] = 1 / math.sqrt(2)   # |1r1r>
        vec[basis.index(0b0101)] = -1 / math.sqrt(2)  # |r1r1>
        assert in_sector_span(vec, basis, odd=True) and not in_sector_span(vec, basis, odd=False)


def dense_inversion(basis):
    """Permutation matrix of the spatial inversion, one mask at a time."""
    inv = np.zeros((basis.dim, basis.dim))
    for k, s in enumerate(basis.masks.tolist()):
        inv[basis.index(apply_inversion(s, basis.nu)), k] = 1.0
    return inv


def degenerate_clusters(w, tol):
    """Index arrays of the runs of ascending levels ``w`` whose neighbours
    lie within ``tol`` of each other."""
    return np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > tol) + 1)


class TestScanSpectrum:
    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    @pytest.mark.parametrize("nu", [3, 4, 5, 6, 7])
    def test_labels_equal_dense_inversion_expectation(self, model, nu, pulse):
        # tr(V^T I V) over each cluster of degenerate levels of the dense H
        # does not depend on the basis the cluster is solved in
        interaction = None if model is Model.PXP else InteractionConfig.from_nn_strength(B_NN, SPACING)
        scan = scan_spectrum(nu, pulse, model, interaction, grid_size=21)
        ham = ChainHamiltonian(model, scan.basis, interaction)
        inv = dense_inversion(scan.basis)
        sign = {SymmetryLabel.SYMMETRIC: 1.0, SymmetryLabel.ANTISYMMETRIC: -1.0}
        for g, t in enumerate(scan.times):
            h = ham.matrix(pulse.omega(t), pulse.delta(t))
            w, v = np.linalg.eigh(h)
            ix = np.einsum("ik,ij,jk->k", v, inv, v)
            for cluster in degenerate_clusters(w, 1e-8 * np.abs(h).max()):
                expected = sum(sign[scan.symmetry[g][k]] for k in cluster)
                assert abs(ix[cluster].sum() - expected) < 1e-10
        seen = {label for labels in scan.symmetry for label in labels}
        assert seen == {SymmetryLabel.SYMMETRIC, SymmetryLabel.ANTISYMMETRIC}

    @pytest.mark.parametrize("model", [Model.PXP, *INTERACTING_MODELS])
    @pytest.mark.parametrize("nu", [1, 2, 5, 6])
    def test_merged_sectors_match_full_eigensolve(self, model, nu, pulse):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        scan = scan_spectrum(nu, pulse, model, inter, grid_size=11)
        ham = ChainHamiltonian(model, model_basis(model, nu), inter)
        for g, t in enumerate(scan.times):
            h = ham.matrix(pulse.omega(t), pulse.delta(t))
            assert np.abs(scan.eigenvalues[g] - np.linalg.eigvalsh(h)).max() <= 1e-12 * np.abs(h).max()

    def test_scan_keeps_no_eigenvectors(self, pulse):
        # vdW nu = 8 (dim 256) on 41 points: the eigenvalue, eta and label
        # tables are O(grid * dim); a (grid, dim, dim) stack of eigenvectors
        # would alone take 21 MB
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        tracemalloc.start()
        try:
            scan_spectrum(8, pulse, Model.FULL_VDW, inter, grid_size=41)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_lowest_branch_endpoints(self, pulse):
        scan = scan_spectrum(3, pulse, Model.PXP, grid_size=101)
        assert scan.eigenvalues[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert scan.eigenvalues[-1, 0] == pytest.approx(-2 * DELTA0, rel=1e-9)

    def test_eigenvalues_sorted_everywhere(self, pulse):
        scan = scan_spectrum(4, pulse, Model.PXP, grid_size=51)
        assert np.all(np.diff(scan.eigenvalues, axis=1) >= 0)

    def test_nu5_lowest_branch_reaches_afm_energy(self, pulse):
        # the drive vanishes at the sweep edge, so E_1(+Delta0) is exactly
        # the ordered configuration energy -3 Delta0
        scan = scan_spectrum(5, pulse, Model.PXP, grid_size=51)
        assert scan.eigenvalues[-1, 0] == pytest.approx(-3 * DELTA0, rel=1e-12)

    def test_antisymmetric_states_are_dark(self, pulse):
        scan = scan_spectrum(5, pulse, Model.PXP, grid_size=101)
        for g in range(len(scan.delta_grid)):
            for k, label in enumerate(scan.symmetry[g]):
                if label is SymmetryLabel.ANTISYMMETRIC:
                    for eta in (scan.eta_low[g, k], scan.eta_high[g, k]):
                        if not math.isnan(eta):
                            assert eta == 0.0

    def test_defined_couplings_nonnegative(self, pulse):
        scan = scan_spectrum(4, pulse, Model.PXP, grid_size=31)
        finite = scan.eta_low[~np.isnan(scan.eta_low)]
        assert np.all(finite >= 0)

    def test_zero_drive_scan_gives_linear_levels(self):
        dead = PulseProfile(0.0, DELTA0, 1.0)
        scan = scan_spectrum(3, dead, Model.PXP, grid_size=21)
        for g, delta in enumerate(scan.delta_grid):
            counts = np.sort([-delta * n for n in (0, 1, 1, 1, 2)])
            assert scan.eigenvalues[g] == pytest.approx(counts, abs=1e-12)
            finite = scan.eta_low[g][~np.isnan(scan.eta_low[g])]
            assert np.all(finite == 0.0)

    def test_mirror_symmetry_pointwise(self, pulse):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        inter_m = InteractionConfig.from_nn_strength(-B_NN, SPACING)
        scan_p = scan_spectrum(4, pulse, Model.FULL_VDW, inter, grid_size=41)
        scan_m = scan_spectrum(4, pulse, Model.FULL_VDW, inter_m, grid_size=41)
        # Delta grid is antisymmetric about mid-pulse: compare reversed points
        for g in range(41):
            w1 = scan_p.eigenvalues[g]
            w2 = scan_m.eigenvalues[40 - g]
            assert np.abs(w1 + w2[::-1]).max() < 1e-10 * max(1.0, np.abs(w1).max())

    def test_small_grid_rejected(self, pulse):
        with pytest.raises(ValueError):
            scan_spectrum(3, pulse, Model.PXP, grid_size=2)

    @pytest.mark.parametrize("model", INTERACTING_MODELS)
    def test_missing_interaction_rejected(self, pulse, model):
        with pytest.raises(ValueError):
            scan_spectrum(3, pulse, model, grid_size=5)

    @pytest.mark.parametrize("model", [Model.PXP, *INTERACTING_MODELS])
    def test_eta_matches_finite_difference_of_h(self, pulse, model):
        # eta from a central difference of H(t) = matrix(Omega(t), Delta(t)),
        # which includes the drift of the corrections model's level shifts
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        scan = scan_spectrum(4, pulse, model, inter, grid_size=21)
        ham = ChainHamiltonian(model, model_basis(model, 4), inter)

        def h_at(t):
            return ham.matrix(pulse.omega(t), pulse.delta(t))

        step = 1e-5 * pulse.tau
        for g in range(1, 20):
            t = scan.times[g]
            dh = (h_at(t + step) - h_at(t - step)) / (2 * step)
            h = h_at(t)
            w, v = np.linalg.eigh(h)
            dh_eig = v.T @ dh @ v
            clusters = degenerate_clusters(w, 1e-8 * np.abs(h).max())
            for eta, l in ((scan.eta_low[g], 0), (scan.eta_high[g], scan.dim - 1)):
                finite = ~np.isnan(eta)
                finite[l] = False
                # sum |<l|dH|k>|^2 over a degenerate cluster of k is basis-free
                for cluster in clusters:
                    if l not in cluster and finite[cluster].all():
                        fd = np.sum((dh_eig[l, cluster] / (w[cluster] - w[l])) ** 2) * pulse.tau / abs(pulse.delta0)
                        assert abs(fd - eta[cluster].sum()) <= 1e-6 * eta[finite].max()


class TestMinGap:
    def test_single_atom_gap_is_omega0_at_zero_detuning(self, pulse):
        report = min_gap(1, pulse)
        assert report.gap == pytest.approx(OMEGA0, rel=1e-6)
        assert report.kappa == pytest.approx(1.0, rel=1e-6)
        assert abs(report.delta_at_min) < 1e-3 * DELTA0

    def test_partner_indices(self):
        assert wrong_parity_partner(3) == 2
        assert wrong_parity_partner(5) == 2
        assert wrong_parity_partner(4) == 4
        assert wrong_parity_partner(6) == 5

    def test_odd_chain_gaps_shrink_with_size(self, pulse):
        kappas = [min_gap(nu, pulse).kappa for nu in (3, 5, 7)]
        assert kappas[0] > kappas[1] > kappas[2]

    def test_gap_constants_consistent_with_fitted_values(self, pulse):
        # pi kappa^2 / 4 from the PXP gaps tracks the dynamically fitted
        # constants (0.43, 0.28, 0.19) at the 30% level
        for nu, c_fit in [(3, 0.43), (5, 0.28), (7, 0.19)]:
            c_gap = math.pi * min_gap(nu, pulse).kappa ** 2 / 4
            assert abs(c_gap - c_fit) / c_fit < 0.3

    def test_vdw_gap_close_to_pxp(self, pulse):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        g_pxp = min_gap(5, pulse).gap
        g_vdw = min_gap(5, pulse, Model.FULL_VDW, inter).gap
        assert abs(g_vdw - g_pxp) / g_pxp < 0.2

    @pytest.mark.parametrize("model", INTERACTING_MODELS)
    def test_missing_interaction_rejected(self, pulse, model):
        with pytest.raises(ValueError):
            min_gap(3, pulse, model)

    @pytest.mark.parametrize("omega0,delta0,name", [(OMEGA0, 0.0, "delta0"), (0.0, DELTA0, "omega0")])
    def test_pulse_without_chirp_or_drive_rejected(self, omega0, delta0, name):
        # the grid is the sweep of Delta0 and kappa the gap over |Omega0|
        with pytest.raises(ConfigError, match=name):
            min_gap(3, PulseProfile(omega0, delta0, 1.0))

    def test_boundary_softened_power_law(self, pulse):
        # kappa_nu ~ nu^-p with 0 < p < 1 for the accessible odd sizes
        nus = np.array([3, 5, 7, 9])
        kappas = np.array([min_gap(int(nu), pulse).kappa for nu in nus])
        p = -np.polyfit(np.log(nus), np.log(kappas), 1)[0]
        assert 0.0 < p < 1.0


def _scipy_min_gap(nu, pulse, partner, levels_at, method, coarse_points=101):
    """The gap between the lowest level and the partner from ``levels_at``
    at each coarse grid point, then scipy's ``minimize_scalar`` by
    ``method`` on the bracket of the coarse minimum."""
    from scipy.optimize import minimize_scalar

    def gap_at(delta):
        w = levels_at(pulse.omega(pulse.time_at_delta(delta)), delta)
        return float(w[partner - 1] - w[0])

    deltas = np.linspace(-abs(pulse.delta0), abs(pulse.delta0), coarse_points)
    gaps = np.array([gap_at(d) for d in deltas])
    i = int(np.argmin(gaps))
    if 0 < i < coarse_points - 1:
        res = minimize_scalar(gap_at, bracket=(deltas[i - 1], deltas[i], deltas[i + 1]), method=method,
                              options={"xtol": 1e-10})
        d_min, g_min = float(res.x), float(res.fun)
    else:
        d_min, g_min = float(deltas[i]), float(gaps[i])
    return GapReport(nu=nu, delta_at_min=d_min, gap=g_min, kappa=g_min / abs(pulse.omega0), partner_index=partner)


def per_point_min_gap(nu, pulse, model, interaction):
    """``min_gap`` with per-point sector solves at each coarse grid point and
    scipy's ``minimize_scalar(method="brent")`` on the coarse bracket."""
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)
    sectors = [s for s in (ham.sector(), ham.sector(odd=True)) if len(s.n_r)]

    def levels_at(omega, delta):
        return np.sort(np.concatenate([np.linalg.eigvalsh(s.matrix(omega, delta)) for s in sectors]))

    return _scipy_min_gap(nu, pulse, wrong_parity_partner(nu), levels_at, "brent")


def full_basis_golden_min_gap(nu, pulse, model, interaction):
    """The full-basis golden-section path that the sector solves and Brent's
    method replaced: one full ``eigvalsh`` per gap and scipy's
    ``minimize_scalar(method="golden")`` on the coarse bracket."""
    ham = ChainHamiltonian(model, model_basis(model, nu), interaction)

    def levels_at(omega, delta):
        return np.linalg.eigvalsh(ham.matrix(omega, delta))

    return _scipy_min_gap(nu, pulse, wrong_parity_partner(nu), levels_at, "golden")


# PXP nu = 1..11, vdW nu = 1..8 and corrections nu = 2..8
GAP_CASES = ([(Model.PXP, nu) for nu in range(1, 12)] + [(Model.FULL_VDW, nu) for nu in range(1, 9)]
             + [(Model.PXP_PLUS_CORRECTIONS, nu) for nu in range(2, 9)])


class TestStackedGapGrid:
    """``min_gap`` solves its coarse grid as stacked eigenproblems per
    sector, in chunks of ``GAP_CHUNK_ENTRIES`` matrix entries, and refines
    by Brent's method."""

    # vdW nu = 7 (even sector of dim 72) takes 25 grid points per chunk
    CASES = ([(Model.PXP, nu) for nu in (1, 3, 4, 6, 7)] + [(Model.FULL_VDW, nu) for nu in (3, 4, 5, 7)]
             + [(Model.PXP_PLUS_CORRECTIONS, nu) for nu in (3, 5, 6)])

    @pytest.mark.parametrize("model,nu", CASES)
    def test_report_bitwise_equal_to_per_point_path(self, pulse, model, nu):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        assert min_gap(nu, pulse, model, inter) == per_point_min_gap(nu, pulse, model, inter)

    # the Brent port against scipy's minimize_scalar(method="brent")
    @pytest.mark.parametrize("model,nu", [(Model.PXP, nu) for nu in range(2, 12)]
                             + [(Model.FULL_VDW, nu) for nu in range(2, 9)])
    def test_brent_refinement_bitwise_equal_to_scipy(self, pulse, model, nu):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        assert min_gap(nu, pulse, model, inter) == per_point_min_gap(nu, pulse, model, inter)

    def test_stacked_matrices_equal_per_point_matrices(self, pulse):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        deltas = np.linspace(-DELTA0, DELTA0, 7)
        omegas = pulse.omega(pulse.time_at_delta(deltas))
        for model in Model:
            ham = ChainHamiltonian(model, model_basis(model, 4), inter)
            stack = ham.matrix(omegas, deltas)
            assert stack.shape == (7, ham.basis.dim, ham.basis.dim)
            for h, om, de in zip(stack, omegas, deltas):
                assert np.array_equal(h, ham.matrix(float(om), float(de)))


class TestSectorBrentGap:
    """``min_gap`` on the inversion sectors with Brent refinement, against
    the full-basis golden-section path it replaced."""

    @pytest.mark.parametrize("model,nu", GAP_CASES)
    def test_matches_full_basis_golden_path(self, pulse, model, nu):
        # the gap is flat to round-off at its minimum: the detuning moves by
        # up to 2.6e-6 rad/us, and PXP nu = 10's partner switches sector there
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        report = min_gap(nu, pulse, model, inter)
        ref = full_basis_golden_min_gap(nu, pulse, model, inter)
        assert abs(report.gap - ref.gap) <= 1e-11 * ref.gap
        assert abs(report.delta_at_min - ref.delta_at_min) <= 1e-5
        assert report.partner_index == ref.partner_index

    @pytest.mark.parametrize("model,nu", GAP_CASES)
    def test_gap_solves_per_call_at_most_45(self, pulse, model, nu, monkeypatch):
        # a gap solve is one eigvalsh of a single matrix per nonempty sector;
        # golden section took 45-84 of them, Brent takes 14-42
        real = np.linalg.eigvalsh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        min_gap(nu, pulse, model, InteractionConfig.from_nn_strength(B_NN, SPACING))
        sectors = 1 if nu == 1 else 2
        single = sum(len(shape) == 2 for shape in shapes)
        assert single % sectors == 0
        assert single // sectors <= 45
        # the coarse grid is solved in stacks only
        assert sum(shape[0] for shape in shapes if len(shape) == 3) == sectors * GAP_COARSE_POINTS

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW])
    def test_single_atom_skips_the_empty_odd_sector(self, pulse, model, monkeypatch):
        inter = InteractionConfig.from_nn_strength(B_NN, SPACING)
        ham = ChainHamiltonian(model, model_basis(model, 1), inter)
        assert len(ham.sector(odd=True).n_r) == 0
        real = np.linalg.eigvalsh
        dims = []

        def recording(a, *args, **kwargs):
            dims.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        report = min_gap(1, pulse, model, inter)
        assert set(dims) == {2}
        monkeypatch.undo()
        assert report == per_point_min_gap(1, pulse, model, inter)
        assert report.gap == pytest.approx(OMEGA0, rel=1e-12)

    def test_coarse_minimum_tied_with_neighbour_is_refined(self):
        # f(xb) = f(xc) at the bracket (-1, 0, 1), which scipy's
        # minimize_scalar refuses; the port runs the loop of scipy's Brent
        # from the same bracket
        from scipy.optimize._optimize import Brent

        def f(x):
            return (x - 0.5) ** 2

        assert f(0.0) == f(1.0) < f(-1.0)
        x, fx = _brent(f, -1.0, 0.0, 1.0, f(0.0))
        assert abs(x - 0.5) < 1e-9 and fx == f(x)
        scipy_brent = Brent(f, tol=BRENT_XTOL, maxiter=BRENT_MAXITER)
        scipy_brent.get_bracket_info = lambda: (-1.0, 0.0, 1.0, f(-1.0), f(0.0), f(1.0), 3)
        scipy_brent.optimize()
        assert (x, fx) == scipy_brent.get_result(full_output=True)[:2]


class TestAfmAnalyticSpectrum:
    def test_nu4_pxp_ground_state_and_energy(self):
        om, de = 1.0, 10.0
        s = om**2 / (4 * de)
        spec = afm_analytic_spectrum(4, om, de, None, AfmMode.PXP)
        assert spec.energies[0] == pytest.approx(-2 * (de + s) - math.sqrt(2) * s, rel=1e-12)
        # aleph_1 = |r11r>/sqrt2 + (|1r1r> + |r1r1>)/2 over (a1, a2, a3)
        assert np.abs(spec.vectors[0] - np.array([0.5, 1 / math.sqrt(2), 0.5])).max() < 1e-12
        # aleph_2 = (|1r1r> - |r1r1>)/sqrt2
        assert np.abs(np.abs(spec.vectors[1]) - np.array([1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])).max() < 1e-12
        assert spec.energies[1] == pytest.approx(-2 * (de + s), rel=1e-12)

    @pytest.mark.parametrize("mode", [AfmMode.PXP, AfmMode.VDW_DEGENERATE, AfmMode.VDW_SPLIT])
    def test_eigenvectors_orthonormal(self, mode):
        inter = InteractionConfig.from_nn_strength(30.0, 1.0)
        spec = afm_analytic_spectrum(8, 1.0, 10.0, inter, mode)
        gram = spec.vectors @ spec.vectors.T
        assert np.abs(gram - np.eye(len(spec.energies))).max() < 1e-12

    @pytest.mark.parametrize("nu", [4, 6, 8])
    def test_pxp_band_diagonalizes_the_effective_hamiltonian(self, nu):
        om, de = 1.0, 10.0
        spec = afm_analytic_spectrum(nu, om, de, None, AfmMode.PXP)
        w = np.linalg.eigvalsh(build_afm_effective(nu, om, de, None, AfmMode.PXP))
        assert np.sort(spec.energies) == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("nu", [4, 6, 8])
    def test_split_band_diagonalizes_the_bulk_subspace(self, nu):
        om, de = 1.0, 10.0
        inter = InteractionConfig.from_nn_strength(3 * de, 1.0)
        spec = afm_analytic_spectrum(nu, om, de, inter, AfmMode.VDW_SPLIT)
        n_bulk = nu // 2 - 1
        w = np.linalg.eigvalsh(build_afm_effective(nu, om, de, inter, AfmMode.VDW_SPLIT))
        assert np.sort(spec.energies[:n_bulk]) == pytest.approx(w, rel=1e-12)

    def test_degenerate_band_matches_uniform_ladder(self):
        # Eq.-level check: the degenerate-regime band diagonalizes the
        # uniform-diagonal hopping ladder built from the same shifts

        nu, om, de = 6, 1.0, 10.0
        inter = InteractionConfig.from_nn_strength(3 * de, 1.0)
        model = AfmManifoldModel.evaluate(nu, om, de, inter)
        m = nu // 2 + 1
        ladder = np.full((m, m), 0.0)
        np.fill_diagonal(ladder, model.e_defect)
        for j in range(m - 1):
            ladder[j, j + 1] = ladder[j + 1, j] = -model.j_hop
        spec = afm_analytic_spectrum(nu, om, de, inter, AfmMode.VDW_DEGENERATE)
        assert np.sort(spec.energies) == pytest.approx(np.linalg.eigvalsh(ladder), rel=1e-12)

    def test_odd_nu_rejected(self):
        with pytest.raises(ValueError):
            afm_analytic_spectrum(5, 1.0, 10.0, None, AfmMode.PXP)
