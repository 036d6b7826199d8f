"""Chain Hamiltonians and AFM-manifold builders: matrix elements,
symmetries and limits."""

import math

import numpy as np
import pytest

from afmgate.basis import apply_inversion, build_blockade_basis, build_full_basis
from afmgate.config import InteractionConfig, Model
from afmgate.errors import RegimeError
from afmgate.hamiltonian import (
    AfmManifoldModel,
    AfmMode,
    AfmRegime,
    ChainHamiltonian,
    build_afm_effective,
    drive_matrix,
    excitation_numbers,
    level_shifts,
    model_basis,
    pair_incidence,
    pair_sites,
)
from afmgate.units import mhz

from conftest import SPACING


def interaction(b=mhz(45), cutoff=None, spacing=SPACING):
    return InteractionConfig.from_nn_strength(b, spacing, range_cutoff=cutoff)


def build_pxp(omega, delta, basis):
    return ChainHamiltonian(Model.PXP, basis).matrix(omega, delta)


def build_vdw(omega, delta, inter, basis):
    return ChainHamiltonian(Model.FULL_VDW, basis, inter).matrix(omega, delta)


def build_corrections(omega, delta, inter, basis):
    return ChainHamiltonian(Model.PXP_PLUS_CORRECTIONS, basis, inter).matrix(omega, delta)


def hermiticity_defect(h):
    return np.abs(h - h.conj().T).max() / np.abs(h).max()


def reference_corrections(omega, delta, inter, basis):
    """Site-by-site loop over the configurations: PXP plus B2 Q_i Q_{i+2},
    -S_B / -S_2B per ground atom with one / two Rydberg neighbours and the
    -S_B hop of an excitation between adjacent sites under empty flanks."""
    nu = basis.nu
    s_b, s_2b = level_shifts(omega, delta, inter.b_nn)
    h = omega * drive_matrix(basis) + np.diag(-delta * excitation_numbers(basis))

    def q(s, i):
        return 0 <= i < nu and bool((s >> i) & 1)

    for k, s in enumerate(basis.masks.tolist()):
        shift = sum(inter.b_nnn for i in range(nu - 2) if q(s, i) and q(s, i + 2))
        for i in range(nu):
            if not q(s, i):
                n = q(s, i - 1) + q(s, i + 1)
                shift -= (0.0, s_b, s_2b)[n]
        h[k, k] += shift
        for i in range(nu - 1):
            if q(s, i) and not q(s, i + 1) and not q(s, i - 1) and not q(s, i + 2):
                kt = basis.index(s ^ (1 << i) ^ (1 << (i + 1)))
                h[k, kt] = h[kt, k] = -s_b
    return h


def reference_drive(basis):
    """Per-state drive: flip each site, skipping excited neighbours on a
    constrained basis (the PXP projectors), and look the result up."""
    nu = basis.nu
    d = np.zeros((basis.dim, basis.dim))
    for k, s in enumerate(basis.masks.tolist()):
        for i in range(nu):
            left = i > 0 and (s >> (i - 1)) & 1
            right = i < nu - 1 and (s >> (i + 1)) & 1
            if basis.constrained and (left or right):
                continue
            d[k, basis.index(s ^ (1 << i))] = 0.5
    return d


STRUCTURE_BASES = [("blockade", nu) for nu in range(1, 15)] + [("full", nu) for nu in range(1, 11)]


@pytest.mark.parametrize("kind,nu", STRUCTURE_BASES)
def test_structures_match_per_state_oracle(kind, nu):
    """The bit-operation builders equal a per-state construction bitwise;
    the oracle spells out the blockade rule that the builders leave to the
    basis."""
    basis = (build_blockade_basis if kind == "blockade" else build_full_basis)(nu)
    assert np.array_equal(drive_matrix(basis), reference_drive(basis))
    n_r = [float(sum((s >> i) & 1 for i in range(nu))) for s in basis.masks.tolist()]
    assert np.array_equal(excitation_numbers(basis), n_r)
    pairs = pair_sites(nu)
    inc = [[float((s >> i) & 1 and (s >> j) & 1) for i, j in pairs] for s in basis.masks.tolist()]
    assert np.array_equal(pair_incidence(basis.masks, pairs), np.reshape(inc, (basis.dim, len(pairs))))


class TestPxp:
    def test_single_atom_gap_is_omega(self):
        h = build_pxp(2.5, 0.0, build_blockade_basis(1))
        assert np.linalg.eigvalsh(h) == pytest.approx([-1.25, 1.25])

    def test_diagonal_limit(self):
        h = build_pxp(0.0, 3.0, build_blockade_basis(3))
        w = np.linalg.eigvalsh(h)
        assert w[0] == pytest.approx(-6.0)  # |r1r> at -2 delta
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_requires_constrained_basis(self):
        with pytest.raises(ValueError):
            ChainHamiltonian(Model.PXP, build_full_basis(3))

    def test_hermitian(self):
        h = build_pxp(1.3, -0.7, build_blockade_basis(6))
        assert hermiticity_defect(h) < 1e-12

    def test_mirror_symmetry_in_detuning(self):
        rng = np.random.default_rng(3)
        basis = build_blockade_basis(5)
        for _ in range(10):
            om, de = rng.uniform(0.2, 3.0, 2)
            w_plus = np.linalg.eigvalsh(build_pxp(om, de, basis))
            w_minus = np.linalg.eigvalsh(build_pxp(om, -de, basis))
            assert np.abs(w_plus + w_minus[::-1]).max() < 1e-10


class TestVdw:
    def test_pair_energy(self):
        basis = build_full_basis(2)
        h = build_vdw(0.0, 1.5, interaction(b=7.0, spacing=1.0), basis)
        assert h[3, 3].real == pytest.approx(-2 * 1.5 + 7.0)

    def test_next_nearest_energy(self):
        basis = build_full_basis(3)
        h = build_vdw(0.0, 0.0, interaction(b=64.0, spacing=1.0), basis)
        i = basis.index(0b101)
        assert h[i, i].real == pytest.approx(1.0)

    def test_requires_full_basis(self):
        with pytest.raises(ValueError):
            ChainHamiltonian(Model.FULL_VDW, build_blockade_basis(3), interaction())

    def test_mirror_symmetry_needs_interaction_flip(self):
        rng = np.random.default_rng(5)
        basis = build_full_basis(4)
        for _ in range(10):
            om, de, b = rng.uniform(0.2, 3.0, 3)
            w1 = np.linalg.eigvalsh(build_vdw(om, de, interaction(b=b, spacing=1.0), basis))
            w2 = np.linalg.eigvalsh(build_vdw(om, -de, interaction(b=-b, spacing=1.0), basis))
            assert np.abs(w1 + w2[::-1]).max() < 1e-10

    def test_blockade_limit_recovers_pxp_spectrum(self):
        # |B| >= 100 max(Omega, Delta): low-lying vdW levels match PXP
        # within the second-order shift scale 5 Omega^2 / (4B) per level
        om, de = 1.0, 0.8
        for nu in range(2, 7):
            b = 100.0 * max(om, de)
            w_vdw = np.linalg.eigvalsh(
                build_vdw(om, de, interaction(b=b, cutoff=1, spacing=1.0), build_full_basis(nu))
            )
            w_pxp = np.linalg.eigvalsh(build_pxp(om, de, build_blockade_basis(nu)))
            m = len(w_pxp)
            assert np.abs(w_vdw[:m] - w_pxp).max() < 5 * om**2 / (4 * b)


class TestCorrections:
    def test_r11r_diagonal_has_two_single_neighbour_shifts(self):
        basis = build_blockade_basis(4)
        om, de, b = 2.0, 7.0, mhz(45)
        s_b = om**2 / (4 * (b - de))
        h = build_corrections(om, de, interaction(b=b), basis)
        i = basis.index(0b1001)
        assert h[i, i].real == pytest.approx(-2 * de - 2 * s_b, rel=1e-12)

    def test_r1r1_diagonal_has_b2_and_double_neighbour_shift(self):
        basis = build_blockade_basis(4)
        om, de, b = 2.0, 7.0, mhz(45)
        s_b = om**2 / (4 * (b - de))
        s_2b = om**2 / (4 * (2 * b - de))
        h = build_corrections(om, de, interaction(b=b), basis)
        i = basis.index(0b0101)
        assert h[i, i].real == pytest.approx(-2 * de + b / 64 - s_2b - s_b, rel=1e-12)

    def test_zero_drive_reduces_to_pxp_plus_b2(self):
        basis = build_blockade_basis(5)
        de, b = 3.0, 40.0
        extra = build_corrections(0.0, de, interaction(b=b, spacing=1.0), basis) - build_pxp(
            0.0, de, basis
        )
        assert np.abs(extra - np.diag(np.diag(extra))).max() == 0.0
        diag = np.diag(extra).real
        for k, s in enumerate(basis.masks.tolist()):
            pairs = sum(1 for i in range(3) if s >> i & 1 and s >> (i + 2) & 1)
            assert diag[k] == pytest.approx(pairs * b / 64, rel=1e-12, abs=1e-12)

    def test_singular_shift_detuning_rejected(self):
        basis = build_blockade_basis(3)
        with pytest.raises(RegimeError):
            build_corrections(1.0, 45.0, interaction(b=45.0, spacing=1.0), basis)

    def test_hermitian(self):
        h = build_corrections(1.1, 3.0, interaction(), build_blockade_basis(6))
        assert hermiticity_defect(h) < 1e-12

    @pytest.mark.parametrize("nu", [4, 6])
    def test_afm_manifold_tracks_full_model(self, nu):
        # Delta = 10 Omega, B = 3 Delta, interactions truncated at the
        # next-nearest neighbours the corrections model keeps
        om, de = 1.0, 10.0
        inter = interaction(b=3 * de, cutoff=2, spacing=1.0)
        m = nu // 2 + 1
        w_full = np.sort(np.linalg.eigvalsh(build_vdw(om, de, inter, build_full_basis(nu))))[:m]
        w_corr = np.sort(
            np.linalg.eigvalsh(build_corrections(om, de, inter, build_blockade_basis(nu)))
        )[:m]
        bandwidth = w_full.max() - w_full.min()
        assert np.abs(w_full - w_corr).max() < 0.02 * bandwidth


class TestAfmEffective:
    def test_nu4_pxp_band(self):
        om, de = 1.0, 10.0
        s = om**2 / (4 * de)
        w = np.linalg.eigvalsh(build_afm_effective(4, om, de, None, AfmMode.PXP))
        expect = np.sort([-2 * (de + s) - math.sqrt(2) * s, -2 * (de + s), -2 * (de + s) + math.sqrt(2) * s])
        assert w == pytest.approx(expect, rel=1e-12)

    def test_nu6_pxp_matches_cosine_band(self):
        om, de = 1.0, 10.0
        s = om**2 / (4 * de)
        w = np.sort(np.linalg.eigvalsh(build_afm_effective(6, om, de, None, AfmMode.PXP)))
        ks = np.arange(1, 5)
        expect = np.sort(-3 * (de + s) - 2 * s * np.cos(ks * np.pi / 5))
        assert w == pytest.approx(expect, rel=1e-12)

    def test_zero_drive_splits_ordered_from_defect_by_b2(self):
        de, b = 10.0, 30.0
        h = build_afm_effective(4, 0.0, de, interaction(b=b, spacing=1.0), AfmMode.VDW_DEGENERATE)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        d = np.diag(h).real
        assert d[0] == pytest.approx(d[2], rel=1e-14)
        assert d[0] - d[1] == pytest.approx(b / 64, rel=1e-12)

    def test_odd_nu_rejected(self):
        with pytest.raises(ValueError):
            build_afm_effective(5, 1.0, 10.0, None, AfmMode.PXP)

    def test_manifold_model_energy_split_identity(self):
        inter = interaction(b=30.0, spacing=1.0)
        model = AfmManifoldModel.evaluate(6, 1.0, 10.0, inter)
        expect = (inter.b_nnn - model.s_2b) + model.s_b
        assert model.e_ordered - model.e_defect == pytest.approx(expect, rel=1e-12)

    def test_regime_classification(self):
        inter = interaction(b=30.0, spacing=1.0)
        assert AfmManifoldModel.evaluate(6, 1.0, 10.0, inter).regime is AfmRegime.SPLIT
        assert AfmManifoldModel.evaluate(6, 6.0, 10.0, inter).regime is AfmRegime.DEGENERATE


def test_operator_matrix_tracks_basis():
    basis = build_blockade_basis(4)
    ham = ChainHamiltonian(Model.PXP, basis)
    assert ham.basis is basis
    assert ham.matrix(1.0, 0.0).shape == (basis.dim, basis.dim)
    assert excitation_numbers(basis).max() == 2


class TestChainHamiltonian:
    """The structures-times-profiles object against independent builds."""

    POINTS = ((mhz(8), mhz(-20)), (mhz(3.1), mhz(7.7)), (mhz(8), mhz(0.3)), (mhz(1.2), mhz(60)))

    @pytest.mark.parametrize("nu", range(1, 11))
    def test_corrections_structures_match_site_loop(self, nu):
        basis = build_blockade_basis(nu)
        inter = interaction()
        for om, de in self.POINTS:
            h = build_corrections(om, de, inter, basis)
            ref = reference_corrections(om, de, inter, basis)
            assert np.abs(h - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW, Model.PXP_PLUS_CORRECTIONS])
    def test_fresh_chains_rebuild_the_same_matrix(self, model):
        # a chain is fixed at construction: a second one on the same basis
        # gives the same H, and one under the flipped interaction -B the
        # negated interaction diagonal
        ham = ChainHamiltonian(model, model_basis(model, 4), interaction())
        assert np.array_equal(ham.matrix(1.3, 0.4), ChainHamiltonian(model, ham.basis, interaction()).matrix(1.3, 0.4))
        assert np.array_equal(ChainHamiltonian(model, ham.basis, interaction(b=-mhz(45))).v, -ham.v)

    @pytest.mark.parametrize("model", [Model.FULL_VDW, Model.PXP_PLUS_CORRECTIONS])
    def test_missing_interaction_rejected(self, model):
        with pytest.raises(ValueError):
            ChainHamiltonian(model, model_basis(model, 3))


def former_even_sector(ham):
    """Isometry and even-sector drive, n_r and v by the formulas of the
    former propagation-side projection, with the isometry built orbit by
    orbit from ``apply_inversion``."""
    basis = ham.basis
    orbits = [
        (k, basis.index(apply_inversion(s, basis.nu)))
        for k, s in enumerate(basis.masks.tolist())
        if k <= basis.index(apply_inversion(s, basis.nu))
    ]
    u = np.zeros((basis.dim, len(orbits)))
    for col, (k, m) in enumerate(orbits):
        u[k, col] = u[m, col] = 1.0 if k == m else math.sqrt(0.5)
    reps, mirrors = (np.array(side) for side in zip(*orbits))
    return u, u.T @ ham.drive @ u, ham.n_r[reps], 0.5 * (ham.v[reps] + ham.v[mirrors])


class TestSectors:
    """``ChainHamiltonian.sector``: the one inversion split that propagation
    and spectrum scans share."""

    CASES = [(Model.PXP, nu) for nu in range(1, 10)] + [(Model.FULL_VDW, nu) for nu in range(1, 8)]

    @pytest.mark.parametrize("model,nu", CASES)
    def test_even_sector_equals_former_projection_bitwise(self, model, nu):
        ham = ChainHamiltonian(model, model_basis(model, nu), interaction())
        for h in (ham, ChainHamiltonian(model, ham.basis, interaction(b=-mhz(45)))):
            sector = h.sector()
            u, drive, n_r, v = former_even_sector(h)
            assert np.array_equal(sector.u, u)
            assert np.array_equal(sector.drive, drive)
            assert np.array_equal(sector.n_r, n_r)
            assert np.array_equal(sector.v, v)
            assert sector.m1 is None and sector.m2 is None
            assert sector.u[h.basis.index(0), 0] == 1.0  # |0...0> is the first column

    @pytest.mark.parametrize("model", [Model.PXP, Model.FULL_VDW, Model.PXP_PLUS_CORRECTIONS])
    @pytest.mark.parametrize("nu", [1, 2, 4, 5, 7])
    def test_sectors_block_diagonalise_h_and_its_derivative(self, model, nu):
        ham = ChainHamiltonian(model, model_basis(model, nu), interaction())
        even, odd = ham.sector(), ham.sector(odd=True)
        d = len(even.n_r)
        u = np.hstack([even.u, odd.u])
        assert u.shape == (ham.basis.dim, ham.basis.dim)
        for om, de in TestChainHamiltonian.POINTS:
            for full, blocks in (
                (ham.matrix(om, de), [s.matrix(om, de) for s in (even, odd)]),
                (ham.time_derivative(om, 0.7, de, -2.1), [s.time_derivative(om, 0.7, de, -2.1) for s in (even, odd)]),
            ):
                rotated = u.T @ full @ u
                scale = np.abs(full).max()
                assert np.abs(rotated[:d, :d] - blocks[0]).max() <= 1e-14 * scale
                assert np.abs(rotated[d:, d:] - blocks[1]).max(initial=0.0) <= 1e-14 * scale
                assert np.abs(rotated[:d, d:]).max(initial=0.0) <= 1e-14 * scale

    @pytest.mark.parametrize("field", ["m1", "m2"])
    def test_broken_level_shift_symmetry_raises(self, field):
        ham = ChainHamiltonian(Model.PXP_PLUS_CORRECTIONS, model_basis(Model.PXP_PLUS_CORRECTIONS, 3), interaction())
        k = ham.basis.index(0b001)
        setattr(ham, field, getattr(ham, field).copy())
        if field == "m1":
            ham.m1[k, k] += 1.0
        else:
            ham.m2[k] += 1.0
        for odd in (False, True):
            with pytest.raises(ValueError, match="inversion"):
                ham.sector(odd)
