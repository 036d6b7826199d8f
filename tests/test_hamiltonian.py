"""Hamiltonian builders: matrix elements, symmetries and limits."""

import math

import numpy as np
import pytest

from afmgate.basis import build_blockade_basis, build_full_basis
from afmgate.config import InteractionConfig
from afmgate.errors import RegimeError
from afmgate.hamiltonian import (
    AfmManifoldModel,
    AfmMode,
    AfmRegime,
    build_afm_effective,
    build_corrections,
    build_pxp,
    build_vdw,
    excitation_numbers,
)
from afmgate.units import mhz

from conftest import SPACING


def interaction(b=mhz(45), cutoff=None, spacing=SPACING):
    return InteractionConfig.from_nn_strength(b, spacing, range_cutoff=cutoff)


class TestPxp:
    def test_single_atom_gap_is_omega(self):
        h = build_pxp(2.5, 0.0, build_blockade_basis(1))
        assert np.linalg.eigvalsh(h.matrix) == pytest.approx([-1.25, 1.25])

    def test_diagonal_limit(self):
        h = build_pxp(0.0, 3.0, build_blockade_basis(3))
        w = np.linalg.eigvalsh(h.matrix)
        assert w[0] == pytest.approx(-6.0)  # |r1r> at -2 delta
        assert np.abs(h.matrix - np.diag(np.diag(h.matrix))).max() == 0.0

    def test_requires_constrained_basis(self):
        with pytest.raises(ValueError):
            build_pxp(1.0, 0.0, build_full_basis(3))

    def test_hermitian(self):
        h = build_pxp(1.3, -0.7, build_blockade_basis(6))
        assert h.hermiticity_defect() < 1e-12

    def test_mirror_symmetry_in_detuning(self):
        rng = np.random.default_rng(3)
        basis = build_blockade_basis(5)
        for _ in range(10):
            om, de = rng.uniform(0.2, 3.0, 2)
            w_plus = np.linalg.eigvalsh(build_pxp(om, de, basis).matrix)
            w_minus = np.linalg.eigvalsh(build_pxp(om, -de, basis).matrix)
            assert np.abs(w_plus + w_minus[::-1]).max() < 1e-10


class TestVdw:
    def test_pair_energy(self):
        basis = build_full_basis(2)
        h = build_vdw(0.0, 1.5, interaction(b=7.0, spacing=1.0), basis)
        assert h.matrix[3, 3].real == pytest.approx(-2 * 1.5 + 7.0)

    def test_next_nearest_energy(self):
        basis = build_full_basis(3)
        h = build_vdw(0.0, 0.0, interaction(b=64.0, spacing=1.0), basis)
        i = basis.index[0b101]
        assert h.matrix[i, i].real == pytest.approx(1.0)

    def test_requires_full_basis(self):
        with pytest.raises(ValueError):
            build_vdw(1.0, 0.0, interaction(), build_blockade_basis(3))

    def test_mirror_symmetry_needs_interaction_flip(self):
        rng = np.random.default_rng(5)
        basis = build_full_basis(4)
        for _ in range(10):
            om, de, b = rng.uniform(0.2, 3.0, 3)
            w1 = np.linalg.eigvalsh(build_vdw(om, de, interaction(b=b, spacing=1.0), basis).matrix)
            w2 = np.linalg.eigvalsh(build_vdw(om, -de, interaction(b=-b, spacing=1.0), basis).matrix)
            assert np.abs(w1 + w2[::-1]).max() < 1e-10

    def test_blockade_limit_recovers_pxp_spectrum(self):
        # |B| >= 100 max(Omega, Delta): low-lying vdW levels match PXP
        # within the second-order shift scale 5 Omega^2 / (4B) per level
        om, de = 1.0, 0.8
        for nu in range(2, 7):
            b = 100.0 * max(om, de)
            w_vdw = np.linalg.eigvalsh(
                build_vdw(om, de, interaction(b=b, cutoff=1, spacing=1.0), build_full_basis(nu)).matrix
            )
            w_pxp = np.linalg.eigvalsh(build_pxp(om, de, build_blockade_basis(nu)).matrix)
            m = len(w_pxp)
            assert np.abs(w_vdw[:m] - w_pxp).max() < 5 * om**2 / (4 * b)


class TestCorrections:
    def test_r11r_diagonal_has_two_single_neighbour_shifts(self):
        basis = build_blockade_basis(4)
        om, de, b = 2.0, 7.0, mhz(45)
        s_b = om**2 / (4 * (b - de))
        h = build_corrections(om, de, interaction(b=b), basis)
        i = basis.index[0b1001]
        assert h.matrix[i, i].real == pytest.approx(-2 * de - 2 * s_b, rel=1e-12)

    def test_r1r1_diagonal_has_b2_and_double_neighbour_shift(self):
        basis = build_blockade_basis(4)
        om, de, b = 2.0, 7.0, mhz(45)
        s_b = om**2 / (4 * (b - de))
        s_2b = om**2 / (4 * (2 * b - de))
        h = build_corrections(om, de, interaction(b=b), basis)
        i = basis.index[0b0101]
        assert h.matrix[i, i].real == pytest.approx(-2 * de + b / 64 - s_2b - s_b, rel=1e-12)

    def test_zero_drive_reduces_to_pxp_plus_b2(self):
        basis = build_blockade_basis(5)
        de, b = 3.0, 40.0
        extra = build_corrections(0.0, de, interaction(b=b, spacing=1.0), basis).matrix - build_pxp(
            0.0, de, basis
        ).matrix
        assert np.abs(extra - np.diag(np.diag(extra))).max() == 0.0
        diag = np.diag(extra).real
        for k, s in enumerate(basis.states):
            pairs = sum(1 for i in range(3) if s >> i & 1 and s >> (i + 2) & 1)
            assert diag[k] == pytest.approx(pairs * b / 64, rel=1e-12, abs=1e-12)

    def test_singular_shift_detuning_rejected(self):
        basis = build_blockade_basis(3)
        with pytest.raises(RegimeError):
            build_corrections(1.0, 45.0, interaction(b=45.0, spacing=1.0), basis)

    def test_hermitian(self):
        h = build_corrections(1.1, 3.0, interaction(), build_blockade_basis(6))
        assert h.hermiticity_defect() < 1e-12

    @pytest.mark.parametrize("nu", [4, 6])
    def test_afm_manifold_tracks_full_model(self, nu):
        # Delta = 10 Omega, B = 3 Delta, interactions truncated at the
        # next-nearest neighbours the corrections model keeps
        om, de = 1.0, 10.0
        inter = interaction(b=3 * de, cutoff=2, spacing=1.0)
        m = nu // 2 + 1
        w_full = np.sort(np.linalg.eigvalsh(build_vdw(om, de, inter, build_full_basis(nu)).matrix))[:m]
        w_corr = np.sort(
            np.linalg.eigvalsh(build_corrections(om, de, inter, build_blockade_basis(nu)).matrix)
        )[:m]
        bandwidth = w_full.max() - w_full.min()
        assert np.abs(w_full - w_corr).max() < 0.02 * bandwidth


class TestAfmEffective:
    def test_nu4_pxp_band(self):
        om, de = 1.0, 10.0
        s = om**2 / (4 * de)
        w = np.linalg.eigvalsh(build_afm_effective(4, om, de, None, AfmMode.PXP).matrix)
        expect = np.sort([-2 * (de + s) - math.sqrt(2) * s, -2 * (de + s), -2 * (de + s) + math.sqrt(2) * s])
        assert w == pytest.approx(expect, rel=1e-12)

    def test_nu6_pxp_matches_cosine_band(self):
        om, de = 1.0, 10.0
        s = om**2 / (4 * de)
        w = np.sort(np.linalg.eigvalsh(build_afm_effective(6, om, de, None, AfmMode.PXP).matrix))
        ks = np.arange(1, 5)
        expect = np.sort(-3 * (de + s) - 2 * s * np.cos(ks * np.pi / 5))
        assert w == pytest.approx(expect, rel=1e-12)

    def test_zero_drive_splits_ordered_from_defect_by_b2(self):
        de, b = 10.0, 30.0
        h = build_afm_effective(4, 0.0, de, interaction(b=b, spacing=1.0), AfmMode.VDW_DEGENERATE).matrix
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
    h = build_pxp(1.0, 0.0, basis)
    assert h.basis is basis
    assert h.dim == basis.dim
    assert excitation_numbers(basis).max() == 2
