"""Configuration bases, blockade constraint, parity and inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afmgate.basis import (
    afm_manifold_masks,
    apply_inversion,
    bit_counts,
    bitstring,
    build_blockade_basis,
    build_full_basis,
    inversion_permutation,
    lookup,
    ordered_afm_masks,
    sector_isometry,
)


def fibonacci(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b


class TestBlockadeBasis:
    def test_nu3_states_enumerated_exactly(self):
        basis = build_blockade_basis(3)
        assert [bitstring(s, 3) for s in basis.masks.tolist()] == ["000", "100", "010", "001", "101"]
        assert basis.dim == 5

    def test_single_atom_has_two_states(self):
        assert build_blockade_basis(1).dim == 2

    def test_nu8_matches_brute_force_filter(self):
        brute = [m for m in range(256) if not any(m >> i & 1 and m >> (i + 1) & 1 for i in range(7))]
        basis = build_blockade_basis(8)
        assert basis.masks.tolist() == brute
        assert basis.dim == 55

    @pytest.mark.parametrize("nu", range(1, 13))
    def test_dimension_is_fibonacci(self, nu):
        assert build_blockade_basis(nu).dim == fibonacci(nu + 2)

    def test_states_sorted_ascending_and_indexed(self):
        basis = build_blockade_basis(7)
        assert basis.masks.tolist() == sorted(basis.masks.tolist())
        for k, s in enumerate(basis.masks.tolist()):
            assert basis.index(s) == k

    @pytest.mark.parametrize("nu", range(1, 21))
    def test_bitwise_equal_to_brute_force_enumeration(self, nu):
        every = np.arange(1 << nu, dtype=np.int64)
        masks = build_blockade_basis(nu).masks
        assert masks.dtype == np.int64
        assert np.array_equal(masks, every[every & (every >> 1) == 0])

    def test_lookup_of_a_mask_outside_the_basis_raises(self):
        basis = build_blockade_basis(4)
        with pytest.raises(KeyError):
            basis.index(0b0011)
        with pytest.raises(KeyError):
            basis.index([0b0101, 0b0110])
        assert basis.index([0b0101, 0b1001]).tolist() == [basis.index(0b0101), basis.index(0b1001)]
        k, found = lookup(basis.masks, np.array([0b0011, 0b1010, 0b1111]))
        assert found.tolist() == [False, True, False]
        assert basis.masks[k[1]] == 0b1010

    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_blockade_basis(0)
        with pytest.raises(ValueError):
            build_blockade_basis(25)


class TestFullBasis:
    @pytest.mark.parametrize("nu,size", [(2, 4), (3, 8), (8, 256)])
    def test_sizes(self, nu, size):
        assert build_full_basis(nu).dim == size

    @pytest.mark.parametrize("nu", range(1, 17))
    def test_bitwise_equal_to_brute_force_enumeration(self, nu):
        masks = build_full_basis(nu).masks
        assert masks.dtype == np.int64
        assert masks.tolist() == list(range(1 << nu))


class TestStateOperations:
    def test_rydberg_count(self):
        assert bit_counts(np.array([0b101, 0, 0b10101]), 5).tolist() == [2, 0, 3]
        assert bit_counts(np.array([0b1101]), 3).tolist() == [2]  # the lowest nu bits only

    def test_parity_sign(self):
        # (-1)^n_r, the parity column of ``basis-dump``
        n_r = bit_counts(np.array([0, 0b101, 0b10101]), 5)
        assert (1 - 2 * (n_r & 1)).tolist() == [1, 1, -1]

    def test_inversion_examples(self):
        # atom strings read left to right: "100" -> "001"
        assert apply_inversion(0b001, 3) == 0b100
        assert apply_inversion(0b101, 3) == 0b101
        # "1001010" (atoms 1,4,6 excited) -> "0101001"
        mask = 0b0101001
        assert bitstring(mask, 7) == "1001010"
        assert bitstring(apply_inversion(mask, 7), 7) == "0101001"

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_inversion_is_an_involution_preserving_structure(self, nu, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << nu) - 1))
        inv = apply_inversion(mask, nu)
        assert apply_inversion(inv, nu) == mask
        assert inv.bit_count() == mask.bit_count()
        assert (inv & inv >> 1 == 0) == (mask & mask >> 1 == 0)
        assert (-1) ** mask.bit_count() * (-1) ** inv.bit_count() == 1


BASES = [build(nu) for build in (build_full_basis, build_blockade_basis) for nu in range(1, 11)]


class TestInversionSector:
    def test_inversion_permutation_is_an_involution(self):
        for basis in BASES:
            perm = inversion_permutation(basis)
            assert np.array_equal(perm[perm], np.arange(basis.dim))

    def test_inversion_permutation_matches_apply_inversion(self):
        for basis in BASES:
            perm = inversion_permutation(basis)
            for k, s in enumerate(basis.masks.tolist()):
                assert basis.masks[perm[k]] == apply_inversion(s, basis.nu)

    @pytest.mark.parametrize(
        "basis,d_even",
        [(build_full_basis(5), 20), (build_blockade_basis(7), 21), (build_full_basis(7), 72)],
    )
    def test_even_sector_dimension(self, basis, d_even):
        assert sector_isometry(inversion_permutation(basis)).shape == (basis.dim, d_even)

    def test_even_isometry_spans_the_even_sector(self):
        for basis in BASES:
            perm = inversion_permutation(basis)
            u = sector_isometry(perm)
            n_fixed = int(np.sum(perm == np.arange(basis.dim)))
            assert u.shape[1] == n_fixed + (basis.dim - n_fixed) // 2
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-15
            assert np.array_equal(u[perm], u)  # every column is mirror-even
            assert set(np.unique(u)) <= {0.0, 1.0, math.sqrt(0.5)}

    def test_odd_isometry_completes_the_even_sector(self):
        for basis in BASES:
            perm = inversion_permutation(basis)
            u_odd = sector_isometry(perm, odd=True)
            assert np.array_equal(u_odd[perm], -u_odd)  # every column is mirror-odd
            assert set(np.unique(u_odd)) <= {0.0, math.sqrt(0.5), -math.sqrt(0.5)}
            u = np.hstack([sector_isometry(perm), u_odd])
            assert np.abs(u.T @ u - np.eye(basis.dim)).max() < 1e-15


class TestAfmConfigurations:
    def test_ordered_masks(self):
        assert bitstring(ordered_afm_masks(5)[0], 5) == "10101"
        ordered = ordered_afm_masks(4)
        assert [bitstring(m, 4) for m in ordered] == ["0101", "1010"]

    def test_manifold_interpolates_between_ordered_configurations(self):
        masks = afm_manifold_masks(6)
        assert [bitstring(m, 6) for m in masks] == ["010101", "100101", "101001", "101010"]
        for m in masks:
            assert m & m >> 1 == 0
            assert m.bit_count() == 3

    def test_manifold_requires_even_nu(self):
        with pytest.raises(ValueError):
            afm_manifold_masks(5)
