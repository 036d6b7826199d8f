"""Many-body basis states for a chain of two-level ({|1>, |r>}) atoms.

A basis state is a plain int bitmask over the ``nu`` active atoms: bit i set
means atom i is in the Rydberg state |r>.  Bit 0 is the leftmost atom.  The
blockade-constrained basis keeps only masks with no two adjacent bits set;
its size is the Fibonacci number F_{nu+2}.  A basis is only its ascending
int64 mask array, and every structure on it is built with one lookup
(``lookup``: searchsorted, then compare) and one popcount (``bit_counts``).
So the blockade rule lives only here: a flip couples two states exactly
when both masks are in the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError

NU_MAX = 24  # enumeration guard; dense-matrix builders impose their own limits


def apply_inversion(mask: int, nu: int) -> int:
    """Spatial inversion: reverse the bit order over ``nu`` atoms."""
    out = 0
    for i in range(nu):
        if mask >> i & 1:
            out |= 1 << (nu - 1 - i)
    return out


def bitstring(mask: int, nu: int) -> str:
    """Occupation string with atom 0 first ('1' = Rydberg)."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(nu))


def bit_counts(masks: np.ndarray, nu: int) -> np.ndarray:
    """Set bits among the lowest ``nu`` of each mask (the Rydberg
    excitation count of a configuration), as int64."""
    return (masks[:, None] >> np.arange(nu) & 1).sum(axis=1)


def lookup(masks: np.ndarray, targets) -> Tuple[np.ndarray, np.ndarray]:
    """Position of each target in the ascending mask array ``masks`` and
    whether it is there (searchsorted, then compare)."""
    k = np.minimum(np.searchsorted(masks, targets), len(masks) - 1)
    return k, masks[k] == targets


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered set of configurations: the ascending int64 array ``masks``."""

    nu: int
    masks: np.ndarray
    constrained: bool

    @property
    def dim(self) -> int:
        return len(self.masks)

    def index(self, targets):
        """Index of a mask (int) or of each mask in an array of them; raises
        KeyError for a mask not in the basis."""
        k, found = lookup(self.masks, targets)
        if not np.all(found):
            raise KeyError(f"masks {np.asarray(targets)[~found].tolist()} are not in the basis")
        return k if np.ndim(k) else int(k)


def _check_nu(nu: int) -> None:
    if not 1 <= nu <= NU_MAX:
        raise ConfigError(f"atom count {nu} outside supported range [1, {NU_MAX}]")


def build_blockade_basis(nu: int) -> Basis:
    """All masks with no adjacent excitations, ascending; size F_{nu+2}:
    B(n) = B(n - 1), then B(n - 2) | 1 << (n - 1) (atom n - 1 excited)."""
    _check_nu(nu)
    prev, masks = np.zeros(1, dtype=np.int64), np.array([0, 1], dtype=np.int64)
    for n in range(2, nu + 1):
        prev, masks = masks, np.concatenate([masks, prev | 1 << (n - 1)])
    return Basis(nu=nu, masks=masks, constrained=True)


def build_full_basis(nu: int) -> Basis:
    """All 2^nu masks, ascending."""
    _check_nu(nu)
    return Basis(nu=nu, masks=np.arange(1 << nu, dtype=np.int64), constrained=False)


def flip_pairs(masks: np.ndarray, pattern: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, kt) with ``masks[kt] == masks[k] ^ pattern`` in an
    ascending mask array: every flip of the bits in ``pattern`` that stays
    in the basis, each pair in both orders."""
    kt, found = lookup(masks, masks ^ pattern)
    k = np.flatnonzero(found)
    return k, kt[k]


def inversion_permutation(basis: Basis) -> np.ndarray:
    """Index of the mirror image of every basis state: ``perm[k]`` is the
    index of ``apply_inversion(basis.masks[k], nu)``.  An involution.

    The bit reversal runs over all masks at once.
    """
    s = basis.masks
    rev = np.zeros_like(s)
    for i in range(basis.nu):
        rev |= (s >> i & 1) << (basis.nu - 1 - i)
    return basis.index(rev)


def sector_isometry(perm: np.ndarray, odd: bool = False) -> np.ndarray:
    """Real (dim, d) matrix U whose orthonormal columns span the
    inversion-even (odd) sector of a basis with inversion permutation
    ``perm`` (``inversion_permutation``): e_s for a mirror-symmetric mask s
    (even sector only), and (e_s +- e_Is) / sqrt(2) for each mirror pair
    s < Is, in ascending order of the lower index."""
    idx = np.arange(len(perm))
    reps = np.flatnonzero(idx < perm if odd else idx <= perm)
    paired = perm[reps] != reps
    cols = np.arange(len(reps))
    u = np.zeros((len(perm), len(reps)))
    u[reps, cols] = np.where(paired, math.sqrt(0.5), 1.0)
    u[perm[reps[paired]], cols[paired]] = -math.sqrt(0.5) if odd else math.sqrt(0.5)
    return u


def ordered_afm_masks(nu: int) -> Tuple[int, ...]:
    """Masks of the maximally ordered alternating configurations.

    Odd nu: the single configuration r1r1...1r (one mask).  Even nu: the two
    ordered configurations 1r1r...1r and r1r1...r1.
    """
    odd_sites = sum(1 << i for i in range(0, nu, 2))  # atoms 1,3,5,... (1-based)
    if nu % 2 == 1:
        return (odd_sites,)
    even_sites = sum(1 << i for i in range(1, nu, 2))
    return (even_sites, odd_sites)


def afm_manifold_masks(nu: int) -> Tuple[int, ...]:
    """The nu/2 + 1 configurations spanning the even-nu AFM manifold.

    Entry j (1-based) carries excitations at atoms 1, 3, ..., 2j-3 and
    2j, 2j+2, ..., nu; j = 1 and j = nu/2 + 1 are the ordered
    configurations, the rest have one defect in the bulk.
    """
    if nu % 2 != 0:
        raise ValueError(f"AFM manifold is defined for even atom counts, got {nu}")
    masks = []
    for j in range(1, nu // 2 + 2):
        mask = 0
        for site in range(1, 2 * j - 2, 2):  # odd 1-based sites left of the defect
            mask |= 1 << (site - 1)
        for site in range(2 * j, nu + 1, 2):  # even 1-based sites right of it
            mask |= 1 << (site - 1)
        masks.append(mask)
    return tuple(masks)
