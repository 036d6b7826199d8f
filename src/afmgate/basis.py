"""Many-body basis states for a chain of two-level ({|1>, |r>}) atoms.

A basis state is a plain int bitmask over the ``nu`` active atoms: bit i set
means atom i is in the Rydberg state |r>.  Bit 0 is the leftmost atom.  The
blockade-constrained basis keeps only masks with no two adjacent bits set;
its size is the Fibonacci number F_{nu+2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigError

NU_MAX = 24  # enumeration guard; dense-matrix builders impose their own limits


def rydberg_count(mask: int) -> int:
    """Number of Rydberg excitations (set bits) in the configuration."""
    return mask.bit_count()


def parity_sign(mask: int) -> int:
    """Eigenvalue of the parity operator prod_i (|1><1| - |r><r|): (-1)^n_r."""
    return -1 if mask.bit_count() & 1 else 1


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


def blockade_allowed(mask: int) -> bool:
    """True if no two adjacent atoms are both excited."""
    return mask & (mask >> 1) == 0


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered set of configurations with an index lookup table."""

    nu: int
    states: Tuple[int, ...]
    constrained: bool
    index: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {s: k for k, s in enumerate(self.states)})

    @property
    def dim(self) -> int:
        return len(self.states)


def _check_nu(nu: int) -> None:
    if not 1 <= nu <= NU_MAX:
        raise ConfigError(f"atom count {nu} outside supported range [1, {NU_MAX}]")


def build_blockade_basis(nu: int) -> Basis:
    """All masks with no adjacent excitations, ascending; size F_{nu+2}."""
    _check_nu(nu)
    states = tuple(m for m in range(1 << nu) if blockade_allowed(m))
    return Basis(nu=nu, states=states, constrained=True)


def build_full_basis(nu: int) -> Basis:
    """All 2^nu masks, ascending."""
    _check_nu(nu)
    return Basis(nu=nu, states=tuple(range(1 << nu)), constrained=False)


def inversion_permutation(basis: Basis) -> np.ndarray:
    """Index of the mirror image of every basis state: ``perm[k]`` is the
    index of ``apply_inversion(basis.states[k], nu)``.  An involution.

    The bit reversal runs over all masks at once; the lookup relies on the
    states being ascending, as both builders produce them.
    """
    s = np.array(basis.states, dtype=np.int64)
    rev = np.zeros_like(s)
    for i in range(basis.nu):
        rev |= (s >> i & 1) << (basis.nu - 1 - i)
    return np.searchsorted(s, rev)


def sector_isometry(basis: Basis, odd: bool = False) -> np.ndarray:
    """Real (dim, d) matrix U whose orthonormal columns span the
    inversion-even (odd) sector: e_s for a mirror-symmetric mask s (even
    sector only), and (e_s +- e_Is) / sqrt(2) for each mirror pair s < Is,
    in ascending order of the lower index."""
    perm = inversion_permutation(basis)
    idx = np.arange(basis.dim)
    reps = np.flatnonzero(idx < perm if odd else idx <= perm)
    paired = perm[reps] != reps
    cols = np.arange(len(reps))
    u = np.zeros((basis.dim, len(reps)))
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
