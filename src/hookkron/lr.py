"""Littlewood-Richardson coefficients via picture counting.

With a straight source shape the picture count collapses to a single LR
coefficient, so the one picture search serves both purposes.  Values are
memoized; the double sum over restriction labels repeats queries heavily.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SizeMismatchError
from .pictures import _search
from .shapes import Partition, canonical_labels, conjugate, contains, partitions_inside, skew


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, zeta: Partition, xi: Partition) -> int:
    """Multiplicity of the ``zeta`` x ``xi`` outer product inside the
    restriction of the ``lam`` irreducible to the Young subgroup."""
    if sum(zeta) + sum(xi) != sum(lam):
        raise SizeMismatchError(f"need |zeta| + |xi| = |lam|: {zeta}, {xi}, {lam}")
    if not contains(lam, zeta):
        return 0
    return len(_search(skew(xi, ()), skew(lam, zeta)))  # counts leaves, builds no picture


def exterior_multiplicity_via_lr(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with the m-th exterior power
    of the defining module, as the LR double sum over a shared restriction
    label and a pair of conjugate shapes.  An LR coefficient vanishes unless
    both lower labels fit inside the upper one, so zeta runs over the
    partitions of n - m inside lam and mu, xi over those of m inside lam and mu'."""
    lam, mu = canonical_labels(lam, mu, m=m, exterior=True)
    total = 0
    for zeta in partitions_inside(tuple(map(min, lam, mu)), sum(lam) - m):
        for xi in partitions_inside(tuple(map(min, lam, conjugate(mu))), m):
            left = lr_coefficient(lam, zeta, xi)
            if left:
                total += left * lr_coefficient(mu, zeta, conjugate(xi))
    return total
