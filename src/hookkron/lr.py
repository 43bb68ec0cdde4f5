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
    if 2 * sum(xi) > sum(lam):  # the product commutes: search from the smaller straight shape
        return lr_coefficient(lam, xi, zeta)
    if not contains(lam, zeta):
        return 0
    return sum(1 for _ in _search(skew(xi, ()), zeta, lam))  # counts leaves, builds no picture


def exterior_multiplicity_via_lr(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with Λ^m V, as Σ c^λ_{ζξ}·c^μ_{ζξ′} over ζ, ξ."""
    return next(_exterior_via_lr(*canonical_labels(lam, mu, m=m, exterior=True), range(m, m + 1)))


def exterior_sweep_via_lr(lam: Partition, mu: Partition) -> list[int]:
    """:func:`exterior_multiplicity_via_lr` for m = 0..n, with the labels checked once."""
    lam, mu = canonical_labels(lam, mu)
    return list(_exterior_via_lr(lam, mu, range(sum(lam) + 1)))


def _exterior_via_lr(lam: Partition, mu: Partition, ms: range):
    """The LR double sum for each m in ``ms``; c^λ_{ζξ} vanishes unless ζ and ξ fit inside λ."""
    zeta_bound, xi_bound = tuple(map(min, lam, mu)), tuple(map(min, lam, conjugate(mu)))
    for m in ms:
        xis = [(xi, conjugate(xi)) for xi in partitions_inside(xi_bound, m)]
        total = 0
        for zeta in partitions_inside(zeta_bound, sum(lam) - m):
            for xi, xi_t in xis:
                if left := lr_coefficient(lam, zeta, xi):
                    total += left * lr_coefficient(mu, zeta, xi_t)
        yield total
