"""Littlewood-Richardson coefficients via picture counting.

The pictures from λ/κ onto a straight shape ν number c^λ_{κν}: one search
bounded to ν counts a single coefficient, and one unbounded search expands λ/κ
onto every straight shape for the double sum over restriction labels.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from operator import mul

from .errors import SizeMismatchError
from .pictures import _search
from .shapes import Partition, _conjugate, canonical_labels, contains, partition, partitions_inside, skew


def lr_coefficient(lam: Partition, zeta: Partition, xi: Partition) -> int:
    """Multiplicity of the ``zeta`` x ``xi`` outer product inside the
    restriction of the ``lam`` irreducible to the Young subgroup."""
    lam, zeta, xi = partition(lam), partition(zeta), partition(xi)
    if sum(zeta) + sum(xi) != sum(lam):
        raise SizeMismatchError(f"need |zeta| + |xi| = |lam|: {zeta}, {xi}, {lam}")
    kappa, nu = (zeta, xi) if 2 * sum(xi) <= sum(lam) else (xi, zeta)  # κ: the larger label
    if not contains(lam, kappa):
        return 0
    return sum(1 for _ in _search(skew(lam, kappa), (), nu))  # counts leaves, builds no picture


def exterior_multiplicity_via_lr(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with Λ^m V, as Σ c^λ_{ζξ}·c^μ_{ζξ′} over ζ, ξ."""
    return next(_exterior_via_lr(*canonical_labels(lam, mu, m=m, exterior=True), range(m, m + 1)))


def exterior_sweep_via_lr(lam: Partition, mu: Partition) -> list[int]:
    """:func:`exterior_multiplicity_via_lr` for m = 0..n, with the labels checked once."""
    lam, mu = canonical_labels(lam, mu)
    return list(_exterior_via_lr(lam, mu, range(sum(lam) + 1)))


@lru_cache(maxsize=None)
def _expansion(lam: Partition, kappa: Partition) -> Counter:
    """c^λ_{κν} for every ν, keyed by ν: one search from λ/κ onto every ν/∅."""
    return Counter(nu for nu, _ in _search(skew(lam, kappa), ()))


def _exterior_via_lr(lam: Partition, mu: Partition, ms: range):
    """The LR double sum for each m in ``ms``: expansions over the larger lower label, of
    at most n/2 cells each, dotted; c^λ_{ζξ} vanishes unless ζ and ξ fit inside λ."""
    n, zeros = sum(lam), repeat(0)
    zeta_bound, xi_bound = tuple(map(min, lam, mu)), tuple(map(min, lam, _conjugate(mu)))
    for m in ms:
        total = 0
        if 2 * m <= n:  # Σ_ζ Σ_ξ E(λ,ζ)[ξ]·E(μ,ζ)[ξ′]
            for zeta in partitions_inside(zeta_bound, n - m):
                left, right = _expansion(lam, zeta), _expansion(mu, zeta)
                total += sum(map(mul, left.values(), map(right.get, map(_conjugate, left), zeros)))
        else:  # Σ_ξ Σ_ζ E(λ,ξ)[ζ]·E(μ,ξ′)[ζ]
            for xi in partitions_inside(xi_bound, m):
                left, right = _expansion(lam, xi), _expansion(mu, _conjugate(xi))
                total += sum(map(mul, left.values(), map(right.get, left, zeros)))
        yield total
