"""Hook tensor multiplicities via balanced corners of pictures.

For partitions ``lam`` and ``mu`` of n and an overlap ``zeta``, the pictures
from the transposed shape mu/zeta onto lam/zeta count the multiplicity of
``mu`` in ``lam`` tensored with an exterior power.  Every such picture carries
exactly one of two mutually exclusive features: a *balanced cocorner* (a
target inner cocorner whose insertion lands on its own transpose) or a
*balanced corner* (a source inner corner whose deletion emits its own
transpose).  Counting the balanced-cocorner pictures over all overlaps gives
the multiplicity of ``mu`` in ``lam`` tensored with the hook of leg ``m``, and
inserting/deleting at the balanced cell steps bijectively between adjacent
leg sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotCoHookShapeError, NotHookShapeError, RangeError
from .parallel import ordered_map
from .pictures import Picture, _search, enumerate_pictures
from .shapes import (
    Cell,
    Partition,
    SkewShape,
    add_cell,
    canonical_labels,
    conjugate,
    contains,
    format_cell,
    format_partition,
    inner_cocorners,
    inner_corners,
    label_size,
    lt_sw,
    partition,
    partitions,
    partitions_inside,
    remove_cell,
    transpose_cell,
)
from .tableaux import apply_delete, bump_route, carry_out_insert, delete_route


@dataclass(frozen=True)
class TypedPicture:
    """A picture from the transposed mu-overlap shape onto the lam-overlap shape."""

    lam: Partition
    mu: Partition
    zeta: Partition
    picture: Picture

    def __post_init__(self):
        label_size(self.lam, self.mu)
        # exact: only canonical labels match; the shapes are nested, so zeta lies in lam and mu
        source, target = self.picture.source, self.picture.target
        if (target.outer, target.inner) != (self.lam, self.zeta):
            raise ValueError("picture target must be the lam/zeta shape")
        if (conjugate(source.outer), conjugate(source.inner)) != (self.mu, self.zeta):
            raise ValueError("picture source must be the transposed mu/zeta shape")

    @property
    def m(self) -> int:
        return sum(self.lam) - sum(self.zeta)


def pw_set(lam: Partition, mu: Partition, zeta: Partition) -> list[TypedPicture]:
    """All pictures of type (lam, mu; zeta); empty unless zeta sits in both."""
    # canonical labels, as TypedPicture compares them
    (lam, mu), zeta = canonical_labels(lam, mu), partition(zeta)
    return _pictures(lam, mu, zeta) if contains(lam, zeta) and contains(mu, zeta) else []


def _pictures(lam: Partition, mu: Partition, zeta: Partition) -> list[TypedPicture]:
    """``pw_set``'s step for canonical labels with zeta inside lam and mu:
    the search from mu'/zeta' onto lam/zeta; ``pw_m_set`` calls it directly."""
    source = SkewShape(conjugate(mu), conjugate(zeta))
    target = SkewShape(lam, zeta)
    return [TypedPicture(lam, mu, zeta, p) for p in enumerate_pictures(source, target)]


def _overlaps(lam: Partition, mu: Partition, m: int) -> tuple[Partition, ...]:
    """The overlaps of leg size ``m`` (0 <= m <= n) for canonical labels: the
    zeta of n - m inside lam and mu (no other has pictures), in the fixed order."""
    return partitions_inside(tuple(map(min, lam, mu)), sum(lam) - m)


def _zeta_counts(
    lam: Partition, zeta: Partition, with_hook: bool, bound: Partition | None = None
) -> dict[Partition, tuple[int | None, int]]:
    """One overlap's counts for every mu: per mu with a picture mu'/zeta' ->
    lam/zeta, those with a balanced cocorner (None unless ``with_hook``) and
    all of them.  One search from lam/zeta finds their inverses; each is
    built, validated and scored as it is found.  Tables and verify sum it;
    a single count passes ``bound`` = mu' and meets that mu alone."""
    target = SkewShape(lam, zeta)
    tgt, inner = target.cells(), conjugate(zeta)
    sources: dict[Partition, tuple[Partition, SkewShape]] = {}
    counts: dict[Partition, tuple[int, int]] = {}
    for shape, cells in _search(target, inner, bound):
        if shape not in sources:  # the memoised conjugates, so caches keyed by shape share them
            mu = conjugate(shape)
            sources[shape] = mu, SkewShape(conjugate(mu), inner)
        mu, source = sources[shape]
        tp = TypedPicture(lam, mu, zeta, Picture(source, target, dict(zip(cells, tgt))))
        hits, total = counts.get(mu, (0, 0))
        counts[mu] = hits + (with_hook and balanced_cocorner(tp) is not None), total + 1
    return {mu: (hits if with_hook else None, total) for mu, (hits, total) in counts.items()}


def pw_m_set(lam: Partition, mu: Partition, m: int) -> list[TypedPicture]:
    """Union of the per-overlap picture sets, overlaps in the fixed order."""
    lam, mu = canonical_labels(lam, mu, m=m, exterior=True)
    return [tp for zeta in _overlaps(lam, mu, m) for tp in _pictures(lam, mu, zeta)]


def balanced_cocorner(tp: TypedPicture) -> Cell | None:
    """The unique target inner cocorner that bumps onto its own transpose,
    or None.  Scans in southwest order; the first hit is the only one.

    Runs only the destination part of ``tableaux.bump_route`` through the
    picture: the route climbs a row at a time, so once it passes row z[1]
    it cannot land on z'.  The carried cell (r0, c0) is z, outside the
    target, or the image of a lower row's cell, so it never equals a bumped
    image, and the strict southwest test needs no inequality check."""
    p = tp.picture
    outer, inner, image = p.source.outer, p.source.inner, p._map
    rows_inner = len(inner)
    for z in inner_cocorners(p.target):
        top, (r0, c0) = z[1], z
        for i in range(len(outer), top - 1, -1):
            lo = inner[i - 1] if i <= rows_inner else 0
            j = outer[i - 1]
            while j > lo:
                r, c = image[i, j]
                if r0 <= r and c <= c0:
                    r0, c0 = r, c
                    break
                j -= 1
            else:
                if i == top and lo == z[0]:
                    return z
                break
    return None


def balanced_corner(tp: TypedPicture) -> Cell | None:
    """The target-side cell emitted by the unique self-transpose deletion,
    or None.  The deleted source corner is the transpose of the result."""
    return route[1] if (route := _balanced_deletion(tp)) else None


def _balanced_deletion(tp: TypedPicture) -> tuple[tuple[Cell, ...], Cell] | None:
    """The delete route behind :func:`balanced_corner`, for ``step_F`` to carry out."""
    p = tp.picture
    for v in inner_corners(p.source):
        route = delete_route(p.source, p._map.__getitem__, v, lt_sw)
        if route is not None and route[1] == transpose_cell(v):
            return route
    return None


def step_E(tp: TypedPicture) -> TypedPicture:
    """Insert at the balanced cocorner: leg size m grows by one."""
    z = balanced_cocorner(tp)
    if z is None:
        raise NotHookShapeError(
            f"picture of type ({format_partition(tp.lam)}, {format_partition(tp.mu)}; "
            f"{format_partition(tp.zeta)}) has no balanced cocorner"
        )
    # z is an inner cocorner of the target, so picture_insert's checks would all pass
    route = bump_route(tp.picture.source, tp.picture._map.__getitem__, z, lt_sw)
    source, mapping = carry_out_insert(tp.picture.source, tp.picture._map, route, format_cell(z))
    zeta = remove_cell(tp.zeta, z)
    return TypedPicture(tp.lam, tp.mu, zeta, Picture(source, SkewShape(tp.lam, zeta), mapping))


def step_F(tp: TypedPicture) -> TypedPicture:
    """Delete at the balanced corner: leg size m shrinks by one."""
    route = _balanced_deletion(tp)
    if route is None:
        raise NotCoHookShapeError(
            f"picture of type ({format_partition(tp.lam)}, {format_partition(tp.mu)}; "
            f"{format_partition(tp.zeta)}) has no balanced corner"
        )
    source, mapping, w = apply_delete(tp.picture.source, tp.picture._map, route)
    zeta = add_cell(tp.zeta, w)
    return TypedPicture(tp.lam, tp.mu, zeta, Picture(source, SkewShape(tp.lam, zeta), mapping))


def multiplicity_exterior(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with the m-th exterior power
    of the defining module: the total picture count."""
    return _table_row(*canonical_labels(lam, mu, m=m, exterior=True), m, with_hook=False).pw


def multiplicity_hook(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with the hook of leg ``m``:
    the number of pictures with a balanced cocorner."""
    return _table_row(*canonical_labels(lam, mu, m=m), m, with_hook=True).ph


def picture_counts(lam: Partition, mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-leg counts (hook, exterior) for m = 0..n, one single count per leg."""
    lam, mu = canonical_labels(lam, mu)
    rows = [_table_row(lam, mu, m, with_hook=True) for m in range(sum(lam) + 1)]
    return tuple(row.ph for row in rows), tuple(row.pw for row in rows)


def _count_record(label: str, parts: Partition, ph: int | None, pw: int) -> dict:
    """A count as JSON, ``{label: parts, "ph", "pw"}``; no ``"ph"`` when it is None."""
    return {label: list(parts), **({} if ph is None else {"ph": ph}), "pw": pw}


@dataclass(frozen=True)
class ZetaCount:
    zeta: Partition
    ph: int | None
    pw: int

    def to_json(self) -> dict:
        return _count_record("zeta", self.zeta, self.ph, self.pw)


@dataclass(frozen=True)
class TableRow:
    mu: Partition
    ph: int | None
    pw: int
    by_zeta: tuple[ZetaCount, ...]


@dataclass(frozen=True)
class DecompositionTable:
    """Multiplicity table of one tensor product, rows in the fixed partition
    order, all-zero rows omitted.  ``ph`` is None in exterior-power tables."""

    lam: Partition
    m: int
    rows: tuple[TableRow, ...]

    def to_json(self) -> dict:
        rows = [
            _count_record("mu", row.mu, row.ph, row.pw)
            | {"by_zeta": [zc.to_json() for zc in row.by_zeta]}
            for row in self.rows
        ]
        return {"lambda": list(self.lam), "m": self.m, "rows": rows}


def _table_row(lam: Partition, mu: Partition, m: int, with_hook: bool) -> TableRow:
    """One mu's row for a single count: per overlap, its pictures mu'/zeta' ->
    lam/zeta, searched from lam/zeta bounded to mu'/zeta', and (only
    ``with_hook``) those with a balanced cocorner."""
    bound, by_zeta = conjugate(mu), []
    for zeta in _overlaps(lam, mu, m):
        if counts := _zeta_counts(lam, zeta, with_hook, bound):
            by_zeta.append(ZetaCount(zeta, *counts[mu]))
    return _row(mu, by_zeta, with_hook)


def _row(mu: Partition, by_zeta: list[ZetaCount], with_hook: bool) -> TableRow:
    ph_total = sum(zc.ph for zc in by_zeta) if with_hook else None
    return TableRow(mu, ph_total, sum(zc.pw for zc in by_zeta), tuple(by_zeta))


def _decompose(lam: Partition, m: int, with_hook: bool, jobs: int = 1) -> DecompositionTable:
    """Every row of leg size ``m`` at once: one search per overlap serves every
    mu, and the overlaps are fanned out."""
    zetas = partitions_inside(lam, sum(lam) - m)
    task = functools.partial(_zeta_counts, lam, with_hook=with_hook)
    by_mu: dict[Partition, list[ZetaCount]] = {}
    for zeta, counts in zip(zetas, ordered_map(task, zetas, jobs)):
        for mu, (ph, pw) in counts.items():
            by_mu.setdefault(mu, []).append(ZetaCount(zeta, ph, pw))
    rows = (_row(mu, by_mu[mu], with_hook) for mu in partitions(sum(lam)) if mu in by_mu)
    return DecompositionTable(lam, m, tuple(rows))


def decompose_tensor_hook(lam: Partition, m: int, jobs: int = 1) -> DecompositionTable:
    """Decomposition of ``lam`` tensored with the hook of leg ``m``."""
    (lam,) = canonical_labels(lam, m=m)
    return _decompose(lam, m, with_hook=True, jobs=jobs)


def decompose_tensor_exterior(lam: Partition, m: int, jobs: int = 1) -> DecompositionTable:
    """Decomposition of ``lam`` tensored with the m-th exterior power of the
    defining module."""
    (lam,) = canonical_labels(lam, m=m, exterior=True)
    return _decompose(lam, m, with_hook=False, jobs=jobs)


def hook_hook_multiplicity(e: int, f: int, m: int, n: int) -> int:
    """Closed form for a hook tensor hook: multiplicity of the hook with leg
    ``f`` in the product of the hook with leg ``e`` and the hook with leg
    ``m``, all of degree ``n``.  Always 0 or 1, supported on the leg interval
    fixed by ``e`` and ``f``."""
    if not (0 <= 2 * e <= n and 2 * f <= n and e <= f):
        raise RangeError(f"need 2e <= n, 2f <= n, e <= f: e={e}, f={f}, n={n}")
    label_size((n,), m=m)  # the leg rule for degree n
    i = m - (f - e)
    if i < 0:
        return 0
    if e + f < n:
        return 1 if i <= 2 * e else 0
    return 1 if i <= n - 2 else 0
