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
from operator import sub
from typing import Iterator

from .errors import (
    NotCoHookShapeError,
    NotHookShapeError,
    RangeError,
    SizeMismatchError,
)
from .parallel import ordered_map
from .pictures import Picture, enumerate_pictures, picture_delete, picture_insert
from .shapes import (
    Cell,
    Partition,
    SkewShape,
    add_cell,
    conjugate,
    contains,
    format_partition,
    inner_cocorners,
    inner_corners,
    lt_sw,
    partition,
    partitions,
    partitions_inside,
    remove_cell,
    transpose_cell,
)
from .tableaux import bump_route, delete_route


@dataclass(frozen=True)
class TypedPicture:
    """A picture from the transposed mu-overlap shape onto the lam-overlap shape."""

    lam: Partition
    mu: Partition
    zeta: Partition
    picture: Picture

    def __post_init__(self):
        n = sum(self.lam)
        if sum(self.mu) != n:
            raise SizeMismatchError(
                f"labels must partition the same n: {self.lam}, {self.mu}"
            )
        # the picture's shapes are nested, so equal shapes put zeta inside lam and mu
        source, target = self.picture.source, self.picture.target
        if (target.outer, target.inner) != (self.lam, self.zeta):
            raise ValueError("picture target must be the lam/zeta shape")
        if (source.outer, source.inner) != (conjugate(self.mu), conjugate(self.zeta)):
            raise ValueError("picture source must be the transposed mu/zeta shape")

    @property
    def m(self) -> int:
        return sum(self.lam) - sum(self.zeta)


def pw_set(lam: Partition, mu: Partition, zeta: Partition) -> list[TypedPicture]:
    """All pictures of type (lam, mu; zeta); empty unless zeta sits in both."""
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"labels must partition the same n: {lam}, {mu}")
    # canonical labels, as TypedPicture compares them
    mu, zeta, lam = partition(mu), partition(zeta), partition(lam)
    if not (contains(lam, zeta) and contains(mu, zeta) and _may_have_pictures(lam, mu, zeta)):
        return []
    source = SkewShape(conjugate(mu), conjugate(zeta))
    target = SkewShape(lam, zeta)
    return [TypedPicture(lam, mu, zeta, p) for p in enumerate_pictures(source, target)]


def _may_have_pictures(lam: Partition, mu: Partition, zeta: Partition) -> bool:
    """False only when no picture maps X = mu'/zeta' onto Y = lam/zeta (zeta
    inside both).  Zelevinsky: the pictures X -> Y number <s_X, s_Y>, so some
    nu has c^X_nu > 0 and c^Y_nu > 0.  Every such nu lies, in dominance order,
    between the shape's sorted row lengths and the conjugate of its sorted
    column lengths; so rows(X) <= cols(Y)' and rows(Y) <= cols(X)'.  The rows
    of Y and the columns of X are lam_i - zeta_i and mu_i - zeta_i; the rows of
    X and the columns of Y are mu'_j - zeta'_j and lam'_j - zeta'_j."""
    lam_c, mu_c, zeta_c = conjugate(lam), conjugate(mu), conjugate(zeta)
    for row_outer, col_outer, inner in ((mu_c, lam_c, zeta_c), (lam, mu, zeta)):
        pad = inner + (0,) * (len(row_outer) + len(col_outer))  # map stops at the outer's end
        rows = sorted(map(sub, row_outer, pad), reverse=True)
        cols = sorted(map(sub, col_outer, pad))
        # the k largest rows against the first k parts of cols', a running sum of #{col >= k}
        j = total = room = 0
        for k, r in enumerate(rows, 1):
            while j < len(cols) and cols[j] < k:
                j += 1
            room += len(cols) - j
            total += r
            if total > room:
                return False
    return True


def _overlap_sets(
    lam: Partition, mu: Partition, m: int
) -> Iterator[tuple[Partition, list[TypedPicture]]]:
    """The non-empty per-overlap picture sets of leg size ``m``, one at a time
    after one check of the labels: the one loop over overlaps, visiting only
    the zeta of n - m inside lam and mu (no other has pictures), in the fixed
    order; ``pw_set`` searches only those that pass ``_may_have_pictures``."""
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatchError(f"labels must partition the same n: {lam}, {mu}")
    if not 0 <= m <= n:
        raise RangeError(f"need 0 <= m <= n, got m={m}, n={n}")
    inside = partitions_inside(tuple(map(min, lam, mu)), n - m)
    return ((zeta, pics) for zeta in inside if (pics := pw_set(lam, mu, zeta)))


def pw_m_set(lam: Partition, mu: Partition, m: int) -> list[TypedPicture]:
    """Union of the per-overlap picture sets, overlaps in the fixed order."""
    return [tp for _, pics in _overlap_sets(lam, mu, m) for tp in pics]


def balanced_cocorner(tp: TypedPicture) -> Cell | None:
    """The unique target inner cocorner that bumps onto its own transpose,
    or None.  Scans in southwest order; the first hit is the only one."""
    p = tp.picture
    for z in inner_cocorners(p.target):
        if bump_route(p.source, p._map.__getitem__, z, lt_sw).destination == transpose_cell(z):
            return z
    return None


def balanced_corner(tp: TypedPicture) -> Cell | None:
    """The target-side cell emitted by the unique self-transpose deletion,
    or None.  The deleted source corner is the transpose of the result."""
    p = tp.picture
    for v in inner_corners(p.source):
        route = delete_route(p.source, p._map.__getitem__, v, lt_sw)
        if route is not None and route[1] == transpose_cell(v):
            return route[1]
    return None


def step_E(tp: TypedPicture) -> TypedPicture:
    """Insert at the balanced cocorner: leg size m grows by one."""
    z = balanced_cocorner(tp)
    if z is None:
        raise NotHookShapeError(
            f"picture of type ({format_partition(tp.lam)}, {format_partition(tp.mu)}; "
            f"{format_partition(tp.zeta)}) has no balanced cocorner"
        )
    return TypedPicture(tp.lam, tp.mu, remove_cell(tp.zeta, z), picture_insert(tp.picture, z))


def step_F(tp: TypedPicture) -> TypedPicture:
    """Delete at the balanced corner: leg size m shrinks by one."""
    w = balanced_corner(tp)
    if w is None:
        raise NotCoHookShapeError(
            f"picture of type ({format_partition(tp.lam)}, {format_partition(tp.mu)}; "
            f"{format_partition(tp.zeta)}) has no balanced corner"
        )
    shrunk, emitted = picture_delete(tp.picture, transpose_cell(w))
    assert emitted == w
    return TypedPicture(tp.lam, tp.mu, add_cell(tp.zeta, w), shrunk)


def multiplicity_exterior(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with the m-th exterior power
    of the defining module: the total picture count."""
    return _table_row(lam, mu, m, with_hook=False).pw


def multiplicity_hook(lam: Partition, mu: Partition, m: int) -> int:
    """Multiplicity of ``mu`` in ``lam`` tensored with the hook of leg ``m``:
    the number of pictures with a balanced cocorner."""
    n = sum(lam)
    if not 0 <= m < n:
        raise RangeError(f"need 0 <= m < n, got m={m}, n={n}")
    return _table_row(lam, mu, m, with_hook=True).ph


def picture_counts(lam: Partition, mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-leg counts (hook, exterior) for m = 0..n in one enumeration sweep."""
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
    """One table row's picture counts, per overlap and in total (``ph`` only
    ``with_hook``); every hook and exterior-power count goes through here."""
    by_zeta = []
    for zeta, pics in _overlap_sets(lam, mu, m):
        ph = sum(1 for tp in pics if balanced_cocorner(tp) is not None) if with_hook else None
        by_zeta.append(ZetaCount(zeta, ph, len(pics)))
    ph_total = sum(zc.ph for zc in by_zeta) if with_hook else None
    return TableRow(mu, ph_total, sum(zc.pw for zc in by_zeta), tuple(by_zeta))


def _decompose(lam: Partition, m: int, with_hook: bool, jobs: int = 1) -> DecompositionTable:
    task = functools.partial(_table_row, lam, m=m, with_hook=with_hook)
    rows = ordered_map(task, partitions(sum(lam)), jobs)
    return DecompositionTable(lam, m, tuple(row for row in rows if row.pw))


def decompose_tensor_hook(lam: Partition, m: int, jobs: int = 1) -> DecompositionTable:
    """Decomposition of ``lam`` tensored with the hook of leg ``m``."""
    n = sum(lam)
    if not 0 <= m < n:
        raise RangeError(f"need 0 <= m < n, got m={m}, n={n}")
    return _decompose(lam, m, with_hook=True, jobs=jobs)


def decompose_tensor_exterior(lam: Partition, m: int, jobs: int = 1) -> DecompositionTable:
    """Decomposition of ``lam`` tensored with the m-th exterior power of the
    defining module."""
    n = sum(lam)
    if not 0 <= m <= n:
        raise RangeError(f"need 0 <= m <= n, got m={m}, n={n}")
    return _decompose(lam, m, with_hook=False, jobs=jobs)


def hook_hook_multiplicity(e: int, f: int, m: int, n: int) -> int:
    """Closed form for a hook tensor hook: multiplicity of the hook with leg
    ``f`` in the product of the hook with leg ``e`` and the hook with leg
    ``m``, all of degree ``n``.  Always 0 or 1, supported on the leg interval
    fixed by ``e`` and ``f``."""
    if not (0 <= 2 * e <= n and 2 * f <= n and e <= f):
        raise RangeError(f"need 2e <= n, 2f <= n, e <= f: e={e}, f={f}, n={n}")
    if not 0 <= m < n:
        raise RangeError(f"need 0 <= m < n, got m={m}, n={n}")
    i = m - (f - e)
    if i < 0:
        return 0
    if e + f < n:
        return 1 if i <= 2 * e else 0
    return 1 if i <= n - 2 else 0
