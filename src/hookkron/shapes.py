"""Partitions, skew shapes, and their corner/cocorner combinatorics.

Partitions are plain tuples of weakly decreasing positive ints; cells are
1-based ``(row, col)`` pairs.  Two boundary cells carry a single zero
coordinate: ``(length, 0)`` sits just left of the bottom row and
``(0, outer[0])`` just above the end of the first row.  Everything here is
immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import NotContainedError, RangeError, SizeMismatchError

Partition = tuple[int, ...]
Cell = tuple[int, int]


def partition(parts: Iterable[int]) -> Partition:
    """Canonical partition from ``parts``: trailing zeros stripped, order checked,
    and a part that is not an ``int`` (``True`` included) refused, never coerced."""
    p = _ints(parts, "an integer part")
    while p and p[-1] == 0:
        p = p[:-1]
    prev = None
    for x in p:
        if x <= 0:
            raise ValueError(f"partition parts must be positive: {p}")
        if prev is not None and x > prev:
            raise ValueError(f"partition parts must be weakly decreasing: {p}")
        prev = x
    return p


def label_size(*labels: Iterable[int], m: int | None = None, exterior: bool = False) -> int:
    """The n that every label partitions and, when ``m`` is given, the leg rule:
    an ``int`` (``True`` refused) with 0 <= m < n for a hook, 0 <= m <= n for an
    exterior power.  Only sums are read, so both rules are checked before any
    label's form."""
    n = sum(labels[0])
    for p in labels[1:]:
        if sum(p) != n:
            raise SizeMismatchError(
                f"labels must partition the same n: {', '.join(map(str, labels))}"
            )
    if type(n) is not int:
        partition(labels[0])  # some part is not an int, and the form rule names it
    if m is not None:
        _ints((m,), "an integer leg m")  # True and 1.0 would pass the range check as 1
        if not (0 <= m <= n if exterior else 0 <= m < n):
            raise RangeError(f"need 0 <= m {'<=' if exterior else '<'} n, got m={m}, n={n}")
    return n


def canonical_labels(
    *labels: Iterable[int], m: int | None = None, exterior: bool = False
) -> tuple[Partition, ...]:
    """The rules of :func:`label_size`, then each label's canonical form: the one
    check at a public entry point; the paths behind it check nothing again."""
    label_size(*labels, m=m, exterior=exterior)
    return tuple(map(partition, labels))


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; "" and "0" both denote the empty partition."""
    text = text.strip()
    return partition(int(piece) for piece in text.split(",")) if text else ()


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def parse_cell(text: str) -> Cell:
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    try:
        row, col = map(int, inner.split(","))
    except ValueError:
        raise ValueError(f"cell must be two comma-separated integers r,c, got {text!r}") from None
    return (row, col)


def _ints(values: Iterable, what: str = "a JSON integer") -> tuple[int, ...]:
    """``values`` as a tuple, refusing any value but an ``int`` (``True``
    included) as ``what``, so that no input is truncated or coerced on its way in."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"expected {what}, got {x!r:.40}")
    return out


def format_cell(c: Cell) -> str:
    return f"({c[0]},{c[1]})"


def conjugate(p: Iterable[int]) -> Partition:
    """Flip the diagram across the main diagonal (column lengths as rows)."""
    return _conjugate(tuple(p))


@lru_cache(maxsize=None)
def _conjugate(p: Partition) -> Partition:
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1)) if p else ()


def transpose_cell(c: Cell) -> Cell:
    return (c[1], c[0])


def contains(outer: Partition, inner: Partition) -> bool:
    """True when the diagram of ``inner`` sits inside the diagram of ``outer``."""
    return len(inner) <= len(outer) and all(z <= y for z, y in zip(inner, outer))


def leq_nw(a: Cell, b: Cell) -> bool:
    """Northwest order: ``a`` weakly above and weakly left of ``b``."""
    return a[0] <= b[0] and a[1] <= b[1]


def leq_sw(a: Cell, b: Cell) -> bool:
    """Southwest order: ``a`` weakly below and weakly left of ``b``."""
    return b[0] <= a[0] and a[1] <= b[1]


def lt_sw(a: Cell, b: Cell) -> bool:
    """Strict southwest order: ``a`` below-left of ``b`` and distinct from it."""
    return a != b and b[0] <= a[0] and a[1] <= b[1]


def corners(p: Partition) -> list[Cell]:
    """Cells whose removal leaves a partition diagram, one per row, top row first."""
    last = len(p)
    return [
        (i, p[i - 1])
        for i in range(1, last + 1)
        if p[i - 1] > (p[i] if i < last else 0)
    ]


def cocorners(p: Partition) -> list[Cell]:
    """Cells outside the diagram whose addition leaves a partition diagram, top row first."""
    out = [
        (i, p[i - 1] + 1)
        for i in range(1, len(p) + 1)
        if i == 1 or p[i - 2] > p[i - 1]
    ]
    out.append((len(p) + 1, 1))
    return out


def remove_cell(p: Partition, c: Cell) -> Partition:
    """``p`` without corner ``c``: the cell ending row i, above a shorter row."""
    i, j = c
    if not (0 < i <= len(p) and p[i - 1] == j and (i == len(p) or p[i] < j)):
        raise ValueError(f"{format_cell(c)} is not a corner of {p}")
    return p[:-1] if j == 1 else p[: i - 1] + (j - 1,) + p[i:]


def add_cell(p: Partition, c: Cell) -> Partition:
    """``p`` with cocorner ``c``: the cell after row i (or a new last row), below a longer row."""
    i, j = c
    row = p[i - 1] if 0 < i <= len(p) else 0
    if not (0 < i <= len(p) + 1 and j == row + 1 and (i == 1 or p[i - 2] >= j)):
        raise ValueError(f"{format_cell(c)} is not a cocorner of {p}")
    return p[: i - 1] + (j,) + p[i:]


@dataclass(frozen=True)
class SkewShape:
    """Nested partition pair outer/inner; the diagram is their difference.

    The length is the number of parts of ``outer``, so trailing rows of the
    diagram may be empty when the two partitions share a part.
    """

    outer: Partition
    inner: Partition

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def length(self) -> int:
        return len(self.outer)

    def inner_len(self, i: int) -> int:
        return self.inner[i - 1] if i <= len(self.inner) else 0

    def row_bounds(self, i: int) -> tuple[int, int]:
        """Row ``i`` occupies columns ``inner+1 .. outer`` (inclusive)."""
        return self.inner_len(i), self.outer[i - 1]

    def cells(self) -> tuple[Cell, ...]:
        """All cells in reading order: bottom row first, left to right."""
        return _reading_cells(self)

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        if not 1 <= i <= self.length:
            return False
        lo, hi = self.row_bounds(i)
        return lo < j <= hi

    def __str__(self) -> str:
        return f"({format_partition(self.outer)})/({format_partition(self.inner)})"


@lru_cache(maxsize=1024)
def _reading_cells(shape: SkewShape) -> tuple[Cell, ...]:
    outer, inner = shape.outer, shape.inner
    rows = len(inner)
    return tuple([
        (i, j)
        for i in range(len(outer), 0, -1)
        for j in range((inner[i - 1] if i <= rows else 0) + 1, outer[i - 1] + 1)
    ])


@lru_cache(maxsize=64)
def _shape_table(shape: SkewShape) -> tuple[frozenset[Cell], tuple[tuple[Cell, Cell], ...]]:
    """The cell set and the right/down neighbour pairs of ``shape``, in reading
    order, right first; bounded, as verify searches one overlap zeta for every
    lam in turn, so each source mu'/zeta' recurs while the memo still holds it.  A
    skew diagram is convex (a cell between two of its cells in the northwest
    order lies in it), so these pairs generate that order, and a map into the
    southwest order or ``<``, both transitive, keeps it if it keeps them."""
    order = shape.cells()
    outer = shape.outer
    inner = shape.inner + (0,) * (len(outer) - len(shape.inner))
    last = len(outer)
    pairs = []
    for i, j in order:  # each neighbour read off the row bounds, not looked up
        if j < outer[i - 1]:
            pairs.append(((i, j), (i, j + 1)))
        if i < last and inner[i] < j <= outer[i]:
            pairs.append(((i, j), (i + 1, j)))
    return frozenset(order), tuple(pairs)


def skew(outer: Iterable[int], inner: Iterable[int]) -> SkewShape:
    """Build the skew shape outer/inner, or raise when not nested."""
    out = partition(outer)
    inn = partition(inner)
    if not contains(out, inn):
        raise NotContainedError(f"{inn} is not contained in {out}")
    return SkewShape(out, inn)


def transpose_shape(s: SkewShape) -> SkewShape:
    return SkewShape(conjugate(s.outer), conjugate(s.inner))


def inner_corners(s: SkewShape) -> list[Cell]:
    """Cells of the diagram that are cocorners of the inner partition."""
    outer = s.outer
    rows = len(outer)
    return [(i, j) for i, j in _sorted_cocorners(s.inner) if i <= rows and j <= outer[i - 1]]


def inner_cocorners(s: SkewShape) -> list[Cell]:
    """Corners of the inner partition (cells just inside the inner boundary)."""
    return list(_sorted_corners(s.inner))


@lru_cache(maxsize=None)
def _sorted_corners(p: Partition) -> tuple[Cell, ...]:
    return tuple(reversed(corners(p)))


@lru_cache(maxsize=None)
def _sorted_cocorners(p: Partition) -> tuple[Cell, ...]:
    return tuple(reversed(cocorners(p)))


def icc_bar(s: SkewShape) -> list[Cell]:
    """Inner cocorners in southwest order, after ``(length, 0)`` and before
    ``(0, outer[0])`` when those extreme cocorners border the diagram."""
    last = s.length
    head = [(last, 0)] if last and (last, 1) in s else []
    tail = [(0, s.outer[0])] if s.outer and (1, s.outer[0]) in s else []
    return head + inner_cocorners(s) + tail


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order, (n) first.

    This is the fixed iteration order used everywhere an output is sorted
    "by partition".
    """
    _ints((n,), "an integer degree")
    if n < 0:
        raise ValueError("n must be non-negative")
    return partitions_inside((n,) * n, n)


@lru_cache(maxsize=None)
def partitions_inside(bound: Partition, k: int) -> tuple[Partition, ...]:
    """The partitions of ``k`` inside the tuple ``bound``, in the order of
    :func:`partitions`: the one memoised enumerator for partitions, overlaps
    and the LR sum.  The rest after a first part ``first`` has at most
    ``k - first`` parts, so its bound is cut there and equal rests share an entry."""
    if k == 0:
        return ((),)
    if not bound:
        return ()
    return tuple(
        (first,) + rest
        for first in range(min(k, bound[0]), 0, -1)
        for rest in partitions_inside(
            tuple(min(first, b) for b in bound[1 : k - first + 1]), k - first
        )
    )


def hook_partition(n: int, m: int) -> Partition:
    """The hook with arm ``n - m`` and leg ``m``."""
    label_size(_ints((n,), "an integer degree"), m=m)  # the leg rule for degree n
    return partition((n - m,) + (1,) * m)
