"""Partial tableaux on skew shapes and backward row insertion/deletion.

A partial tableau is an injective filling by distinct positive integers that
increases left to right along rows and top to bottom along columns.  Insertion
works upward from the bottom row: the inserted value bumps the right-most
smaller entry of the row, the bumped entry moves one row up, and the procedure
stops at the first row it cannot enter, vacating a cell on the inner boundary
(the bumping destination).  Deletion is the exact inverse.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Mapping, NamedTuple, TypeVar

from .errors import (
    DuplicateValueError,
    NotAddableError,
    NotInnerCornerError,
    NotRemovableError,
    RangeError,
)
from .shapes import (
    Cell,
    SkewShape,
    _ints,
    _shape_table,
    add_cell,
    format_cell,
    inner_corners,
    remove_cell,
    skew,
)

T = TypeVar("T")


class PartialTableau:
    """Immutable injective order-preserving filling of a skew shape."""

    __slots__ = ("shape", "_entries")

    def __init__(self, shape: SkewShape, entries: Mapping[Cell, int]):
        entries = dict(zip(entries, _ints(entries.values(), "an integer entry")))
        _validate(shape, entries)
        self.shape = shape
        self._entries = entries

    def __getitem__(self, cell: Cell) -> int:
        return self._entries[cell]

    def get(self, cell: Cell) -> int | None:
        return self._entries.get(cell)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.shape.cells())

    def image(self) -> frozenset[int]:
        return frozenset(self._entries.values())

    def items(self) -> list[tuple[Cell, int]]:
        """Entries in reading order (bottom row first)."""
        return [(cell, self._entries[cell]) for cell in self.shape.cells()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialTableau):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.shape, tuple(self.items())))

    def __repr__(self) -> str:
        return f"PartialTableau({self.shape}, {dict(self.items())})"


def _validate(shape: SkewShape, entries: dict[Cell, int]) -> None:
    # sizes first: a shape can name far more cells than any input could fill
    if len(entries) != shape.size or entries.keys() != (table := _shape_table(shape))[0]:
        raise ValueError(f"entries must fill {shape} exactly")
    seen: set[int] = set()
    for v in entries.values():
        if v <= 0:
            raise ValueError(f"entries must be positive, got {v}")
        if v in seen:
            raise DuplicateValueError(f"value {v} appears twice")
        seen.add(v)
    for (i, j), neighbour in table[1]:
        if entries[(i, j)] >= entries[neighbour]:
            if neighbour == (i, j + 1):
                raise ValueError(f"row {i} is not increasing at column {j}")
            raise ValueError(f"column {j} is not increasing at row {i}")


def row_reading(shape: SkewShape) -> dict[Cell, int]:
    """Number the cells 1..size in reading order: bottom row first, then upward.

    The result is an injective order map for the southwest order, so it can
    serve as a reading of a picture's target shape.  It is generally *not* a
    partial tableau (columns decrease downward).
    """
    return {cell: k + 1 for k, cell in enumerate(shape.cells())}


class BumpRoute(NamedTuple):
    """One cell per visited row, bottom-up; the last cell is the destination.

    ``displaced[k]`` is what comes to rest in ``cells[k]`` when the insertion
    is carried out; ``displaced[0]`` is the inserted value itself.  For
    picture-level bumping the displaced entries are target cells instead of
    integers.
    """

    cells: tuple[Cell, ...]
    displaced: tuple

    @property
    def destination(self) -> Cell:
        return self.cells[-1]


def bump_destination(t: PartialTableau, a: int) -> BumpRoute:
    """Trace the insertion of ``a`` without modifying the tableau: the
    :func:`bump_route` of ``a`` through the entries, compared by ``<``."""
    if a <= 0:
        raise ValueError(f"inserted value must be positive, got {a}")
    if a in t.image():
        raise DuplicateValueError(f"value {a} is already present")
    return bump_route(t.shape, t._entries.__getitem__, a, operator.lt)


def bump_route(
    shape: SkewShape, entry: Callable[[Cell], T], carry: T, lt: Callable[[T, T], bool]
) -> BumpRoute:
    """The bottom-up row loop shared by tableau and picture insertion.

    ``entry`` reads the filling of ``shape``, which increases along rows in
    the strict order ``lt``.  In each row the carried value replaces the
    right-most entry ``lt`` it; a row with no such entry stops the route just
    left of it, and falling off the top stops at ``(0, outer[0])``; a shape
    with no rows has no such cell and raises :class:`RangeError`.
    """
    cells: list[Cell] = []
    landed: list[T] = []
    outer, inner = shape.outer, shape.inner
    for i in range(len(outer), 0, -1):
        lo, hi = inner[i - 1] if i <= len(inner) else 0, outer[i - 1]
        landed.append(carry)
        for j in range(hi, lo, -1):
            if lt(bumped := entry((i, j)), carry):
                break
        else:
            cells.append((i, lo))
            return BumpRoute(tuple(cells), tuple(landed))
        cells.append((i, j))
        carry = bumped
    if not outer:
        raise RangeError("cannot bump into a shape with no rows")
    cells.append((0, outer[0]))
    landed.append(carry)
    return BumpRoute(tuple(cells), tuple(landed))


def insert(t: PartialTableau, a: int) -> PartialTableau:
    """Backward row insertion of ``a``; grows the tableau at an inner cocorner."""
    route = bump_destination(t, a)
    return PartialTableau(*carry_out_insert(t.shape, t._entries, route, str(a)))


def carry_out_insert(
    shape: SkewShape, entries: Mapping[Cell, T], route: BumpRoute, inserted: str
) -> tuple[SkewShape, dict[Cell, T]]:
    """The insertion step shared by tableaux and pictures: the new shape and
    filling after applying ``route``, whose destination leaves the inner shape;
    ``inserted`` names what is inserted in the error message."""
    if 0 in route.destination:
        raise NotAddableError(
            f"{inserted} is not addable: destination "
            f"{format_cell(route.destination)} is extreme"
        )
    entries = dict(entries)
    entries.update(zip(route.cells, route.displaced))
    # no skew() here, in carry_out_delete or in picture_insert/_delete: remove_cell/add_cell
    # return partitions and only a diagram cell joins the inner shape, so it stays nested
    return SkewShape(shape.outer, remove_cell(shape.inner, route.destination)), entries


def delete(t: PartialTableau, v: Cell) -> tuple[PartialTableau, int]:
    """Inverse of :func:`insert`: vacate inner corner ``v`` and emit the value
    that its :func:`delete_route`, compared by ``<``, pushes out."""
    shape, entries, out = carry_out_delete(t.shape, t._entries, v, operator.lt)
    return PartialTableau(shape, entries), out


def carry_out_delete(
    shape: SkewShape, entries: Mapping[Cell, T], v: Cell, lt: Callable[[T, T], bool]
) -> tuple[SkewShape, dict[Cell, T], T]:
    """The deletion step shared by tableaux and pictures: the new shape and
    filling after the :func:`delete_route` from inner corner ``v``, and the
    entry that it pushes out of the bottom row."""
    if v not in inner_corners(shape):
        raise NotInnerCornerError(f"{format_cell(v)} is not an inner corner of {shape}")
    route = delete_route(shape, entries.__getitem__, v, lt)
    if route is None:
        raise NotRemovableError(f"{format_cell(v)} is not removable from {shape}")
    return apply_delete(shape, entries, route)


def apply_delete(
    shape: SkewShape, entries: Mapping[Cell, T], route: tuple[tuple[Cell, ...], T]
) -> tuple[SkewShape, dict[Cell, T], T]:
    """:func:`carry_out_delete` along ``route``, a :func:`delete_route` taken as found."""
    cells, out = route
    moved = dict(entries)
    moved.update(zip(cells[1:], [entries[cell] for cell in cells[:-1]]))
    del moved[cells[0]]
    return SkewShape(shape.outer, add_cell(shape.inner, cells[0])), moved, out


def delete_route(
    shape: SkewShape, entry: Callable[[Cell], T], v: Cell, lt: Callable[[T, T], bool]
) -> tuple[tuple[Cell, ...], T] | None:
    """The top-down row loop shared by tableau and picture deletion.

    Starting from inner corner ``v`` of ``shape``, the carried entry drops
    into the left-most entry of each lower row that it is ``lt``.  Returns the
    visited cells, ``v`` first, and the entry pushed out of the bottom row, or
    None when some row has no such entry.
    """
    cells = [v]
    carry = entry(v)
    outer, inner = shape.outer, shape.inner
    for i in range(v[0] + 1, len(outer) + 1):
        lo = inner[i - 1] if i <= len(inner) else 0
        for j in range(lo + 1, outer[i - 1] + 1):
            if lt(carry, entry((i, j))):
                break
        else:
            return None
        cells.append((i, j))
        carry = entry((i, j))
    return tuple(cells), carry


def tableau_from_json(obj: dict) -> PartialTableau:
    shape = skew(_ints(obj["outer"]), _ints(obj["inner"]))
    entries = {(r, c): v for r, c, v in map(_ints, obj["entries"])}
    return PartialTableau(shape, entries)


def render_tableau(t: PartialTableau, route: BumpRoute | None = None) -> str:
    """ASCII grid, one line per row; inner cells blank, route cells starred."""
    marked = set(route.cells) if route is not None else set()
    width = max((len(str(v)) for v in t.image()), default=1)
    if marked:
        width += 1
    labels = {cell: str(v) for cell, v in t.items()}
    return "\n".join(render_grid(t.shape, labels, marked, width))


def render_grid(
    shape: SkewShape, label_of: Mapping[Cell, str], stars: set[Cell], width: int
) -> list[str]:
    """One line per row of ``shape``: each cell's label in a box ``width``
    wide, inner cells blank, starred cells marked with ``*``."""
    lines = []
    for i in range(1, shape.length + 1):
        _, hi = shape.row_bounds(i)
        boxes = []
        for j in range(1, hi + 1):
            cell = (i, j)
            if cell in label_of:
                text = label_of[cell]
                if cell in stars:
                    text += "*"
                boxes.append(f"[{text.rjust(width)}]")
            elif cell in stars:
                # an inner destination cell: show where the route stops
                boxes.append(f"[{'*'.rjust(width)}]")
            else:
                boxes.append(" " * (width + 2))
        lines.append("".join(boxes).rstrip())
    return lines
