"""Pictures between skew diagrams and their insertion/deletion calculus.

A picture is a bijection between two skew diagrams that carries the northwest
order to the southwest order in both directions.  Composing with a reading of
the target turns a picture into a tableau satisfying the Remmel-Whitney
adjacency conditions, and that correspondence is one-to-one; enumeration
searches those tableaux directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Mapping

from .errors import InvalidCocornerError, NotAddableError, NotRemmelWhitneyError
from .shapes import (
    Cell,
    SkewShape,
    add_cell,
    format_cell,
    icc_bar,
    inner_cocorners,
    inner_corners,
    leq_sw,
    lt_sw,
    remove_cell,
    skew,
)
from .tableaux import (
    BumpRoute,
    PartialTableau,
    bump_route,
    carry_out_delete,
    carry_out_insert,
    delete_route,
    render_grid,
    row_reading,
)


class Picture:
    """Bijection of skew diagrams, order-preserving northwest-to-southwest
    both ways."""

    __slots__ = ("source", "target", "_map", "_inv")

    def __init__(self, source: SkewShape, target: SkewShape, mapping: Mapping[Cell, Cell]):
        self.source = source
        self.target = target
        self._map = dict(mapping)
        self._inv = _validate_picture(source, target, self._map)

    def __getitem__(self, cell: Cell) -> Cell:
        return self._map[cell]

    def inverse(self, cell: Cell) -> Cell:
        return self._inv[cell]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.source.cells())

    def pairs(self) -> list[tuple[Cell, Cell]]:
        """(source cell, target cell) pairs in source reading order."""
        return [(cell, self._map[cell]) for cell in self.source.cells()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Picture):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._map == other._map
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(self.pairs())))

    def __repr__(self) -> str:
        return f"Picture({self.source} -> {self.target}, {len(self)} cells)"


def _validate_picture(
    source: SkewShape, target: SkewShape, mapping: dict[Cell, Cell]
) -> dict[Cell, Cell]:
    # sizes first: a shape can name far more cells than any input could fill
    if len(mapping) != source.size or mapping.keys() != (src := _shape_table(source))[0]:
        raise ValueError("mapping keys must be exactly the source cells")
    inv: dict[Cell, Cell] = {}
    for x, y in mapping.items():
        if y in inv:
            raise ValueError(f"mapping is not injective at {format_cell(y)}")
        inv[y] = x
    if len(inv) != target.size or inv.keys() != (tgt := _shape_table(target))[0]:
        raise ValueError("mapping values must be exactly the target cells")
    # A skew diagram is convex: every cell between two of its cells in the
    # northwest order lies in it, so that order is generated by right and down
    # neighbour pairs.  The southwest order is transitive, so checking
    # neighbour pairs both ways accepts exactly the order-preserving maps.
    for forward, pairs, what in ((mapping, src[1], "not"), (inv, tgt[1], "inverse not")):
        bad = [(a, b) for a, b in pairs if not leq_sw(forward[a], forward[b])]
        if bad:
            # name the first failing pair in the mapping's own order, right neighbour first
            rank = {cell: k for k, cell in enumerate(forward)}
            a, b = min(bad, key=lambda pair: (rank[pair[0]], pair[1][0]))
            raise ValueError(f"{what} order-preserving at {a}, {b}")
    return inv


@lru_cache(maxsize=64)
def _shape_table(shape: SkewShape) -> tuple[frozenset[Cell], tuple[tuple[Cell, Cell], ...]]:
    """The cell set and the right/down neighbour pairs of ``shape``; bounded,
    since most source shapes serve one overlap only."""
    order = shape.cells()
    cells = frozenset(order)
    pairs = tuple(
        ((i, j), neighbour)
        for i, j in order
        for neighbour in ((i, j + 1), (i + 1, j))
        if neighbour in cells
    )
    return cells, pairs


def picture_to_rw(p: Picture, reading: Mapping[Cell, int]) -> PartialTableau:
    """Compose a picture with a reading of its target.

    ``reading`` must be an injective southwest-to-integer order map defined on
    every target cell (not checked here); the composite is the corresponding
    Remmel-Whitney tableau on the source shape.
    """
    return PartialTableau(p.source, {x: reading[p[x]] for x in p.source.cells()})


def rw_to_picture(
    t: PartialTableau, reading: Mapping[Cell, int], target: SkewShape
) -> Picture:
    """Rebuild the picture encoded by a Remmel-Whitney tableau of type ``reading``.

    Checks that the tableau's image matches the reading's, then inverts the
    composition; the result must be a picture, so horizontally/vertically
    adjacent target cells pull back to southwest-comparable source cells.
    """
    cells = target.cells()
    if set(reading) != set(cells):
        raise ValueError("reading must be defined on exactly the target cells")
    for k, x in enumerate(cells):
        for y in cells[k + 1:]:
            if leq_sw(x, y) and reading[x] >= reading[y]:
                raise ValueError(f"reading is not an order map at {x}, {y}")
            if leq_sw(y, x) and reading[y] >= reading[x]:
                raise ValueError(f"reading is not an order map at {y}, {x}")
    if t.image() != frozenset(reading.values()):
        raise NotRemmelWhitneyError("tableau image differs from the reading image")
    inv_reading = {value: cell for cell, value in reading.items()}
    try:
        return Picture(t.shape, target, {x: inv_reading[v] for x, v in t.items()})
    except ValueError as exc:
        raise NotRemmelWhitneyError(f"tableau is not Remmel-Whitney: {exc}") from None


def enumerate_pictures(source: SkewShape, target: SkewShape) -> list[Picture]:
    """All pictures from ``source`` onto ``target``, one validated per search leaf."""
    leaves = _search(source, target)
    if not leaves:
        return []
    src, tgt = source.cells(), target.cells()
    return [Picture(source, target, dict(zip(src, map(tgt.__getitem__, v)))) for v in leaves]


@lru_cache(maxsize=None)
def _target_neighbours(target: SkewShape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left and upper neighbour ids (-1: none) per target cell; one lam/zeta serves every mu."""
    tgt = target.cells()
    tgt_id = {cell: k for k, cell in enumerate(tgt)}
    t_left = tuple(tgt_id.get((r, c - 1), -1) for r, c in tgt)
    return t_left, tuple(tgt_id.get((r - 1, c), -1) for r, c in tgt)


def _search(source: SkewShape, target: SkewShape) -> list[tuple[int, ...]]:
    """Per picture from ``source`` onto ``target``, the target ids of the source cells.

    Backtracks over Remmel-Whitney tableaux for the target's row reading:
    source cells are filled in reading order with unused reading numbers,
    pruning on the tableau conditions and on the adjacency conditions as soon
    as both endpoints of a constraint are placed.  The result is ordered
    lexicographically by the sequence of chosen numbers, so it is
    deterministic.  A value's left and upper target neighbours must sit
    southwest of its cell (a required successor waits for it, so none is
    placed yet); cells fill bottom row first, so every placed cell is in a
    lower row or further left, and only the columns need comparing.
    """
    n = source.size
    if n != target.size:
        return []
    src = source.cells()
    index = {cell: k for k, cell in enumerate(src)}
    # missing neighbours read sentinel slots: chosen[-1] = -1 on the left,
    # chosen[-2] = n below, and placed[-1] = 0, a column every test passes
    left = [index.get((r, c - 1), -1) for r, c in src]
    below = [index.get((r + 1, c), -2) for r, c in src]
    t_left, t_up = _target_neighbours(target)
    column = [c for _, c in src]
    # placed[v]: the column of v's source cell, or `unused`, which fails every
    # column test, so an unplaced predecessor stops v as well
    unused = max(column, default=0) + 1
    placed = [unused] * n + [0]
    chosen = [0] * n + [n, -1]
    leaves: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == n:
            leaves.append(tuple(chosen[:n]))
            return
        c = column[k]
        for v in range(chosen[left[k]] + 1, chosen[below[k]]):
            if placed[v] == unused and placed[t_left[v]] <= c and placed[t_up[v]] <= c:
                placed[v] = c
                chosen[k] = v
                extend(k + 1)
                placed[v] = unused

    extend(0)
    return leaves


def picture_bump_destination(p: Picture, z: Cell) -> tuple[Cell, BumpRoute]:
    """Bumping route and destination for inserting target cell ``z``.

    Mirrors tableau insertion through any reading without materialising one:
    within each source row the images are southwest-increasing left to right,
    so the bumped cell is the right-most one whose image lies strictly
    southwest-below the carried target cell.
    """
    if z not in icc_bar(p.target):
        raise InvalidCocornerError(
            f"{format_cell(z)} is not an inner or extreme cocorner of {p.target}"
        )
    route = bump_route(p.source, p._map.__getitem__, z, lt_sw)
    return route.destination, route


def picture_insert(p: Picture, z: Cell) -> Picture:
    """Row insertion at an addable cocorner ``z``; both shapes lose an inner cell."""
    _, route = picture_bump_destination(p, z)
    if 0 in z:
        raise NotAddableError(f"{format_cell(z)} is not addable: the cocorner is extreme")
    new_source, mapping = carry_out_insert(p.source, p._map, route, format_cell(z))
    new_target = skew(p.target.outer, remove_cell(p.target.inner, z))
    return Picture(new_source, new_target, mapping)


def picture_delete(p: Picture, v: Cell) -> tuple[Picture, Cell]:
    """Inverse of :func:`picture_insert`: vacate source inner corner ``v``.

    Returns the shrunken picture together with the target inner corner that
    the deletion pushes out: the :func:`delete_route` from ``v`` through the
    map, whose images increase along each source row in the southwest order.
    """
    new_source, mapping, w = carry_out_delete(p.source, p._map, v, lt_sw)
    new_target = skew(p.target.outer, add_cell(p.target.inner, w))
    return Picture(new_source, new_target, mapping), w


def addable_cocorners(p: Picture) -> list[Cell]:
    """Target inner cocorners whose bump destination is a source inner cocorner."""
    out = []
    source_icc = set(inner_cocorners(p.source))
    for z in inner_cocorners(p.target):
        destination, _ = picture_bump_destination(p, z)
        if destination in source_icc:
            out.append(z)
    return out


def removable_corners(p: Picture) -> list[Cell]:
    """Source inner corners at which :func:`picture_delete` succeeds."""
    entry = p._map.__getitem__
    return [v for v in inner_corners(p.source) if delete_route(p.source, entry, v, lt_sw)]


def picture_to_json(p: Picture) -> dict:
    return {
        "source": {"outer": list(p.source.outer), "inner": list(p.source.inner)},
        "target": {"outer": list(p.target.outer), "inner": list(p.target.inner)},
        "map": [[x[0], x[1], y[0], y[1]] for x, y in p.pairs()],
    }


def picture_from_json(obj: dict) -> Picture:
    source = skew(obj["source"]["outer"], obj["source"]["inner"])
    target = skew(obj["target"]["outer"], obj["target"]["inner"])
    mapping = {
        (int(r), int(c)): (int(r2), int(c2)) for r, c, r2, c2 in obj["map"]
    }
    return Picture(source, target, mapping)


def _labels(count: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if count <= len(alphabet):
        return list(alphabet[:count])
    return [str(k + 1) for k in range(count)]


def render_picture(p: Picture, route: BumpRoute | None = None) -> str:
    """Source and target grids side by side with matching labels.

    Cells paired by the picture carry the same letter, lowercase on the
    source, uppercase on the target, ordered by the target's reading order.
    A bumping route (source cells) is starred.
    """
    reading = row_reading(p.target)
    labels = _labels(len(p))
    marked = set(route.cells) if route is not None else set()
    width = max((len(s) for s in labels), default=1)
    if marked:
        width += 1

    src_labels = {x: labels[reading[p[x]] - 1] for x in p.source.cells()}
    tgt_labels = {y: labels[reading[y] - 1].upper() for y in p.target.cells()}
    # the route lives on the source diagram only
    left_lines = render_grid(p.source, src_labels, marked, width)
    right_lines = render_grid(p.target, tgt_labels, set(), width)
    height = max(len(left_lines), len(right_lines))
    left_width = max((len(line) for line in left_lines), default=0)
    lines = []
    for k in range(height):
        left = left_lines[k] if k < len(left_lines) else ""
        right = right_lines[k] if k < len(right_lines) else ""
        arrow = "  ->  " if k == height // 2 else "      "
        lines.append((left.ljust(left_width) + arrow + right).rstrip())
    return "\n".join(lines)
