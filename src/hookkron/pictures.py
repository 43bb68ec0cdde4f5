"""Pictures between skew diagrams and their insertion/deletion calculus.

A picture is a bijection between two skew diagrams that carries the northwest
order to the southwest order in both directions.  Composing with a reading of
the target turns a picture into a tableau satisfying the Remmel-Whitney
adjacency conditions, and that correspondence is one-to-one; enumeration
searches those tableaux directly.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import (
    InvalidCocornerError,
    NotAddableError,
    NotInnerCornerError,
    NotRemmelWhitneyError,
    NotRemovableError,
)
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
from .tableaux import BumpRoute, PartialTableau, bump_route, delete_route, render_grid, row_reading


class Picture:
    """Bijection of skew diagrams, order-preserving northwest-to-southwest
    both ways."""

    __slots__ = ("source", "target", "_map", "_inv", "_hash")

    def __init__(self, source: SkewShape, target: SkewShape, mapping: Mapping[Cell, Cell]):
        self.source = source
        self.target = target
        self._map = dict(mapping)
        self._inv = _validate_picture(source, target, self._map)
        self._hash = None

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
        if self._hash is None:
            self._hash = hash((self.source, self.target, tuple(self.pairs())))
        return self._hash

    def __repr__(self) -> str:
        return f"Picture({self.source} -> {self.target}, {len(self)} cells)"


def _validate_picture(
    source: SkewShape, target: SkewShape, mapping: dict[Cell, Cell]
) -> dict[Cell, Cell]:
    if set(mapping) != set(source.cells()):
        raise ValueError("mapping keys must be exactly the source cells")
    inv: dict[Cell, Cell] = {}
    for x, y in mapping.items():
        if y in inv:
            raise ValueError(f"mapping is not injective at {format_cell(y)}")
        inv[y] = x
    if set(inv) != set(target.cells()):
        raise ValueError("mapping values must be exactly the target cells")
    # A skew diagram is convex: every cell between two of its cells in the
    # northwest order lies in it, so that order is generated by right and down
    # neighbour pairs.  The southwest order is transitive, so checking
    # neighbour pairs both ways accepts exactly the order-preserving maps.
    for forward, what in ((mapping, "not"), (inv, "inverse not")):
        for (i, j), image in forward.items():
            for neighbour in ((i, j + 1), (i + 1, j)):
                other = forward.get(neighbour)
                if other is not None and not leq_sw(image, other):
                    raise ValueError(f"{what} order-preserving at {(i, j)}, {neighbour}")
    return inv


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
            if leq_sw(x, y) and x != y and reading[x] >= reading[y]:
                raise ValueError(f"reading is not an order map at {x}, {y}")
            if leq_sw(y, x) and x != y and reading[y] >= reading[x]:
                raise ValueError(f"reading is not an order map at {y}, {x}")
    if t.image() != frozenset(reading.values()):
        raise NotRemmelWhitneyError("tableau image differs from the reading image")
    inv_reading = {value: cell for cell, value in reading.items()}
    try:
        return Picture(t.shape, target, {x: inv_reading[v] for x, v in t.items()})
    except ValueError as exc:
        raise NotRemmelWhitneyError(f"tableau is not Remmel-Whitney: {exc}") from None


def enumerate_pictures(source: SkewShape, target: SkewShape) -> list[Picture]:
    """All pictures from ``source`` onto ``target``.

    Backtracks over Remmel-Whitney tableaux for the target's row reading:
    source cells are filled in reading order with unused reading numbers,
    pruning on the tableau conditions and on the adjacency conditions as soon
    as both endpoints of a constraint are placed.  The result is ordered
    lexicographically by the sequence of chosen numbers, so it is
    deterministic.
    """
    n = source.size
    if n != target.size:
        return []
    if n == 0:
        return [Picture(source, target, {})]
    src = source.cells()
    tgt = target.cells()
    index = {cell: k for k, cell in enumerate(src)}
    left = [index.get((r, c - 1), -1) for r, c in src]
    below = [index.get((r + 1, c), -1) for r, c in src]
    tgt_id = {cell: k for k, cell in enumerate(tgt)}
    # constraint (a, b): cell of value a must be southwest-below-left of b's
    must_precede: list[list[int]] = [[] for _ in range(n)]
    must_follow: list[list[int]] = [[] for _ in range(n)]
    for (i, j), a in tgt_id.items():
        for neighbour in ((i, j + 1), (i + 1, j)):
            b = tgt_id.get(neighbour)
            if b is not None:
                must_precede[b].append(a)
                must_follow[a].append(b)
    pos_of: list[Cell | None] = [None] * n
    chosen = [0] * n
    results: list[Picture] = []

    def extend(k: int) -> None:
        if k == n:
            results.append(
                Picture(source, target, {src[i]: tgt[chosen[i]] for i in range(n)})
            )
            return
        x = src[k]
        lo = chosen[left[k]] if left[k] >= 0 else -1
        hi = chosen[below[k]] if below[k] >= 0 else n
        for v in range(lo + 1, hi):
            if pos_of[v] is not None:
                continue
            # a value already placed that must come later kills the branch,
            # as does a required predecessor that is missing or misplaced
            if any(pos_of[b] is not None for b in must_follow[v]):
                continue
            if any(
                pos_of[a] is None or not leq_sw(pos_of[a], x)
                for a in must_precede[v]
            ):
                continue
            pos_of[v] = x
            chosen[k] = v
            extend(k + 1)
            pos_of[v] = None

    extend(0)
    return results


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
    destination, route = picture_bump_destination(p, z)
    if 0 in z or 0 in destination:
        raise NotAddableError(
            f"{format_cell(z)} is not addable: destination "
            f"{format_cell(destination)} or the cocorner itself is extreme"
        )
    mapping = dict(p._map)
    mapping.update(zip(route.cells, route.displaced))
    new_source = skew(p.source.outer, remove_cell(p.source.inner, destination))
    new_target = skew(p.target.outer, remove_cell(p.target.inner, z))
    return Picture(new_source, new_target, mapping)


def picture_delete(p: Picture, v: Cell) -> tuple[Picture, Cell]:
    """Inverse of :func:`picture_insert`: vacate source inner corner ``v``.

    Returns the shrunken picture together with the target inner corner that
    the deletion pushes out: the :func:`delete_route` from ``v`` through the
    map, whose images increase along each source row in the southwest order.
    """
    if v not in inner_corners(p.source):
        raise NotInnerCornerError(
            f"{format_cell(v)} is not an inner corner of {p.source}"
        )
    route = delete_route(p.source, p._map.__getitem__, v, lt_sw)
    if route is None:
        raise NotRemovableError(f"{format_cell(v)} is not removable from {p.source}")
    cells, w = route
    mapping = dict(p._map)
    mapping.update(zip(cells[1:], [p[x] for x in cells[:-1]]))
    del mapping[v]
    new_source = skew(p.source.outer, add_cell(p.source.inner, v))
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
