"""Pictures between skew diagrams and their insertion/deletion calculus.

A picture is a bijection between two skew diagrams that carries the northwest
order to the southwest order in both directions.  Composing with a reading of
the target turns a picture into a tableau satisfying the Remmel-Whitney
adjacency conditions, and that correspondence is one-to-one.  Enumeration
does not search those tableaux: :func:`_search` places the target cells as a
growing partition.  The search over reading numbers is kept as the test
reference ``tests/util.py::value_search``.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import InvalidCocornerError, NotAddableError, NotRemmelWhitneyError
from .shapes import (
    Cell,
    Partition,
    SkewShape,
    _ints,
    _shape_table,
    add_cell,
    format_cell,
    icc_bar,
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
    inv = {y: x for x, y in mapping.items()}
    if len(inv) < len(mapping):
        seen: set[Cell] = set()  # add() returns None, so only a repeat is kept
        y = next(y for y in mapping.values() if y in seen or seen.add(y))
        raise ValueError(f"mapping is not injective at {format_cell(y)}")
    if len(inv) != target.size or inv.keys() != (tgt := _shape_table(target))[0]:
        raise ValueError("mapping values must be exactly the target cells")
    for forward, pairs, what in ((mapping, src[1], "not"), (inv, tgt[1], "inverse not")):
        for x, y in pairs:
            (r, c), (r2, c2) = forward[x], forward[y]
            if r < r2 or c > c2:  # not leq_sw(forward[x], forward[y]), written out
                # name the first failing pair in the mapping's own order, right neighbour first
                bad = [(a, b) for a, b in pairs if not leq_sw(forward[a], forward[b])]
                rank = {cell: k for k, cell in enumerate(forward)}
                a, b = min(bad, key=lambda pair: (rank[pair[0]], pair[1][0]))
                raise ValueError(f"{what} order-preserving at {a}, {b}")
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
    if len(reading) != target.size or reading.keys() != _shape_table(target)[0]:
        raise ValueError("reading must be defined on exactly the target cells")
    # cells come in reading order, so a later cell is never weakly southwest of an earlier one
    cells = target.cells()
    for k, x in enumerate(cells):
        for y in cells[k + 1:]:
            if leq_sw(x, y) and reading[x] >= reading[y]:
                raise ValueError(f"reading is not an order map at {x}, {y}")
    if t.image() != frozenset(reading.values()):
        raise NotRemmelWhitneyError("tableau image differs from the reading image")
    inv_reading = {value: cell for cell, value in reading.items()}
    try:
        return Picture(t.shape, target, {x: inv_reading[v] for x, v in t.items()})
    except ValueError as exc:
        raise NotRemmelWhitneyError(f"tableau is not Remmel-Whitney: {exc}") from None


def enumerate_pictures(source: SkewShape, target: SkewShape) -> list[Picture]:
    """All pictures from ``source`` onto ``target``, one validated per search leaf."""
    src, leaves = source.cells(), _search(source, target.inner, target.outer)
    return [Picture(source, target, dict(zip(src, cells))) for _, cells in leaves]


def _search(
    source: SkewShape, inner: Partition, bound: Partition | None = None
) -> Iterator[tuple[Partition, tuple[Cell, ...]]]:
    """Per picture from ``source`` onto a target that grows from ``inner``:
    the target's outer shape and the target cells of the source cells.

    Fills source cells in reading order.  A target cell is placed only after
    its left and upper neighbours (the inverse keeps the northwest order), so
    the placed cells and ``inner`` always form a partition.  A source cell
    k = (s, c) tries its addable cells, one per row, in the rows r with
    row f(B) < r <= row f(L), for its image f and its lower and left
    neighbours B = (s+1, c) and L (f(k) falls between theirs in reading
    order).  By induction on depth, nothing else needs checking.  Were a cell
    P of source column > c placed left of or above the candidate (r, x+1), P
    would lie in a lower source row, so B would be a source cell
    (inner[s+1] <= inner[s] < c < col P <= outer[s+1]) with B <=nw P.  Left
    of it, at (r, x), the order gives row f(B) >= r, outside the window.
    Above it, at (r-1, x+1), f(B) is some (r-1, y) with y <= x; the source
    cell S placed at (r, y) has B <=sw S by the inverse order, so
    S = (s+1, c') with c' > c, and again row f(B) >= r.

    With ``bound`` the target is bound/inner, and leaves come
    lexicographically in the reading order of their images.  With none, one
    search from lam/zeta yields the inverse of every picture onto every
    mu'/zeta', each as soon as it is found.
    """
    n = source.size
    if bound is not None and sum(bound) - sum(inner) != n:
        return
    src = source.cells()
    index = {cell: k for k, cell in enumerate(src)}
    left = [index.get((r, c - 1), n) for r, c in src]
    below = [index.get((r + 1, c), n + 1) for r, c in src]
    if bound is None:
        height, width = len(inner) + n, (inner[0] if inner else 0) + n
        limit = [width] * (height + 1)
    else:
        height, width = len(bound), bound[0] if bound else 0
        limit = [0, *bound]
    # image_row[n]: where a cell with no left neighbour starts, the first empty
    # row (at most row ``height``); image_row[n + 1]: 0, for no lower neighbour
    image_row = [0] * n + [min(len(inner) + 1, height), 0]
    # rows[r]: the partition so far, rows[0] over every row
    rows = [width + 1, *inner] + [0] * (height - len(inner))
    chosen: list[Cell] = [(0, 0)] * n

    def extend(k: int) -> Iterator[tuple[Partition, tuple[Cell, ...]]]:
        for r in range(image_row[left[k]], image_row[below[k]], -1):
            x = rows[r]
            if x < limit[r] and x < rows[r - 1]:
                rows[r] = x + 1
                chosen[k] = (r, x + 1)
                if k + 1 == n:  # a leaf: bound is not empty here
                    yield bound or tuple(filter(None, rows[1:])), tuple(chosen)
                else:
                    image_row[k] = r
                    if r == image_row[n] < height:
                        image_row[n] = r + 1
                        yield from extend(k + 1)
                        image_row[n] = r
                    else:
                        yield from extend(k + 1)
                rows[r] = x

    yield from extend(0) if n else [(inner, ())]


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
    new_target = SkewShape(p.target.outer, remove_cell(p.target.inner, z))
    return Picture(new_source, new_target, mapping)


def picture_delete(p: Picture, v: Cell) -> tuple[Picture, Cell]:
    """Inverse of :func:`picture_insert`: vacate source inner corner ``v``.

    Returns the shrunken picture together with the target inner corner that
    the deletion pushes out: the :func:`delete_route` from ``v`` through the
    map, whose images increase along each source row in the southwest order.
    """
    new_source, mapping, w = carry_out_delete(p.source, p._map, v, lt_sw)
    new_target = SkewShape(p.target.outer, add_cell(p.target.inner, w))
    return Picture(new_source, new_target, mapping), w


def picture_to_json(p: Picture) -> dict:
    return {
        "source": {"outer": list(p.source.outer), "inner": list(p.source.inner)},
        "target": {"outer": list(p.target.outer), "inner": list(p.target.inner)},
        "map": [[x[0], x[1], y[0], y[1]] for x, y in p.pairs()],
    }


def picture_from_json(obj: dict) -> Picture:
    source = skew(_ints(obj["source"]["outer"]), _ints(obj["source"]["inner"]))
    target = skew(_ints(obj["target"]["outer"]), _ints(obj["target"]["inner"]))
    mapping = {(r, c): (r2, c2) for r, c, r2, c2 in map(_ints, obj["map"])}
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
