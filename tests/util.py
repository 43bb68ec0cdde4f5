"""Random generators and independent brute-force oracles used by the tests.

Oracles here deliberately avoid the library's own machinery: picture counting
falls back to checking raw bijections, and restriction multiplicities come
straight from character inner products.
"""

from __future__ import annotations

import itertools
import operator
from math import factorial
from random import Random

from hookkron.hook_rule import (
    TableRow,
    TypedPicture,
    ZetaCount,
    _overlaps,
    balanced_cocorner,
    balanced_corner,
    pw_set,
)
from hookkron.oracle import character_value, cycle_type_class_size
from hookkron.pictures import (
    Picture,
    picture_bump_destination,
    picture_delete,
    picture_insert,
    picture_to_rw,
)
from hookkron.shapes import (
    SkewShape,
    add_cell,
    conjugate,
    contains,
    inner_cocorners,
    inner_corners,
    leq_nw,
    leq_sw,
    partition,
    partitions,
    remove_cell,
    skew,
    transpose_cell,
)
from hookkron.tableaux import PartialTableau, bump_route, delete, delete_route, row_reading


def lt_sw(a, b) -> bool:
    return a != b and leq_sw(a, b)


def sw_key(c) -> tuple[int, int]:
    """Sort key that lists pairwise southwest-comparable cells in ascending order."""
    return (-c[0], c[1])


def brute_force_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of ``n`` as the non-increasing part tuples summing to
    ``n``, sorted reverse-lexicographically, with no recursion on sub-bounds."""
    candidates = (
        parts
        for length in range(n + 1)
        for parts in itertools.combinations_with_replacement(range(n, 0, -1), length)
        if sum(parts) == n
    )
    return tuple(sorted(candidates, reverse=True))


def pentagonal_partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n) from Euler's pentagonal recurrence, with no partition
    enumerated: p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - g_j) + p(k - g_j - j)),
    g_j = j(3j - 1)/2 the pentagonal numbers, terms with a negative index left out."""
    p = [1]
    for k in range(1, n + 1):
        pentagonal = ((j, j * (3 * j - 1) // 2) for j in range(1, k + 1))
        p.append(sum((-1) ** (j + 1) * (p[k - g] + (p[k - g - j] if g + j <= k else 0))
                     for j, g in pentagonal if g <= k))
    return p


def random_subpartition(rng: Random, outer) -> tuple[int, ...]:
    prev = outer[0] if outer else 0
    parts = []
    for x in outer:
        part = rng.randint(0, min(prev, x))
        parts.append(part)
        prev = part
    return partition(parts)


def random_skew_shape(rng: Random, max_outer: int = 9, min_outer: int = 1) -> SkewShape:
    n = rng.randint(min_outer, max_outer)
    pool = partitions(n)
    outer = pool[rng.randrange(len(pool))]
    return SkewShape(outer, random_subpartition(rng, outer))


def random_tableau(rng: Random, shape: SkewShape, value_span: int = 3) -> PartialTableau:
    """Uniform-ish valid filling: a random linear extension of the cell order
    paired with a random set of distinct values."""
    n = shape.size
    values = sorted(rng.sample(range(1, value_span * n + 5), n))
    remaining = set(shape.cells())
    entries = {}
    for v in values:
        ready = sorted(
            c
            for c in remaining
            if (c[0], c[1] - 1) not in remaining and (c[0] - 1, c[1]) not in remaining
        )
        cell = ready[rng.randrange(len(ready))]
        entries[cell] = v
        remaining.remove(cell)
    return PartialTableau(shape, entries)


def random_reading(rng: Random, cells) -> dict:
    """Random injective southwest-to-integer order map on ``cells``."""
    remaining = set(cells)
    out = {}
    value = 0
    while remaining:
        minimal = sorted(
            c for c in remaining if not any(lt_sw(d, c) for d in remaining)
        )
        cell = minimal[rng.randrange(len(minimal))]
        value += rng.randint(1, 3)
        out[cell] = value
        remaining.remove(cell)
    return out


def brute_force_picture_maps(source: SkewShape, target: SkewShape) -> list[dict]:
    """Every bijection satisfying both order conditions, checked from scratch."""
    if source.size != target.size:
        return []
    src = source.cells()
    tgt = target.cells()
    found = []
    for perm in itertools.permutations(tgt):
        mapping = dict(zip(src, perm))
        inverse = {y: x for x, y in mapping.items()}
        ok = all(
            leq_sw(mapping[x], mapping[y])
            for x in src
            for y in src
            if x != y and leq_nw(x, y)
        ) and all(
            leq_sw(inverse[s], inverse[t])
            for s in tgt
            for t in tgt
            if s != t and leq_nw(s, t)
        )
        if ok:
            found.append(mapping)
    return found


def value_search(source: SkewShape, target: SkewShape) -> list[tuple[int, ...]]:
    """The picture search over target reading numbers, kept as a reference for
    ``pictures._search``: per picture, the target ids (reading order) of the
    source cells, lexicographic in that sequence.  Source cells are filled in
    reading order with unused numbers, larger than the left neighbour's and
    smaller than the lower neighbour's; a number's left and upper target
    neighbours must already be placed, at source cells weakly left."""
    n = source.size
    if n != target.size:
        return []
    src, tgt = source.cells(), target.cells()
    index = {cell: k for k, cell in enumerate(src)}
    tgt_id = {cell: k for k, cell in enumerate(tgt)}
    # missing neighbours read sentinel slots: chosen[-1] = -1 on the left,
    # chosen[-2] = n below, and placed[-1] = 0, a column every test passes
    left = [index.get((r, c - 1), -1) for r, c in src]
    below = [index.get((r + 1, c), -2) for r, c in src]
    t_left = [tgt_id.get((r, c - 1), -1) for r, c in tgt]
    t_up = [tgt_id.get((r - 1, c), -1) for r, c in tgt]
    column = [c for _, c in src]
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


def reading_picture_delete(p: Picture, v: tuple[int, int]) -> tuple[Picture, tuple[int, int]]:
    """Picture deletion the long way round, through the target's row reading:
    delete ``v`` from the Remmel-Whitney tableau and decode the emitted number
    back to a target cell.  Raises what :func:`hookkron.tableaux.delete` raises."""
    reading = row_reading(p.target)
    tgt_cells = p.target.cells()
    shrunk, out_value = delete(picture_to_rw(p, reading), v)
    w = tgt_cells[out_value - 1]
    new_target = skew(p.target.outer, add_cell(p.target.inner, w))
    mapping = {x: tgt_cells[value - 1] for x, value in shrunk.items()}
    return Picture(shrunk.shape, new_target, mapping), w


def addable_cocorners(p: Picture) -> list[tuple[int, int]]:
    """Target inner cocorners whose bump destination is a source inner cocorner."""
    source_icc = set(inner_cocorners(p.source))
    return [
        z for z in inner_cocorners(p.target) if picture_bump_destination(p, z)[0] in source_icc
    ]


def removable_corners(x: PartialTableau | Picture) -> list[tuple[int, int]]:
    """Inner corners, in southwest order, at which deletion succeeds: from a
    tableau by ``<`` on its entries, from a picture's source by the strict
    southwest order on its images."""
    if isinstance(x, Picture):
        shape, entry, lt = x.source, x._map.__getitem__, lt_sw
    else:
        shape, entry, lt = x.shape, x._entries.__getitem__, operator.lt
    return [v for v in inner_corners(shape) if delete_route(shape, entry, v, lt)]


def tableau_to_json(t: PartialTableau) -> dict:
    """The tableau JSON that ``hookkron render`` reads."""
    return {
        "outer": list(t.shape.outer),
        "inner": list(t.shape.inner),
        "entries": [[cell[0], cell[1], v] for cell, v in t.items()],
    }


def row_by_row_cells(shape: SkewShape) -> tuple[tuple[int, int], ...]:
    """``shape.cells()`` built through ``row_cells``, bottom row first."""
    return tuple(cell for i in range(shape.length, 0, -1) for cell in shape.row_cells(i))


def probed_neighbour_pairs(shape: SkewShape) -> tuple:
    """The right and down neighbour pairs of ``shape``: each cell's two
    candidates, right first, probed against the cell set in reading order."""
    order = row_by_row_cells(shape)
    cells = frozenset(order)
    return tuple(
        ((i, j), neighbour)
        for i, j in order
        for neighbour in ((i, j + 1), (i + 1, j))
        if neighbour in cells
    )


def small_skew_shapes(max_outer: int, max_cells: int) -> list[SkewShape]:
    out = []
    for n in range(0, max_outer + 1):
        for outer in partitions(n):
            for k in range(0, n + 1):
                for inner in partitions(k):
                    if contains(outer, inner) and n - k <= max_cells:
                        out.append(SkewShape(outer, inner))
    return out


def lr_via_characters(lam, zeta, xi) -> int:
    """Restriction multiplicity by direct character inner product over the
    Young subgroup; exact integers throughout."""
    a, b = sum(zeta), sum(xi)
    if a + b != sum(lam):
        raise ValueError("sizes must match")
    total = 0
    for alpha in partitions(a):
        size_a = cycle_type_class_size(alpha, a) if a else 1
        for beta in partitions(b):
            size_b = cycle_type_class_size(beta, b) if b else 1
            merged = partition(sorted(alpha + beta, reverse=True))
            total += (
                size_a
                * size_b
                * character_value(lam, merged)
                * character_value(zeta, alpha)
                * character_value(xi, beta)
            )
    quotient, remainder = divmod(total, factorial(a) * factorial(b))
    assert remainder == 0
    return quotient


def hook_length_dimension(lam) -> int:
    """Irreducible dimension by the hook length product."""
    if not lam:
        return 1
    tlam = conjugate(lam)
    result = factorial(sum(lam))
    for i in range(len(lam)):
        for j in range(lam[i]):
            result //= lam[i] - j + tlam[j] - i - 1
    return result


def bump_balanced_cocorner(tp) -> tuple[int, int] | None:
    """``hook_rule.balanced_cocorner`` by the full bumping route: the first
    target inner cocorner, in southwest order, whose route ends on its transpose."""
    p = tp.picture
    for z in inner_cocorners(p.target):
        if bump_route(p.source, p._map.__getitem__, z, lt_sw).destination == transpose_cell(z):
            return z
    return None


def delete_balanced_corner(tp) -> tuple[int, int] | None:
    """``hook_rule.balanced_corner`` by the full deletion route: the cell
    emitted from the first source inner corner, in southwest order, whose
    route emits its own transpose.  The inner corners are the source cells
    with no left or upper neighbour in the source."""
    p = tp.picture
    cells = set(p.source.cells())
    minimal = (c for c in cells if (c[0], c[1] - 1) not in cells and (c[0] - 1, c[1]) not in cells)
    for v in sorted(minimal, key=sw_key):
        route = delete_route(p.source, p._map.__getitem__, v, lt_sw)
        if route is not None and route[1] == transpose_cell(v):
            return route[1]
    return None


def step_E_by_picture_insert(tp) -> TypedPicture:
    """``hook_rule.step_E`` through the public ``picture_insert``, with all
    of its checks: insert at the balanced cocorner."""
    z = balanced_cocorner(tp)
    return TypedPicture(tp.lam, tp.mu, remove_cell(tp.zeta, z), picture_insert(tp.picture, z))


def step_F_by_picture_delete(tp) -> TypedPicture:
    """``hook_rule.step_F`` through the public ``picture_delete``, with all
    of its checks: delete at the transpose of the balanced corner, which the
    deletion must emit."""
    w = balanced_corner(tp)
    shrunk, emitted = picture_delete(tp.picture, transpose_cell(w))
    assert emitted == w
    return TypedPicture(tp.lam, tp.mu, add_cell(tp.zeta, w), shrunk)


def table_row_by_pw_set(lam, mu, m: int, with_hook: bool) -> TableRow:
    """``hook_rule._table_row`` by the per-overlap picture sets: per overlap
    zeta, ``pw_set`` and ``balanced_cocorner`` on each of its pictures."""
    by_zeta = []
    for zeta in _overlaps(lam, mu, m):
        if pics := pw_set(lam, mu, zeta):
            ph = sum(balanced_cocorner(tp) is not None for tp in pics) if with_hook else None
            by_zeta.append(ZetaCount(zeta, ph, len(pics)))
    ph_total = sum(zc.ph for zc in by_zeta) if with_hook else None
    return TableRow(mu, ph_total, sum(zc.pw for zc in by_zeta), tuple(by_zeta))
