import pytest
from hypothesis import given
from hypothesis import strategies as st

import util
from hookkron.errors import NotContainedError, RangeError, SizeMismatchError
from hookkron.hook_rule import (
    TypedPicture,
    decompose_tensor_exterior,
    decompose_tensor_hook,
    hook_hook_multiplicity,
    multiplicity_exterior,
    multiplicity_hook,
    picture_counts,
    pw_m_set,
    pw_set,
)
from hookkron.lr import exterior_multiplicity_via_lr
from hookkron.oracle import (
    character_table,
    dimension,
    exterior_multiplicity,
    hook_exterior_sweep,
    kronecker,
)
from hookkron.shapes import (
    SkewShape,
    _shape_table,
    add_cell,
    cocorners,
    conjugate,
    contains,
    corners,
    format_cell,
    format_partition,
    hook_partition,
    icc_bar,
    inner_cocorners,
    inner_corners,
    leq_nw,
    leq_sw,
    parse_partition,
    partition,
    partitions,
    partitions_inside,
    remove_cell,
    skew,
    transpose_shape,
)
from hookkron.verify import verify_range


@st.composite
def partitions_st(draw, max_sum=12, max_part=8):
    parts = draw(st.lists(st.integers(1, max_part), max_size=6))
    p = partition(sorted(parts, reverse=True))
    return p if sum(p) <= max_sum else p[:2]


def all_partitions_upto(n):
    for k in range(n + 1):
        yield from partitions(k)


def all_skew_shapes(max_outer):
    for outer in all_partitions_upto(max_outer):
        for k in range(sum(outer) + 1):
            for inner in partitions(k):
                if contains(outer, inner):
                    yield SkewShape(outer, inner)


class TestPartition:
    def test_canonicalisation(self):
        assert partition([3, 1, 0, 0]) == (3, 1)
        assert partition([]) == ()
        with pytest.raises(ValueError):
            partition([1, 2])
        with pytest.raises(ValueError):
            partition([2, -1])

    def test_parse_and_format(self):
        assert parse_partition("5,3,1,1") == (5, 3, 1, 1)
        assert parse_partition("") == ()
        assert parse_partition("0") == ()
        assert format_partition(()) == "0"
        assert format_partition((5, 3, 1, 1)) == "5,3,1,1"
        with pytest.raises(ValueError):
            parse_partition("1,2")

    def test_generation_order_is_reverse_lex(self):
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert partitions(0) == ((),)
        assert len(partitions(7)) == 15
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            partitions(-1)

    def test_partitions_match_an_independent_reference(self):
        for n in range(11):
            assert partitions(n) == util.brute_force_partitions(n)
        assert [len(partitions(n)) for n in range(26)] == util.pentagonal_partition_counts(25)

    def test_partitions_inside_is_the_filtered_order(self):
        for n in range(0, 9):
            for bound in partitions(n):
                for k in range(0, n + 2):
                    expected = [z for z in partitions(k) if contains(bound, z)]
                    assert list(partitions_inside(bound, k)) == expected


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((6,)) == (1, 1, 1, 1, 1, 1)
        assert conjugate((4, 4, 4, 3, 2)) == (5, 5, 4, 3)
        assert conjugate(()) == ()

    def test_involution_small_sizes(self):
        for p in all_partitions_upto(12):
            assert conjugate(conjugate(p)) == p

    @given(partitions_st(), partitions_st())
    def test_containment_transposes(self, a, b):
        assert contains(a, b) == contains(conjugate(a), conjugate(b))


class TestOrders:
    def test_examples(self):
        assert leq_nw((1, 1), (2, 1))
        assert not leq_sw((1, 2), (1, 1))
        assert leq_sw((2, 1), (1, 1))

    @given(st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_transpose_antitone(self, a, b):
        ta, tb = (a[1], a[0]), (b[1], b[0])
        assert leq_sw(a, b) == leq_sw(tb, ta)

    def test_partial_order_axioms(self):
        cells = [(i, j) for i in range(4) for j in range(4)]
        for a in cells:
            assert leq_nw(a, a) and leq_sw(a, a)
            for b in cells:
                if leq_sw(a, b) and leq_sw(b, a):
                    assert a == b
                for c in cells:
                    if leq_sw(a, b) and leq_sw(b, c):
                        assert leq_sw(a, c)


class TestSkew:
    def test_examples(self):
        s = skew((5, 3, 1, 1), (4,))
        assert s.size == 6
        assert skew((3, 1), (3, 1)).size == 0
        with pytest.raises(ValueError):
            skew((3, 1), (1, 2))
        with pytest.raises(NotContainedError):
            skew((3, 1), (2, 2))

    def test_membership_and_rows(self):
        s = skew((5, 5, 4, 3), (4, 3, 2))
        assert (4, 1) in s and (1, 5) in s
        assert (1, 4) not in s and (5, 1) not in s
        assert [cell for cell in util.row_by_row_cells(s) if cell[0] == 3] == [(3, 3), (3, 4)]
        assert s.length == 4

    def test_reading_order(self):
        s = skew((2, 2), (1,))
        assert s.cells() == ((2, 1), (2, 2), (1, 2))

    def test_one_pass_builders_match_the_row_by_row_reference(self):
        # the pair order decides which failing pair Picture's error names
        shapes = util.small_skew_shapes(max_outer=8, max_cells=8)
        assert SkewShape((3, 2, 2), (2, 2)) in shapes  # an empty row between two full ones
        assert SkewShape((3, 1, 1), (2, 1, 1)) in shapes  # trailing empty rows
        for s in shapes:
            cells, pairs = _shape_table(s)
            assert s.cells() == util.row_by_row_cells(s)
            assert cells == frozenset(s.cells())
            assert pairs == util.probed_neighbour_pairs(s)

    def test_transpose_examples(self):
        assert transpose_shape(skew((4, 4, 4, 3, 2), (3, 3, 2, 1))) == skew(
            (5, 5, 4, 3), (4, 3, 2)
        )
        assert transpose_shape(skew((), ())) == skew((), ())
        s = skew((5, 3, 1, 1), (2, 2))
        assert transpose_shape(transpose_shape(s)) == s


class TestCornerSets:
    def test_staircase_overlap(self):
        s = skew((5, 5, 4, 2, 1), (3, 3, 2, 1))
        assert inner_corners(s) == [(5, 1), (4, 2), (3, 3), (1, 4)]
        assert inner_cocorners(s) == [(4, 1), (3, 2), (2, 3)]
        assert icc_bar(s) == [(5, 0), (4, 1), (3, 2), (2, 3), (0, 5)]

    def test_full_first_row_overlap(self):
        s = skew((5, 5, 4, 2, 1), (5, 3, 2, 1, 1))
        assert inner_corners(s) == [(4, 2), (3, 3), (2, 4)]
        assert inner_cocorners(s) == [(5, 1), (3, 2), (2, 3), (1, 5)]
        assert icc_bar(s) == inner_cocorners(s)

    def test_empty_shape(self):
        s = skew((), ())
        assert inner_corners(s) == []
        assert inner_cocorners(s) == []
        assert icc_bar(s) == []

    def test_inner_cocorners_of_full_overlap_are_outer_corners(self):
        # the diagram of lam/lam is empty but its inner boundary is not
        s = skew((3, 1), (3, 1))
        assert inner_corners(s) == []
        assert inner_cocorners(s) == sorted([(1, 3), (2, 1)], key=util.sw_key)
        assert icc_bar(s) == inner_cocorners(s)

    def test_alternation_small_shapes(self):
        # merged boundary lists open and close on the cocorner side and never
        # put two corners next to each other; when every row of the diagram is
        # occupied the two kinds alternate perfectly
        for s in all_skew_shapes(10):
            ic = inner_corners(s)
            bar = icc_bar(s)
            merged = sorted(
                [(c, "w") for c in ic] + [(c, "z") for c in bar], key=lambda t: util.sw_key(t[0])
            )
            if not merged:
                continue
            kinds = [kind for _, kind in merged]
            assert kinds[0] == "z" and kinds[-1] == "z"
            assert "ww" not in "".join(kinds)
            cells = [c for c, _ in merged]
            for a, b in zip(cells, cells[1:]):
                assert leq_sw(a, b) and a != b
            no_empty_rows = all(
                s.row_bounds(i)[0] < s.row_bounds(i)[1] for i in range(1, s.length + 1)
            )
            if no_empty_rows:
                assert len(bar) == len(ic) + 1
                assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_inner_cocorners_is_a_fresh_sorted_list(self):
        # served from a memo on the inner partition, copied on every call
        for s in util.small_skew_shapes(max_outer=6, max_cells=6):
            first = inner_cocorners(s)
            assert first == sorted(corners(s.inner), key=util.sw_key)
            first.append((0, 0))
            assert inner_cocorners(s) == sorted(corners(s.inner), key=util.sw_key)
            # the other two lists are built in southwest order too, not sorted into it
            assert inner_corners(s) == sorted(inner_corners(s), key=util.sw_key)
            assert icc_bar(s) == sorted(icc_bar(s), key=util.sw_key)

    def test_inner_corners_is_a_fresh_sorted_list(self):
        # filtered from a memo on the inner partition on every call
        for s in util.small_skew_shapes(max_outer=12, max_cells=12):
            expected = sorted((c for c in cocorners(s.inner) if c in s), key=util.sw_key)
            first = inner_corners(s)
            assert first == expected
            first.append((0, 0))
            assert inner_corners(s) == expected

    def test_constant_time_corner_tests_match_the_list_based_ones(self):
        def listed(p, c, cells, step, what):  # the membership-list rule, as reference
            if c not in cells:
                raise ValueError(f"{format_cell(c)} is not a {what} of {p}")
            parts = list(p) + [0] * (c[0] - len(p))
            parts[c[0] - 1] += step
            return partition(parts)

        def outcome(f, *args):
            try:
                return f(*args)
            except ValueError as exc:
                return str(exc)

        for p in all_partitions_upto(8):
            # one row and one column past the diagram, and the zero row and column
            box = [(i, j) for i in range(len(p) + 2) for j in range((p[0] if p else 0) + 2)]
            for fast, cells, step, what in (
                (remove_cell, corners(p), -1, "corner"),
                (add_cell, cocorners(p), 1, "cocorner"),
            ):
                got = {c: outcome(fast, p, c) for c in box}
                assert [c for c in box if not isinstance(got[c], str)] == cells
                assert got == {c: outcome(listed, p, c, cells, step, what) for c in box}

    def test_inner_corner_characterisation(self):
        for s in all_skew_shapes(8):
            assert len(inner_cocorners(s)) == len(corners(s.inner))
            for w in inner_corners(s):
                assert w in cocorners(s.inner)
                assert w in s


# Every public function that takes partition labels, called on labels that all
# read as (2, 1), with its arity; the calls run every leg, so the m = 0 and
# m = n branches too.
LABEL_TAKERS = {
    "pw_set": (2, lambda lam, mu: pw_set(lam, mu, (1,))),
    "pw_m_set": (2, lambda lam, mu: [pw_m_set(lam, mu, m) for m in range(4)]),
    "multiplicity_hook": (2, lambda lam, mu: [multiplicity_hook(lam, mu, m) for m in range(3)]),
    "multiplicity_exterior": (
        2, lambda lam, mu: [multiplicity_exterior(lam, mu, m) for m in range(4)]
    ),
    "picture_counts": (2, picture_counts),
    "decompose_tensor_hook": (
        1, lambda lam: [decompose_tensor_hook(lam, m).to_json() for m in range(3)]
    ),
    "decompose_tensor_exterior": (
        1, lambda lam: [decompose_tensor_exterior(lam, m).to_json() for m in range(4)]
    ),
    "TypedPicture": (
        2, lambda lam, mu: TypedPicture(lam, mu, (1,), pw_set((2, 1), (2, 1), (1,))[0].picture)
    ),
    "exterior_multiplicity_via_lr": (
        2, lambda lam, mu: [exterior_multiplicity_via_lr(lam, mu, m) for m in range(4)]
    ),
    "kronecker": (3, kronecker),
    "exterior_multiplicity": (
        2, lambda lam, mu: [exterior_multiplicity(lam, mu, m) for m in range(4)]
    ),
    "hook_exterior_sweep": (2, hook_exterior_sweep),
    "dimension": (1, dimension),
}
# Every public function that takes a leg m, called on that leg with labels of n = 3.
LEG_TAKERS = {
    "pw_m_set": lambda m: pw_m_set((2, 1), (2, 1), m),
    "multiplicity_hook": lambda m: multiplicity_hook((2, 1), (2, 1), m),
    "multiplicity_exterior": lambda m: multiplicity_exterior((2, 1), (2, 1), m),
    "decompose_tensor_hook": lambda m: decompose_tensor_hook((2, 1), m),
    "decompose_tensor_exterior": lambda m: decompose_tensor_exterior((2, 1), m),
    "exterior_multiplicity_via_lr": lambda m: exterior_multiplicity_via_lr((2, 1), (2, 1), m),
    "exterior_multiplicity": lambda m: exterior_multiplicity((2, 1), (2, 1), m),
    "hook_partition": lambda m: hook_partition(3, m),
    "hook_hook_multiplicity": lambda m: hook_hook_multiplicity(0, 1, m, 3),
}
SPELLINGS = {
    "list": [2, 1],
    "zero-padded": (2, 1, 0),
    "not-a-partition": (1, 2),
    "size-mismatch": (2, 1, 1),
    "float-part": (1.5, 1.5),
    "bool-parts": (True, True, True),
}


class TestInputRules:
    @pytest.mark.parametrize(
        "name, position, spelling",
        [
            pytest.param(name, position, spelling, id=f"{name}-label{position + 1}-{spelling}")
            for name, (arity, _) in LABEL_TAKERS.items()
            for position in range(arity)
            for spelling in SPELLINGS
            if arity > 1 or spelling != "size-mismatch"
        ],
    )
    def test_every_label_taking_function(self, name, position, spelling):
        arity, call = LABEL_TAKERS[name]
        canonical = [(2, 1)] * arity
        labels = list(canonical)
        labels[position] = SPELLINGS[spelling]
        if spelling == "size-mismatch":
            with pytest.raises(SizeMismatchError, match="labels must partition the same n"):
                call(*labels)
        elif spelling in ("not-a-partition", "float-part", "bool-parts"):
            with pytest.raises(ValueError):
                call(*labels)
        elif name == "TypedPicture":
            # it checks sizes only, then compares its labels with the picture's shapes
            with pytest.raises(ValueError, match="shape"):
                call(*labels)
        else:
            assert call(*labels) == call(*canonical)

    @pytest.mark.parametrize(
        "name, leg",
        [
            pytest.param(name, leg, id=f"{name}-{leg!r}")
            for name in LEG_TAKERS
            for leg in (True, 1.5)
        ],
    )
    def test_every_leg_taking_function_refuses_a_leg_that_is_not_an_int(self, name, leg):
        # True and 1.5 would pass the range check, as 1 and as a number in [0, n]
        hook_partition(3, 1)  # a memo keyed on value alone, were one added, would answer True
        with pytest.raises(ValueError, match=f"expected an integer leg m, got {leg!r}"):
            LEG_TAKERS[name](leg)

    @pytest.mark.parametrize("parts", [["3", 1.5], (2, True), (2.0, 1), (2, 1, 0.0)])
    def test_parts_that_are_not_ints_are_refused(self, parts):
        with pytest.raises(ValueError, match="expected an integer part"):
            partition(parts)
        with pytest.raises(ValueError, match="expected an integer part"):
            skew(parts, ())

    def test_sizes_are_compared_before_form(self):
        with pytest.raises(SizeMismatchError):
            pw_set((1, 2), (1.5, 1.5, 1), (1,))
        with pytest.raises(SizeMismatchError):
            kronecker((2, 1), (1, 2), [1.5, 1.5, 1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hook_partition(3, 3),
            lambda: hook_partition(3, -1),
            lambda: hook_hook_multiplicity(0, 1, 4, 4),
            lambda: decompose_tensor_hook((2, 1), 3),
            lambda: exterior_multiplicity((2, 1), (2, 1), 4),
        ],
        ids=["hook_partition", "hook_partition-negative", "hook_hook", "decompose", "exterior"],
    )
    def test_leg_rule_raises_range_error(self, call):
        with pytest.raises(RangeError, match="need 0 <= m"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: partitions(2.0),
            lambda: character_table(2.0),
            lambda: character_table(3, cap=9.0),
            lambda: verify_range(1.0, 2),
            lambda: verify_range(1, True),
            lambda: hook_partition(True, 0),
        ],
        ids=["partitions", "character_table", "character_table-cap", "verify_range-n_min",
             "verify_range-n_max", "hook_partition"],
    )
    def test_a_degree_that_is_not_an_int_is_refused(self, call):
        # 2.0 and True would otherwise be taken as 2 and 1, or fail as a TypeError
        with pytest.raises(ValueError, match="expected an integer degree"):
            call()
