import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
import worked_examples as ex
from hookkron.errors import (
    DuplicateValueError,
    NotAddableError,
    NotInnerCornerError,
    NotRemovableError,
    RangeError,
)
from hookkron.shapes import skew
from hookkron.tableaux import (
    PartialTableau,
    bump_destination,
    delete,
    insert,
    removable_corners,
    render_tableau,
    row_reading,
    tableau_from_json,
    tableau_to_json,
)


@st.composite
def tableaux_st(draw):
    outer_parts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    outer = tuple(sorted(outer_parts, reverse=True))
    inner = []
    prev = outer[0]
    for x in outer:
        part = draw(st.integers(0, min(prev, x)))
        inner.append(part)
        prev = part
    shape = skew(outer, inner)
    n = shape.size
    values = sorted(draw(st.sets(st.integers(1, 30), min_size=n, max_size=n)))
    entries = {}
    remaining = set(shape.cells())
    for v in values:
        ready = sorted(
            c
            for c in remaining
            if (c[0], c[1] - 1) not in remaining and (c[0] - 1, c[1]) not in remaining
        )
        cell = draw(st.sampled_from(ready))
        entries[cell] = v
        remaining.remove(cell)
    return PartialTableau(shape, entries)


class TestValidation:
    def test_rejects_wrong_cells(self):
        with pytest.raises(ValueError):
            PartialTableau(skew((2,), ()), {(1, 1): 1})

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateValueError):
            PartialTableau(skew((2,), ()), {(1, 1): 3, (1, 2): 3})

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            PartialTableau(skew((2,), ()), {(1, 1): 5, (1, 2): 3})
        with pytest.raises(ValueError):
            PartialTableau(skew((1, 1), ()), {(1, 1): 5, (2, 1): 3})

    @pytest.mark.parametrize(
        "outer, entries, message",
        [
            ((2,), {(1, 1): 1}, "entries must fill (2)/(0) exactly"),
            ((2,), {(1, 1): 1, (1, 3): 2}, "entries must fill (2)/(0) exactly"),
            # several faults: the first cell in reading order is named, right before down
            ((2, 2), {(2, 1): 4, (2, 2): 3, (1, 1): 5, (1, 2): 1}, "row 2 is not increasing at column 1"),
            ((2, 2), {(2, 1): 1, (2, 2): 2, (1, 1): 5, (1, 2): 3}, "row 1 is not increasing at column 1"),
            ((2, 2), {(2, 1): 1, (2, 2): 4, (1, 1): 2, (1, 2): 5}, "column 1 is not increasing at row 1"),
        ],
    )
    def test_messages(self, outer, entries, message):
        with pytest.raises(ValueError) as info:
            PartialTableau(skew(outer, ()), entries)
        assert str(info.value) == message

    def test_arbitrary_distinct_values_allowed(self):
        t = PartialTableau(skew((2,), ()), {(1, 1): 7, (1, 2): 19})
        assert t.image() == frozenset({7, 19})


class TestBumpDestination:
    def test_worked_example_route(self, example_tableau):
        route = bump_destination(example_tableau, 7)
        assert route.cells == ((4, 2), (3, 3), (2, 3))
        assert route.destination == (2, 3)
        assert route.displaced == (7, 5, 3)

    def test_small_value_stops_in_bottom_row(self):
        t = PartialTableau(skew((1,), ()), {(1, 1): 5})
        route = bump_destination(t, 3)
        assert route.destination == (1, 0)

    def test_large_value_exits_the_top(self):
        t = PartialTableau(skew((1,), ()), {(1, 1): 5})
        route = bump_destination(t, 7)
        assert route.cells == ((1, 1), (0, 1))
        assert route.destination == (0, 1)
        assert route.displaced == (7, 5)

    def test_duplicate_rejected(self, example_tableau):
        with pytest.raises(DuplicateValueError):
            bump_destination(example_tableau, 10)

    def test_empty_row_stops_the_route(self):
        t = PartialTableau(skew((2, 1), (1, 1)), {(1, 2): 2})
        route = bump_destination(t, 1)
        assert route.destination == (2, 1)

    def test_rowless_shape_rejected(self):
        t = PartialTableau(skew((), ()), {})
        with pytest.raises(RangeError):
            bump_destination(t, 1)

    def test_route_rows_step_by_one(self, example_tableau):
        for a in (2, 4, 7, 12):
            route = bump_destination(example_tableau, a)
            rows = [c[0] for c in route.cells]
            assert rows == list(range(rows[0], rows[-1] - 1, -1))


class TestInsert:
    def test_worked_example(self, example_tableau):
        result = insert(example_tableau, 7)
        assert result == PartialTableau(
            skew(ex.T_OUTER, ex.E7T_INNER), ex.E7T_ENTRIES
        )

    def test_insert_into_empty_bottom_row(self):
        t = PartialTableau(skew((2, 1), (1, 1)), {(1, 2): 2})
        result = insert(t, 1)
        assert result == PartialTableau(skew((2, 1), (1,)), {(1, 2): 2, (2, 1): 1})

    def test_extreme_destination_not_addable(self):
        t = PartialTableau(skew((1,), ()), {(1, 1): 5})
        with pytest.raises(NotAddableError):
            insert(t, 3)
        with pytest.raises(NotAddableError):
            insert(t, 7)


class TestDelete:
    def test_worked_example(self, example_tableau):
        result, value = delete(example_tableau, (3, 3))
        assert value == 5
        assert result == PartialTableau(
            skew(ex.T_OUTER, ex.F33T_INNER), ex.F33T_ENTRIES
        )

    def test_single_row_chain(self):
        t = PartialTableau(skew((2, 1), (1,)), {(1, 2): 2, (2, 1): 1})
        result, value = delete(t, (2, 1))
        assert value == 1
        assert result == PartialTableau(skew((2, 1), (1, 1)), {(1, 2): 2})

    def test_not_removable(self):
        t = PartialTableau(skew((2, 1), (1,)), {(1, 2): 2, (2, 1): 1})
        with pytest.raises(NotRemovableError):
            delete(t, (1, 2))

    def test_not_inner_corner(self, example_tableau):
        with pytest.raises(NotInnerCornerError):
            delete(example_tableau, (4, 2))


class TestRowReading:
    def test_worked_example(self):
        assert row_reading(skew(ex.BIG_OUTER, ex.BIG_INNER)) == ex.ROW_READING_BIG

    def test_single_cell(self):
        assert row_reading(skew((1,), ())) == {(1, 1): 1}

    def test_empty(self):
        assert row_reading(skew((), ())) == {}


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(tableaux_st(), st.integers(1, 32))
    def test_insert_then_delete(self, t, a):
        if a in t.image() or t.shape.length == 0:
            return
        route = bump_destination(t, a)
        r, c = route.destination
        if r == 0 or c == 0:
            with pytest.raises(NotAddableError):
                insert(t, a)
            return
        grown = insert(t, a)
        back, value = delete(grown, route.destination)
        assert back == t and value == a

    @settings(max_examples=150, deadline=None)
    @given(tableaux_st())
    def test_delete_then_insert(self, t):
        for v in removable_corners(t):
            shrunk, value = delete(t, v)
            route = bump_destination(shrunk, value)
            assert route.destination == v
            assert insert(shrunk, value) == t


class TestBumpingLemmasSpot:
    """Quick seeded spot checks; the 10^4-instance suites live in acceptance."""

    def test_monotone_destinations(self):
        rng = Random(7)
        for _ in range(200):
            t = util.random_tableau(rng, util.random_skew_shape(rng, max_outer=7))
            free = sorted(set(range(1, 30)) - set(t.image()))
            a, b = rng.sample(free, 2)
            a, b = min(a, b), max(a, b)
            u = bump_destination(t, a).destination
            v = bump_destination(t, b).destination
            from hookkron.shapes import leq_sw

            assert leq_sw(u, v)

    def test_removable_outputs_monotone(self):
        rng = Random(11)
        for _ in range(200):
            t = util.random_tableau(rng, util.random_skew_shape(rng, max_outer=7))
            corners = removable_corners(t)
            for i in range(len(corners)):
                for j in range(i + 1, len(corners)):
                    _, b1 = delete(t, corners[i])
                    _, b2 = delete(t, corners[j])
                    assert b1 <= b2


class TestSerialisation:
    def test_json_round_trip(self, example_tableau):
        obj = tableau_to_json(example_tableau)
        assert obj["outer"] == [5, 5, 4, 3]
        assert obj["inner"] == [4, 3, 2]
        assert obj["entries"][0] == [4, 1, 1]
        assert tableau_from_json(json.loads(json.dumps(obj))) == example_tableau

    def test_entries_in_reading_order(self, example_tableau):
        obj = tableau_to_json(example_tableau)
        assert obj["entries"] == [
            [4, 1, 1], [4, 2, 5], [4, 3, 10],
            [3, 3, 3], [3, 4, 11],
            [2, 4, 8], [2, 5, 9],
            [1, 5, 6],
        ]

    def test_render_grid(self, example_tableau):
        assert render_tableau(example_tableau) == "\n".join(
            [
                "                [ 6]",
                "            [ 8][ 9]",
                "        [ 3][11]",
                "[ 1][ 5][10]",
            ]
        )

    def test_render_route_overlay(self, example_tableau):
        route = bump_destination(example_tableau, 7)
        text = render_tableau(example_tableau, route)
        assert "[ 5*]" in text and "[ 3*]" in text and "[  *]" in text
