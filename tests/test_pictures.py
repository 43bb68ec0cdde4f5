import itertools
import json
import re
from random import Random

import pytest

import util
import worked_examples as ex
from hookkron.errors import (
    InvalidCocornerError,
    NotAddableError,
    NotInnerCornerError,
    NotRemmelWhitneyError,
    NotRemovableError,
)
from hookkron.hook_rule import decompose_tensor_hook
from hookkron.lr import lr_coefficient
from hookkron.pictures import (
    Picture,
    _search,
    _shape_table,
    addable_cocorners,
    enumerate_pictures,
    picture_bump_destination,
    picture_delete,
    picture_from_json,
    picture_insert,
    picture_to_json,
    picture_to_rw,
    removable_corners,
    render_picture,
    rw_to_picture,
)
from hookkron.shapes import icc_bar, partitions, skew, transpose_shape
from hookkron.tableaux import PartialTableau, bump_destination, row_reading


class TestPictureValidation:
    def test_rejects_non_picture_bijection(self):
        source = skew((2,), ())
        target = skew((1, 1), ())
        with pytest.raises(ValueError):
            Picture(source, target, {(1, 1): (1, 1), (1, 2): (2, 1)})

    def test_rejects_wrong_domain(self):
        with pytest.raises(ValueError):
            Picture(skew((1,), ()), skew((1,), ()), {(2, 1): (1, 1)})

    @pytest.mark.parametrize(
        "source, target, mapping, message",
        [
            # as many keys as source cells, but not the source cells
            (((2,), ()), ((2,), ()), {(1, 1): (1, 1), (2, 1): (1, 2)},
             "mapping keys must be exactly the source cells"),
            # (1,3) repeats before (1,2) does
            (((3, 1), ()), ((4,), ()),
             {(2, 1): (1, 2), (1, 1): (1, 3), (1, 2): (1, 3), (1, 3): (1, 2)},
             "mapping is not injective at (1,3)"),
            (((2,), ()), ((2,), ()), {(1, 1): (1, 1), (1, 2): (2, 1)},
             "mapping values must be exactly the target cells"),
            (((2,), ()), ((1, 1), ()), {(1, 1): (1, 1), (1, 2): (2, 1)},
             "not order-preserving at (1, 1), (1, 2)"),
            (((2, 1), (1,)), ((2,), ()), {(2, 1): (1, 2), (1, 2): (1, 1)},
             "inverse not order-preserving at (1, 1), (1, 2)"),
            # several failing pairs: the first in the mapping's own order is named
            (((2, 2), ()), ((2, 2), ()),
             {(1, 1): (2, 2), (1, 2): (2, 1), (2, 1): (1, 2), (2, 2): (1, 1)},
             "not order-preserving at (1, 1), (1, 2)"),
            (((2, 2), ()), ((2, 2), ()),
             {(2, 2): (1, 1), (2, 1): (1, 2), (1, 2): (2, 1), (1, 1): (2, 2)},
             "not order-preserving at (2, 1), (2, 2)"),
            (((3, 2, 1), (2, 1)), ((3,), ()), {(3, 1): (1, 3), (2, 2): (1, 2), (1, 3): (1, 1)},
             "inverse not order-preserving at (1, 2), (1, 3)"),
            (((3, 2, 1), (2, 1)), ((3,), ()), {(1, 3): (1, 1), (2, 2): (1, 2), (3, 1): (1, 3)},
             "inverse not order-preserving at (1, 1), (1, 2)"),
        ],
    )
    def test_malformed_mapping_messages(self, source, target, mapping, message):
        with pytest.raises(ValueError) as info:
            Picture(skew(*source), skew(*target), mapping)
        assert str(info.value) == message

    def test_shape_table_memo_is_bounded(self):
        # most source shapes serve one overlap, so an unbounded memo grows with the run
        assert _shape_table.cache_info().maxsize is not None
        decompose_tensor_hook((5, 4, 3, 2, 1), 7)
        info = _shape_table.cache_info()
        assert info.currsize <= info.maxsize

    def test_identity_on_single_cell(self):
        p = Picture(skew((1,), ()), skew((1,), ()), {(1, 1): (1, 1)})
        assert p[(1, 1)] == (1, 1)

    def test_accepts_exactly_the_brute_force_maps(self):
        # neighbour-pair validation against the pairwise reference, on every
        # bijection between small shapes of equal size
        shapes = util.small_skew_shapes(max_outer=5, max_cells=5)
        checked = 0
        for source in shapes:
            for target in shapes:
                if source.size != target.size:
                    continue
                expected = {
                    tuple(m.items()) for m in util.brute_force_picture_maps(source, target)
                }
                for perm in itertools.permutations(target.cells()):
                    mapping = dict(zip(source.cells(), perm))
                    try:
                        Picture(source, target, mapping)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == (tuple(mapping.items()) in expected)
                    checked += 1
        assert checked == 14125


class TestRemmelWhitneyCorrespondence:
    def test_worked_example_tableau_is_rw(self, example_tableau, example_reading):
        target = skew(ex.BIG_OUTER, ex.TARGET_INNER)
        p = rw_to_picture(example_tableau, example_reading, target)
        assert dict(p.pairs()) == ex.LAMBDA_MAP

    def test_round_trip_through_reading(self, example_picture, example_reading):
        t = picture_to_rw(example_picture, example_reading)
        assert t == PartialTableau(skew(ex.T_OUTER, ex.T_INNER), ex.T_ENTRIES)
        assert rw_to_picture(t, example_reading, example_picture.target) == example_picture

    def test_single_cell(self):
        t = PartialTableau(skew((1,), ()), {(1, 1): 1})
        p = rw_to_picture(t, {(1, 1): 1}, skew((1,), ()))
        assert p[(1, 1)] == (1, 1)
        assert picture_to_rw(p, {(1, 1): 1}) == t

    def test_perturbed_tableau_rejected(self, example_reading):
        # swapping the two largest entries keeps a valid tableau but breaks
        # the adjacency condition for the top two target cells
        entries = dict(ex.T_ENTRIES)
        entries[(4, 3)], entries[(3, 4)] = 11, 10
        t = PartialTableau(skew(ex.T_OUTER, ex.T_INNER), entries)
        with pytest.raises(NotRemmelWhitneyError):
            rw_to_picture(t, example_reading, skew(ex.BIG_OUTER, ex.TARGET_INNER))

    @pytest.mark.parametrize(
        "reading",
        [{}, {(1, 2): 1}, {(1, 1): 1, (1, 2): 2}],
        ids=["empty", "other-cell", "extra-cell"],
    )
    def test_reading_off_the_target_cells_rejected(self, reading):
        t = PartialTableau(skew((1,), ()), {(1, 1): 1})
        with pytest.raises(ValueError, match="reading must be defined on exactly the target cells"):
            rw_to_picture(t, reading, skew((1,), ()))

    @pytest.mark.parametrize(
        "target, values, cells",
        [
            ((2,), (2, 1), "(1, 1), (1, 2)"),
            ((2,), (1, 1), "(1, 1), (1, 2)"),
            ((1, 1), (2, 1), "(2, 1), (1, 1)"),
        ],
        ids=["same-row", "repeated-number", "across-rows"],
    )
    def test_reading_that_is_not_an_order_map_rejected(self, target, values, cells):
        # the first cell is southwest of the second, so its number must be smaller
        shape = skew(target, ())
        reading = dict(zip(shape.cells(), values))
        t = PartialTableau(skew((2,), ()), {(1, 1): 1, (1, 2): 2})
        with pytest.raises(ValueError, match=re.escape(f"reading is not an order map at {cells}")):
            rw_to_picture(t, reading, shape)

    def test_image_mismatch_rejected(self, example_reading):
        entries = {c: v + 100 for c, v in ex.T_ENTRIES.items()}
        t = PartialTableau(skew(ex.T_OUTER, ex.T_INNER), entries)
        with pytest.raises(NotRemmelWhitneyError):
            rw_to_picture(t, example_reading, skew(ex.BIG_OUTER, ex.TARGET_INNER))

    def test_row_reading_round_trip_on_enumerated(self):
        for source, target in [
            (skew((3, 1), (1,)), skew((2, 2), (1,))),
            (skew((2, 2, 1), ()), skew((3, 2), ())),
        ]:
            reading = row_reading(target)
            for p in enumerate_pictures(source, target):
                assert rw_to_picture(picture_to_rw(p, reading), reading, target) == p


class TestEnumeration:
    def test_contains_worked_example(self, example_picture):
        pics = enumerate_pictures(skew(ex.T_OUTER, ex.T_INNER), example_picture.target)
        assert example_picture in pics

    def test_trivial_counts(self):
        assert len(enumerate_pictures(skew((), ()), skew((), ()))) == 1
        assert len(enumerate_pictures(skew((2,), ()), skew((1, 1), ()))) == 0
        assert len(enumerate_pictures(skew((2,), ()), skew((2,), ()))) == 1

    def test_size_mismatch_gives_nothing(self):
        assert enumerate_pictures(skew((2,), ()), skew((3,), ())) == []

    def test_deterministic_order(self):
        source, target = skew((2, 1), ()), skew((2, 1), ())
        first = enumerate_pictures(source, target)
        second = enumerate_pictures(source, target)
        assert first == second

    def test_against_brute_force(self):
        # skew shapes up to 5 cells: 8,723 shape pairs, 7,314 pictures
        shapes = util.small_skew_shapes(max_outer=6, max_cells=5)
        for source in shapes:
            for target in shapes:
                if source.size != target.size:
                    continue
                expected = util.brute_force_picture_maps(source, target)
                got = enumerate_pictures(source, target)
                assert len(got) == len(expected)
                assert {tuple(sorted(m.items())) for m in expected} == {
                    tuple(sorted(p.pairs())) for p in got
                }
                # the promised order: lexicographic in the target reading
                # indices, taken in source reading order
                reading = {cell: k for k, cell in enumerate(target.cells())}
                expected.sort(key=lambda m: [reading[m[x]] for x in source.cells()])
                assert [dict(p.pairs()) for p in got] == expected

    def test_search_leaves_rebuild_the_pictures(self):
        shapes = util.small_skew_shapes(max_outer=5, max_cells=4)
        for source in shapes:
            for target in shapes:
                if source.size != target.size:
                    continue
                src, tgt = source.cells(), target.cells()
                leaves = _search(source, target)
                assert [dict(zip(src, map(tgt.__getitem__, leaf))) for leaf in leaves] == [
                    dict(p.pairs()) for p in enumerate_pictures(source, target)
                ]

    def test_count_formula_with_skew_source(self):
        # picture count = sum over middle shapes of the product of the two
        # restriction coefficients; checked on genuinely skew sources
        cases = [
            (skew((3, 2), (1,)), skew((3, 2), (1,))),
            (skew((3, 1, 1), (1,)), skew((2, 2, 1), (1,))),
            (skew((4, 2), (2,)), skew((3, 2, 1), (2,))),
        ]
        for source, target in cases:
            m = source.size
            total = sum(
                lr_coefficient(target.outer, target.inner, xi)
                * lr_coefficient(source.outer, source.inner, xi)
                for xi in partitions(m)
            )
            assert len(enumerate_pictures(source, target)) == total


class TestPictureBumping:
    def test_worked_example_destination(self, example_picture):
        destination, route = picture_bump_destination(example_picture, (2, 3))
        assert destination == (2, 3)
        assert route.cells == ((4, 2), (3, 3), (2, 3))
        assert route.displaced[0] == (2, 3)

    def test_invalid_cocorner(self, example_picture):
        with pytest.raises(InvalidCocornerError):
            picture_bump_destination(example_picture, (1, 1))

    def test_single_cell_matches_tableau(self):
        p = Picture(skew((2,), (1,)), skew((2,), (1,)), {(1, 2): (1, 2)})
        destination, _ = picture_bump_destination(p, (1, 1))
        # reading extended over the new cell: (1,1) sits below (1,2)
        extended = {(1, 1): 1, (1, 2): 2}
        t = picture_to_rw(p, extended)
        assert destination == bump_destination(t, extended[(1, 1)]).destination
        assert destination == (1, 1)

    def test_max_cocorner_matches_tableau(self):
        # the southwest-largest boundary cell extends the row reading by the
        # top value, so the tableau route must agree cell for cell
        for source, target in [
            (skew((3, 2), (1,)), skew((3, 2), (1,))),
            (skew((2, 2, 1), ()), skew((3, 2), ())),
            (skew((3, 1, 1), (1,)), skew((2, 2, 1), (1,))),
        ]:
            boundary = icc_bar(target)
            if not boundary:
                continue
            z = boundary[-1]
            for p in enumerate_pictures(source, target):
                destination, route = picture_bump_destination(p, z)
                reading = row_reading(target)
                t = picture_to_rw(p, reading)
                tab_route = bump_destination(t, target.size + 1)
                assert route.cells == tab_route.cells
                assert destination == tab_route.destination

    def test_route_independent_of_reading(self):
        rng = Random(23)
        for source, target in [
            (skew((3, 2), (1,)), skew((3, 2), (1,))),
            (skew((3, 1, 1), (1,)), skew((2, 2, 1), (1,))),
        ]:
            for p in enumerate_pictures(source, target):
                for z in icc_bar(target):
                    _, route = picture_bump_destination(p, z)
                    for _ in range(3):
                        reading = util.random_reading(rng, target.cells() + (z,))
                        t = picture_to_rw(p, reading)
                        assert bump_destination(t, reading[z]).cells == route.cells


class TestPictureInsertDelete:
    def test_worked_insert(self, example_picture):
        grown = picture_insert(example_picture, (2, 3))
        assert grown.source == skew((5, 5, 4, 3), (4, 2, 2))
        assert grown.target == skew((5, 5, 4, 2, 1), (3, 2, 2, 1))
        assert dict(grown.pairs()) == ex.E23_LAMBDA_MAP

    def test_worked_delete(self, example_picture):
        shrunk, out = picture_delete(example_picture, (3, 3))
        assert out == (3, 3)
        assert shrunk.source == skew((5, 5, 4, 3), (4, 3, 3))
        assert shrunk.target == skew((5, 5, 4, 2, 1), (3, 3, 3, 1))
        assert dict(shrunk.pairs()) == ex.F33_LAMBDA_MAP

    def test_delete_then_insert_restores(self, example_picture):
        shrunk, out = picture_delete(example_picture, (3, 3))
        assert picture_insert(shrunk, out) == example_picture

    def test_insert_then_delete_restores(self, example_picture):
        destination, _ = picture_bump_destination(example_picture, (2, 3))
        grown = picture_insert(example_picture, (2, 3))
        back, out = picture_delete(grown, destination)
        assert back == example_picture and out == (2, 3)

    def test_insert_at_extreme_rejected(self, example_picture):
        with pytest.raises(NotAddableError):
            picture_insert(example_picture, (5, 0))

    def test_delete_needs_inner_corner(self, example_picture):
        with pytest.raises(NotInnerCornerError):
            picture_delete(example_picture, (1, 1))

    def test_some_enumerated_corner_is_not_removable(self):
        from hookkron.shapes import inner_corners

        hit = False
        for source, target in [
            (skew((2, 1), (1,)), skew((2,), ())),
            (skew((3, 2), (1,)), skew((3, 2), (1,))),
            (skew((3, 1, 1), (1,)), skew((2, 2, 1), (1,))),
        ]:
            for p in enumerate_pictures(source, target):
                blocked = set(inner_corners(p.source)) - set(removable_corners(p))
                for v in blocked:
                    hit = True
                    with pytest.raises(NotRemovableError):
                        picture_delete(p, v)
        assert hit

    def test_round_trips_on_enumerated_pool(self):
        for source, target in [
            (skew((3, 2), (1,)), skew((3, 2), (1,))),
            (skew((2, 2, 1), ()), skew((3, 2), ())),
        ]:
            for p in enumerate_pictures(source, target):
                for z in addable_cocorners(p):
                    destination, _ = picture_bump_destination(p, z)
                    grown = picture_insert(p, z)
                    back, out = picture_delete(grown, destination)
                    assert back == p and out == z
                for v in removable_corners(p):
                    shrunk, out = picture_delete(p, v)
                    assert picture_insert(shrunk, out) == p

    def test_delete_route_equals_reading_based_deletion(self):
        from hookkron.shapes import inner_corners

        shapes = util.small_skew_shapes(6, 7)
        probes = 0
        for source, target in itertools.product(shapes, repeat=2):
            if source.size != target.size:
                continue
            for p in enumerate_pictures(source, target):
                removable = removable_corners(p)
                for v in inner_corners(p.source):
                    probes += 1
                    try:
                        expected = util.reading_picture_delete(p, v)
                    except NotRemovableError:
                        assert v not in removable
                        with pytest.raises(NotRemovableError):
                            picture_delete(p, v)
                        continue
                    assert v in removable
                    assert picture_delete(p, v) == expected
        assert probes > 9000


class TestSerialisation:
    def test_json_round_trip(self, example_picture):
        obj = picture_to_json(example_picture)
        assert obj["source"] == {"outer": [5, 5, 4, 3], "inner": [4, 3, 2]}
        assert obj["target"] == {"outer": [5, 5, 4, 2, 1], "inner": [3, 3, 2, 1]}
        assert obj["map"][0] == [4, 1, 5, 1]
        assert picture_from_json(json.loads(json.dumps(obj))) == example_picture

    def test_render_labels_match(self, example_picture):
        text = render_picture(example_picture)
        lines = text.split("\n")
        assert len(lines) == 5
        # source block ends with the bottom row a c g, target with A
        assert "[a][c][g]" in lines[3]
        assert lines[4].strip().startswith("[A]")
        assert "->" in lines[2]
