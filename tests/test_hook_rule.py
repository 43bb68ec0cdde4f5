import collections
import json

import pytest

import util
import worked_examples as ex
from hookkron import hook_rule, pictures, tableaux
from hookkron.errors import (
    NotCoHookShapeError,
    NotHookShapeError,
    RangeError,
    SizeMismatchError,
)
from hookkron.hook_rule import (
    TypedPicture,
    _overlaps,
    _zeta_counts,
    balanced_cocorner,
    balanced_corner,
    decompose_tensor_exterior,
    decompose_tensor_hook,
    hook_hook_multiplicity,
    multiplicity_exterior,
    multiplicity_hook,
    picture_counts,
    pw_m_set,
    pw_set,
    step_E,
    step_F,
)
from hookkron.oracle import kronecker
from hookkron.pictures import rw_to_picture
from hookkron.shapes import (
    conjugate,
    contains,
    hook_partition,
    partitions,
    partitions_inside,
    skew,
    transpose_shape,
)
from hookkron.tableaux import PartialTableau, row_reading


def worked_typed_pictures() -> list[TypedPicture]:
    """The seven pictures of the worked decomposition, in the frozen order."""
    out = []
    for zeta, entries in ex.PH_TABLEAUX:
        target = skew(ex.PH_LAMBDA, zeta)
        source = transpose_shape(skew(ex.PH_MU, zeta))
        tableau = PartialTableau(source, entries)
        picture = rw_to_picture(tableau, row_reading(target), target)
        out.append(TypedPicture(ex.PH_LAMBDA, ex.PH_MU, zeta, picture))
    return out


class TestPwSets:
    def test_worked_example_counts_by_overlap(self):
        sizes = {
            zeta: len(pw_set(ex.PH_LAMBDA, ex.PH_MU, zeta))
            for zeta in partitions(4)
        }
        assert sizes == {(4,): 0, (3, 1): 3, (2, 2): 2, (2, 1, 1): 2, (1, 1, 1, 1): 0}
        assert len(pw_m_set(ex.PH_LAMBDA, ex.PH_MU, 6)) == 7

    def test_worked_example_exact_pictures(self):
        expected = worked_typed_pictures()
        enumerated = pw_m_set(ex.PH_LAMBDA, ex.PH_MU, 6)
        assert set(enumerated) == set(expected)

    def test_full_overlap_is_the_empty_picture(self):
        pics = pw_set((3, 1), (3, 1), (3, 1))
        assert len(pics) == 1 and len(pics[0].picture) == 0

    def test_overlap_not_contained(self):
        assert pw_set((3, 1), (2, 2), (3,)) == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pw_set((3, 1), (2, 2, 1), (2,))

    @pytest.mark.parametrize(
        "lam, mu, zeta",
        [((1, 2), (2, 2), (1,)), ((3, 1), (2, 3), (1,)), ((3, 1), (2, 2, 1), (1, 2))],
        ids=["lam", "mu", "zeta"],
    )
    def test_size_mismatch_before_a_malformed_label(self, lam, mu, zeta):
        with pytest.raises(SizeMismatchError):
            pw_set(lam, mu, zeta)

    def test_malformed_label(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            pw_set((1, 2), (2, 1), (1,))

    def test_labels_spelled_as_lists(self):
        assert multiplicity_hook([5, 3, 1, 1], [4, 3, 3], 6) == 2
        assert multiplicity_hook([5, 3, 1, 1], [4, 3, 3, 0], 6) == 2
        assert multiplicity_hook([5, 3, 1, 1, 0], [4, 3, 3], 6) == 2
        canonical = pw_set((2, 1), (2, 1), (1,))
        for labels in (
            ([2, 1, 0], [2, 1], [1]),
            ([2, 1], [2, 1, 0, 0], [1, 0]),
            ((2, 1), (2, 1), (1, 0, 0)),
        ):
            assert pw_set(*labels) == canonical
        padded = pw_set([2], (2, 0), [1, 0])
        assert [(tp.lam, tp.mu, tp.zeta) for tp in padded] == [((2,), (2,), (1,))]

    @pytest.mark.parametrize(
        "count",
        [
            lambda: decompose_tensor_hook((5, 4, 3, 2, 1), 7),
            lambda: picture_counts((4, 3, 2, 1), (4, 3, 2, 1)),
        ],
        ids=["decompose", "picture_counts"],
    )
    def test_labels_are_checked_once_per_count(self, monkeypatch, count):
        # the counting loop hands its overlaps canonical labels; it never re-checks them
        calls = collections.Counter()
        for name in ("canonical_labels", "partition"):
            original = getattr(hook_rule, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(hook_rule, name, counted)
        count()
        assert calls == {"canonical_labels": 1}

    @pytest.mark.parametrize("n", range(7))
    def test_pw_m_set_concatenates_pw_set_over_every_overlap(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                for m in range(n + 1):
                    by_zeta = [tp for zeta in partitions(n - m) for tp in pw_set(lam, mu, zeta)]
                    assert pw_m_set(lam, mu, m) == by_zeta, (lam, mu, m)
                    padded = [
                        tp
                        for zeta in partitions(n - m)
                        for tp in pw_set([*lam, 0], [*mu, 0, 0], [*zeta, 0])
                    ]
                    assert padded == by_zeta, (lam, mu, m)
                    assert pw_m_set([*lam, 0], list(mu), m) == by_zeta, (lam, mu, m)


class TestTypedPictureLabels:
    def test_sizes_differ(self):
        picture = pw_set((2, 1), (2, 1), (1,))[0].picture
        with pytest.raises(SizeMismatchError):
            TypedPicture((2, 1), (2,), (1,), picture)

    def test_zeta_does_not_match_the_target(self):
        picture = pw_set((2, 1), (2, 1), (1,))[0].picture
        with pytest.raises(ValueError):
            TypedPicture((2, 1), (2, 1), (2,), picture)

    def test_mu_does_not_match_the_source(self):
        picture = pw_set((3, 1), (2, 2), (2,))[0].picture
        with pytest.raises(ValueError, match="source"):
            TypedPicture((3, 1), (3, 1), (2,), picture)


class TestBalancedFeatures:
    def test_worked_decomposition_features(self):
        for tp, z, w in zip(
            worked_typed_pictures(), ex.PH_BALANCED_COCORNERS, ex.PH_BALANCED_CORNERS
        ):
            assert balanced_cocorner(tp) == z
            assert balanced_corner(tp) == w

    def test_insertion_example_picture(self, example_picture):
        # the (3,3) deletion emits its own transpose; the (2,3) insertion does not
        tp = TypedPicture((5, 5, 4, 2, 1), (4, 4, 4, 3, 2), (3, 3, 2, 1), example_picture)
        assert balanced_corner(tp) == (3, 3)
        assert balanced_cocorner(tp) is None

    def test_empty_picture_is_balanced(self):
        tp = pw_set((3, 1), (3, 1), (3, 1))[0]
        assert balanced_cocorner(tp) == (1, 3) == util.bump_balanced_cocorner(tp)
        assert balanced_corner(tp) is None


class TestSteps:
    def test_step_f_then_e_on_worked_picture(self):
        third = worked_typed_pictures()[2]  # balanced corner (1,4)
        down = step_F(third)
        assert down.m == 5
        assert balanced_cocorner(down) is not None
        assert step_E(down) == third

    def test_step_e_kills_balanced_cocorners(self):
        first = worked_typed_pictures()[0]
        up = step_E(first)
        assert up.m == 7
        assert balanced_cocorner(up) is None
        assert balanced_corner(up) is not None
        assert step_F(up) == first

    def test_step_errors(self):
        first = worked_typed_pictures()[0]   # hook side
        third = worked_typed_pictures()[2]   # cohook side
        with pytest.raises(NotHookShapeError):
            step_E(third)
        with pytest.raises(NotCoHookShapeError):
            step_F(first)

    def test_steps_equal_the_public_path(self):
        # on every picture with n <= 7, the route that a step's scan found gives
        # what picture_insert / picture_delete give with all of their checks
        steps = 0
        for n in range(1, 8):
            for lam in partitions(n):
                for mu in partitions(n):
                    for m in range(n + 1):
                        for tp in pw_m_set(lam, mu, m):
                            if balanced_cocorner(tp) is not None:
                                assert step_E(tp) == util.step_E_by_picture_insert(tp)
                            else:
                                assert step_F(tp) == util.step_F_by_picture_delete(tp)
                            steps += 1
        assert steps == 2_240  # every picture of n <= 7, each stepped once

    def test_each_step_runs_its_route_once(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        names = ("bump_route", "delete_route", "icc_bar", "inner_corners", "picture_bump_destination")
        for module in (hook_rule, pictures, tableaux):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        sides = collections.Counter()
        for lam in partitions(6):
            for m in range(7):
                for tp in pw_m_set(lam, (3, 2, 1), m):
                    hook_side = balanced_cocorner(tp) is not None
                    sides[hook_side] += 1
                    calls.clear()
                    if hook_side:
                        step_E(tp)
                        assert calls == {"bump_route": 1}
                    else:
                        balanced_corner(tp)
                        alone = dict(calls)
                        calls.clear()
                        step_F(tp)
                        assert calls == alone
                        assert set(alone) == {"delete_route", "inner_corners"}
        assert sides[True] and sides[False]


class TestMultiplicities:
    def test_worked_example(self):
        assert multiplicity_hook(ex.PH_LAMBDA, ex.PH_MU, 6) == 2
        assert multiplicity_hook(ex.PH_LAMBDA, ex.PH_MU, 5) == 5
        assert multiplicity_exterior(ex.PH_LAMBDA, ex.PH_MU, 6) == 7

    def test_tensoring_with_trivial(self):
        for lam in partitions(5):
            assert multiplicity_hook(lam, lam, 0) == 1
            assert multiplicity_exterior(lam, lam, 0) == 1
        assert multiplicity_hook((4, 1), (3, 2), 0) == 0

    def test_range_errors(self):
        with pytest.raises(RangeError):
            multiplicity_hook((5, 3, 1, 1), (4, 3, 3), 10)
        with pytest.raises(RangeError):
            multiplicity_exterior((2, 1), (2, 1), 4)


class TestDecomposeTable:
    def test_worked_example_row(self):
        table = decompose_tensor_hook(ex.PH_LAMBDA, 6)
        row = next(r for r in table.rows if r.mu == ex.PH_MU)
        assert (row.ph, row.pw) == (2, 7)
        by_zeta = {zc.zeta: (zc.ph, zc.pw) for zc in row.by_zeta}
        assert by_zeta == {(3, 1): (2, 3), (2, 2): (0, 2), (2, 1, 1): (0, 2)}

    def test_trivial_tensor(self):
        table = decompose_tensor_hook((3,), 0)
        assert len(table.rows) == 1
        assert table.rows[0].mu == (3,) and table.rows[0].ph == 1

    def test_hook_times_hook_row(self):
        table = decompose_tensor_hook((4, 1, 1), 3)
        row = next(r for r in table.rows if r.mu == (3, 1, 1, 1))
        assert row.ph == 1

    def test_rows_sorted_and_nonzero(self):
        table = decompose_tensor_hook((3, 1), 2)
        order = list(partitions(4))
        indices = [order.index(r.mu) for r in table.rows]
        assert indices == sorted(indices)
        assert all(r.pw > 0 for r in table.rows)

    def test_json_schema(self):
        table = decompose_tensor_hook(ex.PH_LAMBDA, 6)
        obj = json.loads(json.dumps(table.to_json()))
        assert obj["lambda"] == [5, 3, 1, 1] and obj["m"] == 6
        row = next(r for r in obj["rows"] if r["mu"] == [4, 3, 3])
        assert row["ph"] == 2 and row["pw"] == 7
        assert {"zeta": [3, 1], "ph": 2, "pw": 3} in row["by_zeta"]

    def test_exterior_table_has_no_hook_column(self):
        table = decompose_tensor_exterior((3, 1), 2)
        assert all(r.ph is None for r in table.rows)
        obj = table.to_json()
        assert all("ph" not in r for r in obj["rows"])

    def test_golden_staircase_totals(self):
        # the baseline answer digest recorded in ROADMAP.md for n = 15
        table = decompose_tensor_hook((5, 4, 3, 2, 1), 7)
        assert len(table.rows) == 131
        assert sum(r.ph for r in table.rows) == 7316
        assert sum(r.pw for r in table.rows) == 13684

    def test_jobs_do_not_change_the_table(self):
        sequential = decompose_tensor_hook((3, 2), 2)
        parallel = decompose_tensor_hook((3, 2), 2, jobs=2)
        assert sequential == parallel


class TestHookHook:
    def test_worked_values(self):
        assert hook_hook_multiplicity(2, 3, 1, 6) == 1
        assert hook_hook_multiplicity(2, 3, 0, 6) == 0
        assert hook_hook_multiplicity(0, 0, 0, 4) == 1
        assert all(hook_hook_multiplicity(0, 0, m, 4) == 0 for m in range(1, 4))

    def test_precondition(self):
        with pytest.raises(RangeError):
            hook_hook_multiplicity(3, 2, 1, 6)
        with pytest.raises(RangeError):
            hook_hook_multiplicity(2, 4, 1, 6)

    @pytest.mark.parametrize(
        "args, what",
        [
            ((0.5, 1, 1, 4), "an integer leg"),  # passed the range check and counted 1
            ((0, 1.0, 1, 4), "an integer leg"),
            ((True, 1, 1, 4), "an integer leg"),
            ((0, "1", 1, 4), "an integer leg"),  # raised TypeError from the comparison
            ((0, 1, 1, 4.0), "an integer degree"),  # was reported as a partition part
        ],
        ids=["float-e", "float-f", "bool-e", "str-f", "float-n"],
    )
    def test_a_leg_or_degree_that_is_not_an_int_raises_value_error(self, args, what):
        with pytest.raises(ValueError, match=f"expected {what},"):
            hook_hook_multiplicity(*args)

    def test_agreement_small(self):
        for n in range(2, 7):
            for e in range(n // 2 + 1):
                for f in range(e, n // 2 + 1):
                    lam, mu = hook_partition(n, e), hook_partition(n, f)
                    for m in range(n):
                        assert hook_hook_multiplicity(e, f, m, n) == multiplicity_hook(
                            lam, mu, m
                        )


class TestStructuralInvariants:
    def test_exactness(self):
        # every picture carries exactly one balanced feature; on every picture
        # with n <= 7 and its E-image, the cocorner and corner scans agree with
        # the full bumping and deletion routes
        for n in range(1, 8):
            for lam in partitions(n):
                for mu in partitions(n):
                    for m in range(n + 1):
                        for tp in pw_m_set(lam, mu, m):
                            z = balanced_cocorner(tp)
                            w = balanced_corner(tp)
                            assert (z is None) != (w is None)
                            assert z == util.bump_balanced_cocorner(tp)
                            assert w == util.delete_balanced_corner(tp)
                            if z is not None:
                                up = step_E(tp)
                                assert balanced_corner(up) == util.delete_balanced_corner(up) == z

    def test_boundary_identities(self, counts_by_pair):
        for (lam, mu), (hook, exterior) in counts_by_pair.items():
            n = sum(lam)
            assert exterior[0] == hook[0]
            assert hook[n] == 0
            # no balanced corner can exist at m = 0 either
            if lam == mu:
                assert exterior[0] == 1

    def test_recurrence(self, counts_by_pair):
        for (lam, mu), (hook, exterior) in counts_by_pair.items():
            n = sum(lam)
            assert exterior[0] == hook[0]
            for m in range(1, n):
                assert exterior[m] == hook[m - 1] + hook[m]
            assert exterior[n] == hook[n - 1]

    def test_symmetry_of_the_product(self, counts_by_pair):
        for (lam, mu), (hook, _) in counts_by_pair.items():
            if lam > mu:
                continue
            assert hook == counts_by_pair[(mu, lam)][0]

    def test_count_equals_oracle_spot(self, counts_by_pair):
        lam, mu = (4, 2, 1), (3, 2, 2)
        hook, _ = counts_by_pair[(lam, mu)]
        for m in range(7):
            assert hook[m] == kronecker(lam, hook_partition(7, m), mu)

    def test_empty_last_source_row_forces_the_balanced_cocorner(self):
        # when the transposed mu-overlap shape has an empty last row, the
        # balanced cocorner is pinned to the transpose of that row's boundary
        hit = 0
        for n in (4, 5):
            for lam in partitions(n):
                for mu in partitions(n):
                    for k in range(n):
                        for zeta in partitions(k):
                            pics = pw_set(lam, mu, zeta)
                            if not pics:
                                continue
                            source = pics[0].picture.source
                            length = source.length
                            lo, hi = source.row_bounds(length)
                            if lo != hi:
                                continue
                            hit += 1
                            zt = conjugate(zeta)
                            pinned = (zt[length - 1], length)
                            for tp in pics:
                                assert balanced_cocorner(tp) == pinned
        assert hit > 10


def test_picture_counts_match_pointwise():
    lam, mu = (3, 2), (2, 2, 1)
    hook, exterior = picture_counts(lam, mu)
    for m in range(5):
        assert hook[m] == multiplicity_hook(lam, mu, m)
    for m in range(6):
        assert exterior[m] == multiplicity_exterior(lam, mu, m)


class TestOverlapStep:
    def test_counts_are_the_overlap_picture_set(self):
        # every overlap inside lam and mu, empty ones included, for n <= 6
        empty = 0
        for n in range(1, 7):
            for lam in partitions(n):
                counts = {
                    (zeta, with_hook): _zeta_counts(lam, zeta, with_hook)
                    for k in range(n + 1)
                    for zeta in partitions_inside(lam, k)
                    for with_hook in (True, False)
                }
                for mu in partitions(n):
                    for m in range(n + 1):
                        inside = [z for z in partitions(n - m) if contains(lam, z)]
                        overlaps = [z for z in inside if contains(mu, z)]
                        assert list(_overlaps(lam, mu, m)) == overlaps
                        for zeta in overlaps:
                            pics = pw_set(lam, mu, zeta)
                            hits = sum(balanced_cocorner(tp) is not None for tp in pics)
                            # a mu without pictures is left out
                            assert counts[zeta, True].get(mu, (0, 0)) == (hits, len(pics))
                            assert counts[zeta, False].get(mu, (None, 0)) == (None, len(pics))
                            assert (mu in counts[zeta, True]) == bool(pics)
                            empty += not pics
        assert empty

    def test_staircase_runs_one_search_per_overlap(self, monkeypatch):
        # one search per zeta |- 8 inside (5,4,3,2,1), each serving every mu;
        # one per (mu, zeta) would be 1,086 searches
        searches = []
        search = hook_rule._search

        def counted(source, inner, bound=None):
            searches.append((source, bound))
            return search(source, inner, bound)

        monkeypatch.setattr(hook_rule, "_search", counted)
        table = decompose_tensor_hook((5, 4, 3, 2, 1), 7)
        assert len(searches) == 14
        assert {source.outer for source, _ in searches} == {(5, 4, 3, 2, 1)}
        assert {bound for _, bound in searches} == {None}
        assert len(table.rows) == 131
        assert sum(r.ph for r in table.rows) == 7316
        assert sum(r.pw for r in table.rows) == 13684

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_rows_equal_the_overlap_picture_sets(self, n):
        # every lam, mu |- n, every m, both tables: p(n)^2 (n + 1) 2 rows,
        # 14,944 over n <= 8
        rows = 0
        for lam in partitions(n):
            for mu in partitions(n):
                for m in range(n + 1):
                    for with_hook in (True, False):
                        expected = util.table_row_by_pw_set(lam, mu, m, with_hook)
                        assert hook_rule._table_row(lam, mu, m, with_hook) == expected
                        rows += 1
        assert rows == {1: 4, 2: 24, 3: 72, 4: 250, 5: 588, 6: 1694, 7: 3600, 8: 8712}[n]

    @pytest.mark.parametrize(
        "count, expected", [(multiplicity_hook, 451), (multiplicity_exterior, 797)]
    )
    def test_single_count_runs_one_bounded_search_per_overlap(self, monkeypatch, count, expected):
        # the 16 overlaps zeta |- 9 inside (5,4,3,2,1), each searched from lam/zeta onto mu'/zeta'
        lam, mu = (6, 4, 3, 2, 1), (5, 4, 3, 2, 1, 1)
        searches = []
        search = hook_rule._search

        def counted(source, inner, bound=None):
            searches.append((source, bound))
            return search(source, inner, bound)

        monkeypatch.setattr(hook_rule, "_search", counted)
        assert count(lam, mu, 7) == expected
        assert len(searches) == len(_overlaps(lam, mu, 7)) == 16
        assert {source.outer for source, _ in searches} == {lam}
        assert {bound for _, bound in searches} == {conjugate(mu)}

    def test_picture_counts_run_one_bounded_search_per_leg_and_overlap(self, monkeypatch):
        # one search per (m, zeta), bounded to mu'/zeta'; the overlap picture
        # sets are never built
        lam, mu = (4, 2, 1), (3, 2, 1, 1)
        searches = []
        search = hook_rule._search

        def counted(source, inner, bound=None):
            searches.append((source, bound))
            return search(source, inner, bound)

        def unused(*args):
            raise AssertionError("single counts build no overlap picture set")

        monkeypatch.setattr(hook_rule, "_search", counted)
        monkeypatch.setattr(hook_rule, "_pictures", unused)
        hook, exterior = picture_counts(lam, mu)
        assert len(searches) == sum(len(_overlaps(lam, mu, m)) for m in range(8))
        assert {source.outer for source, _ in searches} == {lam}
        assert {bound for _, bound in searches} == {conjugate(mu)}
        monkeypatch.undo()
        for m in range(8):
            assert hook[m] == util.table_row_by_pw_set(lam, mu, m, True).ph
            assert exterior[m] == util.table_row_by_pw_set(lam, mu, m, False).pw
        assert sum(exterior)
