import pytest

import util
from hookkron import lr
from hookkron.errors import RangeError, SizeMismatchError
from hookkron.hook_rule import multiplicity_exterior
from hookkron.lr import exterior_multiplicity_via_lr, exterior_sweep_via_lr, lr_coefficient
from hookkron.oracle import dimension, hook_exterior_sweep
from hookkron.pictures import _search, enumerate_pictures
from hookkron.shapes import SkewShape, conjugate, contains, partitions, skew
from hookkron.verify import verify_range


class TestLRCoefficient:
    def test_unit_cases(self):
        for lam in ((3, 1), (2, 2, 1), (4,)):
            assert lr_coefficient(lam, lam, ()) == 1
            assert lr_coefficient(lam, (), lam) == 1

    def test_oracle_cases(self):
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
        assert lr_coefficient((2, 2), (1,), (2, 1)) == 1

    def test_not_contained_is_zero(self):
        assert lr_coefficient((3, 1), (2, 2), ()) == 0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            lr_coefficient((3, 1), (1,), (1,))

    @pytest.mark.parametrize("position", range(3))
    def test_list_and_zero_padded_labels_equal_tuples(self, position):
        canonical = [(3, 2, 1), (2, 1), (2, 1)]
        assert lr_coefficient(*canonical) == 2
        for spelling in (list(canonical[position]), (*canonical[position], 0)):
            labels = list(canonical)
            labels[position] = spelling
            assert lr_coefficient(*labels) == 2

    @pytest.mark.parametrize(
        "labels",
        [
            ((1, 2), (1,), (2,)),  # sizes agree: without the rule this counted 0
            ((2.0, 1), (1,), (2,)),
            ((2, 1), (True,), (2,)),
            ((2, 1), (1,), (0, 2)),
        ],
    )
    def test_a_label_that_is_not_a_partition_raises_value_error(self, labels):
        with pytest.raises(ValueError, match="partition parts|integer part") as caught:
            lr_coefficient(*labels)
        assert not isinstance(caught.value, SizeMismatchError)

    def test_against_character_oracle(self):
        for n in range(1, 7):
            for lam in partitions(n):
                for m in range(n + 1):
                    for zeta in partitions(n - m):
                        for xi in partitions(m):
                            assert lr_coefficient(lam, zeta, xi) == util.lr_via_characters(
                                lam, zeta, xi
                            )

    def test_equals_the_picture_count(self):
        for n in range(1, 7):
            for lam in partitions(n):
                for m in range(n + 1):
                    for zeta in partitions(n - m):
                        if not contains(lam, zeta):
                            continue
                        for xi in partitions(m):
                            pictures = enumerate_pictures(skew(xi, ()), skew(lam, zeta))
                            assert lr_coefficient(lam, zeta, xi) == len(pictures)

    def test_symmetry_in_the_lower_labels(self):
        # lr_coefficient searches from λ less the larger lower label; the witness
        # searches from the straight ξ onto λ/ζ, the one straight-shape search left
        for n in range(1, 9):
            for lam in partitions(n):
                for m in range(n // 2, n + 1):
                    for zeta in partitions(n - m):
                        if not contains(lam, zeta):
                            continue
                        for xi in partitions(m):
                            witness = len(list(_search(skew(xi, ()), zeta, lam)))
                            assert lr_coefficient(lam, zeta, xi) == witness
                            assert lr_coefficient(lam, xi, zeta) == witness

    def test_a_single_coefficient_stays_one_bounded_search(self, monkeypatch):
        # expanding (10,...,1)/(9,...,1) gives 9,496 leaves; bounded to (10) it gives one
        leaves = []

        def recording(source, inner, bound=None):
            for leaf in _search(source, inner, bound):
                leaves.append(leaf)
                yield leaf

        monkeypatch.setattr(lr, "_search", recording)
        staircase = tuple(range(10, 0, -1))
        assert lr_coefficient(staircase, staircase[1:], (10,)) == 1
        assert len(leaves) == 1

    def test_one_bounded_search_from_lam_less_the_larger_label(self, monkeypatch):
        calls = []

        def recording(source, inner, bound=None):
            calls.append((source, inner, bound))
            return _search(source, inner, bound)

        monkeypatch.setattr(lr, "_search", recording)
        for n in range(7):
            for lam in partitions(n):
                for m in range(n + 1):
                    for zeta in partitions(n - m):
                        for xi in partitions(m):
                            calls.clear()
                            lr_coefficient(lam, zeta, xi)
                            kappa, nu = (zeta, xi) if 2 * m <= n else (xi, zeta)
                            one = [(SkewShape(lam, kappa), (), nu)]
                            assert calls == (one if contains(lam, kappa) else []), (lam, zeta, xi)

    def test_transpose_symmetry(self):
        for n in range(1, 8):
            for lam in partitions(n):
                for m in range(n + 1):
                    for zeta in partitions(n - m):
                        for xi in partitions(m):
                            assert lr_coefficient(lam, zeta, xi) == lr_coefficient(
                                conjugate(lam), conjugate(zeta), conjugate(xi)
                            )

    def test_restriction_dimension_identity(self):
        # for each split the restricted module keeps its dimension
        for n in range(1, 8):
            for lam in partitions(n):
                for m in range(n + 1):
                    total = 0
                    for zeta in partitions(n - m):
                        for xi in partitions(m):
                            c = lr_coefficient(lam, zeta, xi)
                            if c:
                                total += c * dimension(zeta) * dimension(xi)
                    assert total == dimension(lam)


class TestExpansion:
    def test_equals_the_single_coefficients(self):
        for n in range(0, 9):
            for lam in partitions(n):
                for k in range(n + 1):
                    for kappa in partitions(k):
                        if not contains(lam, kappa):
                            continue
                        single = {xi: lr_coefficient(lam, kappa, xi) for xi in partitions(n - k)}
                        expected = {xi: c for xi, c in single.items() if c}
                        assert dict(lr._expansion(lam, kappa)) == expected, (lam, kappa)


class TestExteriorViaLR:
    def test_worked_example(self):
        assert exterior_multiplicity_via_lr((5, 3, 1, 1), (4, 3, 3), 6) == 7

    def test_identity_at_zero(self):
        for lam in partitions(5):
            assert exterior_multiplicity_via_lr(lam, lam, 0) == 1

    def test_matches_picture_count(self):
        assert exterior_multiplicity_via_lr((2, 1), (2, 1), 1) == multiplicity_exterior(
            (2, 1), (2, 1), 1
        )

    def test_bounded_sum_equals_the_full_double_sum(self):
        # only zeta inside lam and mu, and xi inside lam and mu', are visited
        for n in range(0, 7):
            for lam in partitions(n):
                for mu in partitions(n):
                    for m in range(n + 1):
                        full = sum(
                            lr_coefficient(lam, zeta, xi) * lr_coefficient(mu, zeta, conjugate(xi))
                            for zeta in partitions(n - m)
                            for xi in partitions(m)
                        )
                        assert exterior_multiplicity_via_lr(lam, mu, m) == full

    def test_range(self):
        with pytest.raises(RangeError):
            exterior_multiplicity_via_lr((2, 1), (2, 1), -1)
        with pytest.raises(SizeMismatchError):
            exterior_multiplicity_via_lr((2, 1), (2,), 1)


class TestExteriorSweepViaLR:
    def test_equals_the_per_m_sums_and_the_oracle(self):
        for n in range(1, 8):
            for lam in partitions(n):
                for mu in partitions(n):
                    sweep = exterior_sweep_via_lr(lam, mu)
                    per_m = [exterior_multiplicity_via_lr(lam, mu, m) for m in range(n + 1)]
                    assert sweep == per_m
                    assert sweep == hook_exterior_sweep(lam, mu)[1]

    def test_takes_list_labels_and_refuses_a_size_mismatch(self):
        assert exterior_sweep_via_lr([2, 1], [2, 1, 0]) == exterior_sweep_via_lr((2, 1), (2, 1))
        assert exterior_sweep_via_lr((), ()) == [1]
        with pytest.raises(SizeMismatchError):
            exterior_sweep_via_lr((2, 1), (2,))

    def test_every_search_of_a_verify_sweep_starts_from_at_most_half_the_cells(self, monkeypatch):
        searched = []

        def recording(source, inner, bound=None):
            n = sum(source.outer) if bound is None else sum(bound)
            searched.append((source.size, n, (source.outer, source.inner), inner))
            return _search(source, inner, bound)

        monkeypatch.setattr(lr, "_search", recording)
        lr._expansion.cache_clear()  # every expansion is searched afresh
        assert verify_range(1, 7).ok
        assert searched
        assert all(cells <= n // 2 for cells, n, _, _ in searched)
        # one expansion per (λ, κ), each onto every straight shape
        shapes = [shape for _, _, shape, _ in searched]
        assert len(shapes) == len(set(shapes))
        assert all(inner == () for *_, inner in searched)
