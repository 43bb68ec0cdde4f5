import dataclasses
import json
from math import factorial

import pytest

import util
from hookkron import oracle
from hookkron.errors import RangeError, SizeMismatchError, TooLargeError
from hookkron.oracle import (
    character_table,
    character_value,
    dimension,
    exterior_multiplicity,
    hook_exterior_sweep,
    kronecker,
    load_cache_file,
)
from hookkron.shapes import conjugate, hook_partition, partitions


class TestCharacterTable:
    def test_degree_one(self):
        t = character_table(1)
        assert t.parts == ((1,),)
        assert t.rows == ((1,),)
        assert t.class_sizes == (1,)

    def test_dimensions_match_hook_lengths(self):
        for n in range(1, 8):
            t = character_table(n)
            for lam in t.parts:
                assert t.dimension(lam) == util.hook_length_dimension(lam)

    def test_known_value(self):
        assert character_table(4).chi((2, 2), (2, 1, 1)) == 0
        assert character_table(3).dimension((2, 1)) == 2
        assert character_value((2, 1), (3,)) == -1

    def test_column_orthogonality(self):
        for n in range(1, 10):
            t = character_table(n)
            count = len(t.parts)
            for i in range(count):
                for j in range(i, count):
                    total = sum(t.rows[k][i] * t.rows[k][j] for k in range(count))
                    expected = factorial(n) // t.class_sizes[i] if i == j else 0
                    assert total == expected

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 10):
            assert sum(character_table(n).class_sizes) == factorial(n)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            character_table(10)
        assert character_table(10, cap=10).n == 10
        with pytest.raises(RangeError):
            character_table(0)

    def test_a_label_of_another_degree_is_a_size_mismatch(self):
        table = character_table(3)
        with pytest.raises(SizeMismatchError, match=r"\(3, 1\) does not partition the degree 3"):
            table.chi((3, 1), (3,))
        with pytest.raises(SizeMismatchError):
            table.dimension((1,))

    def test_a_degree_of_true_is_refused_and_stores_nothing(self, tmp_path):
        oracle._table.cache_clear()
        with pytest.raises(ValueError, match="expected an integer degree, got True"):
            character_table(True)
        cache = tmp_path / "tables.json"
        assert type(character_table(1, cache=cache).n) is int
        assert type(json.loads(cache.read_text())["tables"][0]["n"]) is int


class TestKronecker:
    def test_trivial_factor(self):
        for n in range(2, 7):
            for lam in partitions(n):
                for mu in partitions(n):
                    assert kronecker(lam, (n,), mu) == int(lam == mu)

    def test_sign_factor(self):
        for n in range(2, 7):
            for lam in partitions(n):
                for mu in partitions(n):
                    expected = int(mu == conjugate(lam))
                    assert kronecker(lam, (1,) * n, mu) == expected

    def test_symmetry_in_all_arguments(self):
        import itertools

        triple = ((3, 1, 1), (3, 2), (4, 1))
        values = {kronecker(*perm) for perm in itertools.permutations(triple)}
        assert len(values) == 1

    def test_worked_example(self):
        assert kronecker((5, 3, 1, 1), (4, 1, 1, 1, 1, 1, 1), (4, 3, 3), cap=10) == 2

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kronecker((2, 1), (2,), (2, 1))

    def test_equals_the_unmemoised_product(self):
        table = character_table(5)
        for lam in partitions(5):
            for nu in partitions(5):
                for mu in partitions(5):
                    rows = [table.rows[table.index(p)] for p in (lam, nu, mu)]
                    total = sum(s * a * b * c for s, a, b, c in zip(table.class_sizes, *rows))
                    assert kronecker(lam, nu, mu) * factorial(5) == total

    def test_cap_holds_after_a_memo_hit(self):
        triple = ((3, 2), (4, 1), (3, 1, 1))
        assert kronecker(*triple) == kronecker(*triple)
        with pytest.raises(TooLargeError):
            kronecker(*triple, cap=4)


class TestExteriorMultiplicity:
    def test_boundaries(self):
        for lam in partitions(5):
            for mu in partitions(5):
                assert exterior_multiplicity(lam, mu, 0) == int(lam == mu)
                assert exterior_multiplicity(lam, mu, 5) == int(mu == conjugate(lam))

    def test_worked_example(self):
        assert exterior_multiplicity((5, 3, 1, 1), (4, 3, 3), 6, cap=10) == 7

    def test_boundaries_need_no_table(self):
        # Λ^0 V is trivial and Λ^n V the sign at any degree, the cap's too
        lam = (6, 4, 2)
        assert exterior_multiplicity(lam, lam, 0) == 1
        assert exterior_multiplicity(lam, (5, 4, 3), 0) == 0
        assert exterior_multiplicity(lam, (3, 3, 2, 2, 1, 1), 12) == 1
        assert exterior_multiplicity(lam, lam, 12) == 0
        with pytest.raises(TooLargeError):
            exterior_multiplicity(lam, lam, 1)

    def test_range(self):
        with pytest.raises(RangeError):
            exterior_multiplicity((2, 1), (2, 1), 4)

    def test_alternating_sum_recovers_hook_multiplicity(self):
        for n in range(2, 7):
            for lam in partitions(n):
                for mu in partitions(n):
                    for m in range(n):
                        alternating = sum(
                            (-1) ** (m - i) * exterior_multiplicity(lam, mu, i)
                            for i in range(m + 1)
                        )
                        assert alternating == kronecker(lam, hook_partition(n, m), mu)


class TestHookExteriorSweep:
    def test_equals_the_per_call_oracle(self):
        for n in range(1, 8):
            for lam in partitions(n):
                for mu in partitions(n):
                    hook, exterior = hook_exterior_sweep(lam, mu)
                    assert hook == [kronecker(lam, hook_partition(n, m), mu) for m in range(n)]
                    assert exterior == [exterior_multiplicity(lam, mu, m) for m in range(n + 1)]

    def test_cap(self):
        with pytest.raises(TooLargeError):
            hook_exterior_sweep((10,), (10,))
        assert hook_exterior_sweep((10,), (10,), cap=10) == ([1] + [0] * 9, [1, 1] + [0] * 9)

    def test_corrupted_class_size_raises(self, monkeypatch):
        table = character_table(5)
        sizes = table.class_sizes[:-1] + (table.class_sizes[-1] + 1,)  # the identity class
        corrupted = dataclasses.replace(table, class_sizes=sizes)
        monkeypatch.setattr(oracle, "_table", {5: corrupted}.__getitem__)
        with pytest.raises(ArithmeticError, match="not integral"):
            hook_exterior_sweep((5,), (5,))

    def test_negated_class_sizes_give_a_negative_multiplicity(self, monkeypatch):
        # every division comes out whole, with the sign flipped, from Λ^0 on
        table = character_table(4)
        negated = dataclasses.replace(table, class_sizes=tuple(-s for s in table.class_sizes))
        monkeypatch.setattr(oracle, "_table", {4: negated}.__getitem__)
        with pytest.raises(ArithmeticError, match=r"^negative multiplicity for \(4,\), \(4,\), Λ\^0$"):
            hook_exterior_sweep((4,), (4,))

    @pytest.mark.parametrize(
        "perturb, message",
        [
            # the trivial character in place of the sign at m = n: every division
            # still comes out whole and no hook is negative, but Λ^n V no longer
            # equals the last hook
            (lambda c: c[:-1] + c[:1], r"hooks \[1, 0, 0, 0, 0\], residual 1 "),
            # an empty Λ^1 V as well: it cannot hold the trivial summand hook_0, so
            # hook_1 < 0, while the residual comes out zero
            (lambda c: c[:1] + ((0,) * len(c[1]),) + c[2:-1] + c[:1], r"-1.*residual 0 "),
        ],
        ids=["top-coefficient", "first-coefficient"],
    )
    def test_perturbed_column_is_caught(self, monkeypatch, perturb, message):
        columns = perturb(character_table(5).exterior_columns)
        monkeypatch.setattr(oracle.CharacterTable, "exterior_columns", property(lambda t: columns))
        with pytest.raises(ArithmeticError, match=message):
            hook_exterior_sweep((5,), (5,))


# Every oracle call that takes labels, on labels of n = 3, by arity.
LABEL_TAKERS = {
    "kronecker": (3, kronecker),
    "hook_exterior_sweep": (2, hook_exterior_sweep),
    "exterior_multiplicity": (2, lambda lam, mu: exterior_multiplicity(lam, mu, 1)),
    "chi": (2, lambda lam, mu: character_table(3).chi(lam, mu)),
}


@pytest.mark.parametrize(
    "name, position, label",
    [
        pytest.param(name, position, label, id=f"{name}-label{position + 1}-{label}")
        for name, (arity, _) in LABEL_TAKERS.items()
        for position in range(arity)
        for label in [(True, True, True), (2.0, 1)]
    ],
)
def test_a_part_that_is_not_an_int_is_refused(name, position, label):
    # each sums to the degree of (2, 1), so only the form rule can refuse it
    arity, call = LABEL_TAKERS[name]
    labels = [(2, 1)] * arity
    labels[position] = label
    with pytest.raises(ValueError, match="expected an integer part"):
        call(*labels)


class TestDimension:
    def test_empty_partition(self):
        assert dimension(()) == 1

    def test_staircase(self):
        assert dimension((3, 2, 1)) == 16


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tables.json"
        assert load_cache_file(path) is None
        table = character_table(6, cache=path)
        written, inode = path.read_bytes(), path.stat().st_ino
        data = json.loads(written)
        assert data == {"version": 1, "tables": [table.to_json()]}
        assert all(
            isinstance(v, int) for row in data["tables"][0]["rows"] for v in row
        )
        assert load_cache_file(path) == written
        # recompute in a fresh memory cache; a file in step is not rewritten
        oracle._table.cache_clear()
        assert character_table(6, cache=path) == table
        assert (path.read_bytes(), path.stat().st_ino) == (written, inode)

    def test_each_write_keeps_only_its_own_degree(self, tmp_path):
        path = tmp_path / "tables.json"
        character_table(3, cache=path)
        character_table(4, cache=path)
        assert [entry["n"] for entry in json.loads(path.read_text())["tables"]] == [4]

    @pytest.mark.parametrize(
        "damage",
        ["not-json", "tables-not-a-list", "string-n", "true-value", "float-value", "degree-200"],
    )
    def test_a_damaged_file_is_replaced_silently(self, tmp_path, capsys, monkeypatch, damage):
        # no table is read from the file, so no damage can change or slow an
        # answer: not even a degree whose partitions would never be enumerated
        clean = tmp_path / "clean.json"
        character_table(3, cache=clean)
        data = json.loads(clean.read_text())
        table = data["tables"][0]
        if damage == "tables-not-a-list":
            data["tables"] = {}
        elif damage == "string-n":
            table["n"] = "3"
        elif damage == "true-value":
            assert table["rows"][0][0] == 1
            table["rows"][0][0] = True
        elif damage == "float-value":
            assert table["rows"][1][1] == 0
            table["rows"][1][1] = 0.0
        elif damage == "degree-200":
            data["tables"].append({"n": 200, "classes": [[200]], "rows": [[1]]})
        path = tmp_path / "tables.json"
        path.write_text("{not json" if damage == "not-json" else json.dumps(data))
        monkeypatch.setattr(oracle, "partitions", lambda n: pytest.fail(f"partitions({n})"))
        character_table(3, cache=path)
        assert capsys.readouterr().err == ""
        assert path.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("version", [99, True, 1.0], ids=["newer", "true", "float"])
    def test_version_must_be_the_json_integer_one(self, tmp_path, version):
        # True and 1.0 compare equal to 1, so a check by value alone overwrote the file
        path = tmp_path / "tables.json"
        path.write_text(json.dumps({"version": version, "tables": []}))
        written = path.read_bytes()
        with pytest.raises(ValueError, match="unsupported cache version"):
            load_cache_file(path)
        with pytest.raises(ValueError, match="unsupported cache version"):
            character_table(3, cache=path)
        assert path.read_bytes() == written

    def test_library_calls_take_no_cache(self, tmp_path):
        path = tmp_path / "tables.json"
        with pytest.raises(TypeError):
            kronecker((2, 1), (2, 1), (3,), cache=path)
        with pytest.raises(TypeError):
            exterior_multiplicity((2, 1), (2, 1), 1, cache=path)
        assert not path.exists()
