import json
from math import factorial

import pytest

import util
from hookkron.errors import RangeError, SizeMismatchError, TooLargeError
from hookkron.oracle import (
    CharacterTable,
    character_table,
    character_value,
    dimension,
    exterior_multiplicity,
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


class TestExteriorMultiplicity:
    def test_boundaries(self):
        for lam in partitions(5):
            for mu in partitions(5):
                assert exterior_multiplicity(lam, mu, 0) == int(lam == mu)
                assert exterior_multiplicity(lam, mu, 5) == int(mu == conjugate(lam))

    def test_worked_example(self):
        assert exterior_multiplicity((5, 3, 1, 1), (4, 3, 3), 6, cap=10) == 7

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


class TestDimension:
    def test_empty_partition(self):
        assert dimension(()) == 1

    def test_staircase(self):
        assert dimension((3, 2, 1)) == 16


class TestCacheFile:
    def test_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "tables.json"
        table = character_table(6, cache=path)
        written, inode = path.read_bytes(), path.stat().st_ino
        data = json.loads(written)
        assert data["version"] == 1
        assert data["tables"][0]["n"] == 6
        assert all(
            isinstance(v, int) for row in data["tables"][0]["rows"] for v in row
        )
        assert load_cache_file(path)[6] == table
        # recompute in a fresh memory cache; a file in step is not rewritten
        import hookkron.oracle as oracle_module

        monkeypatch.delitem(oracle_module._TABLES, 6)
        assert character_table(6, cache=path) == table
        assert (path.read_bytes(), path.stat().st_ino) == (written, inode)

    def test_appends_new_degrees(self, tmp_path):
        path = tmp_path / "tables.json"
        character_table(3, cache=path)
        character_table(4, cache=path)
        stored = load_cache_file(path)
        assert set(stored) == {3, 4}
        assert isinstance(stored[4], CharacterTable)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps({"version": 99, "tables": []}))
        with pytest.raises(ValueError):
            load_cache_file(path)
