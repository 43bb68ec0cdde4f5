"""Character-theoretic ground truth for the symmetric group.

Everything is exact integer arithmetic: character values come from the
border-strip recursion on beta-numbers, tensor multiplicities from the
class-weighted triple product divided by n! with a hard zero-remainder check.
Tables always come from the recursion and are cached in memory per degree;
a small JSON file can keep a copy, which is checked against the recursion and
rewritten when it differs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from pathlib import Path

from .errors import RangeError, SizeMismatchError, TooLargeError
from .shapes import Partition, conjugate, hook_partition, partition, partitions

DEFAULT_CAP = 9
CACHE_FORMAT_VERSION = 1


def _strip_removals(lam: Partition, k: int):
    """Partitions left by removing a border strip of size ``k``, with signs.

    A strip removal is a beta-number dropping by ``k``; the sign is minus one
    to the number of beta-numbers jumped over (rows spanned minus one).
    """
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    present = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in present:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            c - (length - 1 - i) for i, c in enumerate(new_beta)
        )
        yield partition(new_lam), -1 if height % 2 else 1


@lru_cache(maxsize=None)
def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible character of shape ``lam`` on the class of cycle type ``mu``."""
    if not lam:
        return 1
    total = 0
    rest = mu[1:]
    for smaller, sign in _strip_removals(lam, mu[0]):
        total += sign * character_value(smaller, rest)
    return total


def cycle_type_class_size(mu: Partition, n: int) -> int:
    """Number of permutations of cycle type ``mu`` in the degree-``n`` group."""
    z = 1
    for part in set(mu):
        count = mu.count(part)
        z *= part**count * factorial(count)
    return factorial(n) // z


@dataclass(frozen=True)
class CharacterTable:
    """Square integer table over the fixed partition order.

    ``rows[i][j]`` is the character of the irreducible labelled ``parts[i]``
    on the conjugacy class of cycle type ``parts[j]``.
    """

    n: int
    parts: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]

    def index(self, p: Partition) -> int:
        return _part_index(self.n)[p]

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.rows[self.index(lam)][self.index(mu)]

    def dimension(self, lam: Partition) -> int:
        return self.rows[self.index(lam)][-1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "classes": [list(p) for p in self.parts],
            "rows": [list(row) for row in self.rows],
        }


@lru_cache(maxsize=None)
def _part_index(n: int) -> dict[Partition, int]:
    return {p: k for k, p in enumerate(partitions(n))}


_TABLES: dict[int, CharacterTable] = {}


def _compute_table(n: int) -> CharacterTable:
    parts = partitions(n)
    rows = tuple(
        tuple(character_value(lam, mu) for mu in parts) for lam in parts
    )
    sizes = tuple(cycle_type_class_size(mu, n) for mu in parts)
    return CharacterTable(n, parts, rows, sizes)


def _table_from_json(obj: dict) -> CharacterTable:
    n = int(obj["n"])
    parts = tuple(partition(p) for p in obj["classes"])
    if parts != partitions(n):
        raise ValueError(f"cached table for n={n} lists classes in a foreign order")
    rows = tuple(tuple(int(v) for v in row) for row in obj["rows"])
    sizes = tuple(cycle_type_class_size(mu, n) for mu in parts)
    return CharacterTable(n, parts, rows, sizes)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def load_cache_file(path: str | Path) -> dict[int, CharacterTable]:
    """The tables stored at ``path`` that parse, keyed by degree.

    A file that is not JSON, or a table that is malformed, is skipped with one
    warning line on stderr, so the table is rewritten when it is next needed.
    Entries are not checked here; :func:`character_table` compares them with
    the recursion.  An unknown format version raises, so a newer file is never
    overwritten.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError:
        _warn(f"cache file {path} is not valid JSON; ignoring it")
        return {}
    if not isinstance(obj, dict) or obj.get("version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported cache version in {path}")
    entries = obj.get("tables")
    if not isinstance(entries, list):
        _warn(f"cache file {path} has no list of tables; ignoring it")
        return {}
    out = {}
    for k, entry in enumerate(entries):
        try:
            table = _table_from_json(entry)
        except (KeyError, TypeError, ValueError):
            _warn(f"cache file {path}: table {k + 1} is damaged; ignoring it")
            continue
        out[table.n] = table
    return out


def save_cache_file(path: str | Path, tables: dict[int, CharacterTable]) -> None:
    """Write ``tables`` through a temporary file in the same directory, so an
    interrupted write never leaves a truncated cache behind."""
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "tables": [tables[n].to_json() for n in sorted(tables)],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def character_table(
    n: int, *, cache: str | Path | None = None, cap: int = DEFAULT_CAP
) -> CharacterTable:
    """Full character table for degree ``n``, computed once per process.

    With ``cache``, the file's copy of the table is compared with the computed
    one and (re)written if it is missing or differs, the latter with a warning.
    """
    if n < 1:
        raise RangeError(f"degree must be at least 1, got {n}")
    if n > cap:
        raise TooLargeError(f"degree {n} exceeds the cap {cap}")
    if n not in _TABLES:
        _TABLES[n] = _compute_table(n)
    table = _TABLES[n]
    if cache is not None:
        stored = load_cache_file(cache) if os.path.exists(cache) else {}
        if stored.get(n) != table:
            if n in stored:
                _warn(f"cache file {cache}: table for n={n} differs; rewriting it")
            stored[n] = table
            save_cache_file(cache, stored)
    return table


def kronecker(
    lam: Partition,
    nu: Partition,
    mu: Partition,
    *,
    cache: str | Path | None = None,
    cap: int = DEFAULT_CAP,
) -> int:
    """Multiplicity of the ``mu`` irreducible in the tensor product of the
    ``lam`` and ``nu`` irreducibles; symmetric in all three labels."""
    n = sum(lam)
    if sum(nu) != n or sum(mu) != n:
        raise SizeMismatchError(f"labels must partition the same n: {lam}, {nu}, {mu}")
    table = character_table(n, cache=cache, cap=cap)
    row_lam = table.rows[table.index(lam)]
    row_nu = table.rows[table.index(nu)]
    row_mu = table.rows[table.index(mu)]
    total = sum(
        size * a * b * c
        for size, a, b, c in zip(table.class_sizes, row_lam, row_nu, row_mu)
    )
    quotient, remainder = divmod(total, factorial(n))
    if remainder:
        raise ArithmeticError(
            f"inner product is not integral for {lam}, {nu}, {mu}; character bug"
        )
    if quotient < 0:
        raise ArithmeticError(f"negative multiplicity for {lam}, {nu}, {mu}")
    return quotient


def dimension(lam: Partition, *, cap: int = DEFAULT_CAP) -> int:
    if not lam:
        return 1
    return character_table(sum(lam), cap=cap).dimension(lam)


def exterior_multiplicity(
    lam: Partition,
    mu: Partition,
    m: int,
    *,
    cache: str | Path | None = None,
    cap: int = DEFAULT_CAP,
) -> int:
    """Multiplicity of the ``mu`` irreducible in ``lam`` tensored with the
    m-th exterior power of the defining permutation module.

    That module is the sum of the two neighbouring hooks (just one of them at
    the boundary degrees), so the answer is a sum of at most two tensor
    multiplicities.
    """
    n = sum(lam)
    if sum(mu) != n:
        raise SizeMismatchError(f"labels must partition the same n: {lam}, {mu}")
    if not 0 <= m <= n:
        raise RangeError(f"need 0 <= m <= n, got m={m}, n={n}")
    if m == 0:
        return int(lam == mu)
    if m == n:
        return int(mu == conjugate(lam))
    upper = kronecker(lam, hook_partition(n, m - 1), mu, cache=cache, cap=cap)
    lower = kronecker(lam, hook_partition(n, m), mu, cache=cache, cap=cap)
    return upper + lower
