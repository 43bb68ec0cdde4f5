"""Character-theoretic ground truth for the symmetric group.

Everything is exact integer arithmetic: character values come from the
border-strip recursion on beta-numbers, tensor multiplicities from the
class-weighted triple product divided by n! with a hard zero-remainder check.
Λ^m V, for the permutation module V, takes its character from det(1 + qσ), and
hook_m = Λ^m V − hook_{m-1}.  Tables always come from the recursion and are
cached in memory per degree; a small JSON file can keep a copy, which is
checked against the recursion and rewritten when it differs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import factorial
from operator import mul
from pathlib import Path

from .errors import RangeError, TooLargeError
from .shapes import Partition, _ints, conjugate, label_size, partition, partitions

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
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
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
        """Where label ``p`` sits; other spellings are made canonical on a miss."""
        try:
            return _part_index(self.n)[p]
        except (KeyError, TypeError):
            return _part_index(self.n)[partition(p)]

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.rows[self.index(lam)][self.index(mu)]

    def dimension(self, lam: Partition) -> int:
        return self.rows[self.index(lam)][-1]

    @cached_property
    def exterior_columns(self) -> tuple[tuple[int, ...], ...]:
        """|σ|·e_m(σ) per class σ, m = 0..n: e_m(σ), the character of Λ^m V, is the
        q^m coefficient of det(1 + qσ), the product of 1 − (−q)^ℓ over the cycles ℓ of σ."""
        columns = []
        for size, cycles in zip(self.class_sizes, self.parts):
            poly = [size]
            for ell in cycles:
                poly = [a - (-1) ** ell * b for a, b in zip(poly + [0] * ell, [0] * ell + poly)]
            columns.append(poly)
        return tuple(zip(*columns))

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


def _is_partition_count(n: int, count: int) -> bool:
    """Whether ``n`` has ``count`` partitions.  Euler's pentagonal recurrence
    gives p(0), p(1), ...; p never decreases, so it stops once p(k) > count."""
    p = [1]
    while len(p) <= n and p[-1] <= count:
        k = len(p)
        pentagonal = ((j, j * (3 * j - 1) // 2) for j in range(1, k + 1))
        p.append(sum((-1) ** (j + 1) * (p[k - g] + (p[k - g - j] if g + j <= k else 0))
                     for j, g in pentagonal if g <= k))
    return 0 <= n < len(p) and p[n] == count


def _table_from_json(obj: dict) -> CharacterTable:
    (n,) = _ints((obj["n"],))
    if not _is_partition_count(n, len(obj["classes"])):  # cheap, unlike partitions(huge n)
        raise ValueError(f"cached table for n={n} lists the wrong number of classes")
    parts = tuple(partition(p) for p in obj["classes"])
    if parts != partitions(n):
        raise ValueError(f"cached table for n={n} lists classes in a foreign order")
    rows = tuple(map(_ints, obj["rows"]))
    sizes = tuple(cycle_type_class_size(mu, n) for mu in parts)
    return CharacterTable(n, parts, rows, sizes)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def load_cache_file(path: str | Path) -> dict[int, CharacterTable]:
    """The tables stored at ``path`` that parse, keyed by degree.

    A file that is not JSON, or a table that is malformed, is skipped with one
    warning line on stderr, and :func:`character_table` drops it from the file.
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


def _cache_text(tables: dict[int, CharacterTable]) -> str:
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "tables": [tables[n].to_json() for n in sorted(tables)],
    }
    return json.dumps(payload) + "\n"


def save_cache_file(path: str | Path, tables: dict[int, CharacterTable]) -> None:
    """Write ``tables`` through a temporary file in the same directory, so an
    interrupted write never leaves a truncated cache behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(_cache_text(tables))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def character_table(
    n: int, *, cache: str | Path | None = None, cap: int = DEFAULT_CAP
) -> CharacterTable:
    """Full character table for degree ``n``, computed once per process.

    With ``cache``, the file is rewritten, with a warning if its copy of the
    table differs, whenever it is not exactly the tables that parse plus the
    computed one.
    """
    if n < 1:
        raise RangeError(f"degree must be at least 1, got {n}")
    if n > cap:
        raise TooLargeError(f"degree {n} exceeds the cap {cap}")
    if n not in _TABLES:
        _TABLES[n] = _compute_table(n)
    table = _TABLES[n]
    if cache is not None:
        on_disk = Path(cache).read_bytes() if os.path.exists(cache) else None
        stored = load_cache_file(cache) if on_disk is not None else {}
        if stored.get(n, table) != table:
            _warn(f"cache file {cache}: table for n={n} differs; rewriting it")
        stored[n] = table
        if _cache_text(stored).encode() != on_disk:
            save_cache_file(cache, stored)
    return table


def _multiplicity(total: int, n: int, *labels) -> int:
    """``total`` over n!, which must leave no remainder and no sign."""
    quotient, remainder = divmod(total, factorial(n))
    if remainder:
        raise ArithmeticError(
            f"inner product is not integral for {', '.join(map(str, labels))}; character bug"
        )
    if quotient < 0:
        raise ArithmeticError(f"negative multiplicity for {', '.join(map(str, labels))}")
    return quotient


def _exterior(table: CharacterTable, lam: Partition, mu: Partition, ms: range) -> list[int]:
    """Multiplicities of ``mu`` in ``lam`` tensored with Λ^m V, for each m in ``ms``,
    from w_σ = χ^λ(σ)·χ^μ(σ) and the table's exterior columns."""
    w = [a * b for a, b in zip(table.rows[table.index(lam)], table.rows[table.index(mu)])]
    columns = table.exterior_columns
    return [_multiplicity(sum(map(mul, w, columns[m])), table.n, lam, mu, f"Λ^{m}") for m in ms]


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
    table = character_table(label_size(lam, nu, mu), cache=cache, cap=cap)
    rows = [table.rows[table.index(p)] for p in (lam, nu, mu)]
    total = sum(size * a * b * c for size, a, b, c in zip(table.class_sizes, *rows))
    return _multiplicity(total, table.n, tuple(lam), tuple(nu), tuple(mu))


def hook_exterior_sweep(
    lam: Partition, mu: Partition, *, cap: int = DEFAULT_CAP
) -> tuple[list[int], list[int]]:
    """Multiplicities of ``mu`` in ``lam`` tensored with hook_m, m < n, and with Λ^m V,
    m <= n, in one pass over the classes; hooks may not be negative, and Λ^n V = hook_{n-1}."""
    n = label_size(lam, mu)
    exterior = _exterior(character_table(n, cap=cap), lam, mu, range(n + 1))
    *hook, residual = accumulate(exterior, lambda below, power: power - below)
    if residual or min(hook) < 0:
        raise ArithmeticError(f"hooks {hook}, residual {residual} for {lam}, {mu}; character bug")
    return hook, exterior


def dimension(lam: Partition, *, cap: int = DEFAULT_CAP) -> int:
    lam = partition(lam)
    return character_table(sum(lam), cap=cap).dimension(lam) if lam else 1


def exterior_multiplicity(
    lam: Partition,
    mu: Partition,
    m: int,
    *,
    cache: str | Path | None = None,
    cap: int = DEFAULT_CAP,
) -> int:
    """Multiplicity of the ``mu`` irreducible in ``lam`` tensored with the
    m-th exterior power of the defining permutation module, from its character."""
    n = label_size(lam, mu, m=m, exterior=True)
    if m == 0:
        return int(partition(lam) == partition(mu))
    if m == n:
        return int(partition(mu) == conjugate(partition(lam)))
    return _exterior(character_table(n, cache=cache, cap=cap), lam, mu, range(m, m + 1))[0]
