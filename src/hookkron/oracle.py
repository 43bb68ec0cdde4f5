"""Character-theoretic ground truth for the symmetric group.

Everything is exact integer arithmetic: character values come from the
border-strip recursion on beta-numbers, tensor multiplicities from the
class-weighted triple product divided by n! with a hard zero-remainder check.
Λ^m V, for the permutation module V, takes its character from det(1 + qσ), and
hook_m = Λ^m V − hook_{m-1}.  Tables always come from the recursion and are
cached in memory per degree; they can be exported to a small JSON file, which
is never read back for a table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import factorial
from operator import mul
from pathlib import Path

from .errors import RangeError, SizeMismatchError, TooLargeError
from .shapes import Partition, _ints, canonical_labels, conjugate, partition, partitions

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
        """Where label ``p`` sits, once :func:`partition` has made it canonical."""
        if sum(p := partition(p)) != self.n:
            raise SizeMismatchError(f"label {p} does not partition the degree {self.n}")
        return _part_index(self.n)[p]

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


@lru_cache(maxsize=None)
def _table(n: int) -> CharacterTable:
    """The recursion's table for degree ``n``, computed once per process."""
    parts = partitions(n)
    rows = tuple(tuple(character_value(lam, mu) for mu in parts) for lam in parts)
    sizes = tuple(cycle_type_class_size(mu, n) for mu in parts)
    return CharacterTable(n, parts, rows, sizes)


def load_cache_file(path: str | Path) -> bytes | None:
    """The bytes at ``path``, or ``None`` when there is no file; no table is
    ever taken from them.  JSON whose ``version`` is not the JSON integer 1
    raises, so a newer file is never overwritten.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    try:
        obj = json.loads(data)
    except ValueError:
        return data
    version = obj.get("version") if isinstance(obj, dict) else None
    if (type(version), version) != (int, CACHE_FORMAT_VERSION):
        raise ValueError(f"unsupported cache version in {path}")
    return data


def save_cache_file(path: str | Path, tables: list[CharacterTable]) -> None:
    """Export ``tables``, in order, to ``path`` unless its bytes are already
    that text; any other file is replaced, save one :func:`load_cache_file`
    refuses.  The write goes through a temporary file in the same directory,
    so an interrupted one never leaves a truncated file behind."""
    payload = {"version": CACHE_FORMAT_VERSION, "tables": [t.to_json() for t in tables]}
    text = (json.dumps(payload) + "\n").encode()
    if load_cache_file(path) == text:
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text)
        os.replace(tmp, path)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def character_table(
    n: int, *, cache: str | Path | None = None, cap: int = DEFAULT_CAP
) -> CharacterTable:
    """Full character table for degree ``n``, computed once per process.

    With ``cache``, the table alone is exported to that file.
    """
    _ints((n, cap), "an integer degree")
    if n < 1:
        raise RangeError(f"degree must be at least 1, got {n}")
    if n > cap:
        raise TooLargeError(f"degree {n} exceeds the cap {cap}")
    table = _table(n)
    if cache is not None:
        save_cache_file(cache, [table])
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
    from w_σ = χ^λ(σ)·χ^μ(σ) and the table's exterior columns.  The labels are
    canonical, and :func:`_multiplicity` runs only to word a failed division."""
    index, rows, columns = _part_index(table.n), table.rows, table.exterior_columns
    w = [a * b for a, b in zip(rows[index[lam]], rows[index[mu]])]
    found = [divmod(sum(map(mul, w, columns[m])), factorial(table.n)) for m in ms]
    if all(quotient >= 0 and not remainder for quotient, remainder in found):
        return [quotient for quotient, _ in found]
    return [_multiplicity(sum(map(mul, w, columns[m])), table.n, lam, mu, f"Λ^{m}") for m in ms]


def kronecker(
    lam: Partition, nu: Partition, mu: Partition, *, cap: int = DEFAULT_CAP
) -> int:
    """Multiplicity of the ``mu`` irreducible in the tensor product of the
    ``lam`` and ``nu`` irreducibles; symmetric in all three labels."""
    lam, nu, mu = canonical_labels(lam, nu, mu)
    table = character_table(sum(lam), cap=cap)
    rows = [table.rows[table.index(p)] for p in (lam, nu, mu)]
    total = sum(size * a * b * c for size, a, b, c in zip(table.class_sizes, *rows))
    return _multiplicity(total, table.n, lam, nu, mu)


def hook_exterior_sweep(
    lam: Partition, mu: Partition, *, cap: int = DEFAULT_CAP
) -> tuple[list[int], list[int]]:
    """Multiplicities of ``mu`` in ``lam`` tensored with hook_m, m < n, and with Λ^m V,
    m <= n, in one pass over the classes; hooks may not be negative, and Λ^n V = hook_{n-1}."""
    lam, mu = canonical_labels(lam, mu)
    n = sum(lam)
    exterior = _exterior(character_table(n, cap=cap), lam, mu, range(n + 1))
    *hook, residual = accumulate(exterior, lambda below, power: power - below)
    if residual or min(hook) < 0:
        raise ArithmeticError(f"hooks {hook}, residual {residual} for {lam}, {mu}; character bug")
    return hook, exterior


def dimension(lam: Partition, *, cap: int = DEFAULT_CAP) -> int:
    """Degree of the ``lam`` irreducible, read from its character table; the empty
    label gives 1 without one.  A label that is not a partition of ints raises
    ``ValueError``, and a degree above ``cap`` raises :class:`TooLargeError`."""
    lam = partition(lam)
    return character_table(sum(lam), cap=cap).dimension(lam) if lam else 1


def exterior_multiplicity(
    lam: Partition, mu: Partition, m: int, *, cap: int = DEFAULT_CAP
) -> int:
    """Multiplicity of the ``mu`` irreducible in ``lam`` tensored with the
    m-th exterior power of the defining permutation module, from its character."""
    lam, mu = canonical_labels(lam, mu, m=m, exterior=True)
    n = sum(lam)
    if m == 0:
        return int(lam == mu)
    if m == n:
        return int(mu == conjugate(lam))
    return _exterior(character_table(n, cap=cap), lam, mu, range(m, m + 1))[0]
