"""Cross-validation sweep: picture counts against the character oracle.

For every ordered pair of partitions of each degree in range, the hook-side
and exterior-side counts must equal the multiplicities that one
exterior-character sweep of the oracle computes, and the exterior-side count
also the LR double sum.  Any mismatch is reported with its full coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import hook_rule, lr, oracle
from .shapes import Partition, _ints, contains, format_partition, partitions
from .parallel import check_jobs, ordered_map


@dataclass(frozen=True)
class Mismatch:
    n: int
    lam: Partition
    mu: Partition
    m: int
    quantity: str
    counted: int
    expected: int

    def __str__(self) -> str:
        return (
            f"FAIL n={self.n} lambda={format_partition(self.lam)} "
            f"mu={format_partition(self.mu)} m={self.m} {self.quantity}: "
            f"counted {self.counted}, expected {self.expected}"
        )


@dataclass(frozen=True)
class VerifyReport:
    checks: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"checks: {self.checks}, all pass"
        return f"checks: {self.checks}, failures: {len(self.mismatches)}"


def _count_zeta(task: tuple) -> list[int]:
    """One overlap zeta of degree n, searched from lam/zeta for every lam of n
    that contains it in the fixed order, so consecutive searches share their
    mu'/zeta' shape tables: flat (lam index, slot, ph, pw), slots as _check_lam reads."""
    n, zeta = task
    index, m = {mu: i for i, mu in enumerate(partitions(n))}, n - sum(zeta)
    found: list[int] = []
    for lam, i in index.items():
        if contains(lam, zeta):
            for mu, (ph, pw) in hook_rule._zeta_counts(lam, zeta, True).items():
                found += i, 2 * ((n + 1) * index[mu] + m), ph, pw
    return found


def _check_lam(task: tuple) -> tuple[int, list[Mismatch]]:
    """Every pair (lam, mu) of degree n, in the fixed order: ``counts`` holds
    lam's summed counts, per mu and per leg size m = 0..n, ph then pw."""
    n, lam, counts = task
    total, mismatches = 0, []
    for i, mu in enumerate(partitions(n)):
        row = counts[2 * (n + 1) * i : 2 * (n + 1) * (i + 1)]
        ph, pw = row[::2], row[1::2]
        hook_oracle, exterior_oracle = oracle.hook_exterior_sweep(lam, mu)
        exterior_lr = lr.exterior_sweep_via_lr(lam, mu)
        checks = [("hook", m, ph[m], hook_oracle[m]) for m in range(n)]
        for m in range(n + 1):
            checks.append(("exterior", m, pw[m], exterior_oracle[m]))
            checks.append(("exterior-lr", m, pw[m], exterior_lr[m]))
        total += len(checks)
        mismatches += [Mismatch(n, lam, mu, m, q, c, e) for q, m, c, e in checks if c != e]
    return total, mismatches


def verify_range(
    n_min: int,
    n_max: int,
    jobs: int = 1,
    cache: str | Path | None = None,
) -> VerifyReport:
    """Check every ordered pair of partitions of each degree n_min..n_max.

    Both degrees must be ``int``s (``True`` and ``1.0`` refused) with
    1 <= n_min <= n_max, or a ``ValueError`` is raised; a degree above the
    oracle's cap raises :class:`TooLargeError` before any pair is counted.
    ``jobs`` workers share the pairs, with the same report as one.  With
    ``cache``, the tables of exactly these degrees are exported to that file
    once, after every argument is accepted; nothing reads it back.
    """
    _ints((n_min, n_max), "an integer degree")
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad degree range {n_min}..{n_max}")
    check_jobs(jobs)
    # every degree meets the cap before the file is written, and the tables
    # are in memory before any fan-out, so workers never touch the file
    degrees = range(n_min, n_max + 1)
    tables = [oracle.character_table(n) for n in degrees]
    if cache is not None:
        oracle.save_cache_file(cache, tables)
    # first every count, one task per overlap, then every check, one per lam
    zetas = [(n, zeta) for n in degrees for k in range(n + 1) for zeta in partitions(k)]
    sums = {n: [[0] * (2 * (n + 1) * len(partitions(n))) for _ in partitions(n)] for n in degrees}
    for (n, _), found in zip(zetas, ordered_map(_count_zeta, zetas, jobs)):
        quads = iter(found)
        for i, at, ph, pw in zip(quads, quads, quads, quads):
            sums[n][i][at] += ph
            sums[n][i][at + 1] += pw
    lams = [(n, lam, sums[n][i]) for n in degrees for i, lam in enumerate(partitions(n))]
    checks = 0
    mismatches: list[Mismatch] = []
    for lam_checks, bad in ordered_map(_check_lam, lams, jobs):
        checks += lam_checks
        mismatches.extend(bad)
    return VerifyReport(checks, tuple(mismatches))
