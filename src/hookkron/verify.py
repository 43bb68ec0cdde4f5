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
from .shapes import Partition, _ints, format_partition, partitions
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


def _verify_lam(task: tuple) -> tuple[int, list[Mismatch]]:
    """Every pair (lam, mu) of degree n: the counts of every mu come from lam's
    decomposition tables, one per leg size, then each pair is checked."""
    n, lam = task
    tables = [
        {row.mu: row for row in hook_rule._decompose(lam, m, True).rows} for m in range(n + 1)
    ]
    zero = hook_rule.TableRow((), 0, 0, ())
    total, mismatches = 0, []
    for mu in partitions(n):
        rows = [table.get(mu, zero) for table in tables]
        hook_oracle, exterior_oracle = oracle.hook_exterior_sweep(lam, mu)
        exterior_lr = lr.exterior_sweep_via_lr(lam, mu)
        checks = [("hook", m, rows[m].ph, hook_oracle[m]) for m in range(n)]
        for m, row in enumerate(rows):
            checks.append(("exterior", m, row.pw, exterior_oracle[m]))
            checks.append(("exterior-lr", m, row.pw, exterior_lr[m]))
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
    tasks = [(n, lam) for n in degrees for lam in partitions(n)]
    checks = 0
    mismatches: list[Mismatch] = []
    for lam_checks, bad in ordered_map(_verify_lam, tasks, jobs):
        checks += lam_checks
        mismatches.extend(bad)
    return VerifyReport(checks, tuple(mismatches))
