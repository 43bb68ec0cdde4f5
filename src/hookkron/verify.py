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


def _verify_pair(task: tuple) -> tuple[int, list[Mismatch]]:
    n, lam, mu = task
    hook_counts, exterior_counts = hook_rule.picture_counts(lam, mu)
    hook_oracle, exterior_oracle = oracle.hook_exterior_sweep(lam, mu)
    exterior_lr = lr.exterior_sweep_via_lr(lam, mu)
    checks = [("hook", m, hook_counts[m], hook_oracle[m]) for m in range(n)]
    for m, counted in enumerate(exterior_counts):
        checks.append(("exterior", m, counted, exterior_oracle[m]))
        checks.append(("exterior-lr", m, counted, exterior_lr[m]))
    return len(checks), [Mismatch(n, lam, mu, m, q, c, e) for q, m, c, e in checks if c != e]


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
    ``jobs`` workers share the pairs, with the same report as one; ``cache``
    names a character-table file brought in step once per degree.
    """
    _ints((n_min, n_max), "an integer degree")
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad degree range {n_min}..{n_max}")
    check_jobs(jobs)  # before the loop below can write the cache file
    tasks = []
    for n in range(n_min, n_max + 1):
        # fail fast on the cap, fill the in-memory cache and bring the cache
        # file in step before any fan-out; workers then never touch the file
        oracle.character_table(n, cache=cache)
        for lam in partitions(n):
            for mu in partitions(n):
                tasks.append((n, lam, mu))
    checks = 0
    mismatches: list[Mismatch] = []
    for pair_checks, bad in ordered_map(_verify_pair, tasks, jobs):
        checks += pair_checks
        mismatches.extend(bad)
    return VerifyReport(checks, tuple(mismatches))
