"""Cross-validation sweep: picture counts against the character oracle.

For every ordered pair of partitions of each degree in range, the hook-side
count must equal the tensor multiplicity computed from characters, and the
exterior-side count must equal both the character value and the LR double
sum.  Any mismatch is reported with its full coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import hook_rule, lr, oracle
from .shapes import Partition, format_partition, hook_partition, partitions
from .parallel import ordered_map


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
    checks = [
        ("hook", m, hook_counts[m], oracle.kronecker(lam, hook_partition(n, m), mu))
        for m in range(n)
    ]
    for m, counted in enumerate(exterior_counts):
        checks.append(("exterior", m, counted, oracle.exterior_multiplicity(lam, mu, m)))
        checks.append(("exterior-lr", m, counted, lr.exterior_multiplicity_via_lr(lam, mu, m)))
    return len(checks), [Mismatch(n, lam, mu, m, q, c, e) for q, m, c, e in checks if c != e]


def verify_range(
    n_min: int,
    n_max: int,
    jobs: int = 1,
    cache: str | Path | None = None,
) -> VerifyReport:
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad degree range {n_min}..{n_max}")
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
