"""Cross-validation sweep: picture counts against the character oracle.

For every ordered pair of partitions of each degree in range, the hook-side
and exterior-side counts must equal the multiplicities that one
exterior-character sweep of the oracle computes, and the exterior-side count
also the LR double sum, each swept once per unordered pair (both are symmetric
in the two labels).  Any mismatch is reported with its full coordinates.
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
    mu'/zeta' shape tables: flat (task, slot, ph, pw), filed as _check_lam reads."""
    n, zeta = task
    index, m = {mu: i for i, mu in enumerate(partitions(n))}, n - sum(zeta)
    found: list[int] = []
    for lam, i in index.items():
        if contains(lam, zeta):
            for mu, (ph, pw) in hook_rule._zeta_counts(lam, zeta, True).items():
                a, b = sorted((i, j := index[mu]))
                found += a, 2 * ((n + 1) * (2 * (b - a) + (i > j)) + m), ph, pw
    return found


def _check_lam(task: tuple) -> tuple[int, list[tuple[int, int, Mismatch]]]:
    """Every pair (lam_a, mu_b) of degree n with b >= a, and its swap: ``counts``
    holds their summed counts, slot 2(b - a) for (lam_a, mu_b) and the next for
    (lam_b, mu_a), per leg size m = 0..n, ph then pw.  The swap shares the one
    oracle and one LR sweep: w = chi^lam chi^mu is the same product in either
    order, and the LR double sum turns into its swap when xi and xi' trade places."""
    n, a, counts = task
    parts, width = partitions(n), 2 * (n + 1)
    total, mismatches = 0, []
    for b in range(a, len(parts)):
        hook_oracle, exterior_oracle = oracle.hook_exterior_sweep(parts[a], parts[b])
        exterior_lr = lr.exterior_sweep_via_lr(parts[a], parts[b])
        for slot, (i, j) in enumerate([(a, b), (b, a)] if b > a else [(a, a)], 2 * (b - a)):
            row = counts[width * slot : width * (slot + 1)]
            ph, pw = row[::2], row[1::2]
            total += n + 2 * (n + 1)
            if ph[:n] == hook_oracle and pw == exterior_oracle == exterior_lr:
                continue
            checks = [("hook", m, ph[m], hook_oracle[m]) for m in range(n)]
            for m in range(n + 1):
                checks.append(("exterior", m, pw[m], exterior_oracle[m]))
                checks.append(("exterior-lr", m, pw[m], exterior_lr[m]))
            mismatches += [(i, j, Mismatch(n, parts[i], parts[j], m, q, c, e))
                           for q, m, c, e in checks if c != e]
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
    # first every count, one task per overlap, then every check, one per (n, lam_a)
    zetas = [(n, zeta) for n in degrees for k in range(n + 1) for zeta in partitions(k)]
    sums = {n: [[0] * (4 * (n + 1) * k) for k in range(len(partitions(n)), 0, -1)] for n in degrees}
    for (n, _), found in zip(zetas, ordered_map(_count_zeta, zetas, jobs)):
        quads = iter(found)
        for a, at, ph, pw in zip(quads, quads, quads, quads):
            sums[n][a][at] += ph
            sums[n][a][at + 1] += pw
    lams = [(n, a, counts) for n in degrees for a, counts in enumerate(sums[n])]
    checks = 0
    tagged: list[tuple[int, int, int, Mismatch]] = []
    for (n, _, _), (lam_checks, bad) in zip(lams, ordered_map(_check_lam, lams, jobs)):
        checks += lam_checks
        tagged += [(n, i, j, mismatch) for i, j, mismatch in bad]
    tagged.sort(key=lambda t: t[:3])  # stable: each pair keeps its own order
    return VerifyReport(checks, tuple(t[3] for t in tagged))
