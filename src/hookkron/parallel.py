"""Deterministic process fan-out for independent integer-valued tasks."""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def check_jobs(jobs: int) -> None:
    """The worker-count rule: an ``int`` of at least 1 (the shapes._ints rule:
    True and 2.0 refused), else ``ValueError``."""
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"expected an integer worker count of at least 1, got {jobs!r:.40}")


def ordered_map(fn: Callable[[T], R], tasks: Iterable[T], jobs: int = 1) -> list[R]:
    """Map ``fn`` over ``tasks`` preserving order; jobs > 1 uses processes,
    at most one per CPU the process may use.

    Results are identical to the sequential run by construction, so callers
    keep their determinism contract regardless of the worker count.
    """
    check_jobs(jobs)
    items: Sequence[T] = list(tasks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (jobs * 4))
    from concurrent.futures import ProcessPoolExecutor  # here: importing hookkron loads no pool
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
