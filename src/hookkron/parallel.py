"""Deterministic process fan-out for independent integer-valued tasks."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], tasks: Iterable[T], jobs: int = 1) -> list[R]:
    """Map ``fn`` over ``tasks`` preserving order; jobs > 1 uses processes,
    at most one per CPU.

    Results are identical to the sequential run by construction, so callers
    keep their determinism contract regardless of the worker count.
    """
    items: Sequence[T] = list(tasks)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
