"""The one concurrency rule: work runs on every core the process may use.

``cores()`` is that count (``taskset`` limits it); a ``jobs`` of None means
it, and an explicit ``jobs`` (``--jobs``) overrides it.  Threads start only
in :func:`map_on_cores`, whose results do not depend on their number.  Its
items are whole images or seeds; the code an item runs is single-threaded.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .errors import ConfigError


def cores() -> int:
    """The number of cores this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def job_count(jobs: int | None) -> int:
    """``jobs``, or :func:`cores` when it is None; fewer than one is a ConfigError."""
    if jobs is None:
        return cores()
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return jobs


def map_on_cores(fn: Callable, items, jobs: int | None) -> list:
    """``[fn(item) for item in items]`` on ``min(job_count(jobs), len(items))`` threads.

    One thread's worth of work runs on the caller, in order; more runs on a
    pool of worker threads, none of them the caller, results in input order.
    The first error in input order is raised here: no unstarted item starts.
    """
    items = list(items)
    threads = min(job_count(jobs), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))
