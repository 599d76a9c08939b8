"""The one concurrency rule: work runs on every core the process may use.

``cores()`` is that count (``taskset`` limits it); a ``jobs`` of None means
it, and an explicit ``jobs`` (``--jobs``) overrides it.  Threads start only
in :func:`map_on_cores`, whose results do not depend on their number.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

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


def on_cores(step: int, h: int, shape: tuple[int, ...], run: Callable) -> None:
    """Call run(lo, hi, buf) on contiguous blocks of whole step-row tiles that
    cover rows 0..h, one block per core the process may use (never more than
    tiles), one block per item of :func:`map_on_cores`.  Each block has its
    own np.empty(shape), made here on the calling thread before any worker
    starts: a worker that allocates grows a malloc arena of its own."""
    tiles = -(-h // step)
    parts = min(cores(), tiles)
    edges = [min(h, i * tiles // parts * step) for i in range(parts + 1)]
    blocks = [(lo, hi, np.empty(shape)) for lo, hi in zip(edges[:-1], edges[1:])]
    map_on_cores(lambda block: run(*block), blocks, parts)
