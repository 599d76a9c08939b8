"""The one concurrency rule: work runs on every core the process may use.

``cores()`` is that count (``taskset`` limits it); a ``jobs`` of None means
it, and an explicit ``jobs`` (``--jobs``) overrides it.  Every helper here
gives results that do not depend on the number of threads.
"""

from __future__ import annotations

import os
import threading
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


def worker_pool(jobs: int | None) -> ThreadPoolExecutor:
    """A pool of :func:`job_count` worker threads, none of them the caller."""
    return ThreadPoolExecutor(max_workers=job_count(jobs))


def map_on_cores(fn: Callable, items, jobs: int | None) -> list:
    """``[fn(item) for item in items]`` on ``min(jobs, len(items))`` threads, the caller one of them.

    Every thread takes the next index from one shared counter and writes its
    result into that index's slot, so results come back in input order.  The
    first error stops new items from starting and is raised here, once every
    thread has stopped.  One job runs every item on the caller, in order.
    """
    items = list(items)
    threads = min(job_count(jobs), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    indices = iter(range(len(items)))
    lock = threading.Lock()
    errors = []

    def work() -> None:
        while True:
            with lock:
                index = None if errors else next(indices, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # handed to the caller, not swallowed
                with lock:
                    errors.append(exc)
                return

    with ThreadPoolExecutor(threads - 1) as pool:
        for _ in range(threads - 1):
            pool.submit(work)
        work()
    if errors:
        raise errors[0]
    return results


def on_cores(step: int, h: int, shape: tuple[int, ...], run: Callable) -> None:
    """Call run(lo, hi, buf) on contiguous blocks of whole step-row tiles that
    cover rows 0..h, one block per core the process may use (never more than
    tiles), through :func:`map_on_cores`, each with its own np.empty(shape),
    made here on the calling thread: a worker that allocates grows a malloc
    arena of its own."""
    tiles = -(-h // step)
    parts = min(cores(), tiles)
    edges = [min(h, i * tiles // parts * step) for i in range(parts + 1)]
    blocks = [(lo, hi, np.empty(shape)) for lo, hi in zip(edges[:-1], edges[1:])]
    map_on_cores(lambda block: run(*block), blocks, parts)
