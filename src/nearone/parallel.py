"""Order-preserving process-pool map for pure, independent work units."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence


def parallel_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(task) for task in tasks] on up to `workers` processes, in task order.

    Workers are spawned, not forked: a forked child inherits the parent's
    threads (OpenBLAS keeps some once numpy has run) in an unsafe state.  A
    spawned child starts from a fresh import, so fn must be a module-level
    function and every task picklable.  An exception raised by fn
    propagates to the caller.
    """
    if workers <= 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks, chunksize=chunk)
