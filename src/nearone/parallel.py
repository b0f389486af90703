"""Order-preserving process-pool map for pure, independent work units."""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence

from .errors import DomainError


def parallel_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(task) for task in tasks] on up to `workers` processes, in task order.

    This is the one check and the one cap of every worker count: workers
    below 1 raise DomainError, and at most min(workers, len(tasks),
    os.cpu_count()) processes start, so no worker count asks for more
    processes than the machine has CPUs.  When that minimum is 1 the tasks
    run serially in this process.  The tasks and their order never depend
    on the worker count, so neither do the results.

    Workers are spawned, not forked: a forked child inherits the parent's
    threads (OpenBLAS keeps some once numpy has run) in an unsafe state.  A
    spawned child starts from a fresh import, so fn must be a module-level
    function and every task picklable.  An exception raised by fn
    propagates to the caller.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes <= 1:
        return [fn(task) for task in tasks]
    with multiprocessing.get_context("spawn").Pool(processes=processes) as pool:
        return pool.map(fn, tasks)
