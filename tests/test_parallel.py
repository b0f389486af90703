"""The pool of parallel_map: its one check and its one cap of the worker count.

No test here starts a process: a fake multiprocessing context records the
pool size asked for and maps serially.
"""

import operator

import pytest

from nearone import parallel
from nearone.errors import DomainError
from nearone.parallel import parallel_map
from nearone.quadrature import integrate_inv_abs_zeta


@pytest.fixture
def pools(monkeypatch):
    """The processes argument of every pool asked for, on a 4-CPU machine."""
    requested = []

    class FakePool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(parallel.multiprocessing, "get_context",
                        lambda method: FakeContext())
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    return requested


def test_pool_is_capped_at_the_cpu_count(pools):
    assert parallel_map(operator.neg, range(3126), 10**6) == [
        -k for k in range(3126)]
    assert pools == [4]


def test_pool_is_capped_at_the_task_count(pools):
    assert parallel_map(operator.neg, range(3), 8) == [0, -1, -2]
    assert pools == [3]


@pytest.mark.parametrize("workers,tasks", [(1, 100), (8, 1), (8, 0)])
def test_one_process_runs_serially(pools, workers, tasks):
    assert parallel_map(operator.neg, range(tasks), workers) == [
        -k for k in range(tasks)]
    assert pools == []


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_a_domain_error(pools, workers):
    with pytest.raises(DomainError, match="workers must be >= 1"):
        parallel_map(operator.neg, range(5), workers)
    assert pools == []


def test_integral_checks_its_worker_count():
    with pytest.raises(DomainError, match="workers must be >= 1"):
        integrate_inv_abs_zeta(0.98, 0, 20, workers=0)
