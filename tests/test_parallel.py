import multiprocessing
import os

import pytest

from chronoscope import parallel
from chronoscope.errors import MalformedLine


@pytest.fixture()
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(parallel, "MIN_WORKER_BYTES", 1)


def test_fork_map_runs_closures_in_workers_in_item_order(two_cores):
    offset = 10  # a closure cannot be pickled; only indices reach the workers
    results = parallel.fork_map(lambda item: (item + offset, os.getpid()), range(5), 5)
    assert [value for value, _ in results] == list(range(10, 15))
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []
    assert parallel._job is None


def test_fork_map_stays_here_without_cores_or_input(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results = parallel.fork_map(lambda item: os.getpid(), range(3), parallel.MIN_WORKER_BYTES)
    assert results == [os.getpid()] * 3


@pytest.mark.parametrize("cores", [1, 2])
def test_fork_map_raises_the_first_failure_in_item_order(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(parallel, "MIN_WORKER_BYTES", 1)

    def fail_odd(item):
        if item % 2:
            raise MalformedLine(f"item {item}")
        return item

    with pytest.raises(MalformedLine, match="^item 1$"):
        parallel.fork_map(fail_odd, range(4), 4)
    assert multiprocessing.active_children() == []
    assert parallel._job is None
