"""One map over a ``fork`` process pool, or in process when a pool cannot pay.

``fork_map(fn, items, nbytes)`` returns ``[fn(item) for item in items]``.  It
starts ``min(usable cores, len(items), nbytes // MIN_WORKER_BYTES)`` workers
when that is two or more, else it maps here.  Before forking it keeps
``(fn, items)`` in a module global, which the workers inherit, so only item
indices travel to them and ``fn`` may be a closure; the results come back
pickled, in item order.  The first failing item, in item order, raises its
exception on either path, and every worker has ended when ``fork_map``
returns or raises.  ``multiprocessing`` is imported only when a pool starts.

On Python 3.12 and later, forking a process that has imported numpy (whose
BLAS starts threads) warns with a DeprecationWarning.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# each worker gets at least this much input, so that starting the pool
# costs a few percent of the work it takes over
MIN_WORKER_BYTES = 4 << 20

_job: tuple[Callable, Sequence] | None = None  # what the forked workers map


def usable_cores() -> int:
    """Cores this process may run on; ``os.cpu_count()`` ignores the
    affinity mask (taskset, cgroup cpusets)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn: Callable, items: Sequence, nbytes: int) -> list:
    """``[fn(item) for item in items]``, over ``nbytes`` of input in all."""
    global _job
    workers = min(usable_cores(), len(items), nbytes // MIN_WORKER_BYTES)
    if workers < 2:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _job = (fn, items)
    try:
        # an executor, unlike multiprocessing.Pool, fails instead of waiting
        # forever when a worker dies (say, killed for memory)
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            return list(pool.map(_call, range(len(items))))
    finally:
        _job = None


def _call(index: int):
    fn, items = _job
    return fn(items[index])
