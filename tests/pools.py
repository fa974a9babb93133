"""Stand-ins for ``concurrent.futures.ProcessPoolExecutor`` that record the
worker count of each pool that ``chronoscope.parallel.fork_map`` builds."""

import concurrent.futures
import pickle


class RecordingPool:
    """Runs the map here, with results pickled as a pool would send them."""

    built: list[int] = []

    def __init__(self, max_workers, mp_context):
        assert mp_context.get_start_method() == "fork"
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        assert len(tasks) >= self.built[-1]
        return [pickle.loads(pickle.dumps(fn(task))) for task in tasks]


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """The real process pool."""

    built: list[int] = []

    def __init__(self, max_workers, mp_context):
        assert mp_context.get_start_method() == "fork"
        self.built.append(max_workers)
        super().__init__(max_workers, mp_context=mp_context)
