"""Suite-wide settings: hypothesis draws the same examples on every run;
the OpenBLAS and process-pool fixtures the harness and CLI tests share."""

import concurrent.futures

import pytest
from hypothesis import settings

from fewtune import evalharness

# derandomize fixes the examples per test, so tier-1 stays deterministic;
# with no example database a run leaves nothing behind that alters the next
settings.register_profile("fewtune", derandomize=True, deadline=None, database=None)
settings.load_profile("fewtune")


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS at 2 threads for the test, so a pass at 1 thread
    shows; yields the count getter and restores the count after."""
    found = evalharness._openblas()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get_threads, set_threads = found
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


@pytest.fixture
def recording_pool(monkeypatch):
    """A process pool that starts no process: yields the list of process
    counts the pools of the test ask for. Episode i scores (float(i),)."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, index):
            future = concurrent.futures.Future()
            future.set_result((float(index),))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evalharness, "run_episode", lambda bk, dataset, plan, index, modes: (float(index),))
    return requested
