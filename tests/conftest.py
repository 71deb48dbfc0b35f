"""Suite-wide settings: hypothesis draws the same examples on every run;
the OpenBLAS and process-pool fixtures the harness and CLI tests share."""

import concurrent.futures
import types

import pytest
from hypothesis import settings

from fewtune import evalharness, fewshot

# derandomize fixes the examples per test, so tier-1 stays deterministic;
# with no example database a run leaves nothing behind that alters the next
settings.register_profile("fewtune", derandomize=True, deadline=None, database=None)
settings.load_profile("fewtune")


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS at 2 threads for the test, so compute at 1 thread
    shows; yields the count getter and restores the count after."""
    found = fewshot._openblas()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get_threads, set_threads = found
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


@pytest.fixture
def recording_pool(monkeypatch):
    """A process pool that starts no process. Yields its record: `requested`,
    the process counts the pools of the test ask for, and `peak_unread`, the
    most futures submitted and not yet read at once. Episode i scores (float(i),)."""
    record = types.SimpleNamespace(requested=[], unread=set(), peak_unread=0)

    class RecordedFuture(concurrent.futures.Future):
        def __init__(self, index):
            super().__init__()
            self.index = index
            self.set_result((float(index),))

        def result(self, timeout=None):
            record.unread.discard(self.index)
            return super().result(timeout)

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            record.requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, index):
            record.unread.add(index)
            record.peak_unread = max(record.peak_unread, len(record.unread))
            return RecordedFuture(index)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evalharness, "run_episode", lambda bk, dataset, plan, index, modes: (float(index),))
    return record
