"""Many-episode evaluation with confidence intervals and the paired
with/without-pseudo-query ablation.

Episode i is a pure function of (plan, i): its stream seeds the sampler
and the augmenter. Reports hold no wall time, so their bytes depend on
neither worker count nor scheduling. The ablation samples each episode
once and scores both arms on it. Aggregation is a single-threaded
reduction in episode-index order. A report stores its accuracies and
derives its mean and 95% half-width from them, so the two cannot
disagree; an ablation derives its paired difference from its two arms.
The first episode to fail, in index order, ends the pass: with a worker
pool, the workers are ended, so neither the running nor the queued
episodes finish. A pool pass keeps EPISODES_IN_FLIGHT_PER_WORKER episodes
per worker submitted and unread, so its memory does not grow with the
episode count and a first failure is read while the pass is young.

Every scoring pass runs numpy's bundled OpenBLAS on one thread: each pool
worker sets it when it starts, and a pass in the calling process sets it
for the pass only and then restores the caller's count. An episode's
matrices are small, so a second BLAS thread buys little in one process
and oversubscribes the cores in a pool; one thread also makes the bits of
a fine-tune independent of the machine's core count. Without that library
the thread count is left as it is.

Each pool worker also pins the C allocator when it starts (`pin_allocator`),
as the CLI does for its own process; importing the package does not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
from collections import deque
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from .episodes import EpisodeShape, LabeledDataset, build_pseudo_query, sample_episode
from .errors import DivergenceError, ParameterError
from .fewshot import Backbone, finetune, infer, pristine_state
from .losses import HyperParams
from .rng import RngStream

MODES = ("with_pqs", "no_finetune")

# a pool pass submits the next episode only once fewer than this many per worker are unread
EPISODES_IN_FLIGHT_PER_WORKER = 16


@dataclass(frozen=True)
class EvalPlan:
    """What fixes an evaluation's episodes and scores, given a backbone and
    a dataset: hp.episodes_count episodes of `shape` drawn from master_seed."""

    hp: HyperParams = field(default_factory=HyperParams)
    shape: EpisodeShape = field(default_factory=EpisodeShape)
    master_seed: int = 0


@dataclass
class EvalReport:
    fingerprint: str
    mode: str
    shape: EpisodeShape
    accuracies: list[float]
    mean: float = field(init=False)
    ci95: float = field(init=False)

    def __post_init__(self):
        self.mean, self.ci95 = mean_and_ci95(self.accuracies)

    @property
    def episodes(self) -> int:
        return len(self.accuracies)

    def to_json(self) -> str:
        """Canonical machine-readable form. `wall_seconds` is always null: the
        key stays for readers of the format, and wall time would make the
        bytes depend on the run."""
        payload = {
            "fingerprint": self.fingerprint,
            "mode": self.mode,
            "n_way": self.shape.n_way,
            "k_shot": self.shape.k_shot,
            "episodes": self.episodes,
            "mean": self.mean,
            "ci95": self.ci95,
            "accuracies": self.accuracies,
            "wall_seconds": None,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"episode shape: {self.shape.n_way}-way {self.shape.k_shot}-shot, {self.shape.m_query} queries/class",
            f"episodes: {self.episodes}",
            f"accuracy: {100.0 * self.mean:.2f}" + "±" + f"{100.0 * self.ci95:.2f}",
            f"fingerprint: {self.fingerprint}",
        ]
        return "\n".join(lines) + "\n"


def mean_and_ci95(values: list[float]) -> tuple[float, float]:
    """Mean and normal-approximation 95% half-width 1.96*sd/sqrt(T)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ParameterError("no values to aggregate")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))


def config_fingerprint(plan: EvalPlan, mode: str, dataset: LabeledDataset) -> str:
    """Hash of every plan field, the mode and the dataset's class names and
    pixels (not its directory name)."""
    payload = {
        "hp": asdict(plan.hp),
        "shape": asdict(plan.shape),
        "mode": mode,
        "master_seed": plan.master_seed,
        "episodes": plan.hp.episodes_count,
        "dataset": dataset.fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_episode(
    bk: Backbone, dataset: LabeledDataset, plan: EvalPlan, index: int, modes: tuple[str, ...]
) -> tuple[float, ...]:
    """Accuracy in each of `modes` of episode `index`, sampled once; pure in (plan, index)."""
    stream = RngStream(plan.master_seed, (index,))
    ep = sample_episode(dataset, plan.shape, stream.child(0))
    accuracies = []
    try:
        for mode in modes:
            if mode == "with_pqs":
                build_pseudo_query(ep, stream.child(1))
                state = finetune(bk, ep, plan.hp)
            else:
                state = pristine_state(bk)
            accuracies.append(infer(state, ep, plan.hp))
    except DivergenceError as exc:
        raise DivergenceError(f"episode {index}, {exc}") from None
    return tuple(accuracies)


PASS_BLAS_THREADS = 1


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, found
    next to numpy, or None when there is no such library or it lacks them."""
    package = Path(np.__file__).parent
    # numpy.libs/ beside the package in Linux and Windows wheels, .dylibs/ inside it on macOS
    pattern = "libscipy_openblas*"
    candidates = [*package.parent.glob(f"numpy.libs/{pattern}"), *package.glob(f".dylibs/{pattern}")]
    for path in sorted(candidates):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set OpenBLAS to `count` threads in this process; the count it had, or
    None when the library is not found and nothing was set."""
    blas = _openblas()
    if blas is None:
        return None
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(count)
    return before


@contextlib.contextmanager
def pass_blas():
    """OpenBLAS at PASS_BLAS_THREADS in this process for the block, then back
    at the caller's count, also when the block raises."""
    before = _set_blas_threads(PASS_BLAS_THREADS)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def pin_allocator() -> None:
    """glibc's trim threshold at 64 MiB and mmap threshold at its 64-bit maximum,
    32 MiB, so a task's arrays (up to 768 x 128 float64) reuse the pages the
    last task freed instead of faulting in new ones. No-op without `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle to the C library, or not glibc
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in ((-1, 64 << 20), (-3, 32 << 20)):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        mallopt(param, value)


def pass_blas_threads() -> int | None:
    """The OpenBLAS thread count each process of a scoring pass runs with;
    None when the library is not found and the count is left alone."""
    return None if _openblas() is None else PASS_BLAS_THREADS


_WORKER: dict = {}


def _init_worker(snapshot: bytes, dataset: LabeledDataset, plan: EvalPlan, modes: tuple[str, ...]):
    pin_allocator()
    _set_blas_threads(PASS_BLAS_THREADS)
    _WORKER.update(backbone=Backbone.from_bytes(snapshot), dataset=dataset, plan=plan, modes=modes)


def _worker_episode(index: int) -> tuple[float, ...]:
    w = _WORKER
    return run_episode(w["backbone"], w["dataset"], w["plan"], index, w["modes"])


def score_episodes(
    bk: Backbone, target: LabeledDataset, plan: EvalPlan, modes: tuple[str, ...], workers: int = 1
) -> dict[str, list[float]]:
    """One pass over the plan's episodes: each mode's accuracies in episode order.
    A pool starts no more processes than there are episodes."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    indices = range(plan.hp.episodes_count)
    workers = min(workers, len(indices))
    if workers == 1:
        # library callers share this process, so its count is given back
        with pass_blas():
            rows = [run_episode(bk, target, plan, i, modes) for i in indices]
    else:
        # only this path pays for the import, which costs tens of ms
        from concurrent.futures import ProcessPoolExecutor

        init_args = (bk.to_bytes(), target, plan, modes)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=init_args) as pool:
            try:
                rows, in_flight = [], deque()
                for i in indices:
                    if len(in_flight) == EPISODES_IN_FLIGHT_PER_WORKER * workers:
                        rows.append(in_flight.popleft().result())
                    in_flight.append(pool.submit(_worker_episode, i))
                rows += [future.result() for future in in_flight]
            except BaseException:
                # the first failure ends the pass. Leaving the block would wait
                # for the running episodes and those already handed to a worker,
                # and the executor has no public call that ends its workers
                # (before Python 3.14). It then fails the waiting futures itself;
                # none may be cancelled, or its management thread dies (3.11)
                for process in pool._processes.values():
                    process.terminate()
                raise
    return {mode: [float(row[j]) for row in rows] for j, mode in enumerate(modes)}


def run_eval(
    bk: Backbone,
    target: LabeledDataset,
    plan: EvalPlan,
    mode: str,
    workers: int = 1,
    scored: dict[str, list[float]] | None = None,
) -> EvalReport:
    """Report of `mode` over the plan's episodes. `scored`, the result of a
    `score_episodes` pass that scored `mode` on them, stands in for a new pass."""
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if scored is None:
        scored = score_episodes(bk, target, plan, (mode,), workers)
    return EvalReport(config_fingerprint(plan, mode, target), mode, plan.shape, scored[mode])


@dataclass
class AblationResult:
    with_pqs: EvalReport
    no_finetune: EvalReport
    delta_mean: float = field(init=False)
    delta_ci95: float = field(init=False)

    def __post_init__(self):
        deltas = [a - b for a, b in zip(self.with_pqs.accuracies, self.no_finetune.accuracies)]
        self.delta_mean, self.delta_ci95 = mean_and_ci95(deltas)

    def to_json(self) -> str:
        payload = {
            "with_pqs": {"mean": self.with_pqs.mean, "ci95": self.with_pqs.ci95},
            "no_finetune": {"mean": self.no_finetune.mean, "ci95": self.no_finetune.ci95},
            "paired_delta_mean": self.delta_mean,
            "paired_delta_ci95": self.delta_ci95,
            "episodes": self.with_pqs.episodes,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"with_pqs:    {100.0 * self.with_pqs.mean:.2f}" + "±" + f"{100.0 * self.with_pqs.ci95:.2f}",
            f"no_finetune: {100.0 * self.no_finetune.mean:.2f}" + "±" + f"{100.0 * self.no_finetune.ci95:.2f}",
            f"paired delta: {100.0 * self.delta_mean:.2f}" + "±" + f"{100.0 * self.delta_ci95:.2f}",
            f"episodes: {self.with_pqs.episodes} (matched pairs)",
        ]
        return "\n".join(lines) + "\n"


def ablate(bk: Backbone, target: LabeledDataset, plan: EvalPlan, workers: int = 1) -> AblationResult:
    """Both modes scored on each episode of one pass; paired difference CI."""
    scored = score_episodes(bk, target, plan, MODES, workers)
    # each arm's report comes from run_eval, whose `mode` argument names the arm's trace span
    return AblationResult(*(run_eval(bk, target, plan, mode, workers, scored) for mode in MODES))


def emit_report(report: EvalReport | AblationResult, fmt: str, path: str | Path) -> Path:
    path = Path(path)
    if fmt == "table":
        text = report.to_table()
    elif fmt == "json":
        text = report.to_json()
    else:
        raise ParameterError(f"format must be 'table' or 'json', got {fmt!r}")
    path.write_text(text)
    return path
