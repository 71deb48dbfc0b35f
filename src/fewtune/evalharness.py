"""Many-episode evaluation with confidence intervals and the paired
with/without-pseudo-query ablation.

Episode i is a pure function of (plan, i): its stream seeds the sampler
and the augmenter, so reports do not depend on worker count or
scheduling. The ablation samples each episode once and scores both arms
on it. Aggregation is a single-threaded reduction in episode-index order.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from .episodes import EpisodeShape, LabeledDataset, PqsPolicy, build_pseudo_query, sample_episode
from .errors import ParameterError
from .fewshot import Backbone, finetune, infer, pristine_state
from .imageaug import AugmentationConfig
from .losses import HyperParams
from .rng import RngStream

MODES = ("with_pqs", "no_finetune")


@dataclass(frozen=True)
class EvalPlan:
    """What fixes an evaluation's episodes and scores, given a backbone and
    a dataset: hp.episodes_count episodes of `shape` drawn from master_seed."""

    hp: HyperParams = field(default_factory=HyperParams)
    shape: EpisodeShape = field(default_factory=EpisodeShape)
    master_seed: int = 0
    policy: PqsPolicy = field(default_factory=PqsPolicy)
    aug: AugmentationConfig = field(default_factory=AugmentationConfig)


@dataclass
class EvalReport:
    fingerprint: str
    mode: str
    n_way: int
    k_shot: int
    m_query: int
    episodes: int
    accuracies: list[float]
    mean: float
    ci95: float
    wall_seconds: float

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical machine-readable form; timing is opt-in because wall
        time would break byte-for-byte report determinism."""
        payload = {
            "fingerprint": self.fingerprint,
            "mode": self.mode,
            "n_way": self.n_way,
            "k_shot": self.k_shot,
            "episodes": self.episodes,
            "mean": self.mean,
            "ci95": self.ci95,
            "accuracies": self.accuracies,
            "wall_seconds": self.wall_seconds if include_timing else None,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"episode shape: {self.n_way}-way {self.k_shot}-shot, {self.m_query} queries/class",
            f"episodes: {self.episodes}",
            f"accuracy: {100.0 * self.mean:.2f}" + "±" + f"{100.0 * self.ci95:.2f}",
            f"wall_seconds: {self.wall_seconds:.2f}",
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
    shape = plan.shape
    ep = sample_episode(dataset, shape.n_way, shape.k_shot, shape.m_query, stream.child(0))
    accuracies = []
    for mode in modes:
        if mode == "with_pqs":
            build_pseudo_query(ep, plan.policy, plan.aug, stream.child(1))
            state = finetune(bk, ep, plan.hp)
        else:
            state = pristine_state(bk)
        accuracies.append(infer(state, ep, plan.hp))
    return tuple(accuracies)


_WORKER: dict = {}


def _init_worker(snapshot: bytes, dataset: LabeledDataset, plan: EvalPlan, modes: tuple[str, ...]):
    _WORKER.update(backbone=Backbone.from_bytes(snapshot), dataset=dataset, plan=plan, modes=modes)


def _worker_episode(index: int) -> tuple[float, ...]:
    w = _WORKER
    return run_episode(w["backbone"], w["dataset"], w["plan"], index, w["modes"])


@dataclass(frozen=True)
class ScoredPass:
    """Per-mode accuracies of one pass over a plan's episodes, and its wall time."""

    accuracies: dict[str, list[float]]
    wall_seconds: float


def score_episodes(
    bk: Backbone, target: LabeledDataset, plan: EvalPlan, modes: tuple[str, ...], workers: int = 1
) -> ScoredPass:
    """One pass over the plan's episodes, scoring each in every mode."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    indices = range(plan.hp.episodes_count)
    start = time.monotonic()
    if workers == 1:
        rows = [run_episode(bk, target, plan, i, modes) for i in indices]
    else:
        init_args = (bk.to_bytes(), target, plan, modes)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=init_args) as pool:
            rows = list(pool.map(_worker_episode, indices))
    wall = time.monotonic() - start
    return ScoredPass({mode: [float(row[j]) for row in rows] for j, mode in enumerate(modes)}, wall)


def run_eval(
    bk: Backbone,
    target: LabeledDataset,
    plan: EvalPlan,
    mode: str,
    workers: int = 1,
    scored: ScoredPass | None = None,
) -> EvalReport:
    """Report of `mode` over the plan's episodes. `scored`, a pass that
    already scored `mode` on them, stands in for a new pass."""
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if scored is None:
        scored = score_episodes(bk, target, plan, (mode,), workers)
    accuracies = scored.accuracies[mode]
    mean, ci95 = mean_and_ci95(accuracies)
    return EvalReport(
        fingerprint=config_fingerprint(plan, mode, target),
        mode=mode,
        n_way=plan.shape.n_way,
        k_shot=plan.shape.k_shot,
        m_query=plan.shape.m_query,
        episodes=len(accuracies),
        accuracies=accuracies,
        mean=mean,
        ci95=ci95,
        wall_seconds=scored.wall_seconds,
    )


@dataclass
class AblationResult:
    with_pqs: EvalReport
    no_finetune: EvalReport
    delta_mean: float
    delta_ci95: float

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
    with_r, without_r = (run_eval(bk, target, plan, mode, workers, scored) for mode in MODES)
    deltas = [a - b for a, b in zip(with_r.accuracies, without_r.accuracies)]
    delta_mean, delta_ci = mean_and_ci95(deltas)
    return AblationResult(with_r, without_r, delta_mean, delta_ci)


def emit_report(
    report: EvalReport | AblationResult,
    fmt: str,
    path: str | Path,
    include_timing: bool = False,
) -> Path:
    path = Path(path)
    if fmt == "table":
        text = report.to_table()
    elif fmt == "json":
        if isinstance(report, EvalReport):
            text = report.to_json(include_timing=include_timing)
        else:
            text = report.to_json()
    else:
        raise ParameterError(f"format must be 'table' or 'json', got {fmt!r}")
    path.write_text(text)
    return path
