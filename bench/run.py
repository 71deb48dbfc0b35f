"""fewtune benchmark: one workload through the fewtune CLI, outputs checked, metrics printed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds the seeded fixtures first (source and target PPM directories with
`fewtune synth`, a backbone snapshot with `fewtune metatrain`), then
runs the workload's CLI command again and again for S seconds, each
run a fresh process started through `fewtune.cli.main` by probe.py.
Every run's outputs are checked. With --trace 0 the last stdout line
is the end-to-end result; with --trace 1 runs alternate between
untraced and traced, and the last line carries the per-layer metrics.
The full result, with the environment and every run's figures, is
also written to .bench_runs/results/. NOTES.md says why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import OPS, SpanSummary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

# Runs cycle through this many workload seeds: accuracy_mean is the mean over
# all of them (more episodes than one short run holds, and the same for any
# run length), and each later run must reproduce the bytes of the first run
# at its seed.
EPISODE_SEEDS = 4
DEADLINE_S = 170.0  # the whole invocation ends within 180 s

REPORT_KEYS = [
    "fingerprint", "mode", "n_way", "k_shot", "episodes", "mean", "ci95", "accuracies", "wall_seconds",
]
ABLATION_KEYS = ["with_pqs", "no_finetune", "paired_delta_mean", "paired_delta_ci95", "episodes"]
N_WAY, K_SHOT = 5, 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "eval" or "metatrain"
    mode: str | None = None
    workers: int = 1


# NOTES.md says why each workload exists, and why ablate_w2 and infer_w1 run by hand only
WORKLOADS = {
    w.name: w
    for w in (
        Workload("finetune_w1", "eval", "with_pqs", 1),
        Workload("ablate_w2", "eval", "ablate", 2),
        Workload("metatrain", "metatrain"),
        Workload("infer_w1", "eval", "no_finetune", 1),
    )
}


@dataclass(frozen=True)
class Size:
    synth: tuple[str, ...]  # `fewtune synth` overrides of the presets
    net: tuple[str, ...]  # `fewtune metatrain` backbone widths
    snapshot_tasks: int  # meta-training tasks behind the eval workloads' snapshot
    meta_epochs: int
    meta_tasks: int  # per epoch
    episodes: dict[str, int]
    epochs: int  # fine-tune epochs per episode
    score_episodes: int  # no_finetune episodes that score each metatrain snapshot


FULL = Size(
    synth=(),
    net=(),
    snapshot_tasks=100,
    meta_epochs=2,
    meta_tasks=100,
    episodes={"finetune_w1": 3, "ablate_w2": 2, "infer_w1": 500},
    epochs=100,
    score_episodes=150,
)
TINY = Size(
    synth=("--classes", "5", "--images-per-class", "20", "--size", "4"),
    net=("--hidden", "12,10", "--embed-dim", "8"),
    snapshot_tasks=4,
    meta_epochs=2,
    meta_tasks=3,
    episodes={"finetune_w1": 2, "ablate_w2": 2, "infer_w1": 4},
    epochs=2,
    score_episodes=2,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "episodes/s",
    "peak_rss_mb": "MiB",
    "accuracy_mean": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed fixture)."""


@dataclass
class Run:
    """One fewtune process: timings seen from outside and the probe's stats."""

    tag: str
    traced: bool
    rc: int
    wall: float
    setup: float | None
    window: float | None
    loadavg_before: float
    stats: dict
    spans: Path
    errors: list[str] = field(default_factory=list)
    seed_index: int = 0


class Session:
    """Starts fewtune processes in the work directory, with this checkout's src/ on PYTHONPATH."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.count = 0

    def cli(self, tag: str, args: list[str], traced: bool = False) -> Run:
        """Run `fewtune <args>` in a fresh process through probe.py."""
        stats_path = self.work / f"{tag}.stats.json"
        log = self.work / f"{tag}.log"
        load = os.getloadavg()[0]
        cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(stats_path), str(self.count),
               "1" if traced else "0", "--", *args]
        self.count += 1
        t0 = time.monotonic()
        with open(log, "w") as out:
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=out, stderr=out,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the probe and its pool workers
                proc.wait()
                rc = -signal.SIGKILL
        wall = time.monotonic() - t0
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
        setup = stats["t_setup_done"] - t0 if "t_setup_done" in stats else None
        window = stats["t_main_done"] - stats["t_setup_done"] if "t_setup_done" in stats else None
        run = Run(tag, traced, rc, wall, setup, window, load, stats, Path(f"{stats_path}.spans.npz"))
        if rc != 0:
            tail = log.read_text().strip().splitlines()[-1:] if log.exists() else []
            run.errors.append(f"exit code {rc}: {' '.join(tail)}")
        elif not Path(stats.get("fewtune_file", "/")).resolve().is_relative_to(SRC.resolve()):
            run.errors.append(f"fewtune imported from {stats.get('fewtune_file')}, not {SRC}")
        return run


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def mean_and_ci95(values: list[float]) -> tuple[float, float]:
    """Mean and 1.96*sd/sqrt(T), written here again so the check does not
    trust the code it checks."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))


def _close(a, b) -> bool:
    return isinstance(b, (int, float)) and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_report(path: Path, mode: str, episodes: int, errors: list[str]) -> dict:
    """Validate one report.json; append problems to errors and return it."""
    try:
        rep = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return {}
    if list(rep) != REPORT_KEYS:
        errors.append(f"{path.name}: keys {list(rep)} != {REPORT_KEYS}")
        return rep
    accs = rep["accuracies"]
    if rep["mode"] != mode or rep["n_way"] != N_WAY or rep["k_shot"] != K_SHOT:
        errors.append(f"{path.name}: mode/shape {rep['mode']} {rep['n_way']}-way {rep['k_shot']}-shot")
    if rep["episodes"] != episodes or len(accs) != episodes:
        errors.append(f"{path.name}: {rep['episodes']} episodes, {len(accs)} accuracies, expected {episodes}")
    if not accs or not all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in accs):
        errors.append(f"{path.name}: accuracy outside [0, 1]")
        return rep
    mean, ci95 = mean_and_ci95(accs)
    if not (_close(mean, rep["mean"]) and _close(ci95, rep["ci95"])):
        errors.append(f"{path.name}: mean/ci95 {rep['mean']}/{rep['ci95']} != recomputed {mean}/{ci95}")
    if rep["wall_seconds"] is not None:
        errors.append(f"{path.name}: wall_seconds present without --timing")
    fp = rep["fingerprint"]
    if not (isinstance(fp, str) and len(fp) == 64 and all(c in "0123456789abcdef" for c in fp)):
        errors.append(f"{path.name}: fingerprint {fp!r} is not a sha256 hex digest")
    return rep


def check_ablation(out: Path, episodes: int, errors: list[str]) -> tuple[dict, float | None]:
    with_r = check_report(out / "report_with_pqs.json", "with_pqs", episodes, errors)
    without_r = check_report(out / "report_no_finetune.json", "no_finetune", episodes, errors)
    try:
        abl = json.loads((out / "ablation.json").read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"ablation.json: unreadable ({exc})")
        return with_r, None
    if list(abl) != ABLATION_KEYS:
        errors.append(f"ablation.json: keys {list(abl)} != {ABLATION_KEYS}")
        return with_r, None
    if "accuracies" not in with_r or "accuracies" not in without_r:
        return with_r, None
    for arm, rep in (("with_pqs", with_r), ("no_finetune", without_r)):
        if abl[arm] != {"mean": rep["mean"], "ci95": rep["ci95"]}:
            errors.append(f"ablation.json: {arm} summary differs from its report")
    deltas = [a - b for a, b in zip(with_r["accuracies"], without_r["accuracies"])]
    mean, ci95 = mean_and_ci95(deltas)
    if not (_close(mean, abl["paired_delta_mean"]) and _close(ci95, abl["paired_delta_ci95"])):
        errors.append(f"ablation.json: paired delta {abl['paired_delta_mean']} != recomputed {mean}")
    if abl["episodes"] != episodes:
        errors.append(f"ablation.json: {abl['episodes']} episodes, expected {episodes}")
    return with_r, abl["paired_delta_mean"]


def check_metatrain(out: Path, epochs: int, errors: list[str]) -> float | None:
    if not (out / "backbone.snap").is_file():
        errors.append("metatrain: backbone.snap missing")
    try:
        lines = (out / "metatrain_log.txt").read_text().splitlines()
        losses = [float(line.split()[1]) for line in lines]
    except (OSError, ValueError, IndexError) as exc:
        errors.append(f"metatrain_log.txt: unreadable ({exc})")
        return None
    if len(losses) != epochs or not all(math.isfinite(x) and x >= 0.0 for x in losses):
        errors.append(f"metatrain_log.txt: {len(losses)} epochs, expected {epochs} finite losses")
        return None
    return losses[-1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, size: Size, session: Session):
        self.wl, self.seconds, self.trace, self.size = wl, seconds, trace, size
        self.s = session
        self.work = session.work
        # distinct seeds for each input, all derived from the command-line seed
        self.seeds = {"source": str(16 * seed), "target": str(16 * seed + 1), "snapshot": str(16 * seed + 2)}
        self.run_seeds = [str(16 * seed + 8 + k) for k in range(EPISODE_SEEDS)]
        self.fixture_runs: list[Run] = []

    # -- fixtures -----------------------------------------------------------

    def _fixture(self, tag: str, args: list[str], traced: bool = False) -> Run:
        run = self.s.cli(tag, args, traced)
        self.fixture_runs.append(run)
        if run.rc != 0:
            raise BenchError(f"fixture {tag} failed: {'; '.join(run.errors)}")
        return run

    def build_fixtures(self) -> None:
        for preset in ("source", "target"):
            self._fixture(f"synth_{preset}", [
                "synth", "--out", str(self.work / preset), "--seed", self.seeds[preset],
                "--preset", preset, *self.size.synth,
            ], traced=self.trace)
        if self.wl.command == "eval":
            self._fixture("snapshot", [
                "metatrain", "--data", str(self.work / "source"), "--out", str(self.work / "snapshot"),
                "--seed", self.seeds["snapshot"], "--epochs", "1",
                "--tasks-per-epoch", str(self.size.snapshot_tasks), *self.size.net,
            ])

    # -- one run of the workload ---------------------------------------------

    def items(self) -> int:
        if self.wl.command == "metatrain":
            return self.size.meta_epochs * self.size.meta_tasks
        return self.size.episodes[self.wl.name] * (2 if self.wl.mode == "ablate" else 1)

    def args(self, out: Path, seed: str) -> list[str]:
        if self.wl.command == "metatrain":
            return ["metatrain", "--data", str(self.work / "source"), "--out", str(out),
                    "--seed", seed, "--epochs", str(self.size.meta_epochs),
                    "--tasks-per-epoch", str(self.size.meta_tasks), *self.size.net]
        return ["eval", "--snapshot", str(self.work / "snapshot" / "backbone.snap"),
                "--data", str(self.work / "target"), "--out", str(out), "--mode", self.wl.mode,
                "--seed", seed, "--workers", str(self.wl.workers),
                "--episodes", str(self.size.episodes[self.wl.name]), "--epochs", str(self.size.epochs)]

    def outputs(self, out: Path) -> list[Path]:
        """Files that must be byte-identical across runs at one seed."""
        if self.wl.command == "metatrain":
            names = ["backbone.snap", "metatrain_log.txt"]
        elif self.wl.mode == "ablate":
            names = ["report_with_pqs.json", "report_no_finetune.json", "ablation.json"]
        else:
            names = ["report.json"]
        return [out / n for n in names]

    def check(self, run: Run, out: Path) -> dict:
        """Output checks of one run; returns the figures read from its outputs."""
        if run.rc != 0:
            return {}
        episodes = self.size.episodes.get(self.wl.name)
        if self.wl.command == "metatrain":
            return {"final_loss": check_metatrain(out, self.size.meta_epochs, run.errors)}
        if self.wl.mode == "ablate":
            rep, delta = check_ablation(out, episodes, run.errors)
            return {"accuracy_mean": rep.get("mean"), "paired_delta": delta}
        rep = check_report(out / "report.json", self.wl.mode, episodes, run.errors)
        return {"accuracy_mean": rep.get("mean")}

    def measure(self) -> tuple[list[Run], dict[int, dict]]:
        """Run the workload until the time is up; returns the runs and,
        per seed index, the figures read from its first run's outputs."""
        runs: list[Run] = []
        figures: dict[int, dict] = {}
        reference: dict[int, list[bytes]] = {}
        # traced runs repeat the untraced run before them, seed and all
        per_seed = 2 if self.trace else 1
        min_runs = 2 * per_seed if self.trace else EPISODE_SEEDS + 1
        begin = time.monotonic()
        while True:
            i = len(runs)
            k = (i // per_seed) % EPISODE_SEEDS
            out = self.work / f"run{i}"
            run = self.s.cli(f"run{i}", self.args(out, self.run_seeds[k]), traced=self.trace and i % 2 == 1)
            run.seed_index = k
            runs.append(run)
            found = self.check(run, out)
            if run.rc == 0:
                contents = [p.read_bytes() if p.exists() else b"" for p in self.outputs(out)]
                if k not in reference:
                    reference[k], figures[k] = contents, found
                elif contents != reference[k]:
                    run.errors.append(f"outputs differ from the first run at seed {self.run_seeds[k]}")
            if run.rc < 0:  # killed at the deadline
                break
            elapsed = time.monotonic() - begin
            typical = statistics.median(r.wall for r in runs)
            if len(runs) >= min_runs and elapsed + typical > self.seconds:
                break
        return runs, figures

    def score_snapshots(self, runs: list[Run]) -> list[Run]:
        """Accuracy of each metatrain seed's snapshot: a short no_finetune eval on the target data."""
        scores = []
        for k in range(EPISODE_SEEDS):
            first = next((r for r in runs if r.seed_index == k and r.rc == 0), None)
            if first is None:
                continue
            out = self.work / f"score{k}"
            args = ["eval", "--snapshot", str(self.work / first.tag / "backbone.snap"),
                    "--data", str(self.work / "target"), "--out", str(out), "--mode", "no_finetune",
                    "--seed", self.run_seeds[k], "--episodes", str(self.size.score_episodes)]
            score = self.s.cli(f"score{k}", args)
            score.seed_index = k
            if score.rc == 0:
                rep = check_report(out / "report.json", "no_finetune", self.size.score_episodes, score.errors)
                score.stats["accuracy_mean"] = rep.get("mean")
            scores.append(score)
        return scores


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _mean_over_seeds(figures: dict[int, dict], key: str) -> float | None:
    values = [figures.get(k, {}).get(key) for k in range(EPISODE_SEEDS)]
    return None if None in values else statistics.fmean(values)


def end_to_end(bench: Bench, runs: list[Run], figures: dict[int, dict]) -> dict[str, tuple[float, str]]:
    ok = [r for r in runs if not r.errors]
    items = bench.items()
    rate = statistics.median(items / r.window for r in ok)
    rss_kb = max(max(r.stats["maxrss_kb"], r.stats["children"]["maxrss_kb"]) for r in ok)
    values = {
        "setup_s": statistics.median(r.setup for r in ok),
        "episodes_per_s": rate,
        "peak_rss_mb": rss_kb / 1024.0,
        "accuracy_mean": _mean_over_seeds(figures, "accuracy_mean"),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    if bench.wl.command == "metatrain":
        metrics["tasks_per_s"] = (rate, "tasks/s")
        metrics["final_loss"] = (_mean_over_seeds(figures, "final_loss"), "nats")
    if bench.wl.mode == "ablate":
        metrics["paired_delta"] = (_mean_over_seeds(figures, "paired_delta"), "fraction")
    return metrics


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def per_layer_one(bench: Bench, run: Run) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans and counters."""
    s = SpanSummary(run.spans)
    c = run.stats["counters"]
    m: dict[str, float] = {
        "diffcore.backward.s": s.self_s("diffcore.backward"),
        "diffcore.backward.calls": s.calls("diffcore.backward"),
        "diffcore.tape_nodes_per_backward": c["diffcore.tape_nodes"] / c["diffcore.graphs"] if c["diffcore.graphs"] else 0.0,
        "diffcore.tensors_created": c["diffcore.tensors_created"],
        "diffcore.sgd_step.s": s.self_s("diffcore.sgd_step"),
        "diffcore.zero_grads.s": s.self_s("diffcore.zero_grads"),
    }
    for op in OPS:
        m[f"diffcore.op.{op}.calls"] = s.calls(f"diffcore.{op}")
        m[f"diffcore.op.{op}.s"] = s.self_s(f"diffcore.{op}")
    finetune = s.durations("fewshot.finetune")
    m["fewshot.finetune.p50_s"] = _percentile(finetune, 50)
    m["fewshot.finetune.p90_s"] = _percentile(finetune, 90)
    for name in ("embed", "images_to_batch", "infer", "classify_cosine", "pristine_state", "meta_train",
                 "Backbone.load", "Backbone.to_bytes"):
        m[f"fewshot.{name}.s"] = s.self_s(f"fewshot.{name}")
    for name in ("finetune_objective", "cosface_loss", "ptloss", "compute_prototypes", "proto_xent"):
        m[f"losses.{name}.s"] = s.self_s(f"losses.{name}")
    m["imageaug.augment.s"] = s.self_s("imageaug.augment")
    m["imageaug.augment.calls"] = s.calls("imageaug.augment")
    m["rng.generator.s"] = s.self_s("rng.RngStream.generator")
    m["rng.generator.calls"] = s.calls("rng.RngStream.generator")
    m["episodes.sample_episode.s"] = s.self_s("episodes.sample_episode")
    m["episodes.sample_episode.calls"] = s.calls("episodes.sample_episode")
    m["episodes.build_pseudo_query.s"] = s.self_s("episodes.build_pseudo_query")
    m["episodes.load_dataset.s"] = s.self_s("episodes.load_dataset")
    load_total = s.total_s("episodes.load_dataset")
    m["episodes.load_dataset.images_per_s"] = s.calls("ppm.read_ppm") / load_total if load_total else 0.0
    m["ppm.read_ppm.s"] = s.self_s("ppm.read_ppm")
    m["ppm.read_ppm.calls"] = s.calls("ppm.read_ppm")
    episode = s.durations("evalharness.run_episode")
    m["evalharness.run_episode.p50_s"] = _percentile(episode, 50)
    m["evalharness.run_episode.p90_s"] = _percentile(episode, 90)
    m["evalharness.run_episode.max_s"] = float(episode.max()) if episode.size else 0.0
    m["evalharness.aggregate.s"] = sum(
        s.self_s(f"evalharness.{n}") for n in ("mean_and_ci95", "config_fingerprint", "emit_report"))
    arms = ("with_pqs", "no_finetune")
    for arm in arms:
        m[f"evalharness.run_eval.{arm}.s"] = s.self_s(f"evalharness.run_eval.{arm}")
    pool = run.stats["children"]
    pool_wall = sum(s.total_s(f"evalharness.run_eval.{arm}") for arm in arms)
    pooled = bench.wl.workers > 1
    items = bench.items()
    m["evalharness.worker_cpu_s_per_episode"] = pool["cpu_s"] / items if pooled else 0.0
    m["evalharness.worker_invol_csw_per_episode"] = pool["nivcsw"] / items if pooled else 0.0
    m["evalharness.worker_busy_frac"] = (
        pool["cpu_s"] / (bench.wl.workers * pool_wall) if pooled and pool_wall else 0.0)
    m["cli.main.s"] = s.self_s("cli.main")
    m["trace.spans"] = s.spans
    return m


PER_LAYER_UNITS = {
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "diffcore.tape_nodes_per_backward": "nodes",
    "diffcore.tensors_created": "count",
    "episodes.load_dataset.images_per_s": "images/s",
    "evalharness.worker_cpu_s_per_episode": "s/episode",
    "evalharness.worker_invol_csw_per_episode": "csw/episode",
    "evalharness.worker_busy_frac": "fraction",
}


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def per_layer(bench: Bench, runs: list[Run]) -> dict[str, tuple[float, str]]:
    traced = [r for r in runs if r.traced and not r.errors]
    plain = [r for r in runs if not r.traced and not r.errors]
    each = [per_layer_one(bench, r) for r in traced]
    values = {k: statistics.median(e[k] for e in each) for k in each[0]}
    values["trace.overhead_frac"] = statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)
    synth = [SpanSummary(r.spans) for r in bench.fixture_runs if r.traced]
    values["synthetic.generate_synthetic.s"] = sum(s.self_s("synthetic.generate_synthetic") for s in synth)
    return {k: (float(v), unit_of(k)) for k, v in sorted(values.items())}


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def cpu_times() -> list[int] | None:
    """Aggregate jiffies from /proc/stat (user nice system idle iowait irq softirq steal), if readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two samples."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "pool_start_method": multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="few episodes and epochs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fewtune" / "cli.py").is_file():
        print(f"error: no fewtune sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    wl = WORKLOADS[args.workload]
    size = TINY if args.tiny else FULL
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = RUNS_DIR / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(work, start + DEADLINE_S)
        bench = Bench(wl, args.seed, args.seconds, bool(args.trace), size, session)
        env = environment()
        cpu_before = cpu_times()
        bench.build_fixtures()
        runs, figures = bench.measure()
        extra = []
        if wl.command == "metatrain":
            extra = bench.score_snapshots(runs)
            for score in extra:
                figures.setdefault(score.seed_index, {})["accuracy_mean"] = score.stats.get("accuracy_mean")
        attempted = runs + extra
        failed = [r for r in attempted if r.errors]
        for r in failed:
            for e in r.errors:
                print(f"{r.tag}: {e}", file=sys.stderr)
        clean = [r for r in runs if not r.errors]
        if not any(not r.traced for r in clean) or (args.trace and not any(r.traced for r in clean)):
            raise BenchError("no run completed cleanly, no metrics")
        if args.trace:
            metrics = per_layer(bench, runs)
        else:
            metrics = end_to_end(bench, runs, figures)
        missing = [k for k, (v, _) in metrics.items() if v is None or not math.isfinite(v)]
        if missing:
            raise BenchError(f"no value for {missing}")
        printed = {**metrics, "failed_frac": (len(failed) / len(attempted), "fraction")}

        env["loadavg_1m_before_runs"] = [r.loadavg_before for r in attempted]
        env["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())
        result = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "env": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
            "fixture_s": sum(r.wall for r in bench.fixture_runs),
            "runs": [{"tag": r.tag, "traced": r.traced, "rc": r.rc, "wall_s": r.wall, "setup_s": r.setup,
                      "window_s": r.window, "loadavg_1m_before": r.loadavg_before, "errors": r.errors}
                     for r in attempted],
        }
        results = RUNS_DIR / "results"
        results.mkdir(exist_ok=True)
        (results / f"{label}.json").write_text(json.dumps(result, indent=2) + "\n")

        print("env " + json.dumps(env))
        print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
              f"{len(attempted)} runs attempted, {len(failed)} failed")
        for name, (value, unit) in printed.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(attempted),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if args.trace or k in END_TO_END_UNITS},
        }))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
