"""Evaluation harness: aggregation, determinism, paired ablation."""

import ctypes
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import fewtune.cli as cli
import fewtune.evalharness as evalharness
import fewtune.fewshot as fewshot
from fewtune.episodes import EpisodeShape, sample_episode
from fewtune.errors import DivergenceError, ParameterError
from fewtune.evalharness import (
    EvalPlan,
    EvalReport,
    ablate,
    config_fingerprint,
    emit_report,
    mean_and_ci95,
    run_eval,
)
from fewtune.fewshot import Backbone, BackboneSpec, finetune
from fewtune.losses import HyperParams
from fewtune.rng import RngStream
from fewtune.synthetic import generate_synthetic, target_domain

SPEC = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)
SHAPE = EpisodeShape(n_way=3, k_shot=2, m_query=3)
SRC = Path(__file__).resolve().parents[1] / "src"


def plan(seed, episodes, epochs):
    return EvalPlan(HyperParams(episodes_count=episodes, finetune_epochs=epochs), SHAPE, seed)


def tiny_setup(seed=0):
    bk = Backbone.create(SPEC, RngStream(seed))
    ds = generate_synthetic(
        target_domain(n_classes=5, images_per_class=12, image_size=4), RngStream(seed + 1)
    )
    return bk, ds


class TestAggregation:
    def test_identical_accuracies_zero_halfwidth(self):
        mean, ci = mean_and_ci95([0.8, 0.8, 0.8, 0.8])
        assert mean == 0.8 and ci == 0.0

    def test_formula(self):
        vals = [0.2, 0.4, 0.9, 0.7]
        mean, ci = mean_and_ci95(vals)
        arr = np.asarray(vals)
        assert mean == pytest.approx(arr.mean())
        assert ci == pytest.approx(1.96 * arr.std(ddof=1) / 2.0)

    def test_single_value(self):
        assert mean_and_ci95([0.5]) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            mean_and_ci95([])


class TestRunEval:
    def test_report_consistent_with_accuracies(self):
        bk, ds = tiny_setup()
        report = run_eval(bk, ds, plan(7, 6, 2), "no_finetune")
        assert len(report.accuracies) == 6
        mean, ci = mean_and_ci95(report.accuracies)
        assert report.mean == mean and report.ci95 == ci
        assert 0.0 <= report.mean <= 1.0

    def test_episode_count_defaults_to_hp(self):
        bk, ds = tiny_setup()
        report = run_eval(bk, ds, plan(7, 4, 0), "no_finetune")
        assert report.episodes == 4

    def test_mode_validation(self):
        bk, ds = tiny_setup()
        with pytest.raises(ParameterError):
            run_eval(bk, ds, plan(0, 1, 100), "nope")

    def test_deterministic_across_runs(self):
        bk, ds = tiny_setup()
        a = run_eval(bk, ds, plan(11, 4, 2), "with_pqs")
        b = run_eval(bk, ds, plan(11, 4, 2), "with_pqs")
        assert a.accuracies == b.accuracies
        assert a.fingerprint == b.fingerprint
        assert a.to_json() == b.to_json()

    def test_worker_pool_matches_serial(self):
        bk, ds = tiny_setup()
        serial = run_eval(bk, ds, plan(11, 6, 2), "with_pqs", workers=1)
        pooled = run_eval(bk, ds, plan(11, 6, 2), "with_pqs", workers=3)
        assert serial.to_json() == pooled.to_json()

    def test_fingerprint_sensitive_to_inputs(self):
        bk, ds = tiny_setup()
        base = run_eval(bk, ds, plan(3, 2, 0), "no_finetune")
        other_seed = run_eval(bk, ds, plan(4, 2, 0), "no_finetune")
        other_hp = run_eval(bk, ds, plan(3, 2, 1), "no_finetune")
        assert base.fingerprint != other_seed.fingerprint
        assert base.fingerprint != other_hp.fingerprint

    def test_fingerprint_covers_every_plan_field(self):
        # a plan field the fingerprint ignores would let two reports with
        # different accuracies carry one fingerprint
        _, ds = tiny_setup()
        base = plan(3, 2, 1)
        variants = {
            "hp": HyperParams(episodes_count=2, finetune_epochs=2),
            "shape": EpisodeShape(n_way=2, k_shot=2, m_query=3),
            "master_seed": 4,
        }
        assert [f.name for f in dataclasses.fields(EvalPlan)] == list(variants)
        fingerprint = config_fingerprint(base, "with_pqs", ds)
        for name, value in variants.items():
            changed = dataclasses.replace(base, **{name: value})
            assert config_fingerprint(changed, "with_pqs", ds) != fingerprint, name

    def test_divergence_names_the_episode(self, monkeypatch):
        bk, ds = tiny_setup()
        calls = []

        def diverging(bk, ep, pseudo, hp):
            calls.append(ep)
            if len(calls) == 3:
                raise DivergenceError("fine-tuning epoch 1: loss diverged to nan at learning rate 9.0")
            return finetune(bk, ep, pseudo, hp)

        monkeypatch.setattr(evalharness, "finetune", diverging)
        with pytest.raises(DivergenceError, match=r"^episode 2, fine-tuning epoch 1: "):
            run_eval(bk, ds, plan(7, 5, 1), "with_pqs")


class TestPool:
    def test_first_failure_stops_the_pool(self, monkeypatch, tmp_path):
        # episode 0 fails at once and every other episode runs for a minute,
        # so an episode that is waited for instead of stopped leaves a mark
        def episode(bk, dataset, plan, index, modes):
            (tmp_path / f"started-{index}").touch()
            if index == 0:
                raise DivergenceError("episode 0, fine-tuning epoch 0: loss diverged to nan at learning rate 9.0")
            time.sleep(60)
            (tmp_path / f"finished-{index}").touch()
            return (1.0,)

        monkeypatch.setattr(evalharness, "run_episode", episode)
        bk, ds = tiny_setup()
        with pytest.raises(DivergenceError, match=r"^episode 0, "):
            evalharness.score_episodes(bk, ds, plan(1, 20, 0), ("with_pqs",), workers=2)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.glob("finished-*")) == []
        # each worker blocks in the first episode it takes after episode 0
        started = {int(p.name.split("-")[1]) for p in tmp_path.glob("started-*")}
        assert 0 in started and started <= {0, 1, 2}

    def test_failed_passes_leave_no_thread_exception(self, monkeypatch):
        # the executor's management thread dies if it is left to fail a
        # future that was cancelled; episode 0 fails while the others wait
        def episode(bk, dataset, plan, index, modes):
            if index == 0:
                raise DivergenceError("episode 0, fine-tuning epoch 0: loss diverged to nan at learning rate 9.0")
            time.sleep(1)
            return (1.0,)

        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        monkeypatch.setattr(evalharness, "run_episode", episode)
        bk, ds = tiny_setup()
        for _ in range(100):
            with pytest.raises(DivergenceError):
                evalharness.score_episodes(bk, ds, plan(1, 8, 0), ("with_pqs",), workers=2)
        assert [str(args.exc_value) for args in raised] == []

    @pytest.mark.parametrize(("workers", "episodes", "asked"), [(8, 2, [2]), (8, 1, []), (2, 5, [2]), (2, 1000, [2])])
    def test_processes_capped_at_episode_count(self, recording_pool, workers, episodes, asked):
        bk, ds = tiny_setup()
        scored = evalharness.score_episodes(bk, ds, plan(1, episodes, 0), ("with_pqs",), workers)
        assert scored == {"with_pqs": [float(i) for i in range(episodes)]}
        assert recording_pool.requested == asked
        # 16 episodes per worker in flight, whatever the episode count
        assert recording_pool.peak_unread <= 32


class TestBlasThreads:
    """Every scoring pass runs its compute on one OpenBLAS thread, which
    fewshot sets around each call, and the caller keeps its count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_episodes_run_at_one_thread(self, monkeypatch, tmp_path, blas_threads, workers):
        # finetune and infer both compute prototypes; each process of the pass,
        # a forked pool worker too, appends the count it sees to its own file
        compute_prototypes = fewshot.compute_prototypes

        def recording(*args):
            with open(tmp_path / str(os.getpid()), "a") as f:
                f.write(f"{blas_threads()}\n")
            return compute_prototypes(*args)

        monkeypatch.setattr(fewshot, "compute_prototypes", recording)
        bk, ds = tiny_setup()
        ablate(bk, ds, plan(1, 4, 1), workers)
        seen = {path.name: path.read_text().split() for path in tmp_path.iterdir()}
        # each episode: the head's init, then infer in each arm
        assert sum(map(len, seen.values())) == 4 * 3 and set().union(*seen.values()) == {"1"}
        assert (str(os.getpid()) in seen) == (workers == 1)
        assert blas_threads() == 2
        assert fewshot.compute_blas_threads() == 1

    def test_caller_count_restored_after_a_failure(self, blas_threads):
        bk, ds = tiny_setup()
        diverging = EvalPlan(HyperParams(episodes_count=3, finetune_epochs=1, learning_rate=1.7e308), SHAPE, 0)
        with pytest.raises(DivergenceError, match="^episode 0, "):
            run_eval(bk, ds, diverging, "with_pqs")
        assert blas_threads() == 2

    def test_library_not_found(self, monkeypatch):
        bk, ds = tiny_setup()
        expected = run_eval(bk, ds, plan(11, 4, 2), "with_pqs")
        monkeypatch.setattr(fewshot, "_openblas", lambda: None)
        assert fewshot.compute_blas_threads() is None
        for workers in (1, 2):
            assert run_eval(bk, ds, plan(11, 4, 2), "with_pqs", workers).to_json() == expected.to_json()


def tiny_synth(tmp_path):
    return cli.main(["synth", "--out", str(tmp_path / "d"), "--classes", "2", "--images-per-class", "1", "--size", "2"])


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The C library as a stand-in whose `mallopt` records its calls; other
    libraries load as before."""
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    real = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: libc if name is None else real(name, *args, **kwargs))
    return calls


class TestPinAllocator:
    """No process the package owns sets the C allocator's thresholds: glibc's defaults stand."""

    def test_no_process_pins(self, mallopt_calls, monkeypatch, tmp_path):
        # the CLI's process and a pool worker; importing is checked in a fresh interpreter below
        assert tiny_synth(tmp_path) == 0
        monkeypatch.setattr(evalharness, "_WORKER", {})
        bk, ds = tiny_setup()
        evalharness._init_worker(bk.to_bytes(), ds, plan(1, 1, 0), ("with_pqs",))
        assert mallopt_calls == []
        ctypes.CDLL(None).mallopt(-1, 0)  # the stand-in records a call made through it
        assert mallopt_calls == [(-1, 0)]

    def test_import_does_not_pin(self):
        # a fresh interpreter imports every module with mallopt recorded; the
        # recording is shown to work by one call of the stand-in afterwards
        code = """
import ctypes, importlib, pkgutil
calls = []
real = ctypes.CDLL
libc = type("LibC", (), {"mallopt": staticmethod(lambda param, value: calls.append(param) or 1)})()
ctypes.CDLL = lambda name, *args, **kwargs: libc if name is None else real(name, *args, **kwargs)
import fewtune
for module in pkgutil.iter_modules(fewtune.__path__):
    importlib.import_module("fewtune." + module.name)
print(len(calls))
ctypes.CDLL(None).mallopt(-1, 0)
print(len(calls))
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "1"]


class TestAblate:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_arm_reports_equal_run_eval(self, workers):
        bk, ds = tiny_setup()
        res = ablate(bk, ds, plan(13, 5, 2), workers)
        for arm in (res.with_pqs, res.no_finetune):
            alone = run_eval(bk, ds, plan(13, 5, 2), arm.mode, workers)
            assert arm.to_json() == alone.to_json()

    def test_samples_each_episode_once(self, monkeypatch):
        bk, ds = tiny_setup()
        streams = []

        def counted(ds, shape, rng):
            streams.append(rng)
            return sample_episode(ds, shape, rng)

        monkeypatch.setattr(evalharness, "sample_episode", counted)
        ablate(bk, ds, plan(13, 5, 2))
        assert streams == [RngStream(13, (i, 0)) for i in range(5)]

    def test_zero_epochs_zero_delta(self):
        bk, ds = tiny_setup()
        res = ablate(bk, ds, plan(17, 5, 0))
        assert res.with_pqs.accuracies == res.no_finetune.accuracies
        assert res.delta_mean == 0.0 and res.delta_ci95 == 0.0

    def test_paired_delta_matches_reports(self):
        bk, ds = tiny_setup()
        res = ablate(bk, ds, plan(19, 5, 2))
        deltas = [a - b for a, b in zip(res.with_pqs.accuracies, res.no_finetune.accuracies)]
        mean, ci = mean_and_ci95(deltas)
        assert res.delta_mean == mean and res.delta_ci95 == ci


class TestEmitReport:
    def _report(self):
        return EvalReport("abc123", "with_pqs", EpisodeShape(5, 5, 15), [0.8, 0.9])

    def test_json_keys_and_order(self, tmp_path):
        path = emit_report(self._report(), "json", tmp_path / "r.json")
        data = json.loads(path.read_text())
        assert list(data.keys()) == [
            "fingerprint", "mode", "n_way", "k_shot", "episodes",
            "mean", "ci95", "accuracies", "wall_seconds",
        ]
        assert data["wall_seconds"] is None  # canonical form excludes timing

    def test_table_mirrors_cell_format(self, tmp_path):
        path = emit_report(self._report(), "table", tmp_path / "r.txt")
        text = path.read_text()
        assert "85.00±9.80" in text

    def test_bad_format(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_report(self._report(), "yaml", tmp_path / "r.yaml")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(self._report(), "json", tmp_path / "missing_dir" / "r.json")
