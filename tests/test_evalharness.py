"""Evaluation harness: aggregation, determinism, paired ablation."""

import json

import numpy as np
import pytest

import fewtune.evalharness as evalharness
from fewtune.episodes import EpisodeShape, sample_episode
from fewtune.errors import ParameterError
from fewtune.evalharness import (
    EvalPlan,
    EvalReport,
    ablate,
    emit_report,
    mean_and_ci95,
    run_eval,
)
from fewtune.fewshot import Backbone, BackboneSpec
from fewtune.losses import HyperParams
from fewtune.rng import RngStream
from fewtune.synthetic import generate_synthetic, target_domain

SPEC = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)
SHAPE = EpisodeShape(n_way=3, k_shot=2, m_query=3)


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

        def counted(ds, n, k, m, rng):
            streams.append(rng)
            return sample_episode(ds, n, k, m, rng)

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
        return EvalReport(
            fingerprint="abc123",
            mode="with_pqs",
            n_way=5,
            k_shot=5,
            m_query=15,
            episodes=2,
            accuracies=[0.8, 0.9],
            mean=0.85,
            ci95=0.098,
            wall_seconds=12.5,
        )

    def test_json_keys_and_order(self, tmp_path):
        path = emit_report(self._report(), "json", tmp_path / "r.json")
        data = json.loads(path.read_text())
        assert list(data.keys()) == [
            "fingerprint", "mode", "n_way", "k_shot", "episodes",
            "mean", "ci95", "accuracies", "wall_seconds",
        ]
        assert data["wall_seconds"] is None  # canonical form excludes timing

    def test_json_with_timing(self, tmp_path):
        path = emit_report(self._report(), "json", tmp_path / "t.json", include_timing=True)
        assert json.loads(path.read_text())["wall_seconds"] == 12.5

    def test_table_mirrors_cell_format(self, tmp_path):
        path = emit_report(self._report(), "table", tmp_path / "r.txt")
        text = path.read_text()
        assert "85.00±9.80" in text
        assert "wall_seconds" in text

    def test_bad_format(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_report(self._report(), "yaml", tmp_path / "r.yaml")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(self._report(), "json", tmp_path / "missing_dir" / "r.json")
