"""Tiny-size runs of the benchmark: every workload, every output check and
the traced run, in seconds. No wall-clock assertions.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, WORKLOADS, check_ablation, check_report
from tracer import OPS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_tiny(workload, 0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END_UNITS[name]
        assert metric["value"] > 0
    assert 0.0 < result["metrics"]["accuracy_mean"]["value"] <= 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run_tiny(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.overhead_frac"] > 0 and m["trace.spans"] > 0 and m["cli.main.s"] > 0
    assert m["ppm.read_ppm.calls"] > 0 and m["synthetic.generate_synthetic.s"] > 0
    if workload == "finetune_w1":
        # 2 episodes x 2 epochs of the 5-way 5-shot fine-tune, 4 pseudo images per support
        assert m["diffcore.backward.calls"] == 4
        assert m["imageaug.augment.calls"] == 2 * 100
        assert m["diffcore.tape_nodes_per_backward"] == 117
        assert all(m[f"diffcore.op.{op}.calls"] > 0 for op in OPS if op != "squared_euclidean_matrix")
    if workload == "metatrain":
        assert m["losses.proto_xent.s"] > 0 and m["diffcore.op.squared_euclidean_matrix.calls"] == 6
    if workload == "infer_w1":
        assert m["diffcore.backward.calls"] == 0 and m["episodes.sample_episode.calls"] == 4
    if workload == "ablate_w2":
        assert m["evalharness.worker_cpu_s_per_episode"] > 0
        assert m["evalharness.run_eval.with_pqs.s"] > 0 and m["evalharness.run_eval.no_finetune.s"] > 0
        assert m["fewshot.Backbone.to_bytes.s"] > 0


def _report(tmp_path, name, accuracies, changes=None):
    n = len(accuracies)
    mean = sum(accuracies) / n
    sd = (sum((a - mean) ** 2 for a in accuracies) / (n - 1)) ** 0.5
    payload = {"fingerprint": "0" * 64, "mode": "with_pqs", "n_way": 5, "k_shot": 5, "episodes": n,
               "mean": mean, "ci95": 1.96 * sd / n ** 0.5, "accuracies": accuracies, "wall_seconds": None}
    payload.update(changes or {})
    (tmp_path / name).write_text(json.dumps(payload, indent=2) + "\n")


def test_report_check_accepts_a_valid_report(tmp_path):
    _report(tmp_path, "report.json", [0.5, 0.75, 1.0])
    errors = []
    check_report(tmp_path / "report.json", "with_pqs", 3, errors)
    assert errors == []


@pytest.mark.parametrize("changes, fragment", [
    ({"mean": 0.1}, "recomputed"),
    ({"episodes": 4}, "episodes"),
    ({"accuracies": [0.5, 0.75, 1.5]}, "outside"),
    ({"wall_seconds": 1.0}, "wall_seconds"),
    ({"mode": "no_finetune"}, "mode"),
])
def test_report_check_rejects(tmp_path, changes, fragment):
    _report(tmp_path, "report.json", [0.5, 0.75, 1.0], changes)
    errors = []
    check_report(tmp_path / "report.json", "with_pqs", 3, errors)
    assert any(fragment in e for e in errors), errors


def test_report_check_rejects_reordered_keys(tmp_path):
    _report(tmp_path, "report.json", [0.5, 1.0])
    payload = json.loads((tmp_path / "report.json").read_text())
    (tmp_path / "report.json").write_text(json.dumps(dict(reversed(payload.items()))))
    errors = []
    check_report(tmp_path / "report.json", "with_pqs", 2, errors)
    assert any("keys" in e for e in errors)


def test_ablation_check_recomputes_the_paired_delta(tmp_path):
    _report(tmp_path, "report_with_pqs.json", [1.0, 0.75])
    _report(tmp_path, "report_no_finetune.json", [0.5, 0.75], {"mode": "no_finetune"})
    with_r = json.loads((tmp_path / "report_with_pqs.json").read_text())
    without_r = json.loads((tmp_path / "report_no_finetune.json").read_text())
    ablation = {"with_pqs": {"mean": with_r["mean"], "ci95": with_r["ci95"]},
                "no_finetune": {"mean": without_r["mean"], "ci95": without_r["ci95"]},
                "paired_delta_mean": 0.25, "paired_delta_ci95": 1.96 * 0.5 ** 0.5 * 0.5 / 2 ** 0.5,
                "episodes": 2}
    (tmp_path / "ablation.json").write_text(json.dumps(ablation))
    errors = []
    _, delta = check_ablation(tmp_path, 2, errors)
    assert errors == [] and delta == 0.25

    ablation["paired_delta_mean"] = 0.3
    (tmp_path / "ablation.json").write_text(json.dumps(ablation))
    errors = []
    check_ablation(tmp_path, 2, errors)
    assert any("paired delta" in e for e in errors)
