"""Command-line interface: wiring, exit codes, reproducibility."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fewtune.cli import RunConfig, _config_from_args, build_parser, main
from fewtune.episodes import load_dataset
from fewtune.fewshot import Backbone
from fewtune.ppm import read_ppm
from fewtune.synthetic import generate_synthetic, source_domain
from fewtune.rng import RngStream

SYNTH_SMALL = ["--classes", "5", "--images-per-class", "10", "--size", "4"]


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.ppm")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_synth(out, seed=3, preset="source", extra=()):
    return main(["synth", "--out", str(out), "--seed", str(seed), "--preset", preset,
                 *SYNTH_SMALL, *extra])


def run_metatrain(data, out, seed=4):
    return main([
        "metatrain", "--data", str(data), "--out", str(out), "--seed", str(seed),
        "--epochs", "1", "--tasks-per-epoch", "6",
        "--hidden", "12,10", "--embed-dim", "8",
        "--n-way", "3", "--k-shot", "2", "--m-query", "3",
    ])


def run_eval(snapshot, data, out, mode="with_pqs", extra=()):
    return main([
        "eval", "--snapshot", str(snapshot), "--data", str(data), "--out", str(out),
        "--mode", mode, "--seed", "5", "--episodes", "3", "--epochs", "2",
        "--n-way", "3", "--k-shot", "2", "--m-query", "3", *extra,
    ])


class TestRunConfigDefaults:
    def test_fresh_config_reports_published_values(self):
        cfg = RunConfig()
        assert cfg.episodes == 600
        assert cfg.epochs == 100
        assert cfg.margin == 1.0
        assert cfg.s == 30.0
        assert cfg.m == 0.35

    def test_parser_defaults_match(self):
        # the parser leaves unset flags as None; a bare argv resolves to the RunConfig defaults
        args = build_parser().parse_args(["eval", "--snapshot", "x", "--data", "y", "--out", "z"])
        cfg = _config_from_args(args)
        assert cfg.episodes == 600 and cfg.epochs == 100
        assert cfg.margin == 1.0 and cfg.s == 30.0 and cfg.m == 0.35
        assert cfg.transductive is True

    def test_round_trips_through_json(self):
        cfg = RunConfig(command="eval", data="d", snapshot="s", k_shot=20)
        assert RunConfig.from_json(cfg.to_json()) == cfg


class TestReplayConfigErrors:
    @pytest.mark.parametrize("text, fragment", [
        ('{"command": "eval", "colour": "red"}', "unknown run config keys ['colour']"),
        ('{"command": "eval", "k_shot": "5"}', "'k_shot'"),
        ('{"command": "eval", "k_shot": 5.0}', "'k_shot'"),
        ('{"command": "eval", "transductive": 1}', "'transductive'"),
        ('{"command": "eval", "hidden": [12, "x"]}', "'hidden'"),
        ('["eval"]', "must be a JSON object, got list"),
        ('{"command": "eval",', "not JSON"),
        (b'\xff\xfe{}', "not JSON"),
    ], ids=["unknown-key", "str-for-int", "float-for-int", "int-for-bool", "bad-width",
            "not-object", "not-json", "not-utf8"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "run_config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and fragment in err

    def test_integer_read_as_float_for_float_key(self):
        # an int would serialize as 30, not 30.0, and change the report fingerprint
        cfg = RunConfig.from_json('{"s": 30, "lr": 1}')
        assert type(cfg.s) is float and type(cfg.lr) is float


class TestSynth:
    def test_same_seed_same_tree(self, tmp_path):
        assert run_synth(tmp_path / "a", seed=3) == 0
        assert run_synth(tmp_path / "b", seed=3) == 0
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_domain_specs_distinct(self, tmp_path):
        run_synth(tmp_path / "src", preset="source")
        run_synth(tmp_path / "tgt", preset="target")
        assert tree_hash(tmp_path / "src") != tree_hash(tmp_path / "tgt")

    def test_ppm_round_trip_within_quantization(self, tmp_path):
        run_synth(tmp_path / "d", seed=9)
        spec = source_domain(n_classes=5, images_per_class=10, image_size=4)
        ds = generate_synthetic(spec, RngStream(9))
        emitted = read_ppm(tmp_path / "d" / ds.classes[0] / "img_000.ppm")
        original = ds.images_for(ds.classes[0])[0]
        assert np.abs(emitted.pixels - original.pixels).max() <= 0.5 / 255.0 + 1e-12

    def test_loadable(self, tmp_path):
        run_synth(tmp_path / "d")
        ds = load_dataset(tmp_path / "d")
        assert ds.class_count() == 5


class TestMetatrain:
    def test_snapshot_round_trip(self, tmp_path):
        run_synth(tmp_path / "d")
        assert run_metatrain(tmp_path / "d", tmp_path / "m") == 0
        snap = tmp_path / "m" / "backbone.snap"
        bk = Backbone.load(snap)
        assert bk.to_bytes() == snap.read_bytes()

    def test_zero_epochs_equals_fresh_init(self, tmp_path):
        run_synth(tmp_path / "d")
        for name in ("m1", "m2"):
            main([
                "metatrain", "--data", str(tmp_path / "d"), "--out", str(tmp_path / name),
                "--seed", "4", "--epochs", "0", "--hidden", "12,10", "--embed-dim", "8",
            ])
        assert (tmp_path / "m1" / "backbone.snap").read_bytes() == (
            tmp_path / "m2" / "backbone.snap"
        ).read_bytes()

    def test_writes_loss_log(self, tmp_path):
        run_synth(tmp_path / "d")
        run_metatrain(tmp_path / "d", tmp_path / "m")
        log = (tmp_path / "m" / "metatrain_log.txt").read_text().strip().splitlines()
        assert len(log) == 1 and log[0].startswith("0 ")


class TestEval:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        run_synth(tmp_path / "d")
        run_metatrain(tmp_path / "d", tmp_path / "m")
        return tmp_path, tmp_path / "m" / "backbone.snap", tmp_path / "d"

    def test_report_files(self, pipeline):
        tmp_path, snap, data = pipeline
        assert run_eval(snap, data, tmp_path / "e") == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["episodes"] == 3
        assert 0.0 <= report["mean"] <= 1.0
        assert (tmp_path / "e" / "report.txt").exists()
        assert (tmp_path / "e" / "run_config.json").exists()

    def test_seed_determinism_across_workers(self, pipeline):
        tmp_path, snap, data = pipeline
        run_eval(snap, data, tmp_path / "w1", extra=["--workers", "1"])
        run_eval(snap, data, tmp_path / "w2", extra=["--workers", "2"])
        assert (tmp_path / "w1" / "report.json").read_bytes() == (
            tmp_path / "w2" / "report.json"
        ).read_bytes()

    def test_ablate_outputs(self, pipeline):
        tmp_path, snap, data = pipeline
        assert run_eval(snap, data, tmp_path / "ab", mode="ablate") == 0
        result = json.loads((tmp_path / "ab" / "ablation.json").read_text())
        assert {"with_pqs", "no_finetune", "paired_delta_mean", "paired_delta_ci95"} <= set(result)
        assert (tmp_path / "ab" / "report_with_pqs.json").exists()
        assert (tmp_path / "ab" / "report_no_finetune.json").exists()

    def test_unusual_k_uses_fallback_with_notice(self, pipeline, caplog):
        tmp_path, snap, data = pipeline
        code = main([
            "eval", "--snapshot", str(snap), "--data", str(data), "--out", str(tmp_path / "k7"),
            "--mode", "no_finetune", "--seed", "5", "--episodes", "1", "--epochs", "0",
            "--n-way", "3", "--k-shot", "3", "--m-query", "3",
        ])
        assert code == 0
        assert any("falling back" in r.message for r in caplog.records)

    def test_timing_flag_includes_wall_time(self, pipeline):
        tmp_path, snap, data = pipeline
        run_eval(snap, data, tmp_path / "t0")
        run_eval(snap, data, tmp_path / "t1", extra=["--timing"])
        assert json.loads((tmp_path / "t0" / "report.json").read_text())["wall_seconds"] is None
        assert json.loads((tmp_path / "t1" / "report.json").read_text())["wall_seconds"] > 0.0

    def test_replay_reproduces_report(self, pipeline):
        tmp_path, snap, data = pipeline
        run_eval(snap, data, tmp_path / "orig")
        code = main(["replay", str(tmp_path / "orig" / "run_config.json"), "--out", str(tmp_path / "again")])
        assert code == 0
        assert (tmp_path / "orig" / "report.json").read_bytes() == (
            tmp_path / "again" / "report.json"
        ).read_bytes()


class TestExitCodes:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        run_synth(root / "d")
        run_metatrain(root / "d", root / "m")
        return root / "m" / "backbone.snap", root / "d", root

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])  # missing required flags
        assert exc.value.code == 2

    def test_data_error(self, tmp_path, capsys):
        code = main([
            "eval", "--snapshot", str(tmp_path / "none.snap"), "--data", str(tmp_path / "none"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1

    def test_capacity_error_is_data_error(self, tmp_path, capsys):
        run_synth(tmp_path / "d")
        run_metatrain(tmp_path / "d", tmp_path / "m")
        code = main([
            "eval", "--snapshot", str(tmp_path / "m" / "backbone.snap"), "--data", str(tmp_path / "d"),
            "--out", str(tmp_path / "o"), "--episodes", "1", "--n-way", "30",
        ])
        assert code == 3

    def test_contract_error(self, tmp_path, capsys):
        run_synth(tmp_path / "d")
        run_metatrain(tmp_path / "d", tmp_path / "m")
        # 2-way episode with lambda-pt active but n_way=1 violates the
        # ptloss contract (needs >= 2 classes)
        code = main([
            "eval", "--snapshot", str(tmp_path / "m" / "backbone.snap"), "--data", str(tmp_path / "d"),
            "--out", str(tmp_path / "o"), "--episodes", "1", "--epochs", "1",
            "--n-way", "1", "--k-shot", "2", "--m-query", "2",
        ])
        assert code == 4
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--m-query", "0"]),
        ("eval", ["--m-query", "-1"]),
        ("eval", ["--k-shot", "0"]),
        ("eval", ["--n-way", "0"]),
        ("metatrain", ["--k-shot", "0"]),
    ])
    def test_empty_episode_shape_is_usage_error(self, trained, capsys, command, flags):
        snap, data, out = trained
        argv = [command, "--data", str(data), "--out", str(out / "o"), *flags]
        if command == "eval":
            argv += ["--snapshot", str(snap), "--episodes", "1", "--epochs", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and ">= 1" in err

    @pytest.mark.parametrize("command", ["eval", "metatrain"])
    def test_one_way_episodes_still_run(self, trained, command):
        snap, data, out = trained
        argv = [command, "--data", str(data), "--out", str(out / command), "--n-way", "1",
                "--k-shot", "2", "--m-query", "2", "--epochs", "1"]
        if command == "eval":
            argv += ["--snapshot", str(snap), "--mode", "no_finetune", "--episodes", "2"]
        else:
            argv += ["--tasks-per-epoch", "2", "--hidden", "12,10", "--embed-dim", "8"]
        assert main(argv) == 0

    def test_truncated_snapshot_is_data_error(self, trained, capsys):
        snap, data, out = trained
        short = out / "short.snap"
        short.write_bytes(snap.read_bytes()[:10])
        code = main(["eval", "--snapshot", str(short), "--data", str(data), "--out", str(out / "o")])
        assert code == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_bad_parameter_is_usage_error(self, tmp_path, capsys):
        run_synth(tmp_path / "d")
        run_metatrain(tmp_path / "d", tmp_path / "m")
        code = main([
            "eval", "--snapshot", str(tmp_path / "m" / "backbone.snap"), "--data", str(tmp_path / "d"),
            "--out", str(tmp_path / "o"), "--m", "1.5",
        ])
        assert code == 2
