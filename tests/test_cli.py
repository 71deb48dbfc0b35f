"""Command-line interface: wiring, exit codes, reproducibility."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fewtune.cli as cli
import fewtune.fewshot as fewshot
from fewtune import episodes
from fewtune.cli import RunConfig, _config_from_args, build_parser, main
from fewtune.episodes import load_dataset
from fewtune.errors import ContractError, DataError, FewtuneError, ParameterError
from fewtune.fewshot import Backbone, BackboneSpec, MetaParams, compute_blas_threads
from fewtune.losses import HyperParams
from fewtune.ppm import MAX_HEADER_BYTES, read_ppm, write_ppm
from fewtune.synthetic import generate_synthetic, source_domain
from fewtune.rng import RngStream

try:
    import resource
except ImportError:  # not on every platform
    resource = None

SYNTH_SMALL = ["--classes", "5", "--images-per-class", "10", "--size", "4"]
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


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


MODULES = sorted(
    "fewtune" if path.stem == "__init__" else f"fewtune.{path.stem}" for path in (SRC / "fewtune").glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_cli_import_leaves_the_process_pool_out(module):
    # only --workers > 1 uses the pool, so no other command pays for its import;
    # each module imports alone, so none relies on another having been imported first
    code = f"import sys, {module}; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


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
        assert cfg.hyperparams() == HyperParams()
        assert RunConfig.from_json('{"command": "eval"}').hyperparams() == HyperParams()

    def test_round_trips_through_json(self):
        cfg = RunConfig(command="eval", data="d", snapshot="s", k_shot=20)
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_metatrain_defaults_agree_between_argv_and_replay(self):
        args = build_parser().parse_args(["metatrain", "--data", "d", "--out", "o"])
        from_argv = _config_from_args(args)
        from_json = RunConfig.from_json('{"command": "metatrain", "data": "d", "out": "o"}')
        assert from_json == from_argv
        assert (from_argv.epochs, from_argv.lr, from_argv.momentum) == (
            MetaParams.epochs, MetaParams.learning_rate, MetaParams.momentum
        ) == (5, 0.01, 0.9)


def readme_commands() -> list[list[str]]:
    """Every `fewtune ...` command in the README's shell blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fewtune ")]


class TestDocsMatchTheParser:
    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"synth", "metatrain", "eval", "replay"}
        for argv in commands:
            build_parser().parse_args(argv)  # a stale flag exits 2 here

    def test_every_run_config_field_has_a_flag(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
        assert fields - dests == set()


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
        ('{"command": "synth", "noise_sigma": 0.5}', "'noise_sigma' is retired; only null is"),
        ('{"command": "eval", "timing": true}', "'timing' is retired; only null or false is"),
        ('{"command": "eval", "timing": 0}', "'timing' is retired"),
        ('{"command": "eval", "lr": NaN}', "usage error: --lr must be positive and finite, got nan"),
        ('{"command": "eval"}', "usage error: eval needs --snapshot and --data"),
        ('{"command": "eval", "snapshot": "backbone.snap"}', "usage error: eval needs --data"),
        ('{"command": "metatrain"}', "usage error: metatrain needs --data"),
    ], ids=["unknown-key", "str-for-int", "float-for-int", "int-for-bool", "bad-width",
            "not-object", "not-json", "not-utf8", "retired-key-set", "retired-timing-set",
            "retired-timing-zero", "nan-lr", "eval-no-paths", "eval-no-data", "metatrain-no-data"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "run_config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and fragment in err

    @pytest.mark.parametrize("key, value", [("preset", "sourcee"), ("mode", "with-pqs")])
    def test_bad_choice_is_usage_error_before_writing(self, tmp_path, capsys, key, value):
        out = tmp_path / "o"
        command = "synth" if key == "preset" else "eval"
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps({"command": command, "out": str(out), key: value}))
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"{key!r}" in err and repr(value) in err
        assert not out.exists()

    def test_retired_synth_keys_replay_when_null(self, tmp_path):
        assert run_synth(tmp_path / "d") == 0
        cfg = json.loads((tmp_path / "d" / "run_config.json").read_text())
        retired = ("tag", "pattern_offset", "palette_angle", "background", "contrast", "noise_sigma")
        assert not set(retired) & set(cfg)
        path = tmp_path / "old_config.json"
        path.write_text(json.dumps(dict(cfg, **dict.fromkeys(retired), timing=False)))
        assert main(["replay", str(path), "--out", str(tmp_path / "again")]) == 0
        assert tree_hash(tmp_path / "again") == tree_hash(tmp_path / "d")

    def test_config_whose_written_file_replay_would_refuse_is_refused(self, tmp_path, capsys):
        # 160 000 widths fit a 480 418-byte compact config, but to_json writes one indented line per width
        out = tmp_path / "o"
        fields = {"command": "metatrain", "data": str(tmp_path / "missing"), "out": str(out), "epochs": 0,
                  "hidden": [1] * 160000}
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps(fields, separators=(",", ":")))
        assert path.stat().st_size < cli.MAX_CONFIG_BYTES
        assert main(["replay", str(path)]) == 2
        message = capsys.readouterr().err
        written = re.fullmatch(r"usage error: run config would write (\d+) bytes to run_config.json, "
                               rf"above the {cli.MAX_CONFIG_BYTES} that replay reads\n", message)
        assert written and int(written[1]) > 1120000
        assert not out.exists()

    def test_widest_cli_config_round_trips(self):
        # the widths one --hidden argument can list
        cfg = RunConfig(command="metatrain", hidden=(1,) * 65536)
        text = cfg.to_json()
        assert len(text.encode()) == 459232 and RunConfig.from_json(text) == cfg

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
        original = ds.images[ds.classes[0]][0]
        assert np.abs(emitted - original).max() <= 0.5 / 255.0 + 1e-12

    def test_loadable(self, tmp_path):
        run_synth(tmp_path / "d")
        ds = load_dataset(tmp_path / "d")
        assert len(ds.classes) == 5

    @pytest.mark.parametrize("flag, value, bound", [
        ("--classes", "1", ">= 2"), ("--images-per-class", "0", ">= 1"), ("--size", "1", ">= 2"),
    ], ids=["classes", "images-per-class", "size"])
    def test_bad_size_names_the_flag(self, tmp_path, capsys, flag, value, bound):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"usage error: {flag} must be {bound}, got {value}"
        assert not out.exists()

    @pytest.mark.parametrize("flags, held", [
        (["--size", "100000"], 76960000000000), (["--classes", "1000000"], 245760004096),
    ], ids=["size", "classes"])
    def test_dataset_over_the_byte_cap_is_usage_error(self, tmp_path, capsys, flags, held):
        # refused before any array is allocated: --size 100000 would need 77 TB
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: --size ") and f"holds {held} bytes, above the cap of 1073741824" in err
        assert not out.exists()

    @pytest.mark.parametrize("second, stale", [
        (["--classes", "3", "--images-per-class", "5", "--seed", "9"], "class_00/img_005.ppm"),
        (["--classes", "3", "--images-per-class", "12"], "class_03"),
    ], ids=["fewer-classes-and-images", "fewer-classes"])
    def test_stale_dataset_is_refused(self, tmp_path, capsys, second, stale):
        # load_dataset would read the first render's leftovers as part of the second
        out = tmp_path / "st"
        assert main(["synth", "--out", str(out), "--classes", "6", "--images-per-class", "12", "--size", "4"]) == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--size", "4", *second]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out} holds {out / stale}, which is not part of the dataset being written\n"
        )
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_same_or_larger_render_in_place(self, tmp_path):
        out, fresh = tmp_path / "st", tmp_path / "fresh"
        for flags in (["--classes", "3"], ["--classes", "3"], ["--classes", "4", "--images-per-class", "12"]):
            assert main(["synth", "--out", str(out), "--size", "4", "--images-per-class", "5", *flags]) == 0
        assert main(["replay", str(out / "run_config.json")]) == 0
        assert main(["replay", str(out / "run_config.json"), "--out", str(fresh)]) == 0
        assert tree_hash(out) == tree_hash(fresh) and len(load_dataset(out).images["class_03"]) == 12


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

    def test_trains_at_one_blas_thread(self, tmp_path, monkeypatch, blas_threads, caplog):
        # meta_train sets the count around its own compute; the command sets none
        seen, proto_xent = [], fewshot.proto_xent
        monkeypatch.setattr(fewshot, "proto_xent", lambda *args: seen.append(blas_threads()) or proto_xent(*args))
        run_synth(tmp_path / "d")
        with caplog.at_level("INFO", logger="fewtune"):
            assert run_metatrain(tmp_path / "d", tmp_path / "m") == 0
        assert seen == [1] * 6 and blas_threads() == 2
        line = [m for m in caplog.messages if " tasks in " in m]
        assert len(line) == 1 and re.fullmatch(r"6 tasks in [\d.]+ s, [\d.]+ tasks/s, BLAS threads per process: 1", line[0])

    def test_caller_count_restored_after_a_failure(self, tmp_path, monkeypatch, blas_threads):
        # the first task's loss is NaN, so meta_train raises while it holds one thread
        monkeypatch.setattr(fewshot, "proto_xent", lambda *args: fewshot.dc.constant(np.array(np.nan)))
        run_synth(tmp_path / "d")
        assert run_metatrain(tmp_path / "d", tmp_path / "m") == 4
        assert blas_threads() == 2
        assert not (tmp_path / "m").exists()


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
        # every file eval writes but run_config.json, which records --workers
        tmp_path, snap, data = pipeline
        files = {
            "with_pqs": ("report.json", "report.txt"),
            "ablate": ("report_with_pqs.json", "report_no_finetune.json", "ablation.json", "ablation.txt"),
        }
        for mode, names in files.items():
            w1, w2 = tmp_path / f"{mode}-w1", tmp_path / f"{mode}-w2"
            assert run_eval(snap, data, w1, mode, ["--workers", "1"]) == 0
            assert run_eval(snap, data, w2, mode, ["--workers", "2"]) == 0
            assert sorted(p.name for p in w1.iterdir()) == sorted((*names, "run_config.json"))
            for name in names:
                assert (w1 / name).read_bytes() == (w2 / name).read_bytes()

    def test_blow_up_warnings_leave_the_report_alone(self, pipeline, monkeypatch, caplog):
        # at --lr 10 each episode's fine-tune blows up but stays finite
        tmp_path, snap, data = pipeline
        extra = ["--lr", "10", "--epochs", "20"]
        with caplog.at_level("WARNING", logger="fewtune"):
            assert run_eval(snap, data, tmp_path / "warned", extra=extra) == 0
            assert len([m for m in caplog.messages if m.startswith("fine-tuning: loss peaked at ")]) == 3
            caplog.clear()
            monkeypatch.setattr(fewshot, "BLOWUP_RATIO", float("inf"))
            assert run_eval(snap, data, tmp_path / "quiet", extra=extra) == 0
            assert not [m for m in caplog.messages if m.startswith("fine-tuning: ")]
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "warned" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()

    def test_throughput_line_names_the_blas_threads(self, pipeline, caplog):
        tmp_path, snap, data = pipeline
        with caplog.at_level("INFO", logger="fewtune"):
            assert run_eval(snap, data, tmp_path / "e") == 0
        threads = compute_blas_threads()
        assert re.fullmatch(
            r"3 episodes in [\d.]+ s, [\d.]+ episodes/s, BLAS threads per process: "
            + ("default" if threads is None else str(threads)),
            caplog.messages[-1],
        )

    @pytest.mark.parametrize(("cores", "asked"), [(2, [2]), (1, [])])
    def test_workers_capped_at_usable_cores(self, pipeline, recording_pool, monkeypatch, caplog, cores, asked):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        tmp_path, snap, data = pipeline
        with caplog.at_level("INFO", logger="fewtune"):
            assert run_eval(snap, data, tmp_path / "e", extra=["--workers", "64"]) == 0
        assert recording_pool.requested == asked
        assert f"--workers 64 is above the {cores} usable cores; starting at most {cores}" in caplog.messages
        assert json.loads((tmp_path / "e" / "report.json").read_text())["accuracies"] == [0.0, 1.0, 2.0]

    def test_ablate_outputs(self, pipeline):
        tmp_path, snap, data = pipeline
        assert run_eval(snap, data, tmp_path / "ab", mode="ablate") == 0
        result = json.loads((tmp_path / "ab" / "ablation.json").read_text())
        assert {"with_pqs", "no_finetune", "paired_delta_mean", "paired_delta_ci95"} <= set(result)
        assert (tmp_path / "ab" / "report_with_pqs.json").exists()
        assert (tmp_path / "ab" / "report_no_finetune.json").exists()

    def test_unusual_k_uses_fallback_with_notice(self, pipeline, caplog):
        # only a mode that builds pseudo queries warns
        tmp_path, snap, data = pipeline
        for mode, warns in (("with_pqs", True), ("no_finetune", False)):
            caplog.clear()
            code = main([
                "eval", "--snapshot", str(snap), "--data", str(data), "--out", str(tmp_path / mode),
                "--mode", mode, "--seed", "5", "--episodes", "1", "--epochs", "0",
                "--n-way", "3", "--k-shot", "3", "--m-query", "3",
            ])
            assert code == 0
            assert any("falling back" in r.message for r in caplog.records) == warns

    def test_renamed_dataset_copy_gives_identical_report(self, pipeline):
        tmp_path, snap, data = pipeline
        shutil.copytree(data, tmp_path / "renamed", ignore=shutil.ignore_patterns("run_config.json"))
        run_eval(snap, data, tmp_path / "a")
        run_eval(snap, tmp_path / "renamed", tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_replay_reproduces_report(self, pipeline):
        tmp_path, snap, data = pipeline
        run_eval(snap, data, tmp_path / "orig")
        code = main(["replay", str(tmp_path / "orig" / "run_config.json"), "--out", str(tmp_path / "again")])
        assert code == 0
        assert (tmp_path / "orig" / "report.json").read_bytes() == (
            tmp_path / "again" / "report.json"
        ).read_bytes()


def test_outputs_pinned(tmp_path, monkeypatch):
    # every byte every command writes, run by run, at tiny sizes; relative
    # paths keep the temporary directory out of each run_config.json
    monkeypatch.chdir(tmp_path)
    assert run_synth("source") == 0
    assert run_synth("target", seed=6, preset="target") == 0
    assert run_metatrain("source", "meta") == 0
    snap = Path("meta", "backbone.snap")
    for out, mode, extra in (
        ("pqs_w1", "with_pqs", ["--workers", "1", "--k-shot", "5"]),
        ("pqs_w2", "with_pqs", ["--workers", "2", "--k-shot", "5"]),
        ("plain", "no_finetune", []),
        ("ablate", "ablate", ["--workers", "2"]),
    ):
        assert run_eval(snap, "target", out, mode, extra) == 0
    h = hashlib.sha256()
    files = sorted(p for p in Path().rglob("*") if p.is_file())
    for path in files:
        h.update(str(path).encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    assert len(files) == 119
    # the closed-form backward of meta-training's one-node backbone moved meta/backbone.snap and
    # meta/metatrain_log.txt (its one mean by 6e-16); every other file kept its bytes
    assert h.hexdigest() == "ad1fb7104235d5e0eb36752c3a6e9519bae78e518a1214df2aca4049a24850fe"


# main(argv) in a process whose address space is capped at 2 GiB: an unbounded read
# of a device or a huge file fails there fast, without taking the test machine's memory
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fewtune.cli import main
sys.exit(main(sys.argv[1:]))
"""
needs_limit = pytest.mark.skipif(resource is None or not hasattr(resource, "RLIMIT_AS")
                                 or not os.path.exists("/dev/zero"), reason="needs RLIMIT_AS and /dev/zero")


def run_limited(argv: list[str], cwd: Path, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv], cwd=cwd, env=env, input=stdin,
                          capture_output=True, text=True, timeout=30)


def sparse_file(path: Path, head: bytes = b"", size: int = 4 << 30) -> Path:
    """`head`, then zeros up to `size` bytes, written without filling the disk."""
    with open(path, "wb") as f:
        f.write(head)
        os.truncate(f.fileno(), size)
    return path


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

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--snapshot", "x", "--data", "y", "--out", "z", "--episodes", "abc"],
         "argument --episodes: invalid int value: 'abc'"),
        (["eval", "--snapshot", "x", "--data", "y", "--out", "z", "--mode", "with-pqs"],
         "argument --mode: invalid choice: 'with-pqs' (choose from 'with_pqs', 'no_finetune', 'ablate')"),
        (["metatrain", "--data", "d", "--out", "o", "--hidden", "12,x"], "argument --hidden: bad width list '12,x'"),
        (["eval", "--data", "y"], "the following arguments are required: --snapshot, --out"),
        (["replay"], "the following arguments are required: config"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-int", "bad-choice", "bad-widths", "eval-missing", "replay-missing", "no-command"])
    def test_parse_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    EMPTY, NUL = "must not be empty", "must not hold a NUL byte"

    @pytest.mark.parametrize("argv, flag, problem", [
        (["synth", "--out", "", *SYNTH_SMALL], "--out", EMPTY),
        (["metatrain", "--data", "", "--out", "o"], "--data", EMPTY),
        (["eval", "--snapshot", "SNAP", "--data", "DATA", "--out", ""], "--out", EMPTY),
        (["eval", "--snapshot", "SNAP", "--data", "", "--out", "o"], "--data", EMPTY),
        (["eval", "--snapshot", "", "--data", "DATA", "--out", "o"], "--snapshot", EMPTY),
        (["replay", "CONFIG", "--out", ""], "--out", EMPTY),
        (["replay", "EMPTY_DATA_CONFIG"], "--data", EMPTY),
        (["synth", "--out", "a\0b", *SYNTH_SMALL], "--out", NUL),
        (["metatrain", "--data", "DATA\0", "--out", "o"], "--data", NUL),
        (["metatrain", "--data", "DATA", "--out", "a\0b", "--epochs", "0"], "--out", NUL),
        (["eval", "--snapshot", "SNAP", "--data", "DATA", "--out", "a\0b"], "--out", NUL),
        (["eval", "--snapshot", "SNAP\0", "--data", "DATA", "--out", "o"], "--snapshot", NUL),
        (["replay", "CONFIG", "--out", "a\0b"], "--out", NUL),
        (["replay", "NUL_OUT_CONFIG"], "--out", NUL),
    ], ids=["synth-out", "metatrain-data", "eval-out", "eval-data", "eval-snapshot", "replay-out", "replay-data",
            "synth-out-nul", "metatrain-data-nul", "metatrain-out-nul", "eval-out-nul", "eval-snapshot-nul",
            "replay-out-nul", "replay-synth-out-nul"])
    def test_empty_path_is_usage_error(self, trained, tmp_path, monkeypatch, capsys, argv, flag, problem):
        # an empty path names the working directory and no file system call takes a NUL byte;
        # nothing is read from either or written to it
        snap, data, _ = trained
        config = {"command": "eval", "snapshot": str(snap), "data": str(data), "out": "o", "episodes": 1, "epochs": 0}
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "empty_data.json").write_text(json.dumps(dict(config, data="")))
        (tmp_path / "nul_out.json").write_text(json.dumps({"command": "synth", "out": "a\0b", "classes": 5, "size": 4}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        names = {"SNAP": str(snap), "DATA": str(data), "CONFIG": str(tmp_path / "config.json"),
                 "EMPTY_DATA_CONFIG": str(tmp_path / "empty_data.json"), "NUL_OUT_CONFIG": str(tmp_path / "nul_out.json"),
                 "SNAP\0": f"{snap}\0", "DATA\0": f"{data}\0"}
        extra = ["--episodes", "1", "--epochs", "0"] if argv[0] == "eval" else []
        assert main([names.get(arg, arg) for arg in argv] + extra) == 2
        assert capsys.readouterr().err == f"usage error: {flag} {problem}\n"
        assert list(work.iterdir()) == []

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

    @pytest.mark.parametrize("argv", [
        ["eval", "--snapshot", "SNAP", "--data", "DATA", "--episodes", "1", "--epochs", "0", "--workers", "1",
         "--k-shot", "1000000000", "--m-query", "3"],
        ["metatrain", "--data", "DATA", "--hidden", "12,10", "--embed-dim", "8",
         "--n-way", "3", "--k-shot", "2", "--m-query", "1000000001"],
    ], ids=["eval-k-shot", "metatrain-m-query"])
    def test_oversized_shape_is_a_data_error(self, trained, tmp_path, capsys, argv):
        # each drawn class's size is checked before the episode's image arrays, here terabytes, are allocated
        snap, data, _ = trained
        out = tmp_path / "o"
        names = {"SNAP": str(snap), "DATA": str(data)}
        assert main([names.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: class 'class_0\d' has 10 images, episode needs 1000000003\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_divergence_is_contract_error(self, tmp_path, capsys, workers):
        # a random-init backbone at the paper's widths fine-tuned at --lr 10
        # reaches a NaN loss in episode 0 before epoch 60
        main(["synth", "--out", str(tmp_path / "d"), "--seed", "3", "--preset", "target",
              "--classes", "5", "--images-per-class", "20"])
        main(["metatrain", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "m"), "--epochs", "0"])
        capsys.readouterr()
        out = tmp_path / "o"
        argv = ["eval", "--snapshot", str(tmp_path / "m" / "backbone.snap"), "--data", str(tmp_path / "d"),
                "--out", str(out), "--seed", "5", "--episodes", "1", "--epochs", "60", "--m-query", "3",
                "--lr", "10", "--workers", workers]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 4
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert re.fullmatch(
            r"contract violation: episode 0, fine-tuning epoch \d+: loss diverged to nan at learning rate 10.0", err
        )
        assert not out.exists()

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
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {flags[0]} must be >= 1")

    @pytest.mark.parametrize(
        "flags",
        [["--tasks-per-epoch", "0"], ["--epochs", "-1"], ["--lr", "0"], ["--momentum", "1"], ["--lr", "nan"]],
        ids=["no-tasks", "negative-epochs", "zero-lr", "unit-momentum", "nan-lr"],
    )
    def test_bad_metatrain_count_is_usage_error(self, tmp_path, capsys, flags):
        # --data does not exist: the training flags are checked before it is read
        out = tmp_path / "o"
        argv = ["metatrain", "--data", str(tmp_path / "none"), "--out", str(out), "--hidden", "12,10", "--embed-dim", "8"]
        assert main([*argv, *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {flags[0]} ")
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["synth", "metatrain", "eval"])
    def test_out_blocked_by_a_file_is_data_error(self, tmp_path, monkeypatch, capsys, command, under):
        # refused before any data is read or rendered
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("load_dataset called"))
        monkeypatch.setattr(cli, "generate_synthetic", lambda *a: pytest.fail("generate_synthetic called"))
        blocker = tmp_path / "afile"
        blocker.write_bytes(b"kept")
        out = blocker / "sub" if under else blocker
        argv = {
            "synth": ["synth", *SYNTH_SMALL],
            "metatrain": ["metatrain", "--data", str(tmp_path / "none")],
            "eval": ["eval", "--snapshot", str(tmp_path / "none.snap"), "--data", str(tmp_path / "none")],
        }[command]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: --out {out}: {blocker} exists and is not a directory\n"
        assert blocker.read_bytes() == b"kept"
        assert sorted(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("flag", ["--hidden", "--embed-dim"])
    def test_backbone_over_the_byte_cap_is_usage_error(self, trained, capsys, flag):
        # refused before the backbone allocates: 100M units would need 52-68 GB
        _, data, root = trained
        out = root / f"wide{flag}"
        assert main(["metatrain", "--data", str(data), "--out", str(out), flag, "100000000"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: {flag} ") and err.endswith("above the cap of 268435456")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "eval", "metatrain", "replay"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        # numpy's seeding refuses a negative seed; the run config refuses it first
        out = tmp_path / "o"
        seed = {"synth": -1, "eval": -1, "metatrain": -3, "replay": -2}[command]
        argv = [command, "--out", str(out), "--seed", str(seed)]
        if command in ("eval", "metatrain"):
            argv += ["--data", str(tmp_path / "none")]
        if command == "eval":
            argv += ["--snapshot", str(tmp_path / "none.snap")]
        if command == "replay":
            config = tmp_path / "run_config.json"
            config.write_text(json.dumps({"command": "eval", "out": str(out), "seed": seed}))
            argv = ["replay", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"usage error: --seed must be >= 0, got {seed}"
        assert not out.exists()

    def test_zero_workers_is_usage_error(self, trained, capsys):
        snap, data, root = trained
        out = root / "no-workers"
        argv = ["eval", "--snapshot", str(snap), "--data", str(data), "--out", str(out), "--workers", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "--workers" in err
        assert not out.exists()

    def test_snapshot_width_mismatch_is_refused_before_the_data_is_decoded(self, tmp_path, monkeypatch, capsys):
        snap, data = tmp_path / "wide.snap", tmp_path / "d"
        Backbone.create(BackboneSpec(input_dim=768), RngStream(0)).save(snap)  # for 16x16 images
        run_synth(data)  # 4x4 images
        capsys.readouterr()
        monkeypatch.setattr(episodes, "read_ppm", lambda path: pytest.fail(f"decoded {path}"))
        out = tmp_path / "o"
        assert main(["eval", "--snapshot", str(snap), "--data", str(data), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"data error: snapshot {snap} takes 768 values per image, "
                                           f"but the images in {data} are 3x4x4\n")
        assert not out.exists()

    def test_images_that_change_after_the_width_check_are_contract_error(self, trained, tmp_path, monkeypatch, capsys):
        # as if --data changed between eval's header check and its decode: the header
        # check sees the 4x4 images the snapshot takes, the decode reads 8x8 ones
        snap, _, _ = trained
        run_synth(tmp_path / "wide", extra=["--size", "8"])
        capsys.readouterr()
        monkeypatch.setattr(cli, "ppm_shape", lambda path: (3, 4, 4))
        out = tmp_path / "o"
        argv = ["eval", "--snapshot", str(snap), "--data", str(tmp_path / "wide"), "--out", str(out),
                "--k-shot", "2", "--m-query", "2", "--episodes", "1", "--workers", "1"]
        assert main(argv) == 4
        assert capsys.readouterr().err == "contract violation: images flatten to [192], backbone expects 48\n"
        assert not out.exists()

    def test_every_error_class_maps_to_one_exit_code(self):
        # main maps these three bases to exit 2, 3 and 4; a class under none of them is a traceback
        bases = (ParameterError, DataError, ContractError)

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        found = list(subclasses(FewtuneError))
        assert {"ShapeError", "DegenerateBatchError", "CapacityError"} <= {cls.__name__ for cls in found}
        for cls in found:
            assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__

    def test_snapshot_width_mismatch_is_data_error(self, trained, tmp_path, capsys):
        snap, _, _ = trained  # trained on 4x4 images
        run_synth(tmp_path / "wide", extra=["--size", "16"])
        capsys.readouterr()
        out = tmp_path / "o"
        argv = ["eval", "--snapshot", str(snap), "--data", str(tmp_path / "wide"), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "3x16x16" in err
        assert not out.exists()

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

    SUPPORT_ROW = "usage error: --n-way x --k-shot must be >= 2 for support batch statistics, got 1"
    QUERY_ROW = "usage error: --n-way x --m-query must be >= 2 for query batch statistics, got 1"
    # the triplet term needs a second class
    ONE_WAY_TRIPLET = "usage error: --n-way must be >= 2 when --lambda-pt is above 0, got 1"
    ONE_WAY_FINETUNE = ["--episodes", "1", "--epochs", "1", "--n-way", "1", "--k-shot", "2", "--m-query", "2"]

    @pytest.mark.parametrize("command, flags, message", [
        ("eval", ["--n-way", "1", "--k-shot", "1", "--m-query", "2"], SUPPORT_ROW),
        ("eval", ["--mode", "ablate", "--n-way", "1", "--k-shot", "1", "--m-query", "2"], SUPPORT_ROW),
        ("eval", ["--n-way", "1", "--k-shot", "2", "--m-query", "1"], QUERY_ROW),
        ("eval", ["--mode", "no_finetune", "--n-way", "1", "--k-shot", "1", "--m-query", "1"], QUERY_ROW),
        ("metatrain", ["--n-way", "1", "--k-shot", "1", "--m-query", "2"], SUPPORT_ROW),
        ("metatrain", ["--n-way", "1", "--k-shot", "2", "--m-query", "1"], QUERY_ROW),
        ("replay", ["--n-way", "1", "--k-shot", "1", "--m-query", "1"], SUPPORT_ROW),
        ("eval", ONE_WAY_FINETUNE, ONE_WAY_TRIPLET),
        ("eval", ["--mode", "ablate", *ONE_WAY_FINETUNE], ONE_WAY_TRIPLET),
        ("replay", ONE_WAY_FINETUNE, ONE_WAY_TRIPLET),
    ], ids=["with_pqs-support", "ablate-support", "with_pqs-query", "no_finetune-query",
            "metatrain-support", "metatrain-query", "replay-support",
            "with_pqs-triplet", "ablate-triplet", "replay-triplet"])
    def test_single_row_batch_is_usage_error(self, tmp_path, capsys, command, flags, message):
        # refused before any file is read: neither input path exists
        out = tmp_path / "o"
        argv = [command, "--data", str(tmp_path / "none"), "--out", str(out), *flags]
        if command != "metatrain":
            argv = ["eval", "--snapshot", str(tmp_path / "none.snap"), *argv[1:]]
        if command == "replay":
            config = tmp_path / "run_config.json"
            config.write_text(_config_from_args(build_parser().parse_args(argv)).to_json())
            argv = ["replay", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--k-shot", "2", "--m-query", "2", "--lambda-pt", "0"],
        ["--mode", "no_finetune", "--no-transductive", "--k-shot", "1", "--m-query", "1"],
    ], ids=["no-triplet-term", "no-batch-statistics"])
    def test_one_way_shapes_without_a_single_row_batch_run(self, trained, tmp_path, flags):
        snap, data, _ = trained
        argv = ["eval", "--snapshot", str(snap), "--data", str(data), "--out", str(tmp_path / "o"),
                "--n-way", "1", "--episodes", "2", "--epochs", "1", *flags]
        assert main(argv) == 0

    def test_truncated_snapshot_is_data_error(self, trained, capsys):
        snap, data, out = trained
        short = out / "short.snap"
        short.write_bytes(snap.read_bytes()[:10])
        code = main(["eval", "--snapshot", str(short), "--data", str(data), "--out", str(out / "o")])
        assert code == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_nested_snapshot_header_is_data_error(self, trained, capsys):
        # json.loads raises RecursionError on arrays nested 5000 deep
        _, data, root = trained
        head = b"[" * 5000 + b"]" * 5000
        bad, out = root / "nested.snap", root / "nested-eval"
        bad.write_bytes(b"FTBK" + struct.pack("<II", 1, len(head)) + head)
        assert main(["eval", "--snapshot", str(bad), "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("data error: bad snapshot header: RecursionError: ")
        assert not out.exists()

    def test_nested_run_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run_config.json"
        path.write_text("[" * 5000 + "]" * 5000)
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("usage error: run config is not JSON: ")

    @pytest.mark.parametrize("flag", ["--hidden", "--embed-dim"])
    def test_over_cap_width_is_refused_before_the_data_is_read(self, tmp_path, monkeypatch, capsys, flag):
        # the input width comes from the first image's header
        run_synth(tmp_path / "d", extra=["--classes", "2"])
        capsys.readouterr()
        reads = []
        monkeypatch.setattr(episodes, "read_ppm", lambda path: reads.append(path) or read_ppm(path))
        out = tmp_path / "o"
        assert main(["metatrain", "--data", str(tmp_path / "d"), "--out", str(out), flag, "100000000"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {flag} ")
        assert len(reads) <= 1 and not out.exists()

    @pytest.mark.parametrize("command", ["metatrain", "eval"])
    def test_too_big_a_dataset_is_data_error(self, trained, tmp_path, monkeypatch, capsys, command):
        # sparse files, so nothing is written: 8 bytes per file byte, 8 x 2 x 80 MiB, is above the cap
        snap, _, _ = trained
        root = tmp_path / "big"
        for name in ("a", "b"):
            (root / name).mkdir(parents=True)
            with open(root / name / "i.ppm", "wb") as f:
                os.truncate(f.fileno(), 80 << 20)
        monkeypatch.setattr(episodes, "read_ppm", lambda path: pytest.fail(f"read {path}"))
        out = tmp_path / "o"
        argv = [command, "--data", str(root), "--out", str(out)]
        assert main(argv + (["--snapshot", str(snap)] if command == "eval" else [])) == 3
        assert capsys.readouterr().err == (f"data error: dataset directory {root} would hold about 1342177280 "
                                           "bytes of pixels, above the cap of 1073741824\n")
        assert not out.exists()

    def test_non_finite_snapshot_is_data_error(self, trained, capsys):
        snap, data, root = trained
        blob = bytearray(snap.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))  # the last running variance
        bad, out = root / "nan.snap", root / "nan-eval"
        bad.write_bytes(bytes(blob))
        argv = ["eval", "--snapshot", str(bad), "--data", str(data), "--out", str(out), "--mode", "no_finetune"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 3
        err = capsys.readouterr().err.strip()
        assert err == "data error: snapshot array norm1.running_var holds a NaN or infinite value"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_inference_overflow_is_contract_error(self, trained, capsys, workers):
        # finite weights whose forward pass overflows: every query score is NaN
        snap, data, root = trained
        bk = Backbone.load(snap)
        for layer in bk.dense:
            layer.weight.values = layer.weight.values * 1e150
        big, out = root / f"big-{workers}.snap", root / f"big-eval-{workers}"
        bk.save(big)
        argv = ["eval", "--snapshot", str(big), "--data", str(data), "--out", str(out),
                "--mode", "no_finetune", "--episodes", "3", "--n-way", "3", "--k-shot", "2", "--m-query", "3",
                "--workers", workers]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 4
        err = capsys.readouterr().err.strip()
        assert err == "contract violation: episode 0, inference: a query score is not finite"
        assert not out.exists()

    def test_last_step_divergence_is_contract_error(self, trained, capsys):
        # the one task's loss is finite, but the update at this rate overflows
        _, data, root = trained
        out = root / "diverged"
        argv = ["metatrain", "--data", str(data), "--out", str(out), "--epochs", "1", "--tasks-per-epoch", "1",
                "--lr", "1.7e308", "--hidden", "12,10", "--embed-dim", "8",
                "--n-way", "3", "--k-shot", "2", "--m-query", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if not line.startswith("INFO ")] == err[-1:]
        assert re.fullmatch(
            r"contract violation: meta-training epoch 0 task 0: [\w.]+ diverged to a non-finite value"
            r" at learning rate 1.7e\+308", err[-1]
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("eval", "--m", "1.5"),
        ("eval", "--s", "0"),
        ("eval", "--lr", "0"),
        ("eval", "--momentum", "1"),
        ("eval", "--margin", "-1"),
        ("eval", "--lambda-pt", "-1"),
        ("eval", "--episodes", "0"),
        ("eval", "--epochs", "-1"),
        ("eval", "--lr", "nan"),
        ("eval", "--lr", "inf"),
        ("eval", "--s", "nan"),
        ("eval", "--s", "inf"),
        ("eval", "--margin", "nan"),
        ("eval", "--lambda-pt", "nan"),
        ("metatrain", "--hidden", "0"),
        ("metatrain", "--embed-dim", "0"),
        ("metatrain", "--lr", "nan"),
    ], ids=lambda v: v.lstrip("-") if v.startswith("--") else None)
    def test_bad_parameter_is_usage_error(self, trained, capsys, command, flag, value):
        snap, data, root = trained
        out = root / f"bad-{command}{flag}"
        argv = [command, "--data", str(data), "--out", str(out), flag, value]
        if command == "eval":
            argv += ["--snapshot", str(snap)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: {flag} ") and "BackboneSpec(" not in err
        assert not out.exists()

    @needs_limit
    @pytest.mark.parametrize("kind", ["device", "fifo"])
    def test_non_regular_ppm_is_data_error(self, tmp_path, kind):
        run_synth(tmp_path / "d")
        if kind == "device":
            (tmp_path / "d" / "class_04" / "img_999.ppm").symlink_to("/dev/zero")
        else:
            os.mkfifo(tmp_path / "d" / "class_04" / "img_999.ppm")
        result = run_limited(["metatrain", "--data", "d", "--out", "o"], tmp_path)
        odd = Path("d", "class_04", "img_999.ppm")
        assert (result.returncode, result.stderr) == (3, f"data error: {odd} is not a regular file\n")
        assert not (tmp_path / "o").exists()

    @needs_limit
    def test_pixels_above_the_cap_are_a_data_error(self, tmp_path):
        # a 2000x2000 first image and 100 of 2x2: 12 MB of files, which the 8-bytes-per-file-byte estimate
        # lets through, but 101 images of the first one's shape would take 9.7 GB of float64 pixels
        head = b"P6\n2000 2000\n255\n"
        (tmp_path / "d" / "a").mkdir(parents=True)
        sparse_file(tmp_path / "d" / "a" / "img_000.ppm", head, len(head) + 3 * 2000 * 2000)
        (tmp_path / "d" / "b").mkdir()
        for i in range(100):
            write_ppm(np.zeros((3, 2, 2)), tmp_path / "d" / "b" / f"img_{i:03d}.ppm")
        result = run_limited(["metatrain", "--data", "d", "--out", "o", "--hidden", "1", "--embed-dim", "1"], tmp_path)
        first, held = Path("d", "a", "img_000.ppm"), 8 * 101 * 3 * 2000 * 2000
        assert (result.returncode, result.stderr) == (3, f"data error: dataset directory d would hold {held} bytes of "
                                                         f"pixels, 101 images shaped like {first}, above the cap of "
                                                         f"{episodes.MAX_DATASET_BYTES}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs the process's read count")
    def test_width_probe_reads_only_a_header_prefix(self, tmp_path):
        # the 12 MB first image of the test above: the probe's reads, in bytes, from the process's read count,
        # less the bytes of the count's own first read, which the second one includes
        head = b"P6\n2000 2000\n255\n"
        (tmp_path / "d" / "a").mkdir(parents=True)
        sparse_file(tmp_path / "d" / "a" / "img_000.ppm", head, len(head) + 3 * 2000 * 2000)

        def read_count():
            fd = os.open("/proc/self/io", os.O_RDONLY)
            try:
                text = os.read(fd, 4096)
            finally:
                os.close(fd)
            return int(re.search(rb"^rchar: (\d+)$", text, re.M).group(1)), len(text)

        before, counted = read_count()
        assert cli._first_image_shape(tmp_path / "d") == (3, 2000, 2000)
        after, _ = read_count()
        assert after - before - counted <= MAX_HEADER_BYTES

    def test_header_longer_than_the_bound_is_a_data_error(self, tmp_path, capsys):
        run_synth(tmp_path / "d")
        first = tmp_path / "d" / "class_00" / "img_000.ppm"
        first.write_bytes(b"P6\n#" + b"x" * MAX_HEADER_BYTES + b"\n" + first.read_bytes()[3:])
        assert main(["metatrain", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {first}: PPM header is longer than {MAX_HEADER_BYTES} bytes\n"
        assert not (tmp_path / "o").exists()

    def test_symlinked_ppm_still_loads(self, tmp_path):
        run_synth(tmp_path / "d")
        before = load_dataset(tmp_path / "d")
        last = tmp_path / "d" / "class_04" / "img_009.ppm"
        last.rename(tmp_path / "elsewhere.ppm")
        last.symlink_to(tmp_path / "elsewhere.ppm")
        after = load_dataset(tmp_path / "d")
        assert all(np.array_equal(before.images[name], after.images[name]) for name in before.classes)

    @needs_limit
    @pytest.mark.parametrize("kind", ["device", "sparse", "sparse-with-magic", "huge-header"])
    def test_unbounded_snapshot_is_data_error(self, trained, tmp_path, kind):
        # 4 GiB of zeros after nothing, after a valid prefix and header, or after a prefix whose
        # header length is 0xFFFFFFFF
        snap, data, _ = trained
        blob = snap.read_bytes()
        heads = {"sparse": b"", "sparse-with-magic": blob[:12 + struct.unpack("<I", blob[8:12])[0]],
                 "huge-header": blob[:8] + struct.pack("<I", 0xFFFFFFFF)}
        if kind == "device":
            path, message = Path("/dev/zero"), "snapshot /dev/zero is not a regular file"
        else:
            path = sparse_file(tmp_path / "big.snap", heads[kind])
            message = f"snapshot {path} is larger than {fewshot.MAX_SNAPSHOT_BYTES} bytes, the cap on a snapshot"
        result = run_limited(["eval", "--snapshot", str(path), "--data", str(data), "--out", "o"], tmp_path)
        assert (result.returncode, result.stderr) == (3, f"data error: {message}\n")
        assert not (tmp_path / "o").exists()

    @needs_limit
    @pytest.mark.parametrize("kind", ["device", "sparse"])
    def test_unbounded_run_config_is_usage_error(self, tmp_path, kind):
        path = Path("/dev/zero") if kind == "device" else sparse_file(tmp_path / "run_config.json")
        result = run_limited(["replay", str(path), "--out", "o"], tmp_path)
        message = f"run config {path} is longer than {cli.MAX_CONFIG_BYTES} bytes"
        assert (result.returncode, result.stderr) == (2, f"usage error: {message}\n")
        assert not (tmp_path / "o").exists()

    @needs_limit
    def test_run_config_replays_from_a_pipe(self, tmp_path):
        config = RunConfig(command="synth", out="o", classes=2, images_per_class=2, size=2).to_json()
        result = run_limited(["replay", "/dev/stdin"], tmp_path, stdin=config)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "run_config.json").read_text() == config


def ends_in_one_line(argv: list[str]) -> None:
    """`main(argv)` succeeds, or fails with a documented exit code and one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or (code in (2, 3, 4) and len(err.getvalue().splitlines()) == 1), (code, err.getvalue())


# bytes that mean something in a PPM header, a snapshot's JSON header or its arrays
SIGNIFICANT = b"0123456789 \t\n#+-_.eP6[]{}\":,\x00\xff"


@st.composite
def edited(draw, blob: bytes, keep: int) -> bytes:
    """`blob` after one to three edits past its first `keep` bytes: each replaces, inserts or deletes
    a few bytes, or truncates there."""
    for _ in range(draw(st.integers(1, 3))):
        i = keep + draw(st.integers(0, 1 << 16)) % (len(blob) + 1 - keep)  # spread out, unlike a short range
        new = draw(st.binary(min_size=1, max_size=4)
                   | st.lists(st.sampled_from(SIGNIFICANT), min_size=1, max_size=4).map(bytes))
        blob = draw(st.sampled_from([blob[:i] + new + blob[i + len(new):], blob[:i] + new + blob[i:],
                                     blob[:i] + blob[i + len(new):], blob[:i]]))
    return blob


# JSON values of every type; strings that name no file in any working directory
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text("xyz", max_size=3)
    | st.sampled_from(["eval", "metatrain", "synth", "replay", "source", "target", "with_pqs", "ablate"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("xyz", max_size=2), inner, max_size=2),
    max_leaves=4,
)
CONFIG_EDITS = st.lists(st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(sorted(f.name for f in dataclasses.fields(RunConfig)))),
    st.tuples(st.just("set"), st.sampled_from([*(f.name for f in dataclasses.fields(RunConfig)), "tag", "timing", "x"]),
              JSON_VALUES),
    st.tuples(st.just("nest"), st.sampled_from([1, 5000])),
), min_size=1, max_size=3)


class TestMutatedInputs:
    """Mutated PPMs, snapshots and run configs through `main`, in this process: each run
    succeeds or ends in exit 2, 3 or 4 with one stderr line."""

    SHAPE = ["--n-way", "2", "--k-shot", "1", "--m-query", "1"]

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        # two classes of two 2x2 images, a snapshot for them and the synth run's config
        root = tmp_path_factory.mktemp("valid")
        assert main(["synth", "--out", str(root / "d"), "--classes", "2", "--images-per-class", "2", "--size", "2"]) == 0
        assert main(["metatrain", "--data", str(root / "d"), "--out", str(root / "m"), "--epochs", "0",
                     "--hidden", "4", "--embed-dim", "2", *self.SHAPE]) == 0
        return root / "d", root / "m" / "backbone.snap"

    # edits keep the magic numbers, which TestPpm and TestSnapshotErrors cover
    @given(st.integers(0, 3), st.data())
    def test_ppm(self, valid, tmp_path_factory, index, draws):
        data = tmp_path_factory.mktemp("ppm") / "d"
        shutil.copytree(valid[0], data)
        image = sorted(data.glob("*/*.ppm"))[index]
        image.write_bytes(draws.draw(edited(image.read_bytes(), keep=3)))
        ends_in_one_line(["metatrain", "--data", str(data), "--out", str(data.parent / "o"), "--epochs", "0",
                          "--hidden", "4", "--embed-dim", "2", *self.SHAPE])

    @given(st.data())
    def test_snapshot(self, valid, tmp_path_factory, draws):
        root = tmp_path_factory.mktemp("snap")
        (root / "backbone.snap").write_bytes(draws.draw(edited(valid[1].read_bytes(), keep=4)))
        ends_in_one_line(["eval", "--snapshot", str(root / "backbone.snap"), "--data", str(valid[0]),
                          "--out", str(root / "o"), "--mode", "no_finetune", "--episodes", "1", "--workers", "1",
                          *self.SHAPE])

    @given(CONFIG_EDITS)
    def test_run_config(self, valid, tmp_path_factory, edits):
        root = tmp_path_factory.mktemp("config")
        config = json.loads((valid[0] / "run_config.json").read_text())
        depth = 0
        for edit in edits:
            if edit[0] == "drop":
                config.pop(edit[1], None)
            elif edit[0] == "set":
                config[edit[1]] = edit[2]
            else:
                depth += edit[1]
        (root / "run_config.json").write_text("[" * depth + json.dumps(config) + "]" * depth)
        # --out is always given, so no mutated value chooses where a run writes
        ends_in_one_line(["replay", str(root / "run_config.json"), "--out", str(root / "o")])
