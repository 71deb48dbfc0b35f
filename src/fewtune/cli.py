"""Command-line entry point.

Subcommands: `synth` renders a synthetic dataset to PPM files,
`metatrain` trains a backbone episodically and snapshots it, `eval` runs
the episodic evaluation or the paired ablation, and `replay` re-runs a
saved run configuration. Exit codes: 0 success, 2 usage error, 3 data
error, 4 contract violation.

`main` pins the C allocator for its process (`evalharness.pin_allocator`).
`metatrain` trains on one OpenBLAS thread, as each `eval` scoring pass
does; `eval` starts no more pool processes than it has usable cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from .episodes import PQS_RULES, EpisodeShape, dataset_files, load_dataset, pqs_rule, write_dataset
from .errors import ContractError, DataError, ParameterError
from .evalharness import MODES, EvalPlan, ablate, emit_report, pass_blas, pass_blas_threads, pin_allocator, run_eval
from .fewshot import Backbone, BackboneSpec, MetaParams, meta_train
from .losses import HyperParams
from .ppm import ppm_shape
from .rng import RngStream
from .synthetic import generate_synthetic, source_domain, target_domain

log = logging.getLogger("fewtune")

PRESETS = {"source": source_domain, "target": target_domain}
# RunConfig field -> the values it takes
CHOICES = {"preset": tuple(PRESETS), "mode": (*MODES, "ablate")}
# settings no longer in RunConfig -> the values that configs written before them carry
RETIRED_KEYS = {
    **dict.fromkeys(("tag", "pattern_offset", "palette_angle", "background", "contrast", "noise_sigma"), (None,)),
    "timing": (None, False),
}

# RunConfig field -> the library field or argument it sets
HP_FIELDS = {
    "episodes": "episodes_count",
    "epochs": "finetune_epochs",
    "margin": "triplet_margin",
    "s": "lmm_scale",
    "m": "lmm_margin",
    "lambda_pt": "ptloss_weight",
    "lr": "learning_rate",
    "momentum": "momentum",
    "transductive": "transductive",
}
META_ARGS = {"epochs": "epochs", "tasks_per_epoch": "episodes_per_epoch", "lr": "learning_rate", "momentum": "momentum"}
SPEC_FIELDS = {"hidden": "hidden", "embed_dim": "embed_dim"}
SYNTH_FIELDS = {"classes": "n_classes", "images_per_class": "images_per_class", "size": "image_size"}
SHAPE_FIELDS = {"n_way": "n_way", "k_shot": "k_shot", "m_query": "m_query"}

# epochs, lr and momentum set MetaParams for `metatrain` and HyperParams for the
# other commands; left as None, they take that owner's default
META_DEFAULTS = {key: getattr(MetaParams, META_ARGS[key]) for key in ("epochs", "lr", "momentum")}
HP_DEFAULTS = {key: getattr(HyperParams, HP_FIELDS[key]) for key in META_DEFAULTS}
# cap on what `replay` reads; the largest config the CLI writes, 65 536 --hidden widths, is about 460 KB
MAX_CONFIG_BYTES = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run; serialized next to outputs.

    Defaults come from the dataclasses that own them: EpisodeShape,
    HyperParams, BackboneSpec and MetaParams. `epochs`, `lr`
    and `momentum` are resolved per command in __post_init__.
    """

    command: str = "eval"
    out: str = "out"
    seed: int = 0
    workers: int = 1
    data: str | None = None
    snapshot: str | None = None
    mode: str = MODES[0]
    n_way: int = EpisodeShape.n_way
    k_shot: int = EpisodeShape.k_shot
    m_query: int = EpisodeShape.m_query
    episodes: int = HyperParams.episodes_count
    epochs: int | None = None
    margin: float = HyperParams.triplet_margin
    s: float = HyperParams.lmm_scale
    m: float = HyperParams.lmm_margin
    lambda_pt: float = HyperParams.ptloss_weight
    lr: float | None = None
    momentum: float | None = None
    transductive: bool = HyperParams.transductive
    # metatrain extras
    tasks_per_epoch: int = MetaParams.episodes_per_epoch
    hidden: tuple[int, ...] = BackboneSpec.hidden
    embed_dim: int = BackboneSpec.embed_dim
    # synth extras
    preset: str = "source"
    classes: int | None = None
    images_per_class: int | None = None
    size: int | None = None

    def __post_init__(self):
        for key, choices in CHOICES.items():
            value = getattr(self, key)
            if value not in choices:
                raise ParameterError(f"run config key {key!r} must be one of {choices}, got {value!r}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ParameterError(f"--seed must be >= 0, got {self.seed}")
        for key in ("out", "data", "snapshot"):
            if getattr(self, key) == "":  # a path that names the working directory
                raise ParameterError(f"--{key} must not be empty")
            if "\0" in (getattr(self, key) or ""):  # no file system call takes one
                raise ParameterError(f"--{key} must not hold a NUL byte")
        defaults = META_DEFAULTS if self.command == "metatrain" else HP_DEFAULTS
        for key, value in defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)

    def hyperparams(self) -> HyperParams:
        return _call(HyperParams, self, HP_FIELDS)

    def shape(self) -> EpisodeShape:
        return _call(EpisodeShape, self, SHAPE_FIELDS)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunConfig":
        """Strict inverse of to_json: every key a field, every value of its type."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"run config is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"run config must be a JSON object, got {type(data).__name__}")
        for key, accepted in RETIRED_KEYS.items():
            value = data.pop(key, None)
            # by identity, since 0 == False: only the JSON literals were ever written
            if not any(value is ok for ok in accepted):
                allowed = " or ".join(map(json.dumps, accepted))
                raise ParameterError(f"run config key {key!r} is retired; only {allowed} is accepted")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ParameterError(f"unknown run config keys {unknown}")
        hints = get_type_hints(cls)
        return cls(**{key: _typed(fields[key], hints[key], value) for key, value in data.items()})


def _kind(hint):
    """The type a field holds when it is set: `X` for `X | None`."""
    return get_args(hint)[0] if isinstance(hint, types.UnionType) else hint


def _typed(field: dataclasses.Field, hint, value):
    """`value` as `field` holds it (a JSON list becomes a tuple), or ParameterError."""
    kind = _kind(hint)
    if value is None and kind is not hint:  # an `X | None` field
        return None
    if kind is float and type(value) in (int, float):
        return float(value)
    if get_origin(kind) is tuple and type(value) is list and all(type(v) is int for v in value):
        return tuple(value)
    if type(value) is kind:
        return value
    raise ParameterError(f"run config key {field.name!r} must be {field.type}, got {value!r}")


def _call(fn, cfg: RunConfig, names: dict[str, str], **kwargs):
    """`fn(**kwargs)` with each library name in `names` set from its RunConfig
    field, unless the field is None; a ParameterError about one of them is
    re-raised naming the field's flag."""
    given = {name: getattr(cfg, key) for key, name in names.items() if getattr(cfg, key) is not None}
    try:
        return fn(**kwargs, **given)
    except ParameterError as exc:
        name, _, rest = str(exc).partition(" ")
        flags = {lib: "--" + key.replace("_", "-") for key, lib in names.items()}
        if name not in flags:
            raise
        raise ParameterError(f"{flags[name]} {rest}") from None


def _hidden_widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(",") if w.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad width list {text!r}") from exc


def _check_paths(cfg: RunConfig) -> None:
    """argparse requires the command's input paths, but a replayed config may lack them.
    An --out that cannot become a directory is refused before any work is done."""
    missing = [f"--{key}" for key in COMMANDS[cfg.command].paths if getattr(cfg, key) is None]
    if missing:
        raise ParameterError(f"{cfg.command} needs {' and '.join(missing)}")
    out = Path(cfg.out)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise DataError(f"--out {cfg.out}: {blocker} exists and is not a directory")


def _check_batch_rows(cfg: RunConfig, shape: EpisodeShape) -> None:
    """Refuse a shape that leaves a batch-statistics pass fewer than two rows:
    the support set when the command trains on it, the query set when it is
    embedded in train or transductive mode. Then refuse a fine-tune whose
    triplet term has no other class to compare against."""
    meta = cfg.command == "metatrain"
    finetunes = not meta and cfg.mode != "no_finetune"
    batches = (
        ("--k-shot", shape.k_shot, "support", meta or finetunes),
        ("--m-query", shape.m_query, "query", meta or cfg.transductive),
    )
    for flag, per_class, name, normalized in batches:
        rows = shape.n_way * per_class
        if normalized and rows < 2:
            raise ParameterError(f"--n-way x {flag} must be >= 2 for {name} batch statistics, got {rows}")
    if finetunes and cfg.lambda_pt > 0 and shape.n_way < 2:
        raise ParameterError(f"--n-way must be >= 2 when --lambda-pt is above 0, got {shape.n_way}")


def _first_image_shape(data: str) -> tuple[int, int, int]:
    """The (C, H, W) of the first image under `data`, read from its header alone."""
    return ppm_shape(next(iter(dataset_files(data).values()))[0])


def cmd_synth(cfg: RunConfig) -> int:
    spec = _call(PRESETS[cfg.preset], cfg, SYNTH_FIELDS)
    _check_paths(cfg)
    ds = generate_synthetic(spec, RngStream(cfg.seed))
    out = Path(cfg.out)
    write_dataset(ds, out)
    (out / "run_config.json").write_text(cfg.to_json())
    log.info("wrote %d classes x %d images to %s", spec.n_classes, spec.images_per_class, out)
    return 0


def cmd_metatrain(cfg: RunConfig) -> int:
    shape = cfg.shape()
    params = _call(MetaParams, cfg, META_ARGS)
    _check_batch_rows(cfg, shape)
    _check_paths(cfg)
    # an over-cap width is refused before --data is decoded; load_dataset lists --data again, so that
    # its traced span covers the whole load
    spec = _call(BackboneSpec, cfg, SPEC_FIELDS, input_dim=math.prod(_first_image_shape(cfg.data)))
    ds = load_dataset(cfg.data)
    bk = Backbone.create(spec, RngStream(cfg.seed, (0,)))

    losses: list[float] = []

    def on_epoch(epoch: int, mean_loss: float):
        losses.append(mean_loss)
        log.info("epoch %d mean episodic loss %.4f", epoch, mean_loss)

    # --out is created only after meta_train succeeds
    start = time.perf_counter()
    with pass_blas():
        trained = meta_train(bk, ds, shape, params, rng=RngStream(cfg.seed, (1,)), on_epoch=on_epoch)
    _log_rate(cfg.epochs * cfg.tasks_per_epoch, "tasks", time.perf_counter() - start)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    trained.save(out / "backbone.snap")
    (out / "metatrain_log.txt").write_text("".join(f"{i} {loss!r}\n" for i, loss in enumerate(losses)))
    (out / "run_config.json").write_text(cfg.to_json())
    log.info("snapshot written to %s", out / "backbone.snap")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    plan = EvalPlan(cfg.hyperparams(), cfg.shape(), cfg.seed)
    if cfg.workers < 1:
        raise ParameterError(f"--workers must be >= 1, got {cfg.workers}")
    _check_batch_rows(cfg, plan.shape)
    # a pool process beyond the usable cores only waits for one; reports do not depend on the count
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg.workers, cores)
    if workers < cfg.workers:
        log.info("--workers %d is above the %d usable cores; starting at most %d", cfg.workers, cores, workers)
    _check_paths(cfg)
    bk = Backbone.load(cfg.snapshot)
    shape = _first_image_shape(cfg.data)  # another width is refused before any decode; listed twice, see cmd_metatrain
    if math.prod(shape) != bk.spec.input_dim:
        raise DataError(f"snapshot {cfg.snapshot} takes {bk.spec.input_dim} values per image, "
                        f"but the images in {cfg.data} are {'x'.join(map(str, shape))}")
    ds = load_dataset(cfg.data)
    if cfg.mode != "no_finetune" and cfg.k_shot not in PQS_RULES:
        log.warning("no sizing rule for k=%d; falling back to %d pseudo images per support sample",
                    cfg.k_shot, pqs_rule(cfg.n_way, cfg.k_shot)[0])

    start = time.perf_counter()
    if cfg.mode == "ablate":
        result = ablate(bk, ds, plan, workers)
        files = {
            "report_with_pqs.json": (result.with_pqs, "json"),
            "report_no_finetune.json": (result.no_finetune, "json"),
            "ablation.json": (result, "json"),
            "ablation.txt": (result, "table"),
        }
        log.info("paired delta %.4f (ci95 %.4f)", result.delta_mean, result.delta_ci95)
    else:
        report = run_eval(bk, ds, plan, cfg.mode, workers)
        files = {"report.json": (report, "json"), "report.txt": (report, "table")}
        log.info("accuracy %.4f (ci95 %.4f) over %d episodes", report.mean, report.ci95, report.episodes)
    _log_rate(cfg.episodes, "episodes", time.perf_counter() - start)
    # --out is created only after the pass succeeds, as in cmd_metatrain
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (content, fmt) in files.items():
        emit_report(content, fmt, out / name)
    (out / "run_config.json").write_text(cfg.to_json())
    return 0


def _log_rate(count: int, unit: str, wall: float) -> None:
    threads = pass_blas_threads()
    log.info("%d %s in %.2f s, %.2f %s/s, BLAS threads per process: %s",
             count, unit, wall, count / wall, unit, "default" if threads is None else threads)


class Command(NamedTuple):
    """A subcommand; each name in `paths` (the input paths) and `flags` is a RunConfig field."""
    run: Callable[[RunConfig], int]
    help: str
    paths: tuple[str, ...]
    flags: tuple[str, ...]


COMMANDS = {
    "synth": Command(cmd_synth, "render a synthetic dataset as PPM files", (), ("out", "seed", "preset", *SYNTH_FIELDS)),
    "metatrain": Command(cmd_metatrain, "episodic training, snapshot the backbone", ("data",),
                         ("out", "seed", *META_ARGS, *SPEC_FIELDS, *SHAPE_FIELDS)),
    "eval": Command(cmd_eval, "episodic evaluation or paired ablation", ("snapshot", "data"),
                    ("out", "mode", "seed", "workers", *SHAPE_FIELDS, *HP_FIELDS)),
}
# RunConfig field -> its flag's help line
HELP = {"episodes": "evaluation episode count", "margin": "triplet margin", "s": "cosine softmax scale",
        "m": "cosine margin", "epochs": "fine-tune epochs per episode (eval) or meta-training epochs (metatrain)"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as every other usage error
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry; each flag takes its RunConfig field's type."""
    parser = _Parser(prog="fewtune")
    sub = parser.add_subparsers(dest="command", required=True)
    hints = get_type_hints(RunConfig)
    # field types whose flag does not parse by calling the type
    special = {bool: {"action": argparse.BooleanOptionalAction}, tuple[int, ...]: {"type": _hidden_widths}}
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in (*command.paths, *command.flags):
            kind = _kind(hints[key])
            spec = special.get(kind, {"type": kind, "choices": CHOICES.get(key)})
            required = key in command.paths or key == "out"
            p.add_argument("--" + key.replace("_", "-"), required=required, help=HELP.get(key), **spec)
    p_replay = sub.add_parser("replay", help="re-run a saved run_config.json")
    p_replay.add_argument("config")
    p_replay.add_argument("--out", default=None, help="override output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags that were not given (None) leave the RunConfig default in place."""
    return RunConfig(**{key: value for key, value in vars(args).items() if value is not None})


def dispatch(cfg: RunConfig) -> int:
    if cfg.command not in COMMANDS:
        raise ParameterError(f"unknown command {cfg.command!r}")
    return COMMANDS[cfg.command].run(cfg)


def main(argv=None) -> int:
    pin_allocator()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            with open(args.config, "rb") as f:  # a pipe has no size to check first
                text = f.read(MAX_CONFIG_BYTES + 1)
            if len(text) > MAX_CONFIG_BYTES:
                raise ParameterError(f"run config {args.config} is longer than {MAX_CONFIG_BYTES} bytes")
            cfg = RunConfig.from_json(text)
            if args.out is not None:
                cfg = dataclasses.replace(cfg, out=args.out)
        else:
            cfg = _config_from_args(args)
        return dispatch(cfg)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
