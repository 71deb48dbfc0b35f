"""Command-line entry point.

Subcommands: `synth` renders a synthetic dataset to PPM files,
`metatrain` trains a backbone episodically and snapshots it, `eval` runs
the episodic evaluation or the paired ablation, and `replay` re-runs a
saved run configuration. Exit codes: 0 success, 2 usage error, 3 data
error, 4 contract violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .episodes import EpisodeShape, load_dataset, write_dataset
from .errors import ContractError, DataError, ParameterError
from .evalharness import EvalPlan, ablate, emit_report, run_eval
from .fewshot import META_LEARNING_RATE, META_MOMENTUM, META_TASKS_PER_EPOCH, Backbone, BackboneSpec, meta_train
from .losses import HyperParams
from .rng import RngStream
from .synthetic import generate_synthetic, source_domain, target_domain

log = logging.getLogger("fewtune")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run; serialized next to outputs.

    Defaults come from the dataclasses that own them: EpisodeShape,
    HyperParams, BackboneSpec and meta_train's constants.
    """

    command: str = "eval"
    out: str = "out"
    seed: int = 0
    workers: int = 1
    data: str | None = None
    snapshot: str | None = None
    mode: str = "with_pqs"
    n_way: int = EpisodeShape.n_way
    k_shot: int = EpisodeShape.k_shot
    m_query: int = EpisodeShape.m_query
    episodes: int = HyperParams.episodes_count
    epochs: int = HyperParams.finetune_epochs
    margin: float = HyperParams.triplet_margin
    s: float = HyperParams.lmm_scale
    m: float = HyperParams.lmm_margin
    lambda_pt: float = HyperParams.ptloss_weight
    lr: float = HyperParams.learning_rate
    momentum: float = HyperParams.momentum
    transductive: bool = HyperParams.transductive
    timing: bool = False
    # metatrain extras
    tasks_per_epoch: int = META_TASKS_PER_EPOCH
    hidden: tuple[int, ...] = BackboneSpec.hidden
    embed_dim: int = BackboneSpec.embed_dim
    # synth extras
    preset: str = "source"
    tag: str | None = None
    classes: int | None = None
    images_per_class: int | None = None
    size: int | None = None
    pattern_offset: int | None = None
    palette_angle: float | None = None
    background: float | None = None
    contrast: float | None = None
    noise_sigma: float | None = None

    def hyperparams(self) -> HyperParams:
        return HyperParams(
            episodes_count=self.episodes,
            finetune_epochs=self.epochs,
            triplet_margin=self.margin,
            lmm_scale=self.s,
            lmm_margin=self.m,
            ptloss_weight=self.lambda_pt,
            learning_rate=self.lr,
            momentum=self.momentum,
            transductive=self.transductive,
        )

    def shape(self) -> EpisodeShape:
        return EpisodeShape(self.n_way, self.k_shot, self.m_query)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunConfig":
        """Strict inverse of to_json: every key a field, every value of its type."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"run config is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"run config must be a JSON object, got {type(data).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ParameterError(f"unknown run config keys {unknown}")
        hints = get_type_hints(cls)
        return cls(**{key: _typed(fields[key], hints[key], value) for key, value in data.items()})


def _typed(field: dataclasses.Field, hint, value):
    """`value` as `field` holds it (a JSON list becomes a tuple), or ParameterError."""
    kinds = get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in kinds:
        return None
    if kinds[0] is float and type(value) in (int, float):
        return float(value)
    if get_origin(kinds[0]) is tuple and type(value) is list and all(type(v) is int for v in value):
        return tuple(value)
    if type(value) is kinds[0]:
        return value
    raise ParameterError(f"run config key {field.name!r} must be {field.type}, got {value!r}")


def _hidden_widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(",") if w.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad width list {text!r}") from exc


def _add_episode_flags(p: argparse.ArgumentParser):
    p.add_argument("--n-way", type=int)
    p.add_argument("--k-shot", type=int)
    p.add_argument("--m-query", type=int)


def _add_hp_flags(p: argparse.ArgumentParser):
    p.add_argument("--episodes", type=int, help="evaluation episode count")
    p.add_argument("--epochs", type=int, help="fine-tune epochs per episode")
    p.add_argument("--margin", type=float, help="triplet margin")
    p.add_argument("--s", type=float, help="cosine softmax scale")
    p.add_argument("--m", type=float, help="cosine margin")
    p.add_argument("--lambda-pt", type=float, dest="lambda_pt")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--transductive", action=argparse.BooleanOptionalAction)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fewtune")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a synthetic dataset as PPM files")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--preset", choices=("source", "target"), default="source")
    p_synth.add_argument("--tag", default=None)
    p_synth.add_argument("--classes", type=int, default=None)
    p_synth.add_argument("--images-per-class", type=int, default=None)
    p_synth.add_argument("--size", type=int, default=None)
    p_synth.add_argument("--pattern-offset", type=int, default=None)
    p_synth.add_argument("--palette-angle", type=float, default=None)
    p_synth.add_argument("--background", type=float, default=None)
    p_synth.add_argument("--contrast", type=float, default=None)
    p_synth.add_argument("--noise-sigma", type=float, default=None)

    p_meta = sub.add_parser("metatrain", help="episodic training, snapshot the backbone")
    p_meta.add_argument("--data", required=True)
    p_meta.add_argument("--out", required=True)
    p_meta.add_argument("--seed", type=int, default=0)
    p_meta.add_argument("--epochs", type=int, default=5)
    p_meta.add_argument("--tasks-per-epoch", type=int)
    p_meta.add_argument("--lr", type=float, default=META_LEARNING_RATE)
    p_meta.add_argument("--momentum", type=float, default=META_MOMENTUM)
    p_meta.add_argument("--hidden", type=_hidden_widths)
    p_meta.add_argument("--embed-dim", type=int)
    _add_episode_flags(p_meta)

    p_eval = sub.add_parser("eval", help="episodic evaluation or paired ablation")
    p_eval.add_argument("--snapshot", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--mode", choices=("with_pqs", "no_finetune", "ablate"), default="with_pqs")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--timing", action="store_true", help="include wall time in report.json")
    _add_episode_flags(p_eval)
    _add_hp_flags(p_eval)

    p_replay = sub.add_parser("replay", help="re-run a saved run_config.json")
    p_replay.add_argument("config")
    p_replay.add_argument("--out", default=None, help="override output directory")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags that were not given (None) leave the RunConfig default in place."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return RunConfig(**data)


def cmd_synth(cfg: RunConfig) -> int:
    base = source_domain() if cfg.preset == "source" else target_domain()
    overrides = {
        key_to: getattr(cfg, key_from)
        for key_from, key_to in (
            ("tag", "tag"),
            ("classes", "n_classes"),
            ("images_per_class", "images_per_class"),
            ("size", "image_size"),
            ("pattern_offset", "pattern_offset"),
            ("palette_angle", "palette_angle"),
            ("background", "background"),
            ("contrast", "contrast"),
            ("noise_sigma", "noise_sigma"),
        )
        if getattr(cfg, key_from) is not None
    }
    spec = dataclasses.replace(base, **overrides)
    ds = generate_synthetic(spec, RngStream(cfg.seed))
    out = Path(cfg.out)
    write_dataset(ds, out)
    (out / "run_config.json").write_text(cfg.to_json())
    log.info("wrote %d classes x %d images to %s", spec.n_classes, spec.images_per_class, out)
    return 0


def cmd_metatrain(cfg: RunConfig) -> int:
    shape = cfg.shape()
    ds = load_dataset(cfg.data)
    sample = ds.images_for(ds.classes[0])[0]
    spec = BackboneSpec(
        input_dim=sample.channels * sample.height * sample.width,
        hidden=cfg.hidden,
        embed_dim=cfg.embed_dim,
    )
    bk = Backbone.create(spec, RngStream(cfg.seed, (0,)))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    losses: list[float] = []

    def on_epoch(epoch: int, mean_loss: float):
        losses.append(mean_loss)
        log.info("epoch %d mean episodic loss %.4f", epoch, mean_loss)

    trained = meta_train(
        bk,
        ds,
        shape,
        episodes_per_epoch=cfg.tasks_per_epoch,
        epochs=cfg.epochs,
        rng=RngStream(cfg.seed, (1,)),
        learning_rate=cfg.lr,
        momentum=cfg.momentum,
        on_epoch=on_epoch,
    )
    trained.save(out / "backbone.snap")
    (out / "metatrain_log.txt").write_text(
        "".join(f"{i} {loss!r}\n" for i, loss in enumerate(losses))
    )
    (out / "run_config.json").write_text(cfg.to_json())
    log.info("snapshot written to %s", out / "backbone.snap")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    plan = EvalPlan(cfg.hyperparams(), cfg.shape(), cfg.seed)
    bk = Backbone.load(cfg.snapshot)
    ds = load_dataset(cfg.data)
    if plan.policy.is_fallback(cfg.k_shot):
        rule = plan.policy.rule_for(cfg.n_way, cfg.k_shot)
        log.warning(
            "no sizing rule for k=%d; falling back to %d pseudo images per support sample",
            cfg.k_shot,
            rule.per_support,
        )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "ablate":
        result = ablate(bk, ds, plan, cfg.workers)
        emit_report(result.with_pqs, "json", out / "report_with_pqs.json", include_timing=cfg.timing)
        emit_report(result.no_finetune, "json", out / "report_no_finetune.json", include_timing=cfg.timing)
        emit_report(result, "json", out / "ablation.json")
        emit_report(result, "table", out / "ablation.txt")
        log.info("paired delta %.4f (ci95 %.4f)", result.delta_mean, result.delta_ci95)
    else:
        report = run_eval(bk, ds, plan, cfg.mode, cfg.workers)
        emit_report(report, "json", out / "report.json", include_timing=cfg.timing)
        emit_report(report, "table", out / "report.txt")
        log.info("accuracy %.4f (ci95 %.4f) over %d episodes", report.mean, report.ci95, report.episodes)
    (out / "run_config.json").write_text(cfg.to_json())
    return 0


def dispatch(cfg: RunConfig) -> int:
    if cfg.command == "synth":
        return cmd_synth(cfg)
    if cfg.command == "metatrain":
        return cmd_metatrain(cfg)
    if cfg.command == "eval":
        return cmd_eval(cfg)
    raise ParameterError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "replay":
            cfg = RunConfig.from_json(Path(args.config).read_bytes())
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
