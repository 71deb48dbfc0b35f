"""Backbone, cosine mean-centroid inference, per-episode fine-tuning, and
toy episodic meta-training.

The backbone is a dense stack (flatten -> dense -> norm -> relu, twice, then a final dense
projection). Its state is the snapshot's arrays in `_layout` order, which `Backbone(spec, arrays)`,
the one constructor, wraps for `create`, `clone`, `from_bytes` and `finetune`'s coordinate copy.
`from_bytes` alone parses a snapshot; `load` hands it a regular file of at most MAX_SNAPSHOT_BYTES,
read in one call. A snapshot with a NaN, an infinity or other batch-norm constants does not load,
and a loaded snapshot's arrays are read-only. No code writes into a backbone's arrays: an SGD step
replaces a parameter's `values` and a train-mode batch norm replaces its running statistics. So
episodes share the snapshot's arrays without copying them, and every episode starts from the same
snapshot. During fine-tuning the real query set is locked; only support and pseudo-query images
are read.

The first dense layer is fine-tuned in the row space of the episode's
images. Its gradient X^T G lies in the span of the B stacked support and
pseudo-query rows, so `finetune` trains a coordinate copy of input width
min(B, D), whose first weight is Q^T W for an orthonormal basis Q of
that span, on the images X Q, and builds the result from W + Q (C_T -
C_0) once at the end. Momentum SGD is linear, so this is the full-space
fine-tune up to rounding, on the same tape with a first-layer matmul of
min(B, D) instead of D rows.

`finetune` and `meta_train` feed their step losses to one SGD loop, `_train`, which
alone checks for a non-finite loss, a finite blow-up and, after the last step, a non-finite array.
"""

from __future__ import annotations

import json
import logging
import math
import stat
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import BatchNormState, DiffTensor
from .episodes import Episode, EpisodeShape, LabeledDataset, sample_episode
from .errors import ContractError, DataLoadError, DivergenceError, ParameterError, ShapeError
from .losses import HyperParams, compute_prototypes, finetune_objective, proto_xent
from .rng import RngStream

log = logging.getLogger("fewtune")
SNAPSHOT_MAGIC = b"FTBK"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class MetaParams:
    """`meta_train`'s settings, which the `metatrain` command shares; each
    ParameterError message starts with the field's name."""

    epochs: int = 5
    episodes_per_epoch: int = 300
    learning_rate: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        if self.episodes_per_epoch < 1:
            raise ParameterError(f"episodes_per_epoch must be >= 1, got {self.episodes_per_epoch}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        dc.check_sgd(self.learning_rate, self.momentum)


# a fine-tune, or a meta-training epoch, whose loss peaks above this many times the first loss
# blew up: the benchmark's runs peak at up to 2.6 times it, blow-ups at 1e20 times and more
BLOWUP_RATIO = 1e3

# cap on a spec's snapshot arrays, `_layout`'s shapes x 8 bytes; the default spec holds about 0.9 MB
MAX_BACKBONE_BYTES = 1 << 28
# cap on a snapshot file: the 12-byte prefix, 32 MiB of header and the arrays' cap; the header of
# the largest spec one --hidden argument lists, 65 536 widths, takes 16.3 MiB
MAX_SNAPSHOT_BYTES = 12 + (32 << 20) + MAX_BACKBONE_BYTES


@dataclass(frozen=True)
class BackboneSpec:
    input_dim: int = 768  # 16x16x3 flattened
    hidden: tuple[int, ...] = (128, 64)
    embed_dim: int = 32

    def __post_init__(self):
        widths = {"input_dim": (self.input_dim,), "hidden": self.hidden, "embed_dim": (self.embed_dim,)}
        for name, values in widths.items():
            if any(type(w) is not int or w < 1 for w in values):  # a snapshot header may hold 12.0
                raise ParameterError(f"{name} must be whole and >= 1, got {getattr(self, name)}")
        held = 8 * sum(rows * cols for _, (rows, cols) in _layout(self))
        if held > MAX_BACKBONE_BYTES:
            widest = max(widths, key=lambda name: max(widths[name], default=0))
            raise ParameterError(f"{widest} {getattr(self, widest)} makes the backbone's arrays hold {held} bytes, "
                                 f"above the cap of {MAX_BACKBONE_BYTES}")


@dataclass
class DenseLayer:
    weight: DiffTensor  # in x out
    bias: DiffTensor  # 1 x out


class Backbone:
    """Embedding network: parameters plus batch-norm running statistics."""

    def __init__(self, spec: BackboneSpec, arrays: list[np.ndarray]):
        """Wraps `arrays`, given in `_layout(spec)` order, without copying."""
        self.spec = spec
        it = iter(arrays)
        self.dense = [DenseLayer(dc.param(next(it)), dc.param(next(it))) for _ in range(len(spec.hidden) + 1)]
        self.norms = [BatchNormState(dc.param(next(it)), dc.param(next(it)), next(it), next(it)) for _ in spec.hidden]

    @classmethod
    def create(cls, spec: BackboneSpec, rng: RngStream) -> "Backbone":
        widths = (spec.input_dim, *spec.hidden, spec.embed_dim)
        arrays: list[np.ndarray] = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            scale = np.sqrt(2.0 / fan_in)
            arrays += [rng.child(i).generator().normal(0.0, scale, size=(fan_in, fan_out)), np.zeros((1, fan_out))]
        for width in spec.hidden:
            arrays += _norm_arrays(BatchNormState.create(width))
        return cls(spec, arrays)

    def parameters(self) -> list[DiffTensor]:
        params: list[DiffTensor] = []
        for layer in self.dense:
            params.extend((layer.weight, layer.bias))
        for norm in self.norms:
            params.extend((norm.gamma, norm.beta))
        return params

    def clone(self) -> "Backbone":
        return Backbone(self.spec, [a.copy() for _, a in self._arrays()])

    def forward(self, batch: DiffTensor, mode: str) -> DiffTensor:
        x = batch
        for i, layer in enumerate(self.dense):
            x = dc.add(dc.matmul(x, layer.weight), layer.bias)
            if i < len(self.norms):
                x = dc.batch_norm(x, self.norms[i], mode)
                x = dc.relu(x)
        return x

    # -- snapshot ----------------------------------------------------------

    def _arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = [a for layer in self.dense for a in (layer.weight.values, layer.bias.values)]
        arrays += [a for norm in self.norms for a in _norm_arrays(norm)]
        return [(name, a) for (name, _), a in zip(_layout(self.spec), arrays)]

    def to_bytes(self) -> bytes:
        arrays = self._arrays()
        header = {
            "spec": dict(asdict(self.spec), bn_momentum=dc.BN_MOMENTUM, bn_eps=dc.BN_EPS),
            "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        blob = b"".join([SNAPSHOT_MAGIC, struct.pack("<II", SNAPSHOT_VERSION, len(head)), head,
                         *(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)])
        if len(blob) > MAX_SNAPSHOT_BYTES:  # which `load` would refuse
            raise ParameterError(f"a snapshot of {len(blob)} bytes is above the cap of {MAX_SNAPSHOT_BYTES}")
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Backbone":
        if blob[:4] != SNAPSHOT_MAGIC:
            raise DataLoadError("not a backbone snapshot (bad magic)")
        if len(blob) < 12:
            raise DataLoadError("snapshot truncated")
        version, head_len = struct.unpack("<II", blob[4:12])
        if version != SNAPSHOT_VERSION:
            raise DataLoadError(f"unsupported snapshot version {version}")
        pos = 12 + head_len
        if len(blob) < pos:
            raise DataLoadError("snapshot truncated")
        try:
            header = json.loads(blob[12:pos].decode("utf-8"))
            fields = dict(header["spec"])
            for key, constant in (("bn_momentum", dc.BN_MOMENTUM), ("bn_eps", dc.BN_EPS)):
                if fields.pop(key, constant) != constant:  # recorded in the header, not settable
                    raise DataLoadError(f"snapshot {key} is not {constant}")
            spec = BackboneSpec(**dict(fields, hidden=tuple(fields["hidden"])))
            layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
            if layout != _layout(spec):
                raise DataLoadError("snapshot arrays do not match its spec")
        except (ValueError, KeyError, TypeError, ParameterError, RecursionError) as exc:
            raise DataLoadError(f"bad snapshot header: {type(exc).__name__}: {exc}") from exc
        expected = pos + 8 * sum(math.prod(shape) for _, shape in layout)  # the blob's length, checked once
        if len(blob) != expected:
            raise DataLoadError("snapshot truncated" if len(blob) < expected else
                                f"{len(blob) - expected} stray bytes after the last snapshot array")
        arrays: list[np.ndarray] = []
        for name, shape in layout:
            end = pos + 8 * math.prod(shape)
            arrays.append(np.frombuffer(blob[pos:end], dtype="<f8").reshape(shape))  # read-only; the slice is a copy
            if not np.isfinite(arrays[-1]).all():
                raise DataLoadError(f"snapshot array {name} holds a NaN or infinite value")
            pos = end
        return cls(spec, arrays)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Backbone":
        """`from_bytes` of a regular file that `stat` finds no larger than MAX_SNAPSHOT_BYTES, read in
        one call of at most one byte past the cap, so a file that grew after the check reads as stray bytes."""
        try:
            info = Path(path).stat()
            if not stat.S_ISREG(info.st_mode):
                raise DataLoadError(f"snapshot {path} is not a regular file")
            if info.st_size > MAX_SNAPSHOT_BYTES:
                raise DataLoadError(f"snapshot {path} is larger than {MAX_SNAPSHOT_BYTES} bytes, the cap on a snapshot")
            with open(path, "rb") as f:
                blob = f.read(MAX_SNAPSHOT_BYTES + 1)
        except OSError as exc:
            raise DataLoadError(f"cannot read snapshot {path}: {exc}") from exc
        return cls.from_bytes(blob)


def _norm_arrays(norm: BatchNormState) -> list[np.ndarray]:
    return [norm.gamma.values, norm.beta.values, norm.running_mean, norm.running_var]


def _layout(spec: BackboneSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every snapshot array, in file order."""
    widths = (spec.input_dim, *spec.hidden, spec.embed_dim)
    dense = [
        (f"dense{i}.{name}", shape)
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))
        for name, shape in (("weight", (fan_in, fan_out)), ("bias", (1, fan_out)))
    ]
    stats = ("gamma", "beta", "running_mean", "running_var")
    return dense + [(f"norm{i}.{name}", (1, width)) for i, width in enumerate(spec.hidden) for name in stats]


def images_to_batch(images: np.ndarray, input_dim: int) -> DiffTensor:
    """An (n, C, H, W) image array as n rows of flattened pixels, a view that copies nothing."""
    size = math.prod(images.shape[1:])
    if size != input_dim:
        raise ShapeError(f"images flatten to [{size}], backbone expects {input_dim}")
    return dc.constant(images.reshape(len(images), input_dim))


def embed(bk: Backbone, images: np.ndarray, mode: str) -> DiffTensor:
    """Forward an (n, C, H, W) image array to n x D embeddings."""
    return bk.forward(images_to_batch(images, bk.spec.input_dim), mode)


def classify_cosine(query_emb: DiffTensor, protos: DiffTensor) -> tuple[np.ndarray, np.ndarray]:
    """Argmax of cosine similarity per query; ties go to the lowest class."""
    scores = dc.cosine_matrix(query_emb, protos).values
    return np.argmax(scores, axis=1), scores


@dataclass
class FinetuneState:
    """The adapted backbone, or the pristine one, plus the class-weight head."""

    backbone: Backbone
    head: DiffTensor | None
    loss_history: list[float] = field(default_factory=list)


def _normalized_rows(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(values * values, axis=1, keepdims=True))
    return values / np.maximum(norms, dc.NORM_FLOOR)


def _train(params, steps, learning_rate, momentum, history, state) -> None:
    """Momentum SGD on `params`, one step per `(run, step, loss)` that `steps` yields, each loss appended to
    `history`; `steps` resumes only after its step's update. DivergenceError names the "run step" of a non-finite
    loss, or of the last step if it leaves an array of `state()` non-finite. Then each run whose loss peaked
    above BLOWUP_RATIO times the first loss logs one warning."""
    start, peaks = len(history), {}  # run -> its peak loss and that step
    # a diverging run ends in DivergenceError, not in numpy warnings on the way
    with np.errstate(all="ignore"):
        for run, step, loss in steps:
            if not np.isfinite(loss.values):
                raise DivergenceError(f"{run} {step}: loss diverged to {float(loss.values)} at learning rate {learning_rate}")
            dc.backward(loss)
            dc.sgd_step(params, learning_rate, momentum)
            dc.zero_grads(params)
            history.append(float(loss.values))
            if history[-1] > peaks.get(run, (-np.inf,))[0]:
                peaks[run] = history[-1], step
        if peaks and (bad := next((name for name, a in state() if not np.isfinite(a).all()), None)):
            raise DivergenceError(f"{run} {step}: {bad} diverged to a non-finite value at learning rate {learning_rate}")
    for run, (peak, step) in peaks.items():
        if peak > BLOWUP_RATIO * history[start]:
            log.warning("%s: loss peaked at %.3g at %s, %.3g times the first loss", run, peak, step, peak / history[start])


def finetune(bk: Backbone, ep: Episode, hp: HyperParams) -> FinetuneState:
    """Adapt `bk` to the episode's support and pseudo queries, leaving `bk`
    unchanged; the real query set is locked for the duration.

    A coordinate copy trains: a backbone over a thin-QR basis of the
    stacked images' row space, built on `bk`'s own arrays, whose
    first-layer change is mapped back once after the last step.
    """
    if not len(ep.pseudo_images):
        raise ContractError("episode has no pseudo query set; run build_pseudo_query first")
    state = FinetuneState(backbone=bk, head=None)
    params: list[DiffTensor] = []  # filled by steps() once the coordinate copy is built

    def steps():
        # the images are fixed for the whole episode: stack them once, and
        # train a copy whose first layer takes coordinates in their row space
        support = images_to_batch(ep.support_images, bk.spec.input_dim).values
        pseudo = images_to_batch(ep.pseudo_images, bk.spec.input_dim).values
        basis, _ = np.linalg.qr(np.concatenate([support, pseudo]).T)  # D x min(B, D), orthonormal
        weight, *rest = (a for _, a in bk._arrays())
        coords_0 = basis.T @ weight
        work = Backbone(replace(bk.spec, input_dim=basis.shape[1]), [coords_0, *rest])
        support_batch, pseudo_batch = dc.constant(support @ basis), dc.constant(pseudo @ basis)
        pseudo_labels = ep.pseudo_labels
        # head starts at the normalized support prototypes; transductive
        # mode keeps the init free of running-stat side effects
        init_emb = work.forward(support_batch, "transductive")
        init_protos = compute_prototypes(init_emb, ep.support_labels, ep.n_way)
        state.head = head = dc.param(_normalized_rows(init_protos.values))
        params.extend(work.parameters() + [head])

        for epoch in range(hp.finetune_epochs):
            support_emb = work.forward(support_batch, "train")
            pseudo_emb = work.forward(pseudo_batch, "train")
            yield "fine-tuning", f"epoch {epoch}", finetune_objective(
                support_emb, ep.support_labels, pseudo_emb, pseudo_labels, head, hp
            )
            head.values = _normalized_rows(head.values)
        # the first layer's whole change, mapped back once; zero after zero epochs
        coords_t, *trained = (a for _, a in work._arrays())
        state.backbone = Backbone(bk.spec, [weight + basis @ (coords_t - coords_0), *trained])

    with ep.query_guard():
        _train(params, steps(), hp.learning_rate, hp.momentum, state.loss_history,
               lambda: [*state.backbone._arrays(), ("head", state.head.values)])
    return state


def infer(state: FinetuneState, ep: Episode, hp: HyperParams) -> float:
    """Accuracy on the real query set with the adapted backbone.

    Prototypes are recomputed from the support set in eval mode; queries
    are embedded transductively when hp.transductive, else in eval mode.
    Weights large enough to overflow the forward pass raise
    DivergenceError instead of scoring NaN rows as class 0.
    """
    with np.errstate(all="ignore"):
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
        query_mode = "transductive" if hp.transductive else "eval"
        query_emb = embed(state.backbone, ep.query_images, query_mode)
        preds, scores = classify_cosine(query_emb, protos)
    if not np.isfinite(scores).all():
        raise DivergenceError("inference: a query score is not finite")
    return float(np.mean(preds == ep.query_labels))


def pristine_state(bk: Backbone) -> FinetuneState:
    """Un-adapted state for the no-fine-tuning arm; it wraps `bk` itself."""
    return FinetuneState(backbone=bk, head=None)


def meta_train(
    bk: Backbone,
    ds: LabeledDataset,
    shape: EpisodeShape = EpisodeShape(),
    params: MetaParams = MetaParams(),
    *,
    rng: RngStream,
    on_epoch=None,
) -> Backbone:
    """Episodic training on prototype cross-entropy; returns a trained clone.

    Desk-scale stand-in for large-scale meta-training; `on_epoch(epoch,
    mean_loss)` is invoked after each epoch when given.
    """
    work = bk.clone()
    history: list[float] = []

    def steps():
        for epoch in range(params.epochs):
            for task in range(params.episodes_per_epoch):
                stream = rng.child(epoch * params.episodes_per_epoch + task)
                ep = sample_episode(ds, shape, stream)
                support_emb = embed(work, ep.support_images, "train")
                query_emb = embed(work, ep.query_images, "train")
                protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
                yield f"meta-training epoch {epoch}", f"task {task}", proto_xent(query_emb, ep.query_labels, protos)
            if on_epoch is not None:
                on_epoch(epoch, float(np.mean(history[-params.episodes_per_epoch:])))

    _train(work.parameters(), steps(), params.learning_rate, params.momentum, history, work._arrays)
    return work
