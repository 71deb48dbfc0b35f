"""Backbone, cosine mean-centroid inference, per-episode fine-tuning, and
toy episodic meta-training.

The backbone is a dense stack (flatten -> dense -> norm -> relu, twice,
then a final dense projection). Its state is the snapshot's arrays in
`_layout` order, from which `clone` and `from_bytes` both build it; a
snapshot with a NaN, an infinity or other batch-norm constants does not
load. Fine-tuning always works on a private clone, so the pristine
meta-trained backbone is never mutated and every episode starts from the
same snapshot. During fine-tuning the real query set is locked; only
support and pseudo-query images are read.

The first dense layer is fine-tuned in the row space of the episode's
images. Its gradient X^T G lies in the span of the B stacked support and
pseudo-query rows, so `finetune` trains the coordinates Q^T W on the
images X Q, for an orthonormal basis Q (D x min(B, D)) of that span, and
adds Q (C_T - C_0) to W once at the end. Momentum SGD is linear, so this
is the full-space fine-tune up to rounding, on the same tape with a
first-layer matmul of min(B, D) instead of D rows.

`finetune` and `meta_train` feed their step losses to one SGD loop, `_train`, which
alone checks for a non-finite loss and, after the last step, a non-finite array.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import BatchNormState, DiffTensor
from .episodes import Episode, EpisodeShape, LabeledDataset, sample_episode
from .errors import ContractError, DataLoadError, DivergenceError, ParameterError, ShapeError
from .imageaug import Image
from .losses import HyperParams, compute_prototypes, finetune_objective, proto_xent
from .rng import RngStream

SNAPSHOT_MAGIC = b"FTBK"
SNAPSHOT_VERSION = 1

# meta_train's defaults, which the `metatrain` command shares
META_EPOCHS = 5
META_TASKS_PER_EPOCH = 300
META_LEARNING_RATE = 0.01
META_MOMENTUM = 0.9

# cap on a spec's snapshot arrays, `_layout`'s shapes x 8 bytes; the default spec holds about 0.9 MB
MAX_BACKBONE_BYTES = 1 << 28


@dataclass(frozen=True)
class BackboneSpec:
    input_dim: int = 768  # 16x16x3 flattened
    hidden: tuple[int, ...] = (128, 64)
    embed_dim: int = 32

    def __post_init__(self):
        widths = {"input_dim": (self.input_dim,), "hidden": self.hidden, "embed_dim": (self.embed_dim,)}
        for name, values in widths.items():
            if any(w < 1 for w in values):
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
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

    def __init__(self, spec: BackboneSpec, dense: list[DenseLayer], norms: list[BatchNormState]):
        self.spec = spec
        self.dense = dense
        self.norms = norms

    @classmethod
    def create(cls, spec: BackboneSpec, rng: RngStream) -> "Backbone":
        widths = (spec.input_dim, *spec.hidden, spec.embed_dim)
        dense: list[DenseLayer] = []
        norms: list[BatchNormState] = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            gen = rng.child(i).generator()
            scale = np.sqrt(2.0 / fan_in)
            weight = dc.param(gen.normal(0.0, scale, size=(fan_in, fan_out)))
            bias = dc.param(np.zeros((1, fan_out)))
            dense.append(DenseLayer(weight, bias))
            if i < len(spec.hidden):
                norms.append(BatchNormState.create(fan_out))
        return cls(spec, dense, norms)

    def parameters(self) -> list[DiffTensor]:
        params: list[DiffTensor] = []
        for layer in self.dense:
            params.extend((layer.weight, layer.bias))
        for norm in self.norms:
            params.extend((norm.gamma, norm.beta))
        return params

    def clone(self) -> "Backbone":
        return Backbone._from_arrays(self.spec, [a.copy() for _, a in self._arrays()])

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
        for norm in self.norms:
            arrays += [norm.gamma.values, norm.beta.values, norm.running_mean, norm.running_var]
        return [(name, a) for (name, _), a in zip(_layout(self.spec), arrays)]

    @classmethod
    def _from_arrays(cls, spec: BackboneSpec, arrays: list[np.ndarray]) -> "Backbone":
        """Inverse of `_arrays`: wraps `arrays`, given in `_layout` order, without copying."""
        it = iter(arrays)
        dense = [DenseLayer(dc.param(next(it)), dc.param(next(it))) for _ in range(len(spec.hidden) + 1)]
        norms = [BatchNormState(dc.param(next(it)), dc.param(next(it)), next(it), next(it)) for _ in spec.hidden]
        return cls(spec, dense, norms)

    def to_bytes(self) -> bytes:
        arrays = self._arrays()
        header = {
            "spec": dict(asdict(self.spec), bn_momentum=dc.BN_MOMENTUM, bn_eps=dc.BN_EPS),
            "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        buf = io.BytesIO()
        buf.write(SNAPSHOT_MAGIC)
        buf.write(struct.pack("<II", SNAPSHOT_VERSION, len(head)))
        buf.write(head)
        for _, arr in arrays:
            buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return buf.getvalue()

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
            arrays: list[np.ndarray] = []
            for name, shape in layout:
                end = pos + 8 * shape[0] * shape[1]
                if end > len(blob):
                    raise DataLoadError("snapshot truncated")
                arrays.append(np.frombuffer(blob[pos:end], dtype="<f8").reshape(shape).copy())
                if not np.isfinite(arrays[-1]).all():
                    raise DataLoadError(f"snapshot array {name} holds a NaN or infinite value")
                pos = end
        except (ValueError, KeyError, TypeError, ParameterError) as exc:
            raise DataLoadError(f"bad snapshot header: {type(exc).__name__}: {exc}") from exc
        if pos != len(blob):
            raise DataLoadError(f"{len(blob) - pos} stray bytes after the last snapshot array")
        return cls._from_arrays(spec, arrays)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Backbone":
        try:
            return cls.from_bytes(Path(path).read_bytes())
        except OSError as exc:
            raise DataLoadError(f"cannot read snapshot {path}: {exc}") from exc


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


def images_to_batch(images: list[Image], input_dim: int) -> DiffTensor:
    """One row per image, its pixels flattened, built in a single copy."""
    sizes = {img.pixels.size for img in images}
    if sizes != {input_dim}:
        raise ShapeError(f"images flatten to {sorted(sizes)}, backbone expects {input_dim}")
    return dc.constant(np.concatenate([img.pixels for img in images], axis=None).reshape(len(images), input_dim))


def embed(bk: Backbone, images: list[Image], mode: str) -> DiffTensor:
    """Forward a batch of images to B x D embeddings."""
    return bk.forward(images_to_batch(images, bk.spec.input_dim), mode)


def classify_cosine(query_emb: DiffTensor, protos: DiffTensor) -> tuple[np.ndarray, np.ndarray]:
    """Argmax of cosine similarity per query; ties go to the lowest class."""
    scores = dc.cosine_matrix(query_emb, protos).values
    return np.argmax(scores, axis=1), scores


@dataclass
class FinetuneState:
    """Adapted working copy of the backbone plus the class-weight head."""

    backbone: Backbone
    head: DiffTensor | None
    loss_history: list[float] = field(default_factory=list)


def _normalized_rows(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(values * values, axis=1, keepdims=True))
    return values / np.maximum(norms, dc.NORM_FLOOR)


def _train(params, steps, learning_rate, momentum, history, state) -> None:
    """Momentum SGD on `params`, one step per `(where, loss)` that `steps` yields, each loss
    appended to `history`; `steps` resumes only after its step's update. DivergenceError names
    the `where` of a non-finite loss, or of the last step if it leaves an array of `state()` non-finite."""
    where = None
    # a diverging run ends in DivergenceError, not in numpy warnings on the way
    with np.errstate(all="ignore"):
        for where, loss in steps:
            if not np.isfinite(loss.values):
                raise DivergenceError(f"{where}: loss diverged to {float(loss.values)} at learning rate {learning_rate}")
            dc.backward(loss)
            dc.sgd_step(params, learning_rate, momentum)
            dc.zero_grads(params)
            history.append(float(loss.values))
        if where and (bad := next((name for name, a in state() if not np.isfinite(a).all()), None)):
            raise DivergenceError(f"{where}: {bad} diverged to a non-finite value at learning rate {learning_rate}")


def finetune(bk: Backbone, ep: Episode, hp: HyperParams) -> FinetuneState:
    """Adapt a private clone of `bk` on the episode's support and pseudo
    queries; the real query set is locked for the duration.

    The first layer trains in the row space of the stacked images, on
    coordinates in a thin-QR basis of it, and its change is mapped back
    once after the last step; with zero epochs the clone is returned
    unchanged.
    """
    if not ep.pseudo_images:
        raise ContractError("episode has no pseudo query set; run build_pseudo_query first")
    work = bk.clone()
    state = FinetuneState(backbone=work, head=None)
    params: list[DiffTensor] = []  # filled by steps() once the first layer trains on coordinates

    def steps():
        # the images are fixed for the whole episode: stack them once, and
        # train the first layer on coordinates in their row space
        support = images_to_batch(ep.support_images, work.spec.input_dim).values
        pseudo = images_to_batch(ep.pseudo_images, work.spec.input_dim).values
        basis, _ = np.linalg.qr(np.concatenate([support, pseudo]).T)  # D x min(B, D), orthonormal
        full = work.dense[0].weight
        coords_0 = basis.T @ full.values
        work.dense[0].weight = dc.param(coords_0)
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
            yield f"fine-tuning epoch {epoch}", finetune_objective(
                support_emb, ep.support_labels, pseudo_emb, pseudo_labels, head, hp
            )
            head.values = _normalized_rows(head.values)
        coords_t = work.dense[0].weight.values
        work.dense[0].weight = full
        if hp.finetune_epochs:
            # the first layer's whole change, mapped back once
            full.values = full.values + basis @ (coords_t - coords_0)

    with ep.query_guard():
        _train(params, steps(), hp.learning_rate, hp.momentum, state.loss_history,
               lambda: [*work._arrays(), ("head", state.head.values)])
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
    """Un-adapted state for the no-fine-tuning arm."""
    return FinetuneState(backbone=bk.clone(), head=None)


def meta_train(
    bk: Backbone,
    ds: LabeledDataset,
    shape: EpisodeShape = EpisodeShape(),
    *,
    rng: RngStream,
    episodes_per_epoch: int = META_TASKS_PER_EPOCH,
    epochs: int = META_EPOCHS,
    learning_rate: float = META_LEARNING_RATE,
    momentum: float = META_MOMENTUM,
    on_epoch=None,
) -> Backbone:
    """Episodic training on prototype cross-entropy; returns a trained clone.

    Desk-scale stand-in for large-scale meta-training; `on_epoch(epoch,
    mean_loss)` is invoked after each epoch when given.
    """
    if episodes_per_epoch < 1:
        raise ParameterError(f"episodes_per_epoch must be >= 1, got {episodes_per_epoch}")
    if epochs < 0:
        raise ParameterError(f"epochs must be >= 0, got {epochs}")
    dc.check_sgd(learning_rate, momentum)
    work = bk.clone()
    history: list[float] = []

    def steps():
        for epoch in range(epochs):
            for task in range(episodes_per_epoch):
                stream = rng.child(epoch * episodes_per_epoch + task)
                ep = sample_episode(ds, shape.n_way, shape.k_shot, shape.m_query, stream)
                support_emb = embed(work, ep.support_images, "train")
                query_emb = embed(work, ep.query_images, "train")
                protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
                yield f"meta-training epoch {epoch} task {task}", proto_xent(query_emb, ep.query_labels, protos)
            if on_epoch is not None:
                on_epoch(epoch, float(np.mean(history[-episodes_per_epoch:])))

    _train(work.parameters(), steps(), learning_rate, momentum, history, work._arrays)
    return work
