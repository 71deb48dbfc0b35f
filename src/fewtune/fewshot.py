"""Backbone, cosine mean-centroid inference, per-episode fine-tuning, and
toy episodic meta-training.

The backbone is a dense stack (flatten -> dense -> norm -> relu, twice,
then a final dense projection). Fine-tuning always works on a private
clone, so the pristine meta-trained backbone is never mutated and every
episode starts from the same snapshot. During fine-tuning the real
query set is locked; only support and pseudo-query images are read.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import BatchNormState, DiffTensor, SgdConfig
from .episodes import Episode, EpisodeShape, LabeledDataset, sample_episode
from .errors import ContractError, DataLoadError, ParameterError, ShapeError
from .imageaug import Image
from .losses import HyperParams, Prototypes, compute_prototypes, finetune_objective, proto_xent
from .rng import RngStream

SNAPSHOT_MAGIC = b"FTBK"
SNAPSHOT_VERSION = 1

# meta_train's defaults, which the `metatrain` command shares
META_TASKS_PER_EPOCH = 300
META_LEARNING_RATE = 0.01
META_MOMENTUM = 0.9


@dataclass(frozen=True)
class BackboneSpec:
    input_dim: int = 768  # 16x16x3 flattened
    hidden: tuple[int, ...] = (128, 64)
    embed_dim: int = 32
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.input_dim < 1 or self.embed_dim < 1 or any(h < 1 for h in self.hidden):
            raise ParameterError(f"non-positive layer width in {self}")


@dataclass
class DenseLayer:
    weight: DiffTensor  # in x out
    bias: DiffTensor  # 1 x out

    def clone(self) -> "DenseLayer":
        return DenseLayer(dc.param(self.weight.values.copy()), dc.param(self.bias.values.copy()))


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
                norms.append(BatchNormState.create(fan_out, spec.bn_momentum, spec.bn_eps))
        return cls(spec, dense, norms)

    def parameters(self) -> list[DiffTensor]:
        params: list[DiffTensor] = []
        for layer in self.dense:
            params.extend((layer.weight, layer.bias))
        for norm in self.norms:
            params.extend((norm.gamma, norm.beta))
        return params

    def clone(self) -> "Backbone":
        return Backbone(self.spec, [d.clone() for d in self.dense], [n.clone() for n in self.norms])

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

    def to_bytes(self) -> bytes:
        arrays = self._arrays()
        header = {
            "spec": asdict(self.spec),
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
            spec = BackboneSpec(**dict(header["spec"], hidden=tuple(header["spec"]["hidden"])))
            layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
            if layout != _layout(spec):
                raise DataLoadError("snapshot arrays do not match its spec")
            values: dict[str, np.ndarray] = {}
            for name, shape in layout:
                end = pos + 8 * shape[0] * shape[1]
                if end > len(blob):
                    raise DataLoadError("snapshot truncated")
                values[name] = np.frombuffer(blob[pos:end], dtype="<f8").reshape(shape).copy()
                pos = end
        except (ValueError, KeyError, TypeError, ParameterError) as exc:
            raise DataLoadError(f"bad snapshot header: {type(exc).__name__}: {exc}") from exc
        if pos != len(blob):
            raise DataLoadError(f"{len(blob) - pos} stray bytes after the last snapshot array")

        dense = [
            DenseLayer(dc.param(values[f"dense{i}.weight"]), dc.param(values[f"dense{i}.bias"]))
            for i in range(len(spec.hidden) + 1)
        ]
        norms = [
            BatchNormState(
                gamma=dc.param(values[f"norm{i}.gamma"]),
                beta=dc.param(values[f"norm{i}.beta"]),
                running_mean=values[f"norm{i}.running_mean"],
                running_var=values[f"norm{i}.running_var"],
                momentum=spec.bn_momentum,
                eps=spec.bn_eps,
            )
            for i in range(len(spec.hidden))
        ]
        return cls(spec, dense, norms)

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
    flat = np.stack([img.pixels.reshape(-1) for img in images])
    if flat.shape[1] != input_dim:
        raise ShapeError(f"images flatten to {flat.shape[1]}, backbone expects {input_dim}")
    return dc.constant(flat)


def embed(bk: Backbone, images: list[Image], mode: str) -> DiffTensor:
    """Forward a batch of images to B x D embeddings."""
    return bk.forward(images_to_batch(images, bk.spec.input_dim), mode)


def classify_cosine(query_emb: DiffTensor, protos: Prototypes) -> tuple[np.ndarray, np.ndarray]:
    """Argmax of cosine similarity per query; ties go to the lowest class."""
    scores = dc.cosine_matrix(query_emb, protos.embeddings).values
    return np.argmax(scores, axis=1), scores


@dataclass
class FinetuneState:
    """Adapted working copy of the backbone plus the class-weight head."""

    backbone: Backbone
    head: DiffTensor | None
    epochs_run: int = 0
    loss_history: list[float] = field(default_factory=list)


def _normalized_rows(values: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    norms = np.sqrt(np.sum(values * values, axis=1, keepdims=True))
    return values / np.maximum(norms, epsilon)


def finetune(bk: Backbone, ep: Episode, hp: HyperParams) -> FinetuneState:
    """Adapt a private clone of `bk` on the episode's support and pseudo
    queries; the real query set is locked for the duration."""
    if not ep.pseudo_images:
        raise ContractError("episode has no pseudo query set; run build_pseudo_query first")
    work = bk.clone()
    params = work.parameters()
    cfg = SgdConfig(hp.learning_rate, hp.momentum)
    state = FinetuneState(backbone=work, head=None)

    with ep.query_guard():
        # head starts at the normalized support prototypes; transductive
        # mode keeps the init free of running-stat side effects
        init_emb = embed(work, ep.support_images, "transductive")
        init_protos = compute_prototypes(init_emb, ep.support_labels, ep.n_way)
        head = dc.param(_normalized_rows(init_protos.embeddings.values))
        state.head = head

        for _ in range(hp.finetune_epochs):
            support_emb = embed(work, ep.support_images, "train")
            pseudo_emb = embed(work, ep.pseudo_images, "train")
            loss = finetune_objective(
                support_emb, ep.support_labels, pseudo_emb, ep.pseudo_labels, head, hp
            )
            dc.backward(loss)
            sgd_step_params = params + [head]
            dc.sgd_step(sgd_step_params, cfg)
            head.values = _normalized_rows(head.values)
            dc.zero_grads(sgd_step_params)
            state.loss_history.append(float(loss.values))
            state.epochs_run += 1

    return state


def infer(state: FinetuneState, ep: Episode, hp: HyperParams) -> float:
    """Accuracy on the real query set with the adapted backbone.

    Prototypes are recomputed from the support set in eval mode; queries
    are embedded transductively when hp.transductive, else in eval mode.
    """
    support_emb = embed(state.backbone, ep.support_images, "eval")
    protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
    query_mode = "transductive" if hp.transductive else "eval"
    query_emb = embed(state.backbone, ep.query_images, query_mode)
    preds, _ = classify_cosine(query_emb, protos)
    return float(np.mean(preds == ep.query_labels))


def pristine_state(bk: Backbone) -> FinetuneState:
    """Un-adapted state for the no-fine-tuning arm."""
    return FinetuneState(backbone=bk.clone(), head=None, epochs_run=0)


def meta_train(
    bk: Backbone,
    ds: LabeledDataset,
    shape: EpisodeShape = EpisodeShape(),
    episodes_per_epoch: int = META_TASKS_PER_EPOCH,
    epochs: int = 1,
    rng: RngStream | None = None,
    learning_rate: float = META_LEARNING_RATE,
    momentum: float = META_MOMENTUM,
    on_epoch=None,
) -> Backbone:
    """Episodic training on prototype cross-entropy; returns a trained clone.

    Desk-scale stand-in for large-scale meta-training; `on_epoch(epoch,
    mean_loss)` is invoked after each epoch when given.
    """
    rng = rng or RngStream(0)
    work = bk.clone()
    params = work.parameters()
    cfg = SgdConfig(learning_rate, momentum)
    for epoch in range(epochs):
        losses = []
        for task in range(episodes_per_epoch):
            stream = rng.child(epoch * episodes_per_epoch + task)
            ep = sample_episode(ds, shape.n_way, shape.k_shot, shape.m_query, stream)
            support_emb = embed(work, ep.support_images, "train")
            query_emb = embed(work, ep.query_images, "train")
            protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
            loss = proto_xent(query_emb, ep.query_labels, protos)
            dc.backward(loss)
            dc.sgd_step(params, cfg)
            dc.zero_grads(params)
            losses.append(float(loss.values))
        if on_epoch is not None:
            on_epoch(epoch, float(np.mean(losses)))
    return work
