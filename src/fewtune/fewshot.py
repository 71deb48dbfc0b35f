"""Backbone, cosine mean-centroid inference, per-episode fine-tuning, and
toy episodic meta-training.

The backbone is a dense stack (flatten -> dense -> norm -> relu, twice, then a final dense
projection). Its state is the snapshot's arrays in `_layout` order, which `Backbone(spec, arrays)`,
the one constructor, wraps for `create`, `clone`, `from_bytes` and `_coordinate_copy`.
`from_bytes` alone parses a snapshot; `load` hands it a regular file of at most MAX_SNAPSHOT_BYTES,
read in one call. A snapshot with a NaN, an infinity or other batch-norm constants does not load,
and a loaded snapshot's arrays are read-only views of its payload, which is checked as one array.
No code writes into a backbone's arrays: an SGD step replaces a parameter's `values` and a
train-mode batch norm replaces its running statistics. So episodes share the snapshot's arrays
without copying them, and every episode starts from the same snapshot. During fine-tuning the real
query set is locked; only support and pseudo-query images are read.

The first dense layer trains in the row space of the images it can see.
Its gradient X^T G lies in the span of the rows X, so `_coordinate_copy`
builds a copy of input width r whose first weight is Q^T W, for an
orthonormal basis Q (D x r) of a span holding every row; the copy trains
on the coordinates X Q, and the result is W + Q (C_T - C_0), built once
at the end. Momentum SGD is linear, so this is the full-space training up
to rounding, on the same tape with a first-layer matmul of r instead of D
rows.
- `finetune` takes Q from the B stacked support and pseudo-query rows of
  its episode, r = min(B, D).
- `meta_train` takes Q from all n rows of its dataset, a view of its pixel
  buffer from which `sample_episode` draws every task, and only when 2n <= D.
  Past that the narrower steps do not repay the QR: at one BLAS thread,
  D = 768 and n = 320 took 17 ms to factor and saved 0.34 ms per 75-row
  batch, while n = 700 ran slower. Meta-training then trains at full width.

The tape holds only what is differentiated. `embed` is the one forward off it, in numpy with the
taped forward's expressions; `infer` and `finetune`'s head init call it, and so does `meta_train`,
which puts each support and query batch on the tape as one node, `Backbone.train_forward`, whose
parents are the backbone's parameters. That node's forward is `embed`'s train mode, `forward(batch)`
bit for bit, running statistics included; its backward is the closed form of dense -> train-mode
batch norm -> relu (Ioffe & Szegedy 2015), so a task's tape holds that node twice plus the
prototypes and `proto_xent`, instead of some 52 op nodes. The dense biases that feed a batch norm
get no gradient there, so `sgd_step` skips them and meta-training leaves them as they were.
`Backbone.forward`, train mode op by op, is `finetune`'s step and the reference of the closed form.

`finetune` and `meta_train` feed their step losses to one SGD loop, `_train`, which
alone checks for a non-finite loss, a finite blow-up and, after the last step, a non-finite array.

`finetune`, `infer` and `meta_train` each run every BLAS call on one thread of numpy's bundled
OpenBLAS and give the caller its count back when they return or raise; without that library the
count is left as it is. Their matrices are small, so a second thread buys little in one process and
oversubscribes the cores of a pool; and at two threads a product such as a paper-width fine-tune's
backward `G W^T` rounds differently. So a seed fixes every bit of a call, on any core count and
whoever calls: the CLI, a pool worker or a library caller. Calls that overlap in several Python
threads share the process-wide count: the first call in sets it and the last call out restores it.
The count can be read and restored, so a call may own it. glibc's allocator thresholds cannot:
there is no getter for M_MMAP_THRESHOLD, so a call could not give its host process that setting back. Only the processes the package owns,
`cli.main` and each pool worker, call `pin_allocator`; importing the package sets nothing.
"""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import math
import os
import stat
import struct
import threading
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

# the OpenBLAS thread count every BLAS call of finetune, infer and meta_train runs at
COMPUTE_BLAS_THREADS = 1


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, found
    next to numpy, or None when there is no such library or it lacks them."""
    package = Path(np.__file__).parent
    # numpy.libs/ beside the package in Linux and Windows wheels, .dylibs/ inside it on macOS
    pattern = "libscipy_openblas*"
    candidates = [*package.parent.glob(f"numpy.libs/{pattern}"), *package.glob(f".dylibs/{pattern}")]
    for path in sorted(candidates):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


class _ComputeThreads:
    """OpenBLAS at COMPUTE_BLAS_THREADS while any compute call runs in this process. A lock guards
    the count of calls in flight: the first call in saves the caller's count and sets
    COMPUTE_BLAS_THREADS, and the last call out restores the saved count. So a call from one
    Python thread never computes at a count another thread has just restored, and the caller's
    count survives any overlap."""

    def __init__(self):
        self.lock, self.calls, self.caller = threading.Lock(), 0, None

    def __enter__(self):
        get_threads, set_threads = _openblas()
        with self.lock:
            if not self.calls:
                self.caller = get_threads()
                set_threads(COMPUTE_BLAS_THREADS)
            self.calls += 1

    def __exit__(self, *exc):
        with self.lock:
            self.calls -= 1
            if not self.calls:
                _openblas()[1](self.caller)


_COMPUTE_THREADS = _ComputeThreads()
if hasattr(os, "register_at_fork"):  # a forked child has only the thread that forked: no call in flight
    os.register_at_fork(after_in_child=_COMPUTE_THREADS.__init__)


def _at_compute_blas_threads(compute):
    """`compute` with OpenBLAS at COMPUTE_BLAS_THREADS in this process for each call, then back at the
    caller's count, also when the call raises; `compute` as it is without the library."""

    @functools.wraps(compute)
    def call(*args, **kwargs):
        if _openblas() is None:
            return compute(*args, **kwargs)
        with _COMPUTE_THREADS:
            return compute(*args, **kwargs)

    return call


def compute_blas_threads() -> int | None:
    """The OpenBLAS thread count `finetune`, `infer` and `meta_train` run at;
    None when the library is not found and the count is left alone."""
    return None if _openblas() is None else COMPUTE_BLAS_THREADS


def pin_allocator() -> None:
    """glibc's trim threshold at 64 MiB and mmap threshold at its 64-bit maximum,
    32 MiB, so a task's arrays (up to 768 x 128 float64) reuse the pages the
    last task freed instead of faulting in new ones. No-op without `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle to the C library, or not glibc
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in ((-1, 64 << 20), (-3, 32 << 20)):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        mallopt(param, value)


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

    def forward(self, batch: DiffTensor) -> DiffTensor:
        """The train-mode forward, op by op on the tape."""
        x = batch
        for i, layer in enumerate(self.dense):
            x = dc.add(dc.matmul(x, layer.weight), layer.bias)
            if i < len(self.norms):
                x = dc.relu(dc.batch_norm(x, self.norms[i]))
        return x

    def train_forward(self, rows: np.ndarray) -> DiffTensor:
        """`forward(dc.constant(rows))` as one tape node whose parents are `parameters()`.

        The forward is `embed`'s train mode: the same embeddings and running statistics, bit for bit.
        The backward is the closed form of dense -> train-mode batch norm -> relu: with dx_hat = gamma dy,
        the gradient before a batch norm is dz = (dx_hat - mean(dx_hat) - x_hat mean(dx_hat x_hat)) / s,
        s = sqrt(var + BN_EPS), computed as gamma / s (dy - mean(dy) - x_hat mean(dy x_hat)), which reuses
        beta's and gamma's gradients. dz sums to zero over the batch, so a dense bias that feeds a batch
        norm gets no gradient (None, read as exact zeros) and SGD leaves it as it is. No gradient is
        computed for `rows`.
        """
        out, inputs, normed = _forward(self, rows, "train")
        count, weights = len(rows), [layer.weight.values for layer in self.dense]

        def backward_fn(g: np.ndarray):
            dense = [(inputs[-1].T @ g, np.add.reduce(g, 0, keepdims=True))]
            norms = []
            for i in reversed(range(len(normed))):
                gamma, x_hat, scale = normed[i]
                dy = (g @ weights[i + 1].T) * (inputs[i + 1] > 0.0)  # relu's gate, read off its output
                d_gamma, d_beta = np.add.reduce(dy * x_hat, 0, keepdims=True), np.add.reduce(dy, 0, keepdims=True)
                norms[:0] = [d_gamma, d_beta]
                g = (gamma / scale) * (dy - d_beta / count - x_hat * (d_gamma / count))
                dense.insert(0, (inputs[i].T @ g, None))
            return [grad for pair in dense for grad in pair] + norms

        return dc.node(out, tuple(self.parameters()), backward_fn)

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
        sizes = [math.prod(shape) for _, shape in layout]
        expected = pos + 8 * sum(sizes)  # the blob's length, checked once
        if len(blob) != expected:
            raise DataLoadError("snapshot truncated" if len(blob) < expected else
                                f"{len(blob) - expected} stray bytes after the last snapshot array")
        payload = np.frombuffer(blob[pos:], dtype="<f8")  # read-only; one aligned copy, without the header
        ends = np.cumsum(sizes).tolist()
        arrays = [payload[end - size : end].reshape(shape) for (_, shape), size, end in zip(layout, sizes, ends)]
        if not np.isfinite(payload).all():
            bad = next(name for (name, _), a in zip(layout, arrays) if not np.isfinite(a).all())
            raise DataLoadError(f"snapshot array {bad} holds a NaN or infinite value")
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


def images_to_batch(images: np.ndarray, input_dim: int) -> np.ndarray:
    """An (n, C, H, W) image array, or n flat rows, as (n, input_dim) rows: a view that copies nothing."""
    size = math.prod(images.shape[1:])
    if size != input_dim:
        raise ShapeError(f"images flatten to [{size}], backbone expects {input_dim}")
    return images.reshape(len(images), input_dim)


def _forward(bk: Backbone, rows: np.ndarray, mode: str):
    """`embed` of n rows, with each dense layer's input and each batch norm's gamma, x_hat and
    s = sqrt(var + BN_EPS), which `train_forward`'s backward reads."""
    if mode not in ("train", "eval", "transductive"):
        raise ParameterError(f"unknown batch_norm mode {mode!r}")
    count, m = len(rows), dc.BN_MOMENTUM
    inputs, normed, x = [], [], rows
    for layer, norm in zip(bk.dense, bk.norms):
        inputs.append(x)
        z = x @ layer.weight.values + layer.bias.values
        if mode == "eval":
            centered, scale = z - norm.running_mean, np.sqrt(norm.running_var + dc.BN_EPS)
        else:
            dc.check_batch_rows(count)
            mu = np.add.reduce(z, 0, keepdims=True) / count
            centered = z - mu
            var = np.add.reduce(centered * centered, 0, keepdims=True) / count
            scale = np.sqrt(var + dc.BN_EPS)
            if mode == "train":
                norm.running_mean = (1.0 - m) * norm.running_mean + m * mu
                norm.running_var = (1.0 - m) * norm.running_var + m * var
        x_hat = centered / scale
        normed.append((norm.gamma.values, x_hat, scale))
        x = np.maximum(norm.gamma.values * x_hat + norm.beta.values, 0.0)
    inputs.append(x)
    return x @ bk.dense[-1].weight.values + bk.dense[-1].bias.values, inputs, normed


def embed(bk: Backbone, images: np.ndarray, mode: str) -> np.ndarray:
    """n x D embeddings of (n, C, H, W) images or n flat rows, in numpy with `Backbone.forward`'s
    expressions. Batch norms use the running statistics in "eval" mode and the batch's own in
    "transductive" and "train" mode; "train" also moves the running statistics towards the batch's."""
    return _forward(bk, images_to_batch(images, bk.spec.input_dim), mode)[0]


def classify_cosine(query_emb: np.ndarray, protos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax of cosine similarity per query; ties go to the lowest class."""
    scores = _normalized_rows(query_emb) @ np.ascontiguousarray(_normalized_rows(protos).T)
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


def _coordinate_copy(bk: Backbone, basis: np.ndarray):
    """A backbone on `bk`'s arrays whose first layer takes coordinates over the orthonormal columns of
    `basis`, its weight Q^T W, and a function that returns `bk` moved by the copy's first-layer change so far,
    W + Q (C_t - C_0), with the copy's other arrays."""
    weight, *rest = (a for _, a in bk._arrays())
    coords_0 = basis.T @ weight
    work = Backbone(replace(bk.spec, input_dim=basis.shape[1]), [coords_0, *rest])

    def mapped_back() -> Backbone:
        coords_t, *trained = (a for _, a in work._arrays())
        return Backbone(bk.spec, [weight + basis @ (coords_t - coords_0), *trained])

    return work, mapped_back


@_at_compute_blas_threads
def finetune(bk: Backbone, ep: Episode, hp: HyperParams) -> FinetuneState:
    """Adapt `bk` to the episode's support and pseudo queries, leaving `bk`
    unchanged; the real query set is locked for the duration.

    A coordinate copy trains: a backbone over a thin-QR basis of the
    stacked images' row space, built on `bk`'s own arrays, whose
    first-layer change is mapped back once after the last step.
    """
    if ep.pseudo_images is None:
        raise ContractError("episode has no pseudo query set; run build_pseudo_query first")
    state = FinetuneState(backbone=bk, head=None)
    params: list[DiffTensor] = []  # filled by steps() once the coordinate copy is built

    def steps():
        # the images are fixed for the whole episode: stack them once, and
        # train a copy whose first layer takes coordinates in their row space
        support = images_to_batch(ep.support_images, bk.spec.input_dim)
        pseudo = images_to_batch(ep.pseudo_images, bk.spec.input_dim)
        basis, _ = np.linalg.qr(np.concatenate([support, pseudo]).T)  # D x min(B, D), orthonormal
        work, mapped_back = _coordinate_copy(bk, basis)
        support_batch, pseudo_batch = dc.constant(support @ basis), dc.constant(pseudo @ basis)
        support_labels, pseudo_labels = ep.support_labels, ep.pseudo_labels
        # head starts at the normalized support prototypes, a forward off the tape;
        # transductive mode keeps the init free of running-stat side effects
        init_emb = embed(work, support_batch.values, "transductive")
        init_protos = compute_prototypes(dc.constant(init_emb), support_labels, ep.n_way)
        state.head = head = dc.param(_normalized_rows(init_protos.values))
        params.extend(work.parameters() + [head])

        for epoch in range(hp.finetune_epochs):
            support_emb = work.forward(support_batch)
            pseudo_emb = work.forward(pseudo_batch)
            yield "fine-tuning", f"epoch {epoch}", finetune_objective(
                support_emb, support_labels, pseudo_emb, pseudo_labels, head, hp
            )
            head.values = _normalized_rows(head.values)
        state.backbone = mapped_back()  # the first layer's whole change, once; zero after zero epochs

    with ep.query_guard():
        _train(params, steps(), hp.learning_rate, hp.momentum, state.loss_history,
               lambda: [*state.backbone._arrays(), ("head", state.head.values)])
    return state


@_at_compute_blas_threads
def infer(state: FinetuneState, ep: Episode, hp: HyperParams) -> float:
    """Accuracy on the real query set with the adapted backbone.

    Prototypes are recomputed from the support set in eval mode; queries
    are embedded transductively when hp.transductive, else in eval mode.
    Weights large enough to overflow the forward pass raise
    DivergenceError instead of scoring NaN rows as class 0.
    """
    with np.errstate(all="ignore"):
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(dc.constant(support_emb), ep.support_labels, ep.n_way).values
        query_mode = "transductive" if hp.transductive else "eval"
        query_emb = embed(state.backbone, ep.query_images, query_mode)
        preds, scores = classify_cosine(query_emb, protos)
    if not np.isfinite(scores).all():
        raise DivergenceError("inference: a query score is not finite")
    return float(np.mean(preds == ep.query_labels))


def pristine_state(bk: Backbone) -> FinetuneState:
    """Un-adapted state for the no-fine-tuning arm; it wraps `bk` itself."""
    return FinetuneState(backbone=bk, head=None)


@_at_compute_blas_threads
def meta_train(
    bk: Backbone,
    ds: LabeledDataset,
    shape: EpisodeShape = EpisodeShape(),
    params: MetaParams = MetaParams(),
    *,
    rng: RngStream,
    on_epoch=None,
) -> Backbone:
    """Episodic training on prototype cross-entropy; returns a trained clone,
    or a plain one after zero epochs.

    Desk-scale stand-in for large-scale meta-training; `on_epoch(epoch,
    mean_loss)` is invoked after each epoch when given. Each task is an
    `Episode` from `sample_episode`, whose support and query rows pick its
    batches out of the dataset's n x D pixel rows, a view of its buffer, and
    whose labels it trains on; no image is gathered. When 2n <= D, the first
    layer trains in their row space, on the coordinates R^T of the rows' thin QR.
    """
    if not params.epochs:
        return bk.clone()
    rows = images_to_batch(ds.pixels, bk.spec.input_dim)
    if 2 * len(rows) <= bk.spec.input_dim:
        basis, upper = np.linalg.qr(rows.T)  # rows = R^T Q^T, so rows Q = R^T
        (work, mapped_back), rows = _coordinate_copy(bk, basis), np.ascontiguousarray(upper.T)
    else:
        work, mapped_back = bk.clone(), None
    history: list[float] = []
    trained = work

    def steps():
        nonlocal trained
        for epoch in range(params.epochs):
            for task in range(params.episodes_per_epoch):
                ep = sample_episode(ds, shape, rng.child(epoch * params.episodes_per_epoch + task))
                support_emb = work.train_forward(rows[ep.support_rows])
                query_emb = work.train_forward(rows[ep.query_rows])
                protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
                loss = proto_xent(query_emb, ep.query_labels, protos)
                yield f"meta-training epoch {epoch}", f"task {task}", loss
            if on_epoch is not None:
                on_epoch(epoch, float(np.mean(history[-params.episodes_per_epoch:])))
        if mapped_back is not None:
            trained = mapped_back()

    _train(work.parameters(), steps(), params.learning_rate, params.momentum, history, lambda: trained._arrays())
    return trained
