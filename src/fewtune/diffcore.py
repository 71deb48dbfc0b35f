"""Minimal reverse-mode differentiation engine.

Dense float64 tensors with a dynamic tape: every op that touches a
tensor requiring gradients records its parents and a backward closure on
the output. `backward(loss)` materializes the reachable graph in
topological order and pushes adjoints through it in reverse, so each
node is visited exactly once and repeated backward calls accumulate into
`.grad` until the grads are zeroed.

The op set is intentionally small: just enough to express dense layers,
batch normalization, cosine / Euclidean metrics, and the losses built on
them. No convolutions, no mixed precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateBatchError, ParameterError, ShapeError

Array = np.ndarray

MODES = ("train", "eval", "transductive")


def _as_f64(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim and not arr.flags.c_contiguous:
        # contiguity matters: gradient_check perturbs through a flat view
        arr = np.ascontiguousarray(arr)
    return arr


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class DiffTensor:
    """Dense array plus an accumulated gradient of identical shape."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_velocity")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_f64(values)
        self.grad = np.zeros_like(self.values)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[DiffTensor, ...] = ()
        self._backward: Callable[[Array], Sequence[Array | None]] | None = None
        self._velocity: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.values)

    def __repr__(self):
        return f"DiffTensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, constant(-1.0))

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def relu(self):
        return relu(self)

    def clamp_min(self, floor: float):
        return clamp_min(self, floor)


def constant(values) -> DiffTensor:
    return DiffTensor(values, requires_grad=False)


def param(values) -> DiffTensor:
    return DiffTensor(values, requires_grad=True)


def _wrap(x) -> DiffTensor:
    return x if isinstance(x, DiffTensor) else constant(x)


def _node(values: Array, parents: tuple[DiffTensor, ...], backward_fn) -> DiffTensor:
    out = DiffTensor(values, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    return out


class ComputeGraph:
    """Topologically ordered record of the ops reachable from a root."""

    def __init__(self, nodes: list[DiffTensor]):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: DiffTensor) -> "ComputeGraph":
        nodes: list[DiffTensor] = []
        visited: set[int] = set()
        # iterative post-order DFS; parents land before their consumers
        stack: list[tuple[DiffTensor, bool]] = [(root, False)]
        while stack:
            tensor, expanded = stack.pop()
            if expanded:
                nodes.append(tensor)
                continue
            if id(tensor) in visited:
                continue
            visited.add(id(tensor))
            stack.append((tensor, True))
            for parent in tensor._parents:
                stack.append((parent, False))
        return cls(nodes)

    def run_backward(self, root: DiffTensor) -> None:
        adjoint: dict[int, Array] = {id(root): np.ones_like(root.values)}
        for tensor in reversed(self.nodes):
            grad_out = adjoint.get(id(tensor))
            if grad_out is None:
                continue
            if tensor.requires_grad:
                tensor.grad = tensor.grad + grad_out
            if tensor._backward is None:
                continue
            for parent, grad_in in zip(tensor._parents, tensor._backward(grad_out)):
                if grad_in is None or not parent.requires_grad:
                    continue
                held = adjoint.get(id(parent))
                adjoint[id(parent)] = grad_in if held is None else held + grad_in

    def zero_grads(self) -> None:
        for tensor in self.nodes:
            tensor.zero_grad()
        self.nodes = []


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for the whole graph."""
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    ComputeGraph.from_root(loss).run_backward(loss)


def zero_grads(tensors: Iterable[DiffTensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values + b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values - b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values * b.values,
        (a, b),
        lambda g: (_unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)),
    )


def div(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values / b.values,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.values, a.shape),
            _unbroadcast(-g * a.values / (b.values * b.values), b.shape),
        ),
    )


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    return _node(
        a.values @ b.values,
        (a, b),
        lambda g: (g @ b.values.T, a.values.T @ g),
    )


def transpose(a: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _node(a.values.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: DiffTensor, shape) -> DiffTensor:
    original = a.shape
    return _node(a.values.reshape(shape), (a,), lambda g: (g.reshape(original),))


def tensor_sum(a: DiffTensor, axis=None, keepdims: bool = False) -> DiffTensor:
    def backward_fn(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _node(np.sum(a.values, axis=axis, keepdims=keepdims), (a,), backward_fn)


def tensor_mean(a: DiffTensor, axis=None, keepdims: bool = False) -> DiffTensor:
    count = a.values.size if axis is None else a.shape[axis]

    def backward_fn(g: Array):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded / count, a.shape).copy(),)

    return _node(np.mean(a.values, axis=axis, keepdims=keepdims), (a,), backward_fn)


def relu(a: DiffTensor) -> DiffTensor:
    # gradient at exactly 0 is defined as 0
    return _node(np.maximum(a.values, 0.0), (a,), lambda g: (g * (a.values > 0.0),))


def clamp_min(a: DiffTensor, floor: float) -> DiffTensor:
    # like relu, the boundary point gets zero gradient
    return _node(np.maximum(a.values, floor), (a,), lambda g: (g * (a.values > floor),))


def exp(a: DiffTensor) -> DiffTensor:
    out_values = np.exp(a.values)
    return _node(out_values, (a,), lambda g: (g * out_values,))


def log(a: DiffTensor) -> DiffTensor:
    return _node(np.log(a.values), (a,), lambda g: (g / a.values,))


def sqrt(a: DiffTensor) -> DiffTensor:
    out_values = np.sqrt(a.values)

    def backward_fn(g: Array):
        # derivative at 0 defined as 0 so zero-distance triplet anchors
        # do not poison the gradient with infinities
        safe = np.where(a.values > 0.0, out_values, 1.0)
        return (np.where(a.values > 0.0, g / (2.0 * safe), 0.0),)

    return _node(out_values, (a,), backward_fn)


# ---------------------------------------------------------------------------
# composite ops
# ---------------------------------------------------------------------------

def l2_normalize(x: DiffTensor, epsilon: float = 1e-12) -> DiffTensor:
    """Divide each row by max(its L2 norm, epsilon)."""
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    norms = tensor_sum(mul(x, x), axis=1, keepdims=True).sqrt()
    return div(x, norms.clamp_min(epsilon))


def cosine_matrix(q: DiffTensor, p: DiffTensor, epsilon: float = 1e-12) -> DiffTensor:
    """Pairwise cosine similarities between rows of q (BxD) and p (NxD)."""
    if q.shape[1] != p.shape[1]:
        raise ShapeError(f"embedding dims differ: {q.shape} vs {p.shape}")
    return matmul(l2_normalize(q, epsilon), transpose(l2_normalize(p, epsilon)))


def squared_euclidean_matrix(q: DiffTensor, p: DiffTensor) -> DiffTensor:
    """Pairwise squared Euclidean distances between rows of q and p."""
    if q.shape[1] != p.shape[1]:
        raise ShapeError(f"embedding dims differ: {q.shape} vs {p.shape}")
    diff = sub(reshape(q, (q.shape[0], 1, q.shape[1])), reshape(p, (1, p.shape[0], p.shape[1])))
    return tensor_sum(mul(diff, diff), axis=2)


@dataclass
class BatchNormState:
    """Per-feature affine parameters plus running statistics."""

    gamma: DiffTensor
    beta: DiffTensor
    running_mean: Array
    running_var: Array
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, dim: int, momentum: float = 0.1, eps: float = 1e-5) -> "BatchNormState":
        return cls(
            gamma=param(np.ones((1, dim))),
            beta=param(np.zeros((1, dim))),
            running_mean=np.zeros((1, dim)),
            running_var=np.ones((1, dim)),
            momentum=momentum,
            eps=eps,
        )

    def clone(self) -> "BatchNormState":
        return BatchNormState(
            gamma=param(self.gamma.values.copy()),
            beta=param(self.beta.values.copy()),
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
            momentum=self.momentum,
            eps=self.eps,
        )


def batch_norm(x: DiffTensor, state: BatchNormState, mode: str) -> DiffTensor:
    """Normalize rows of x (BxD) per feature.

    train: batch statistics, running stats updated.
    eval: running statistics only.
    transductive: batch statistics of the inference batch, no update.
    Variance is the biased (1/B) estimator throughout.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown batch_norm mode {mode!r}")
    if mode in ("train", "transductive"):
        if x.shape[0] < 2:
            raise DegenerateBatchError(
                f"batch statistics need at least 2 rows, got {x.shape[0]}"
            )
        mu = tensor_mean(x, axis=0, keepdims=True)
        centered = sub(x, mu)
        var = tensor_mean(mul(centered, centered), axis=0, keepdims=True)
        x_hat = div(centered, add(var, constant(state.eps)).sqrt())
        if mode == "train":
            m = state.momentum
            state.running_mean = (1.0 - m) * state.running_mean + m * mu.values
            state.running_var = (1.0 - m) * state.running_var + m * var.values
    else:
        centered = sub(x, constant(state.running_mean))
        x_hat = div(centered, constant(np.sqrt(state.running_var + state.eps)))
    return add(mul(state.gamma, x_hat), state.beta)


# ---------------------------------------------------------------------------
# optimizer and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    momentum: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_step(params: Iterable[DiffTensor], cfg: SgdConfig) -> None:
    """Momentum update v <- mu*v + g; theta <- theta - lr*v, in place."""
    for p in params:
        if p._velocity is None:
            p._velocity = np.zeros_like(p.values)
        p._velocity = cfg.momentum * p._velocity + p.grad
        p.values = p.values - cfg.learning_rate * p._velocity


def gradient_check(f, x: DiffTensor, h: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| / max(1, |analytic|).
    `f` must map x to a scalar DiffTensor without mutating x.
    """
    if h <= 0:
        raise ParameterError(f"step h must be positive, got {h}")
    x.zero_grad()
    out = f(x)
    backward(out)
    analytic = x.grad.copy()
    x.zero_grad()

    numeric = np.zeros_like(x.values)
    flat = x.values.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        hi = float(f(x).values)
        flat[i] = original - h
        lo = float(f(x).values)
        flat[i] = original
        num_flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
