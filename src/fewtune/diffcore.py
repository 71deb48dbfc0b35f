"""Minimal reverse-mode differentiation engine.

Dense float64 tensors with a dynamic tape: every op that touches a
tensor requiring gradients records its parents and a backward closure on
the output. `backward(loss)` materializes the reachable graph in
topological order and pushes adjoints through it in reverse, so each
node is visited exactly once and repeated backward calls accumulate into
`.grad` until the grads are zeroed.

Each op is one module function. `DiffTensor` is a plain record of values,
gradient, flags and tape links: it has no operators and no op methods, so
every node a loss adds to the tape is spelled as a call, and a scalar or
an array enters only through `constant`.

Gradients cost only what is needed: `.grad` is allocated when the first
adjoint arrives (a tensor no gradient reached reads as zeros), the
binary ops compute no gradient for an operand that does not require one,
such as the constant image batch entering the first dense layer, and
`relu` passes on no adjoint when every unit it gates is off, so a hinge
with no active term costs no backward pass through the branch that feeds
it. `sgd_step` updates each momentum buffer in place.

The Python cost per node is kept small without changing the tape: an op
output that is already a C-contiguous float64 array is stored as it is,
`tensor_sum` and `tensor_mean` pass back a read-only broadcast view of
their adjoint instead of a copy (adjoints are never written to), and
`tensor_mean` is numpy's own sum and divide without `np.mean`'s wrapper,
which gives the same bits.

Batch normalization reads `BN_MOMENTUM` and `BN_EPS` directly; a
`BatchNormState` holds only the affine parameters and running statistics.

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

BN_MOMENTUM = 0.1  # weight of the newest batch in the running statistics
BN_EPS = 1e-5  # added to the variance before the square root
NORM_FLOOR = 1e-12  # smallest row norm a normalization divides by


_F64 = np.dtype(np.float64)


def _as_f64(values) -> Array:
    # most values are fresh op outputs, already in the form asked for
    if type(values) is np.ndarray and values.dtype is _F64 and values.flags.c_contiguous:
        return values
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim and not arr.flags.c_contiguous:
        # contiguity matters: a finite-difference check perturbs `values` through a flat view
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
    """Dense array plus an accumulated gradient of identical shape.

    The gradient is held as None until a backward pass reaches the
    tensor; reading `.grad` then gives zeros of the value's shape. A
    stored gradient may share memory with the adjoint of another tensor,
    so it is replaced, never modified in place.
    """

    __slots__ = ("values", "_grad", "requires_grad", "_parents", "_backward", "_velocity")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_f64(values)
        self._grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[DiffTensor, ...] = ()
        self._backward: Callable[[Array], Sequence[Array | None]] | None = None
        self._velocity: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> Array:
        return np.zeros_like(self.values) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value: Array) -> None:
        self._grad = value

    def __repr__(self):
        return f"DiffTensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> DiffTensor:
    return DiffTensor(values, requires_grad=False)


def param(values) -> DiffTensor:
    return DiffTensor(values, requires_grad=True)


def _node(values: Array, parents: tuple[DiffTensor, ...], backward_fn) -> DiffTensor:
    out = DiffTensor(values)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
            break
    return out


class ComputeGraph:
    """Topologically ordered record of the ops reachable from a root."""

    def __init__(self, nodes: list[DiffTensor]):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: DiffTensor) -> "ComputeGraph":
        nodes: list[DiffTensor] = []
        visited: set[int] = set()
        # iterative post-order DFS; parents land before their consumers. The
        # stack holds (tensor, expanded) pairs flat, the flag on top.
        stack: list = [root, False]
        push, pop, visit = stack.append, stack.pop, visited.add
        while stack:
            expanded = pop()
            tensor = pop()
            if expanded:
                nodes.append(tensor)
                continue
            key = id(tensor)
            if key in visited:
                continue
            visit(key)
            push(tensor)
            push(True)
            for parent in tensor._parents:
                push(parent)
                push(False)
        return cls(nodes)

    def run_backward(self, root: DiffTensor) -> None:
        adjoint: dict[int, Array] = {id(root): np.ones_like(root.values)}
        adjoint_of = adjoint.get
        for tensor in reversed(self.nodes):
            grad_out = adjoint_of(id(tensor))
            if grad_out is None:
                continue
            if tensor.requires_grad:
                held = tensor._grad
                tensor._grad = grad_out if held is None else held + grad_out
            backward_fn = tensor._backward
            if backward_fn is None:
                continue
            for parent, grad_in in zip(tensor._parents, backward_fn(grad_out)):
                if grad_in is None or not parent.requires_grad:
                    continue
                key = id(parent)
                held = adjoint_of(key)
                adjoint[key] = grad_in if held is None else held + grad_in


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for the whole graph."""
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    ComputeGraph.from_root(loss).run_backward(loss)


def zero_grads(tensors: Iterable[DiffTensor]) -> None:
    for t in tensors:
        t._grad = None


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

# The backward closures of the binary ops return None for an operand that
# does not require a gradient; run_backward skips it.

def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values + b.values,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        ),
    )


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values - b.values,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        ),
    )


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values * b.values,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.values, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.values, b.shape) if b.requires_grad else None,
        ),
    )


def div(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _node(
        a.values / b.values,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.values, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.values / (b.values * b.values), b.shape) if b.requires_grad else None,
        ),
    )


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    return _node(
        a.values @ b.values,
        (a, b),
        lambda g: (
            g @ b.values.T if a.requires_grad else None,
            a.values.T @ g if b.requires_grad else None,
        ),
    )


def transpose(a: DiffTensor) -> DiffTensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _node(a.values.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: DiffTensor, shape) -> DiffTensor:
    original = a.shape
    return _node(a.values.reshape(shape), (a,), lambda g: (g.reshape(original),))


# The reductions pass back a read-only broadcast view of their adjoint; an
# adjoint is never written to, so it need not be copied.

def tensor_sum(a: DiffTensor, axis=None, keepdims: bool = False) -> DiffTensor:
    def backward_fn(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.shape),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape),)

    return _node(np.sum(a.values, axis=axis, keepdims=keepdims), (a,), backward_fn)


def tensor_mean(a: DiffTensor, axis=None, keepdims: bool = False) -> DiffTensor:
    count = a.values.size if axis is None else a.shape[axis]

    def backward_fn(g: Array):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded / count, a.shape),)

    # np.mean's own sum and divide, without its Python wrapper: the same bits
    return _node(np.add.reduce(a.values, axis, keepdims=keepdims) / count, (a,), backward_fn)


def relu(a: DiffTensor) -> DiffTensor:
    # gradient at exactly 0 is defined as 0. An all-zero adjoint is dropped,
    # which can only flip the sign of a zero in an upstream .grad; the momentum
    # buffer starts at +0, so no update differs. NaN and inf still pass (any()).
    def backward_fn(g: Array):
        grad = g * (a.values > 0.0)
        return (grad if grad.any() else None,)

    return _node(np.maximum(a.values, 0.0), (a,), backward_fn)


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

def l2_normalize(x: DiffTensor) -> DiffTensor:
    """Divide each row by max(its L2 norm, NORM_FLOOR)."""
    norms = sqrt(tensor_sum(mul(x, x), axis=1, keepdims=True))
    return div(x, clamp_min(norms, NORM_FLOOR))


def cosine_matrix(q: DiffTensor, p: DiffTensor) -> DiffTensor:
    """Pairwise cosine similarities between rows of q (BxD) and p (NxD)."""
    if q.shape[1] != p.shape[1]:
        raise ShapeError(f"embedding dims differ: {q.shape} vs {p.shape}")
    return matmul(l2_normalize(q), transpose(l2_normalize(p)))


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

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        return cls(
            gamma=param(np.ones((1, dim))),
            beta=param(np.zeros((1, dim))),
            running_mean=np.zeros((1, dim)),
            running_var=np.ones((1, dim)),
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
        x_hat = div(centered, sqrt(add(var, constant(BN_EPS))))
        if mode == "train":
            m = BN_MOMENTUM
            state.running_mean = (1.0 - m) * state.running_mean + m * mu.values
            state.running_var = (1.0 - m) * state.running_var + m * var.values
    else:
        centered = sub(x, constant(state.running_mean))
        x_hat = div(centered, constant(np.sqrt(state.running_var + BN_EPS)))
    return add(mul(state.gamma, x_hat), state.beta)


# ---------------------------------------------------------------------------
# optimizer and verification
# ---------------------------------------------------------------------------

def sgd_step(params: Iterable[DiffTensor], learning_rate: float, momentum: float) -> None:
    """Momentum update v <- mu*v + g; theta <- theta - lr*v.

    The velocity is updated in place, and the new values are computed in
    the one fresh buffer that then replaces `values`: the old array is
    never written to, because `param(arr)` shares memory with the caller's
    `arr`.
    """
    for p in params:
        v = p._velocity
        if v is None:
            v = p._velocity = np.zeros_like(p.values)
        v *= momentum
        v += p.grad
        updated = learning_rate * v
        np.subtract(p.values, updated, out=updated)
        p.values = updated


def check_sgd(learning_rate: float, momentum: float) -> None:
    """The checks `sgd_step` leaves to its callers; each message starts with the argument's name."""
    if not 0 < learning_rate < np.inf:
        raise ParameterError(f"learning_rate must be positive and finite, got {learning_rate}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
