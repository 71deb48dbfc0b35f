"""Checks shared by the test modules: the finite-difference gradient check
and the names of the ops an augmentation plan applies."""

import numpy as np

import fewtune.diffcore as dc
from fewtune.errors import ParameterError
from fewtune.imageaug import AugmentationPlan


def gradient_check(f, x: dc.DiffTensor, h: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| / max(1, |analytic|).
    `f` must map x to a scalar DiffTensor without mutating x.
    """
    if h <= 0:
        raise ParameterError(f"step h must be positive, got {h}")
    x._grad = None
    out = f(x)
    dc.backward(out)
    analytic = x.grad.copy()
    x._grad = None

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


def applied_ops(plan: AugmentationPlan) -> tuple[str, ...]:
    """The names of the ops `plan` applies, in pipeline order."""
    names = ("gamma", "erase", "shuffle", "flip", "rotate")
    flags = (plan.gamma, plan.erase_box, plan.channel_perm, plan.flip_axis, plan.rotate_degrees)
    return tuple(n for n, f in zip(names, flags) if f is not None)
