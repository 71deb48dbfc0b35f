"""Checks shared by the test modules: the finite-difference gradient check
and the ops one augmentation pass applies."""

import numpy as np

import fewtune.diffcore as dc
from fewtune import imageaug
from fewtune.errors import ParameterError


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


# each pipeline op's name -> the imageaug function that applies it, in pipeline order
PIPELINE = {"gamma": "gamma_correct", "erase": "erase_block", "shuffle": "channel_shuffle",
            "flip": "flip", "rotate": "rotate"}


def applied_ops(img: np.ndarray, rng) -> list[tuple[str, tuple]]:
    """The ops the real `augment(img, rng)` applies, in order, each as its
    name and its arguments after the image. The five ops are swapped for
    recorders that call through, and restored afterwards."""
    calls = []
    originals = {name: getattr(imageaug, fn) for name, fn in PIPELINE.items()}

    def recorder(name, op):
        def record(image, *args):
            calls.append((name, args))
            return op(image, *args)
        return record

    try:
        for name, op in originals.items():
            setattr(imageaug, PIPELINE[name], recorder(name, op))
        imageaug.augment(img, rng)
    finally:
        for name, op in originals.items():
            setattr(imageaug, PIPELINE[name], op)
    return calls
