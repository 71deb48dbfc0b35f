"""Pixel operations and the stochastic pseudo-query augmentation pipeline.

An image is a channels-first (C, H, W) float64 array with values in
[0, 1]; `LabeledDataset` checks its class arrays once, and every
operation here maps an image to an image of the same shape and range, so
no image is checked again. An op returns a new array or a view of its
input; none writes into its input. The pipeline applies, in this fixed
order: gamma correction, random erasing, channel shuffle, flip, rotation.
Each op fires independently with its fixed probability, and one Bernoulli
draw per op is consumed in pipeline order even when the op is skipped, so
a given (seed, key) stream always yields the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .rng import RngStream


# The fixed pseudo-query recipe: each op's firing probability and the
# ranges its parameters are drawn from.
P_GAMMA = 0.3
P_ERASE = 0.5
P_SHUFFLE = 0.3
P_FLIP = 0.5
P_ROTATE = 0.5
GAMMA_RANGE = (1.0, 1.5)
ERASE_FRACTION_RANGE = (0.2, 0.5)
ROTATION_CHOICES = (90, 180, 270)


# ---------------------------------------------------------------------------
# deterministic pixel ops
# ---------------------------------------------------------------------------

def gamma_correct(img: np.ndarray, gamma: float) -> np.ndarray:
    """Raise every pixel to the given power. gamma >= 1 darkens midtones."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    return np.clip(np.power(img, gamma), 0.0, 1.0)


def channel_shuffle(img: np.ndarray, perm) -> np.ndarray:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(img))):
        raise ParameterError(f"{perm} is not a permutation of {len(img)} channels")
    return img[list(perm)]


def flip(img: np.ndarray, axis: str) -> np.ndarray:
    if axis == "horizontal":
        return img[:, :, ::-1]
    if axis == "vertical":
        return img[:, ::-1, :]
    raise ParameterError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def rotate(img: np.ndarray, degrees: int) -> np.ndarray:
    """Lossless rotation by index remapping, counter-clockwise."""
    if degrees not in (90, 180, 270):
        raise ParameterError(f"degrees must be 90, 180 or 270, got {degrees}")
    _, height, width = img.shape
    if degrees in (90, 270) and height != width:
        raise ShapeError(f"{degrees} degree rotation needs a square image, got {height}x{width}")
    return np.rot90(img, k=degrees // 90, axes=(1, 2))


def _draw_erase_box(rng: np.random.Generator, height: int, width: int):
    lo, hi = ERASE_FRACTION_RANGE
    block_h = min(height, max(1, int(round(rng.uniform(lo, hi) * height))))
    block_w = min(width, max(1, int(round(rng.uniform(lo, hi) * width))))
    top = int(rng.integers(0, height - block_h + 1))
    left = int(rng.integers(0, width - block_w + 1))
    return top, left, block_h, block_w


def erase_block(img: np.ndarray, top: int, left: int, block_h: int, block_w: int) -> np.ndarray:
    """Replace the block with its own per-channel mean."""
    px = img.copy()
    block = px[:, top : top + block_h, left : left + block_w]
    block[...] = np.clip(block.mean(axis=(1, 2), keepdims=True), 0.0, 1.0)
    return px


# ---------------------------------------------------------------------------
# stochastic pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentationPlan:
    """Fully drawn parameters for one pipeline pass; None means skipped."""

    gamma: float | None = None
    erase_box: tuple[int, int, int, int] | None = None
    channel_perm: tuple[int, ...] | None = None
    flip_axis: str | None = None
    rotate_degrees: int | None = None


def plan_augmentation(rng: RngStream, channels: int, height: int, width: int) -> AugmentationPlan:
    """Draw one pipeline plan. Draw order is part of the stream contract."""
    gen = rng.generator()

    gamma = None
    if gen.random() < P_GAMMA:
        gamma = float(gen.uniform(*GAMMA_RANGE))

    erase_box = None
    if gen.random() < P_ERASE:
        erase_box = _draw_erase_box(gen, height, width)

    channel_perm = None
    if gen.random() < P_SHUFFLE:
        channel_perm = tuple(int(i) for i in gen.permutation(channels))

    flip_axis = None
    if gen.random() < P_FLIP:
        flip_axis = "horizontal" if gen.random() < 0.5 else "vertical"

    rotate_degrees = None
    if gen.random() < P_ROTATE:
        rotate_degrees = int(ROTATION_CHOICES[gen.integers(0, len(ROTATION_CHOICES))])

    return AugmentationPlan(gamma, erase_box, channel_perm, flip_axis, rotate_degrees)


def apply_plan(img: np.ndarray, plan: AugmentationPlan) -> np.ndarray:
    if plan.gamma is not None:
        img = gamma_correct(img, plan.gamma)
    if plan.erase_box is not None:
        img = erase_block(img, *plan.erase_box)
    if plan.channel_perm is not None:
        img = channel_shuffle(img, plan.channel_perm)
    if plan.flip_axis is not None:
        img = flip(img, plan.flip_axis)
    if plan.rotate_degrees is not None:
        img = rotate(img, plan.rotate_degrees)
    return img


def augment(img: np.ndarray, rng: RngStream) -> np.ndarray:
    """One stochastic pipeline pass over a (C, H, W) image, bit-determined by (img, seed, key)."""
    return apply_plan(img, plan_augmentation(rng, *img.shape))
