"""Pixel operations and the stochastic pseudo-query augmentation pipeline.

An image is a channels-first (C, H, W) float64 array with values in
[0, 1]; `LabeledDataset` checks its class arrays once, and every
operation here maps an image to an image of the same shape and range, so
no image is checked again. An op returns a new array or a view of its
input; none writes into its input. The pipeline applies, in this fixed
order: gamma correction, random erasing, channel shuffle, flip, rotation.
Each op fires independently with its fixed probability, and one Bernoulli
draw per op is consumed in pipeline order even when the op is skipped; an
op that fires draws its parameters right after its Bernoulli. So a given
(seed, key) stream always applies the same ops with the same parameters.
"""

from __future__ import annotations

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

def augment(img: np.ndarray, rng: RngStream) -> np.ndarray:
    """One stochastic pipeline pass over a (C, H, W) image, bit-determined by
    (img, seed, key). Each op's Bernoulli is drawn in pipeline order, and its
    parameters right after it when it fires; no draw reads a pixel."""
    gen = rng.generator()
    channels, height, width = img.shape
    if gen.random() < P_GAMMA:
        img = gamma_correct(img, float(gen.uniform(*GAMMA_RANGE)))
    if gen.random() < P_ERASE:
        img = erase_block(img, *_draw_erase_box(gen, height, width))
    if gen.random() < P_SHUFFLE:
        img = channel_shuffle(img, gen.permutation(channels))
    if gen.random() < P_FLIP:
        img = flip(img, "horizontal" if gen.random() < 0.5 else "vertical")
    if gen.random() < P_ROTATE:
        img = rotate(img, int(ROTATION_CHOICES[gen.integers(0, len(ROTATION_CHOICES))]))
    return img
