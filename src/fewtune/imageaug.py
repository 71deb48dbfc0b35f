"""Pixel operations and the stochastic pseudo-query augmentation pipeline.

Images are channels-first float64 arrays with values in [0, 1]; every
operation preserves both the value range and the image shape. The
pipeline applies, in this fixed order: gamma correction, random erasing,
channel shuffle, flip, rotation. Each op fires independently with its
fixed probability, and one Bernoulli draw per op is consumed in
pipeline order even when the op is skipped, so a given (seed, key)
stream always yields the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .rng import RngStream


@dataclass(frozen=True)
class Image:
    """Channels-first pixel array, float64 in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3:
            raise ShapeError(f"expected (channels, height, width), got shape {px.shape}")
        if px.size == 0:
            raise ShapeError("image has zero extent")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ParameterError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]

    @property
    def is_square(self) -> bool:
        return self.height == self.width


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

def gamma_correct(img: Image, gamma: float) -> Image:
    """Raise every pixel to the given power. gamma >= 1 darkens midtones."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    return Image(np.clip(np.power(img.pixels, gamma), 0.0, 1.0))


def channel_shuffle(img: Image, perm) -> Image:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(img.channels)):
        raise ParameterError(f"{perm} is not a permutation of {img.channels} channels")
    return Image(img.pixels[list(perm)].copy())


def flip(img: Image, axis: str) -> Image:
    if axis == "horizontal":
        return Image(img.pixels[:, :, ::-1].copy())
    if axis == "vertical":
        return Image(img.pixels[:, ::-1, :].copy())
    raise ParameterError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def rotate(img: Image, degrees: int) -> Image:
    """Lossless rotation by index remapping, counter-clockwise."""
    if degrees not in (90, 180, 270):
        raise ParameterError(f"degrees must be 90, 180 or 270, got {degrees}")
    if degrees in (90, 270) and not img.is_square:
        raise ShapeError(
            f"{degrees} degree rotation needs a square image, got {img.height}x{img.width}"
        )
    k = degrees // 90
    return Image(np.rot90(img.pixels, k=k, axes=(1, 2)).copy())


def _draw_erase_box(rng: np.random.Generator, height: int, width: int):
    lo, hi = ERASE_FRACTION_RANGE
    block_h = min(height, max(1, int(round(rng.uniform(lo, hi) * height))))
    block_w = min(width, max(1, int(round(rng.uniform(lo, hi) * width))))
    top = int(rng.integers(0, height - block_h + 1))
    left = int(rng.integers(0, width - block_w + 1))
    return top, left, block_h, block_w


def erase_block(img: Image, top: int, left: int, block_h: int, block_w: int) -> Image:
    """Replace the block with its own per-channel mean."""
    px = img.pixels.copy()
    block = px[:, top : top + block_h, left : left + block_w]
    means = block.mean(axis=(1, 2), keepdims=True)
    px[:, top : top + block_h, left : left + block_w] = np.clip(means, 0.0, 1.0)
    return Image(px)


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

    def applied_ops(self) -> tuple[str, ...]:
        names = ("gamma", "erase", "shuffle", "flip", "rotate")
        flags = (self.gamma, self.erase_box, self.channel_perm, self.flip_axis, self.rotate_degrees)
        return tuple(n for n, f in zip(names, flags) if f is not None)


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


def apply_plan(img: Image, plan: AugmentationPlan) -> Image:
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


def augment(img: Image, rng: RngStream) -> Image:
    """One stochastic pipeline pass, bit-determined by (img, seed, key)."""
    plan = plan_augmentation(rng, img.channels, img.height, img.width)
    return apply_plan(img, plan)
