"""Parametric synthetic datasets for desk-scale cross-domain experiments.

Each class is a colored sinusoidal grating whose orientation and
frequency are fixed by the class's pattern id; per-image phase, jitter
and noise come from the stream. A domain spec shifts the marginal
distribution (palette rotation about the gray axis, background level,
contrast, noise law) and can offset the pattern ids so two domains carry
disjoint class identities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .imageaug import Image
from .episodes import LabeledDataset
from .rng import RngStream

GOLDEN_ANGLE = 2.399963229728653
# cap on the bytes generate_synthetic holds: n_classes x images_per_class x 3 x
# image_size^2 float64 pixels, plus _pattern's two image_size^2 float64 meshgrids
MAX_DATASET_BYTES = 1 << 30


@dataclass(frozen=True)
class DomainSpec:
    tag: str = "source"
    n_classes: int = 8
    images_per_class: int = 40
    image_size: int = 16
    pattern_offset: int = 0
    orientation_spread: float = 1.0
    palette_angle: float = 0.0
    background: float = 0.15
    contrast: float = 0.7
    noise_sigma: float = 0.02

    def __post_init__(self):
        # each message starts with the field name, which the CLI swaps for its flag
        if self.n_classes < 2:
            raise ParameterError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.images_per_class < 1:
            raise ParameterError(f"images_per_class must be >= 1, got {self.images_per_class}")
        if self.image_size < 2:
            raise ParameterError(f"image_size must be >= 2, got {self.image_size}")
        if not 0.0 <= self.background <= 1.0:
            raise ParameterError(f"background must be in [0, 1], got {self.background}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        held = (self.n_classes * self.images_per_class * 3 + 2) * self.image_size**2 * 8
        if held > MAX_DATASET_BYTES:
            raise ParameterError(f"image_size {self.image_size} with {self.n_classes} classes x "
                                 f"{self.images_per_class} images holds {held} bytes, above the cap of {MAX_DATASET_BYTES}")


def source_domain(**overrides) -> DomainSpec:
    return replace(DomainSpec(), **overrides) if overrides else DomainSpec()


def target_domain(**overrides) -> DomainSpec:
    """Shifted counterpart of the default source: novel patterns bunched
    into a narrow orientation band, rotated palette, brighter background,
    lower contrast, much heavier noise."""
    base = DomainSpec(
        tag="target",
        pattern_offset=DomainSpec().n_classes,
        orientation_spread=0.25,
        palette_angle=2.0,
        background=0.35,
        contrast=0.45,
        noise_sigma=0.16,
    )
    return replace(base, **overrides) if overrides else base


def _gray_axis_rotation(angle: float) -> np.ndarray:
    """Rotation of RGB space about the (1,1,1) gray axis (Rodrigues form)."""
    axis = np.ones(3) / np.sqrt(3.0)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _class_color(pattern_id: int) -> np.ndarray:
    h = pattern_id * GOLDEN_ANGLE
    return 0.55 + 0.45 * np.array([np.sin(h), np.sin(h + 2.094), np.sin(h + 4.189)])


def _pattern(
    pattern_id: int,
    size: int,
    phase: float,
    jitter: float,
    orientation_spread: float,
) -> np.ndarray:
    theta = pattern_id * GOLDEN_ANGLE / 2.0 * orientation_spread
    freq = 1.0 + (pattern_id % 4) + jitter
    coords = np.arange(size) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    wave = np.cos(theta) * xx + np.sin(theta) * yy
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * wave + phase)


def generate_synthetic(spec: DomainSpec, rng: RngStream) -> LabeledDataset:
    """Render the dataset described by `spec`, determined by (spec, rng)."""
    rot = _gray_axis_rotation(spec.palette_angle)
    images: dict[str, tuple[Image, ...]] = {}
    for c in range(spec.n_classes):
        pattern_id = c + spec.pattern_offset
        color = _class_color(pattern_id)
        class_rng = rng.child(c)
        rendered = []
        for i in range(spec.images_per_class):
            gen = class_rng.child(i).generator()
            phase = gen.uniform(0.0, 2.0 * np.pi)
            jitter = gen.uniform(-0.15, 0.15)
            plane = _pattern(pattern_id, spec.image_size, phase, jitter, spec.orientation_spread)
            px = spec.background + spec.contrast * plane[None, :, :] * color[:, None, None]
            px = np.einsum("ij,jhw->ihw", rot, px)
            if spec.noise_sigma > 0:
                px = px + gen.normal(0.0, spec.noise_sigma, size=px.shape)
            rendered.append(Image(np.clip(px, 0.0, 1.0)))
        images[f"class_{c:02d}"] = tuple(rendered)

    return LabeledDataset(domain=spec.tag, images=images)
