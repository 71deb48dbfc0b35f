"""Dataset model, N-way K-shot episode sampling, and pseudo-query sizing.

An `Episode` holds its class names, K, the support and real query images
with their labels, and the pseudo query images with their sources. An
episode relabels its sampled classes to 0..N-1 in draw order. The real
query set exists for evaluation only; `Episode.query_guard` lets the
fine-tuning stage lock it so any read raises, and a read counter backs
the isolation tests.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

import numpy as np

from .errors import CapacityError, ContractError, DataLoadError, ParameterError, QueryIsolationError
from .imageaug import Image, augment
from .ppm import read_ppm, write_ppm
from .rng import RngStream


@dataclass(frozen=True)
class EpisodeShape:
    """N classes per episode, K support and M query images per class."""

    n_way: int = 5
    k_shot: int = 5
    m_query: int = 15

    def __post_init__(self):
        for name in ("n_way", "k_shot", "m_query"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable class-name -> images mapping with a domain tag."""

    domain: str
    classes: tuple[str, ...]
    images: dict[str, tuple[Image, ...]]

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DataLoadError("class names must be unique within a dataset")
        missing = [c for c in self.classes if c not in self.images]
        if missing:
            raise DataLoadError(f"classes without images: {missing}")

    def class_count(self) -> int:
        return len(self.classes)

    def images_for(self, class_name: str) -> tuple[Image, ...]:
        return self.images[class_name]

    def fingerprint(self) -> str:
        """Hash of the class names and pixels; the domain tag is left out, so a
        renamed copy of a dataset directory keeps its fingerprint."""
        h = hashlib.sha256()
        for name in self.classes:
            h.update(name.encode())
            for img in self.images[name]:
                h.update(np.ascontiguousarray(img.pixels, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass(eq=False)
class Episode:
    """One N-way K-shot task: support, guarded real query, pseudo query.

    `build_pseudo_query` fills the pseudo query set: `pseudo_sources[i]` is
    the index into `support_images` of the image that pseudo image i
    augments, and its label is that image's.
    """

    class_names: tuple[str, ...]
    k_shot: int
    support_images: list[Image] = field(repr=False)
    support_labels: np.ndarray = field(repr=False)
    _query_images: list[Image] = field(repr=False)
    _query_labels: np.ndarray = field(repr=False)
    pseudo_images: list[Image] = field(default_factory=list, repr=False)
    pseudo_sources: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False)
    query_reads: int = field(default=0, init=False)
    _query_locked: bool = field(default=False, init=False, repr=False)

    @property
    def n_way(self) -> int:
        return len(self.class_names)

    @property
    def pseudo_labels(self) -> np.ndarray:
        return self.support_labels[self.pseudo_sources]

    def _query_access(self):
        if self._query_locked:
            raise QueryIsolationError("real query set read while locked for fine-tuning")
        self.query_reads += 1

    @property
    def query_images(self) -> list[Image]:
        self._query_access()
        return self._query_images

    @property
    def query_labels(self) -> np.ndarray:
        self._query_access()
        return self._query_labels

    @contextmanager
    def query_guard(self):
        """Lock the real query set for the duration of the block."""
        self._query_locked = True
        try:
            yield self
        finally:
            self._query_locked = False


# K -> (pseudo images per support sample, support images used per class or
# None for all): 5-shot gives 100 pseudo images at 5-way, 20-shot 200, and
# 50-shot 200 from 40 subsampled supports per class.
PQS_RULES: dict[int, tuple[int, int | None]] = {5: (4, None), 20: (2, None), 50: (1, 40)}


def pqs_rule(n_way: int, k_shot: int) -> tuple[int, int | None]:
    """The pseudo-query sizing rule for K; a K outside PQS_RULES falls back
    to ceil(100 / (N*K)) pseudo images per support sample, capped at 4."""
    return PQS_RULES.get(k_shot, (min(4, ceil(100 / (n_way * k_shot))), None))


def sample_episode(
    ds: LabeledDataset, n: int, k: int, m: int, rng: RngStream
) -> Episode:
    """Draw n classes, then k+m images per class, all without replacement;
    the first k of each class's draw are support, the rest query."""
    if ds.class_count() < n:
        raise CapacityError(
            f"dataset '{ds.domain}' has {ds.class_count()} classes, episode needs {n}"
        )
    gen = rng.generator()
    class_ids = gen.choice(ds.class_count(), size=n, replace=False)
    names = tuple(ds.classes[int(class_id)] for class_id in class_ids)

    support_images: list[Image] = []
    query_images: list[Image] = []
    for name in names:
        pool = ds.images_for(name)
        if len(pool) < k + m:
            raise CapacityError(
                f"class '{name}' has {len(pool)} images, episode needs {k + m}"
            )
        picks = gen.choice(len(pool), size=k + m, replace=False)
        support_images += [pool[int(j)] for j in picks[:k]]
        query_images += [pool[int(j)] for j in picks[k:]]

    labels = np.arange(n, dtype=np.int64)
    return Episode(names, k, support_images, np.repeat(labels, k), query_images, np.repeat(labels, m))


def build_pseudo_query(ep: Episode, rng: RngStream) -> Episode:
    """Fill ep.pseudo_images and ep.pseudo_sources by augmenting support
    images per `pqs_rule`. Mutates and returns ep.

    With a subsample rule, each class's sources are drawn from `rng.child(0)`;
    pseudo image i is drawn from `rng.child(1).child(i)`.
    """
    if not ep.support_images:
        raise ContractError("episode has no support set")
    per_support, subsample = pqs_rule(ep.n_way, ep.k_shot)

    sources = np.arange(len(ep.support_images))
    if subsample is not None:
        gen = rng.child(0).generator()
        members = [np.flatnonzero(ep.support_labels == label) for label in range(ep.n_way)]
        sources = np.concatenate([m[gen.choice(len(m), size=subsample, replace=False)] for m in members])

    ep.pseudo_sources = np.repeat(sources, per_support)
    ep.pseudo_images = [
        augment(ep.support_images[src], rng.child(1).child(draw)) for draw, src in enumerate(ep.pseudo_sources)
    ]
    return ep


def write_dataset(ds: LabeledDataset, root: str | Path) -> Path:
    """Emit `root/<class_name>/img_<i>.ppm` for every image in the dataset."""
    root = Path(root)
    for name in ds.classes:
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(ds.images_for(name)):
            write_ppm(img, class_dir / f"img_{i:03d}.ppm")
    return root


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load `root/<class_name>/<image>.ppm` with lexicographic ordering.

    Non-square images are rejected up front, since the pseudo-query recipe
    rotates by 90 and 270 degrees. The domain tag is the directory name.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataLoadError(f"dataset directory not found: {root}")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise DataLoadError(f"no class subdirectories under {root}")

    images: dict[str, tuple[Image, ...]] = {}
    shape_seen: tuple[int, ...] | None = None
    for class_dir in class_dirs:
        files = sorted(class_dir.glob("*.ppm"))
        if not files:
            raise DataLoadError(f"class directory {class_dir} holds no .ppm files")
        loaded = []
        for f in files:
            img = read_ppm(f)
            if not img.is_square:
                raise DataLoadError(
                    f"{f}: non-square image ({img.height}x{img.width}); the pseudo-query recipe "
                    "rotates by 90 and 270 degrees"
                )
            if shape_seen is None:
                shape_seen = img.pixels.shape
            elif img.pixels.shape != shape_seen:
                raise DataLoadError(
                    f"{f}: shape {img.pixels.shape} differs from dataset shape {shape_seen}"
                )
            loaded.append(img)
        images[class_dir.name] = tuple(loaded)

    return LabeledDataset(
        domain=root.name,
        classes=tuple(d.name for d in class_dirs),
        images=images,
    )
