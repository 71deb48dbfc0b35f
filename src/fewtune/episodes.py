"""Dataset model, N-way K-shot episode sampling, and pseudo-query sizing.

An image is a channels-first (C, H, W) float64 array in [0, 1]. A
`LabeledDataset` holds each class as one read-only (n, C, H, W) array,
checked once when the dataset is built; every image op keeps the value
range, so no image is checked again. An `Episode` holds its class names,
K, the support and real query images, each set one array fancy-indexed
from the class arrays, with their labels, and the pseudo query images,
stacked into one array, with their sources. An episode relabels its
sampled classes to 0..N-1 in draw order. The real query set exists for
evaluation only; `Episode.query_guard` lets the fine-tuning stage lock it
so any read raises, and a read counter backs the isolation tests.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

import numpy as np

from .errors import CapacityError, ContractError, DataError, DataLoadError, ParameterError, QueryIsolationError, ShapeError
from .imageaug import augment
from .ppm import read_ppm, write_ppm
from .rng import RngStream

# cap on a dataset's float64 pixel bytes, which `DomainSpec` and `dataset_files` estimate up front
MAX_DATASET_BYTES = 1 << 30


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
    """A domain tag and its class-name -> images mapping, in class order. Each
    class is one read-only (n, C, H, W) float64 array, a view of the given one."""

    domain: str
    images: dict[str, np.ndarray]

    def __post_init__(self):
        images: dict[str, np.ndarray] = {}
        shape = None
        for name, pool in self.images.items():
            try:
                arr = np.asarray(pool, dtype=np.float64).view()
            except ValueError as exc:  # images of different shapes, say
                raise ShapeError(f"class {name!r}: images do not stack into one array: {exc}") from exc
            if arr.ndim != 4 or arr.size == 0:
                raise ShapeError(f"class {name!r}: expected non-empty (images, channels, height, width), got {arr.shape}")
            shape = shape or arr.shape[1:]
            if arr.shape[1:] != shape:
                raise ShapeError(f"class {name!r}: image shape {arr.shape[1:]} differs from dataset shape {shape}")
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false for a NaN too
                raise ParameterError(f"class {name!r}: pixel values must lie in [0, 1]")
            arr.flags.writeable = False
            images[name] = arr
        object.__setattr__(self, "images", images)

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.images)

    def fingerprint(self) -> str:
        """Hash of the class names and pixels; the domain tag is left out, so a
        renamed copy of a dataset directory keeps its fingerprint."""
        h = hashlib.sha256()
        for name, pool in self.images.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(pool, dtype="<f8"))  # the digest of hashing it image by image
        return h.hexdigest()


@dataclass(eq=False)
class Episode:
    """One N-way K-shot task: support, guarded real query, pseudo query.

    Each image set is one (count, C, H, W) array. `build_pseudo_query` fills the pseudo
    query set: `pseudo_sources[i]` is the index into `support_images` of the image that
    pseudo image i augments, and its label is that image's.
    """

    class_names: tuple[str, ...]
    k_shot: int
    support_images: np.ndarray = field(repr=False)
    support_labels: np.ndarray = field(repr=False)
    _query_images: np.ndarray = field(repr=False)
    _query_labels: np.ndarray = field(repr=False)
    pseudo_images: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0, 0)), repr=False)
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
    def query_images(self) -> np.ndarray:
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


def sample_episode(ds: LabeledDataset, shape: EpisodeShape, rng: RngStream) -> Episode:
    """Draw n classes, then k+m images per class, all without replacement;
    the first k of each class's draw are support, the rest query. Each set is
    gathered into one array, one copy of each image."""
    n, k, m = shape.n_way, shape.k_shot, shape.m_query
    classes = ds.classes
    if len(classes) < n:
        raise CapacityError(f"dataset '{ds.domain}' has {len(classes)} classes, episode needs {n}")
    gen = rng.generator()
    class_ids = gen.choice(len(classes), size=n, replace=False)
    names = tuple(classes[int(class_id)] for class_id in class_ids)
    # every drawn class is checked before the sets, which grow with the shape, are allocated
    if short := next((name for name in names if len(ds.images[name]) < k + m), None):
        raise CapacityError(f"class '{short}' has {len(ds.images[short])} images, episode needs {k + m}")

    image_shape = next(iter(ds.images.values())).shape[1:]  # every class's (C, H, W)
    support, query = np.empty((n * k, *image_shape)), np.empty((n * m, *image_shape))
    for i, name in enumerate(names):
        pool = ds.images[name]
        picks = gen.choice(len(pool), size=k + m, replace=False)
        np.take(pool, picks[:k], axis=0, out=support[i * k : (i + 1) * k])
        np.take(pool, picks[k:], axis=0, out=query[i * m : (i + 1) * m])

    labels = np.arange(n, dtype=np.int64)
    return Episode(names, k, support, np.repeat(labels, k), query, np.repeat(labels, m))


def build_pseudo_query(ep: Episode, rng: RngStream) -> Episode:
    """Fill ep.pseudo_images, one stacked array, and ep.pseudo_sources by
    augmenting support images per `pqs_rule`. Mutates and returns ep.

    With a subsample rule, each class's sources are drawn from `rng.child(0)`;
    pseudo image i is drawn from `rng.child(1).child(i)`.
    """
    if not len(ep.support_images):
        raise ContractError("episode has no support set")
    per_support, subsample = pqs_rule(ep.n_way, ep.k_shot)

    sources = np.arange(len(ep.support_images))
    if subsample is not None:
        gen = rng.child(0).generator()
        members = [np.flatnonzero(ep.support_labels == label) for label in range(ep.n_way)]
        sources = np.concatenate([m[gen.choice(len(m), size=subsample, replace=False)] for m in members])

    ep.pseudo_sources = np.repeat(sources, per_support)
    augmented = [augment(ep.support_images[src], rng.child(1).child(draw)) for draw, src in enumerate(ep.pseudo_sources)]
    ep.pseudo_images = np.stack(augmented)
    return ep


def write_dataset(ds: LabeledDataset, root: str | Path) -> Path:
    """Emit `root/<class_name>/img_<i>.ppm` for every image in the dataset. A class
    directory or `.ppm` under `root` that it would not write is refused first:
    `load_dataset` would read it as part of this dataset."""
    root = Path(root)
    files = {root / name / f"img_{i:03d}.ppm": img for name, pool in ds.images.items() for i, img in enumerate(pool)}
    written = {*files, *(path.parent for path in files)}
    dirs = [d for d in root.iterdir() if d.is_dir()] if root.is_dir() else []
    if stale := sorted(p for d in dirs for p in (d, *d.glob("*.ppm")) if p not in written):
        raise DataError(f"{root} holds {stale[0]}, which is not part of the dataset being written")
    for path, img in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        write_ppm(img, path)
    return root


def dataset_files(path: str | Path) -> dict[str, list[Path]]:
    """Each class directory's `.ppm` files under `path`, by class name, both
    in lexicographic order. A `.ppm` that is not a regular file, or a directory
    whose images would hold more than MAX_DATASET_BYTES, 8 bytes per file
    byte, is refused before any is read."""
    root = Path(path)
    if not root.is_dir():
        raise DataLoadError(f"dataset directory not found: {root}")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise DataLoadError(f"no class subdirectories under {root}")
    files = {d.name: sorted(d.glob("*.ppm")) for d in class_dirs}
    if empty := next((d for d in class_dirs if not files[d.name]), None):
        raise DataLoadError(f"class directory {empty} holds no .ppm files")
    if odd := next((f for pool in files.values() for f in pool if not f.is_file()), None):
        raise DataLoadError(f"{odd} is not a regular file")  # a device or FIFO stats as 0 bytes
    held = 8 * sum(f.stat().st_size for pool in files.values() for f in pool)
    if held > MAX_DATASET_BYTES:
        raise DataLoadError(f"dataset directory {root} would hold about {held} bytes of pixels, "
                            f"above the cap of {MAX_DATASET_BYTES}")
    return files


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load `root/<class_name>/<image>.ppm` in `dataset_files` order, stacking
    each class into one array as it is read. Non-square images are rejected up
    front, since the pseudo-query recipe rotates by 90 and 270 degrees. The
    domain tag is the directory name."""
    images: dict[str, np.ndarray] = {}
    shape_seen: tuple[int, ...] | None = None
    for name, files in dataset_files(path).items():
        loaded = []
        for f in files:
            img = read_ppm(f)
            shape_seen = shape_seen or img.shape
            if img.shape[1] != img.shape[2]:
                raise DataLoadError(f"{f}: non-square image ({img.shape[1]}x{img.shape[2]}); the pseudo-query "
                                    "recipe rotates by 90 and 270 degrees")
            if img.shape != shape_seen:
                raise DataLoadError(f"{f}: shape {img.shape} differs from dataset shape {shape_seen}")
            loaded.append(img)
        images[name] = np.stack(loaded)

    return LabeledDataset(domain=Path(path).name, images=images)
