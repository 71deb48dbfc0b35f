"""Dataset model, N-way K-shot episode sampling, and pseudo-query sizing.

An image is a channels-first (C, H, W) float64 array in [0, 1]. A `LabeledDataset` holds every
image, class after class, in one read-only C-ordered (n, C, H, W) buffer, checked once when the
dataset is built; each class is a view of its rows. Every image op keeps the value range, so no
image is checked again. `sample_episode` is the one function that draws an episode, for evaluation
and meta-training alike: an `Episode` holds the rows of the buffer it drew, and its labels, rows and
image sets follow from them. The real query set exists for evaluation and meta-training only;
`Episode.query_guard` lets the fine-tuning stage lock it so any read raises, and a read counter
backs the isolation tests.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil, prod
from pathlib import Path

import numpy as np

from .errors import CapacityError, ContractError, DataError, DataLoadError, ParameterError, QueryIsolationError, ShapeError
from .imageaug import augment
from .ppm import ppm_shape, read_ppm, write_ppm
from .rng import RngStream

# cap on a dataset's float64 pixel bytes: `DomainSpec` and `dataset_files` estimate it, `load_dataset` checks it
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
    """A domain tag, every image in one read-only C-ordered (n, C, H, W) float64 array, class after class
    (a view of the given array if it is one already), and each class name's image count, in class order.
    Class i is rows starts[i]:starts[i + 1] of `pixels`."""

    domain: str
    pixels: np.ndarray = field(repr=False)
    counts: dict[str, int]
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pixels, counts = np.ascontiguousarray(self.pixels, dtype=np.float64).view(), dict(self.counts)
        if pixels.ndim != 4:
            raise ShapeError(f"expected pixels of shape (images, channels, height, width), got {pixels.shape}")
        if empty := next((name for name, count in counts.items() if count < 1), None):
            raise ShapeError(f"class {empty!r}: expected non-empty (images, channels, height, width), "
                             f"got {(counts[empty], *pixels.shape[1:])}")
        if sum(counts.values()) != len(pixels):
            raise ShapeError(f"the classes hold {sum(counts.values())} images, the pixels {len(pixels)}")
        pixels.flags.writeable = False
        for name, value in (("pixels", pixels), ("counts", counts), ("starts", np.cumsum([0, *counts.values()]))):
            object.__setattr__(self, name, value)
        for name, pool in self.images.items():
            if not (pool.min() >= 0.0 and pool.max() <= 1.0):  # false for a NaN too
                raise ParameterError(f"class {name!r}: pixel values must lie in [0, 1]")

    def __reduce__(self):
        # the buffer alone is pickled, and checked and made read-only again on the other side
        return type(self), (self.domain, self.pixels, self.counts)

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.counts)

    @property
    def images(self) -> dict[str, np.ndarray]:
        """Each class name -> its images, a read-only (count, C, H, W) view of `pixels`, in class order."""
        return {name: self.pixels[lo:hi] for name, lo, hi in zip(self.counts, self.starts, self.starts[1:])}

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
    """One N-way K-shot task: the (n, k+m) rows of `dataset.pixels` that `sample_episode` drew.

    Row i of `draws` is class i's draw, labelled i: its first k are support, the rest the guarded real
    query. Each image set is one (count, C, H, W) array, gathered when it is read. `build_pseudo_query`
    adds the pseudo query set: pseudo image i augments support image `pseudo_sources[i]`, and its label
    is that image's."""

    dataset: LabeledDataset = field(repr=False)
    class_names: tuple[str, ...]
    k_shot: int
    draws: np.ndarray = field(repr=False)
    pseudo_images: np.ndarray | None = field(default=None, repr=False)
    pseudo_sources: np.ndarray | None = field(default=None, repr=False)
    query_reads: int = field(default=0, init=False)
    _query_locked: bool = field(default=False, init=False, repr=False)

    @property
    def n_way(self) -> int:
        return len(self.class_names)

    @property
    def support_rows(self) -> np.ndarray:
        return self.draws[:, : self.k_shot].ravel()

    @property
    def support_images(self) -> np.ndarray:
        return self.dataset.pixels[self.support_rows]

    @property
    def support_labels(self) -> np.ndarray:
        return np.arange(self.n_way, dtype=np.int64).repeat(self.k_shot)

    @property
    def pseudo_labels(self) -> np.ndarray:
        return self.support_labels[self.pseudo_sources]

    @property
    def query_rows(self) -> np.ndarray:
        """The real query set's rows of `dataset.pixels`. Each query accessor reads them once: one counted
        read, refused while the set is locked."""
        if self._query_locked:
            raise QueryIsolationError("real query set read while locked for fine-tuning")
        self.query_reads += 1
        return self.draws[:, self.k_shot :].ravel()

    @property
    def query_images(self) -> np.ndarray:
        return self.dataset.pixels[self.query_rows]

    @property
    def query_labels(self) -> np.ndarray:
        return np.arange(self.n_way, dtype=np.int64).repeat(len(self.query_rows) // self.n_way)

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
    """The one draw of an episode: n class indices into `ds.classes`, then, for
    each drawn class in order, k+m of its images, all without replacement, kept
    as rows of `ds.pixels`; no pixel is copied. Too few classes, or a drawn class
    with fewer than k+m images, is a CapacityError before any image is drawn."""
    n, k, m = shape.n_way, shape.k_shot, shape.m_query
    classes = ds.classes
    if len(classes) < n:
        raise CapacityError(f"dataset '{ds.domain}' has {len(classes)} classes, episode needs {n}")
    gen = rng.generator()
    class_ids = gen.choice(len(classes), size=n, replace=False)
    sizes = np.diff(ds.starts)[class_ids]
    if (sizes < k + m).any():
        short = classes[class_ids[np.argmax(sizes < k + m)]]
        raise CapacityError(f"class '{short}' has {ds.counts[short]} images, episode needs {k + m}")
    picks = np.stack([gen.choice(size, size=k + m, replace=False) for size in sizes])
    return Episode(ds, tuple(classes[i] for i in class_ids.tolist()), k, ds.starts[class_ids, None] + picks)


def build_pseudo_query(ep: Episode, rng: RngStream) -> Episode:
    """Fill ep.pseudo_images, one stacked array, and ep.pseudo_sources by augmenting
    the support images, gathered once, per `pqs_rule`. Mutates and returns ep.

    With a subsample rule, each class's sources are drawn from `rng.child(0)`;
    pseudo image i is drawn from `rng.child(1).child(i)`.
    """
    support = ep.support_images
    if not len(support):
        raise ContractError("episode has no support set")
    per_support, subsample = pqs_rule(ep.n_way, ep.k_shot)

    sources = np.arange(len(support))
    if subsample is not None:
        gen = rng.child(0).generator()
        members = sources.reshape(ep.n_way, ep.k_shot)  # support image i is class i // k's
        sources = np.concatenate([m[gen.choice(len(m), size=subsample, replace=False)] for m in members])

    ep.pseudo_sources = np.repeat(sources, per_support)
    augmented = [augment(support[src], rng.child(1).child(draw)) for draw, src in enumerate(ep.pseudo_sources)]
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
    """Load `root/<class_name>/<image>.ppm` in `dataset_files` order, each image decoded into its row of
    one buffer, whose size, from the image count and the first header, is checked before it is allocated.
    Non-square images are rejected, since the pseudo-query recipe rotates by 90 and 270 degrees. The
    domain tag is the directory name."""
    root, files = Path(path), dataset_files(path)
    first = next(iter(files.values()))[0]
    shape, n = ppm_shape(first), sum(map(len, files.values()))
    held = 8 * n * prod(shape)
    if held > MAX_DATASET_BYTES:
        raise DataLoadError(f"dataset directory {root} would hold {held} bytes of pixels, {n} images shaped like "
                            f"{first}, above the cap of {MAX_DATASET_BYTES}")
    pixels = np.empty((n, *shape))
    for row, f in enumerate(f for pool in files.values() for f in pool):
        img = read_ppm(f)
        if img.shape[1] != img.shape[2]:
            raise DataLoadError(f"{f}: non-square image ({img.shape[1]}x{img.shape[2]}); the pseudo-query "
                                "recipe rotates by 90 and 270 degrees")
        if img.shape != shape:
            raise DataLoadError(f"{f}: shape {img.shape} differs from dataset shape {shape}")
        pixels[row] = img

    return LabeledDataset(root.name, pixels, {name: len(pool) for name, pool in files.items()})
