"""Dataset model, N-way K-shot episode sampling, and pseudo-query sizing.

An episode relabels its sampled classes to 0..N-1 in draw order. The
real query set exists for evaluation only; `Episode.query_guard` lets
the fine-tuning stage lock it so any read raises, and a read counter
backs the isolation tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from .errors import CapacityError, ContractError, DataLoadError, ParameterError, QueryIsolationError
from .imageaug import Image, augment
from .ppm import read_ppm
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
        import hashlib

        h = hashlib.sha256()
        for name in self.classes:
            h.update(name.encode())
            for img in self.images[name]:
                h.update(np.ascontiguousarray(img.pixels, dtype="<f8").tobytes())
        return h.hexdigest()


class Episode:
    """One N-way K-shot task: support, guarded real query, pseudo query."""

    def __init__(
        self,
        n_way: int,
        k_shot: int,
        m_query: int,
        class_names: tuple[str, ...],
        support_images: list[Image],
        support_labels: np.ndarray,
        query_images: list[Image],
        query_labels: np.ndarray,
        support_sources: list[tuple[str, int]],
        query_sources: list[tuple[str, int]],
    ):
        self.n_way = n_way
        self.k_shot = k_shot
        self.m_query = m_query
        self.class_names = class_names
        self.support_images = support_images
        self.support_labels = support_labels
        self.support_sources = support_sources
        self.query_sources = query_sources
        self._query_images = query_images
        self._query_labels = query_labels
        self._query_locked = False
        self.query_reads = 0
        # pseudo-query fields filled by build_pseudo_query
        self.pseudo_images: list[Image] = []
        self.pseudo_labels: np.ndarray = np.zeros(0, dtype=np.int64)
        self.pseudo_sources: list[int] = []

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
    """Draw n classes, then k+m images per class, all without replacement."""
    if ds.class_count() < n:
        raise CapacityError(
            f"dataset '{ds.domain}' has {ds.class_count()} classes, episode needs {n}"
        )
    gen = rng.generator()
    class_ids = gen.choice(ds.class_count(), size=n, replace=False)

    support_images: list[Image] = []
    query_images: list[Image] = []
    support_labels: list[int] = []
    query_labels: list[int] = []
    support_sources: list[tuple[str, int]] = []
    query_sources: list[tuple[str, int]] = []
    names: list[str] = []

    for label, class_id in enumerate(class_ids):
        name = ds.classes[int(class_id)]
        names.append(name)
        pool = ds.images_for(name)
        if len(pool) < k + m:
            raise CapacityError(
                f"class '{name}' has {len(pool)} images, episode needs {k + m}"
            )
        picks = gen.choice(len(pool), size=k + m, replace=False)
        for j in picks[:k]:
            support_images.append(pool[int(j)])
            support_labels.append(label)
            support_sources.append((name, int(j)))
        for j in picks[k:]:
            query_images.append(pool[int(j)])
            query_labels.append(label)
            query_sources.append((name, int(j)))

    return Episode(
        n_way=n,
        k_shot=k,
        m_query=m,
        class_names=tuple(names),
        support_images=support_images,
        support_labels=np.asarray(support_labels, dtype=np.int64),
        query_images=query_images,
        query_labels=np.asarray(query_labels, dtype=np.int64),
        support_sources=support_sources,
        query_sources=query_sources,
    )


def build_pseudo_query(ep: Episode, rng: RngStream) -> Episode:
    """Populate ep.pseudo_* by augmenting support images per `pqs_rule`.

    Each pseudo image keeps its source support image's label; sources are
    recorded as indices into ep.support_images. Mutates and returns ep.
    """
    if not ep.support_images:
        raise ContractError("episode has no support set")
    per_support, subsample = pqs_rule(ep.n_way, ep.k_shot)

    source_indices = list(range(len(ep.support_images)))
    if subsample is not None:
        gen = rng.child(0).generator()
        source_indices = []
        for label in range(ep.n_way):
            members = [i for i, y in enumerate(ep.support_labels) if y == label]
            picks = gen.choice(len(members), size=subsample, replace=False)
            source_indices.extend(members[int(p)] for p in picks)

    pseudo_images: list[Image] = []
    pseudo_labels: list[int] = []
    pseudo_sources: list[int] = []
    draw = 0
    for src in source_indices:
        for _ in range(per_support):
            pseudo_images.append(augment(ep.support_images[src], rng.child(1).child(draw)))
            pseudo_labels.append(int(ep.support_labels[src]))
            pseudo_sources.append(src)
            draw += 1

    ep.pseudo_images = pseudo_images
    ep.pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
    ep.pseudo_sources = pseudo_sources
    return ep


def write_dataset(ds: LabeledDataset, root: str | Path) -> Path:
    """Emit `root/<class_name>/img_<i>.ppm` for every image in the dataset."""
    from .ppm import write_ppm

    root = Path(root)
    for name in ds.classes:
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(ds.images_for(name)):
            write_ppm(img, class_dir / f"img_{i:03d}.ppm")
    return root


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load `root/<class_name>/<image>.ppm` with lexicographic ordering.

    Non-square images are rejected up front, since the augmentation
    pipeline may rotate by 90/270 degrees. The domain tag is the directory name.
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
                    f"{f}: non-square image ({img.height}x{img.width}) with rotation enabled"
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
