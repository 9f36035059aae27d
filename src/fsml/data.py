"""Datasets, class splits, and episode sampling.

On-disk dataset layout ("FSDS", all integers little-endian):

    magic "FSDS" | version u16 | n_classes u32 | n_samples u32 | c u32 | h u32 | w u32
    then per sample: class_id u32 | c*h*w float32 values in [0, 1]

Splits carve a dataset into base / validation / novel class views with
contiguous relabeled ids; few-shot episodes are sampled from one view with
disjoint support and query sets.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError, SamplingError
from .rng import Rng, check_seed, u64_rows

FSDS_MAGIC = b"FSDS"
FSDS_VERSION = 1
_HEADER = struct.Struct("<4sHIIIII")


class Batch(NamedTuple):
    """Stacked inputs plus targets (int labels, or float targets for regression)."""

    x: np.ndarray
    y: np.ndarray


class Dataset:
    """Images [N, C, H, W] in [0, 1] with integer class labels."""

    def __init__(self, images: np.ndarray, labels: np.ndarray, n_classes: int, name: str = "",
                 global_classes: tuple[int, ...] | None = None):
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
            raise ContractError(f"expected images [N,C,H,W] with labels [N], got {images.shape}, {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ContractError(f"labels must lie in [0, {n_classes})")
        self.images = images
        self.labels = labels
        self.n_classes = int(n_classes)
        self.name = name
        # for split views: local class id -> class id in the parent dataset
        self.global_classes = tuple(range(n_classes)) if global_classes is None else tuple(global_classes)
        self._by_class = [np.flatnonzero(labels == c) for c in range(n_classes)]

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def class_indices(self, c: int) -> np.ndarray:
        return self._by_class[c]


def write_dataset(ds: Dataset, path) -> None:
    if ds.images.size and (ds.images.min() < 0.0 or ds.images.max() > 1.0):
        raise ContractError("image values must lie in [0, 1]")
    c, h, w = ds.image_shape
    rec = np.dtype([("label", "<u4"), ("img", "<f4", (c, h, w))])
    records = np.empty(ds.n_samples, dtype=rec)
    records["label"] = ds.labels
    records["img"] = ds.images
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FSDS_MAGIC, FSDS_VERSION, ds.n_classes, ds.n_samples, c, h, w))
        fh.write(records.tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", len(blob))
    magic, version, n_classes, n_samples, c, h, w = _HEADER.unpack_from(blob, 0)
    if magic != FSDS_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FSDS_MAGIC!r}", 0)
    if version != FSDS_VERSION:
        raise FormatError(f"unsupported dataset version {version}", 4)
    rec = np.dtype([("label", "<u4"), ("img", "<f4", (c, h, w))])
    expected = n_samples * rec.itemsize
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise FormatError(
            f"payload holds {len(payload)} bytes, header promises {expected}",
            _HEADER.size + min(len(payload), expected),
        )
    records = np.frombuffer(payload, dtype=rec)
    labels = records["label"].astype(np.int64)
    if n_samples and labels.max() >= n_classes:
        bad = int(np.argmax(labels >= n_classes))
        raise FormatError(f"sample {bad} labeled {labels[bad]}, dataset declares {n_classes} classes",
                          _HEADER.size + bad * rec.itemsize)
    images = records["img"].astype(np.float32)
    if n_samples and (not np.isfinite(images).all() or images.min() < 0.0 or images.max() > 1.0):
        flat = images.reshape(n_samples, -1)
        finite = np.isfinite(flat)
        bad = int(np.argmax(np.any(~finite | (flat < 0) | (flat > 1), axis=1)))
        raise FormatError(f"sample {bad} has values outside [0, 1]", _HEADER.size + bad * rec.itemsize + 4)
    return Dataset(images, labels, n_classes)


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint class-id sets for base training, validation, and novel eval."""

    base: frozenset[int]
    val: frozenset[int]
    novel: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "base", frozenset(self.base))
        object.__setattr__(self, "val", frozenset(self.val))
        object.__setattr__(self, "novel", frozenset(self.novel))
        if self.base & self.val or self.base & self.novel or self.val & self.novel:
            raise ConfigurationError("split class sets must be disjoint")
        if not self.base or not self.novel:
            raise ConfigurationError("base and novel splits cannot be empty")

    @staticmethod
    def from_counts(n_classes: int, base: int, val: int, novel: int) -> "SplitSpec":
        if base + val + novel > n_classes:
            raise ConfigurationError(f"split {base}/{val}/{novel} exceeds {n_classes} classes")
        return SplitSpec(
            frozenset(range(base)),
            frozenset(range(base, base + val)),
            frozenset(range(base + val, base + val + novel)),
        )


def _view(ds: Dataset, classes: frozenset[int], name: str) -> Dataset:
    ordered = sorted(classes)
    remap = {c: i for i, c in enumerate(ordered)}
    keep = np.isin(ds.labels, ordered)
    labels = np.array([remap[int(c)] for c in ds.labels[keep]], dtype=np.int64)
    return Dataset(ds.images[keep], labels, len(ordered), name=name, global_classes=tuple(ordered))


def split_classes(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Return (base, val, novel) views with contiguous relabeled class ids."""
    all_ids = spec.base | spec.val | spec.novel
    bad = [c for c in all_ids if c < 0 or c >= ds.n_classes]
    if bad:
        raise ConfigurationError(f"split names class ids {sorted(bad)} outside [0, {ds.n_classes})")
    return (
        _view(ds, spec.base, f"{ds.name}/base"),
        _view(ds, spec.val, f"{ds.name}/val"),
        _view(ds, spec.novel, f"{ds.name}/novel"),
    )


# ---------------------------------------------------------------------------
# episodes


@dataclass(frozen=True)
class EpisodeSpec:
    """C-way K-shot with Q_query queries per class."""

    C: int
    K: int
    Q_query: int = 16

    def __post_init__(self):
        if self.C < 2:
            raise ConfigurationError(f"episodes need C >= 2 ways, got {self.C}")
        if self.K < 1 or self.Q_query < 1:
            raise ConfigurationError(f"episodes need K >= 1 and Q_query >= 1, got K={self.K}, Q={self.Q_query}")


@dataclass(frozen=True)
class Episode:
    """Support/query batches with contiguous local labels 0..C-1.

    class_map[l] is the class id, in the sampled view, behind local label l.
    support_idx[i] and query_idx[i] are the view rows behind support.x[i] and
    query.x[i].  Support and query never share a sample.
    """

    support: Batch
    query: Batch
    class_map: tuple[int, ...]
    support_idx: np.ndarray
    query_idx: np.ndarray


def _check_classes(view: Dataset, spec: EpisodeSpec) -> None:
    if spec.C > view.n_classes:
        raise SamplingError(f"episode needs {spec.C} classes, view {view.name!r} has {view.n_classes}")


def sample_episode(view: Dataset, spec: EpisodeSpec, rng: Rng) -> Episode:
    _check_classes(view, spec)
    classes = rng.choice(view.n_classes, spec.C)
    need = spec.K + spec.Q_query
    sup_idx, qry_idx = [], []
    for c in classes:
        pool = view.class_indices(c)
        if len(pool) < need:
            raise SamplingError(
                f"class {c} in view {view.name!r} has {len(pool)} samples, episode needs {need}"
            )
        picks = pool[rng.choice(len(pool), need)]
        sup_idx.extend(picks[: spec.K])
        qry_idx.extend(picks[spec.K :])
    sup_idx = np.array(sup_idx)
    qry_idx = np.array(qry_idx)
    sup_y = np.repeat(np.arange(spec.C, dtype=np.int64), spec.K)
    qry_y = np.repeat(np.arange(spec.C, dtype=np.int64), spec.Q_query)
    return Episode(
        support=Batch(view.images[sup_idx], sup_y),
        query=Batch(view.images[qry_idx], qry_y),
        class_map=tuple(int(c) for c in classes),
        support_idx=sup_idx,
        query_idx=qry_idx,
    )


_U64_MAX = np.uint64((1 << 64) - 1)


def _value_at(p: np.ndarray, to: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The value at position p of pools that held 0, 1, 2, ... before the writes of `val` to positions `to`.

    The writes run in order along the last axis, whose column 0 is no write
    (position -1).
    """
    last = ((to == p[..., None]) * np.arange(to.shape[-1])).max(axis=-1, keepdims=True)
    return np.where(last[..., 0] > 0, np.take_along_axis(val, last, axis=-1)[..., 0], p)


def _choice_rows(u: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rng.choice(n, k) over rows: u [..., k] holds each row's k u64 draws, n [...] its pool size.

    Returns the picks [..., k], and whether a row holds a draw that
    Rng.randint would reject or a pool smaller than k.  The partial
    Fisher-Yates shuffle tracks only the positions it writes, so its cost
    does not grow with the pools.
    """
    k = u.shape[-1]
    picks = np.empty(u.shape, dtype=np.int64)
    to = np.full((*n.shape, k + 1), -1, dtype=np.int64)
    val = np.zeros((*n.shape, k + 1), dtype=np.int64)
    bad = n < k
    for i in range(k):
        m = np.maximum(n - i, 1).astype(np.uint64)
        bad |= u[..., i] > _U64_MAX - (_U64_MAX % m + 1) % m  # randint's limit is 2^64 - (2^64 mod m)
        j = i + (u[..., i] % m).astype(np.int64)
        picks[..., i] = _value_at(j, to[..., : i + 1], val[..., : i + 1])
        val[..., i + 1] = _value_at(np.full(n.shape, i), to[..., : i + 1], val[..., : i + 1])
        to[..., i + 1] = j
    return picks, bad


def sample_plan(view: Dataset, spec: EpisodeSpec, rngs) -> tuple[np.ndarray, np.ndarray]:
    """The view rows of E episodes at once: support [E, C*K] and query [E, C*Q_query].

    Row e holds the support_idx and query_idx of
    sample_episode(view, spec, rngs[e]).  The C + C*(K+Q_query) draws of
    every episode are one counter array (`u64_rows`), and Rng.choice's
    partial Fisher-Yates shuffles run over the rows, first over the classes
    and then over each chosen class's pool, with a pool size per row.  An
    episode holding a draw that Rng.randint would reject (p about n/2^64 a
    draw) or a class too small for it is sampled by sample_episode on its own
    stream.  Each rng moves by the C + C*(K+Q_query) draws of an episode
    without rejection.
    """
    _check_classes(view, spec)
    c, need = spec.C, spec.K + spec.Q_query
    starts = [copy.copy(r) for r in rngs]
    u = u64_rows(rngs, c + c * need)
    classes, bad = _choice_rows(u[:, :c], np.full(len(u), view.n_classes))
    sizes = np.array([len(view.class_indices(k)) for k in range(view.n_classes)])
    pos, bad_pool = _choice_rows(u[:, c:].reshape(len(u), c, need), sizes[classes])
    bad |= bad_pool.any(axis=1)
    pos[bad] = 0
    order = np.concatenate([view.class_indices(k) for k in range(view.n_classes)])
    picks = order[(np.cumsum(sizes) - sizes)[classes][..., None] + pos]
    support, query = picks[:, :, : spec.K].reshape(len(u), -1), picks[:, :, spec.K :].reshape(len(u), -1)
    for e in np.flatnonzero(bad):
        episode = sample_episode(view, spec, starts[e])
        support[e], query[e] = episode.support_idx, episode.query_idx
    return support, query


class EpisodeDistribution:
    """Task distribution over one class view; sample() yields (support, query)."""

    def __init__(self, view: Dataset, spec: EpisodeSpec):
        self.view = view
        self.spec = spec

    def sample(self, rng: Rng) -> tuple[Batch, Batch]:
        ep = sample_episode(self.view, self.spec, rng)
        return ep.support, ep.query


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian blobs around well-separated per-class templates."""

    n_classes: int
    samples_per_class: int
    image_extent: int = 32
    channels: int = 1
    cluster_std: float = 0.15
    class_separation: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2 or self.samples_per_class < 1:
            raise ConfigurationError("need n_classes >= 2 and samples_per_class >= 1")
        if self.image_extent < 1 or self.channels < 1:
            raise ConfigurationError("image_extent and channels must be positive")
        if self.cluster_std < 0 or self.class_separation < 0:
            raise ConfigurationError("cluster_std and class_separation cannot be negative")
        check_seed(self.seed)


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Templates pairwise >= class_separation apart; samples are template + noise, clipped to [0, 1]."""
    shape = (spec.channels, spec.image_extent, spec.image_extent)
    trng = Rng(spec.seed).derive("synthetic-templates")
    templates = np.empty((spec.n_classes, *shape), dtype=np.float64)
    for k in range(spec.n_classes):
        for attempt in range(1000):
            cand = trng.uniform_array(shape)
            if k == 0:
                break
            d2 = ((templates[:k] - cand) ** 2).sum(axis=(1, 2, 3))
            if d2.min() >= spec.class_separation**2:
                break
        else:
            raise SamplingError(
                f"could not place template {k} at separation {spec.class_separation} after 1000 draws"
            )
        templates[k] = cand
    nrng = Rng(spec.seed).derive("synthetic-noise")
    n = spec.n_classes * spec.samples_per_class
    noise = nrng.normal_array((n, *shape)) * spec.cluster_std
    images = np.clip(np.repeat(templates, spec.samples_per_class, axis=0) + noise, 0.0, 1.0)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.samples_per_class)
    return Dataset(images.astype(np.float32), labels, spec.n_classes, name=f"synthetic-{spec.seed}")
