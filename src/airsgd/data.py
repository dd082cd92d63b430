"""Dataset ingestion, synthetic data generation, and device partitioning.

Supports the IDX binary container (the MNIST distribution format: big-endian
magic and dimension words followed by raw unsigned bytes) and synthetic
Gaussian class clusters for desk-scale runs. Partitioning mirrors a
realistic edge deployment: every device samples its local set independently
from the training pool, so devices overlap and some samples go unused. The
partition is a matrix of pool indices, one row per device, not copies of
the rows.
"""

import os
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rng

__all__ = [
    "LocalDataset",
    "DataError",
    "idx_shape",
    "load_idx",
    "write_idx_images",
    "write_idx_labels",
    "SyntheticSpec",
    "make_synthetic",
    "partition",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
IDX_CLASSES = 10  # an IDX dataset's labels are digits


class DataError(Exception):
    """A malformed dataset: bad shapes, or an IDX file that is bad, short or mismatched."""


@dataclass
class LocalDataset:
    """Feature matrix, stored as float32 (a value past its range is inf), plus integer labels."""

    features: np.ndarray  # (n, F) float32
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        with np.errstate(over="ignore"):
            self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise DataError(f"features must be a nonempty (n, F) matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} samples"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


def _check_left(f, count: int, path, what: str) -> None:
    """A DataError unless ``f`` holds ``count`` more bytes, by its size (``fstat``).

    A header that claims more than the file holds then fails before any read,
    or an allocation, or overflow, of its claim.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise DataError(f"{path}: expected {count} bytes of {what}, got {left}")


def _read_labels(images, labels, images_path, labels_path):
    """(count, rows * cols, labels) of an open IDX image/label pair, its pixels unread.

    Checks each magic word, that there is at least one image, that the two
    counts agree, that each file holds the data its header claims and that
    every label lies in [0, IDX_CLASSES). The labels come back as uint8 and
    the image file is left at its first pixel byte.
    """
    _check_left(images, 16, images_path, "header")
    magic, count, rows, cols = struct.unpack(">IIII", images.read(16))
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"{images_path}: bad image magic 0x{magic:08x}")
    if count == 0:
        raise DataError(f"{images_path} holds no images")
    _check_left(images, count * rows * cols, images_path, "pixel data")
    _check_left(labels, 8, labels_path, "header")
    magic, label_count = struct.unpack(">II", labels.read(8))
    if magic != IDX_LABEL_MAGIC:
        raise DataError(f"{labels_path}: bad label magic 0x{magic:08x}")
    _check_left(labels, label_count, labels_path, "label data")
    if label_count != count:
        raise DataError(
            f"{images_path} holds {count} images but {labels_path} holds {label_count} labels"
        )
    label_bytes = np.frombuffer(labels.read(count), dtype=np.uint8)
    if label_bytes.max() >= IDX_CLASSES:
        raise DataError(f"{labels_path}: label {label_bytes.max()} outside [0, {IDX_CLASSES})")
    return count, rows * cols, label_bytes


def idx_shape(images_path, labels_path):
    """(samples, features) of an IDX image/label pair, from its headers and labels.

    Makes every check :func:`load_idx` makes, without reading the pixels.
    """
    with open(images_path, "rb") as images, open(labels_path, "rb") as labels:
        return _read_labels(images, labels, images_path, labels_path)[:2]


def load_idx(images_path, labels_path) -> LocalDataset:
    """Load an IDX image/label file pair into a dataset with features in [0, 1].

    Pixels become row-major float32 vectors, each byte divided by 255 in
    float32, which gives the float64 quotient, rounded. Labels must lie in
    [0, IDX_CLASSES).
    """
    with open(images_path, "rb") as images, open(labels_path, "rb") as labels:
        count, features, label_bytes = _read_labels(images, labels, images_path, labels_path)
        pixels = np.frombuffer(images.read(count * features), dtype=np.uint8)
    scaled = pixels.reshape(count, features).astype(np.float32)
    scaled /= 255.0
    return LocalDataset(scaled, label_bytes.astype(np.int64))


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array as an IDX image file."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be (count, rows, cols), got {images.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a 1-d uint8 label array as an IDX label file."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian class-cluster dataset description.

    Cluster means sit at distance ``margin`` from the origin along mutually
    orthogonal random directions (unit-variance clusters), so margin >= 10
    gives an essentially separable problem. When classes outnumber features
    the means fall back to a line with spacing ``margin``.
    """

    kind: ClassVar[str] = "synthetic"

    classes: int
    features: int
    train_per_class: int
    test_per_class: int
    margin: float
    seed: int

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        for name in ("features", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if not 0 <= self.seed < rng.SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**32), got {self.seed}")


def _class_means(spec: SyntheticSpec) -> np.ndarray:
    """The (C, F) cluster means: orthogonal directions of norm ``margin``, or a line.

    The directions are the DATASET stream's (C, F) normals made orthonormal
    by modified Gram-Schmidt in ufunc sums, with no BLAS or LAPACK call, so
    their bytes do not depend on the BLAS kernel that runs.
    """
    C, F = spec.classes, spec.features
    if C > F:
        means = np.zeros((C, F))
        means[:, 0] = spec.margin * np.arange(C)
        return means
    raw = rng.generator(rng.substream(spec.seed, rng.DATASET)).standard_normal((C, F))
    for i, row in enumerate(raw):
        row /= np.sqrt((row * row).sum())
        rest = raw[i + 1:]  # each later row loses its projection on this one
        rest -= (rest * row).sum(axis=1, keepdims=True) * row
    return spec.margin * raw  # pairwise distance margin * sqrt(2)


def make_synthetic(spec: SyntheticSpec):
    """Generate disjoint (train, test) draws of Gaussian class clusters.

    Rows come in class order, with labels ``np.repeat(np.arange(C), n)``.
    Class c draws its train rows, then its test rows, from the DATASET
    stream keyed c + 1 (``rng``'s docstring), so no byte depends on the
    thread that draws it. ``rng.side_worker`` is opened with the bytes of
    the float64 draw; given its thread, the first C // 2 classes are drawn
    there while the caller draws the rest. Rows are drawn and offset in
    float64, a few dozen at a time in a buffer that stays in cache, and
    stored as float32: the one-call float64 draw, cast.
    """
    C, F = spec.classes, spec.features
    means = _class_means(spec)
    splits = tuple(np.empty((C, n, F), np.float32)
                   for n in (spec.train_per_class, spec.test_per_class))

    def draw(classes):
        buf = np.empty((32, F))
        with np.errstate(over="ignore"):  # a row beyond float32's range is stored as inf
            for c in classes:
                gen = rng.generator(rng.substream(spec.seed, rng.DATASET, c + 1))
                for split in splits:
                    for row in range(0, split.shape[1], len(buf)):
                        rows = split[c, row:row + len(buf)]
                        normals = gen.standard_normal(out=buf[:len(rows)])
                        np.add(normals, means[c], out=rows, casting="same_kind")

    with rng.side_worker(8 * sum(split.size for split in splits)) as start:
        first = start(draw, range(C // 2))
        draw(range(C // 2, C))
        first()
    return tuple(LocalDataset(split.reshape(-1, F), np.repeat(np.arange(C), split.shape[1]))
                 for split in splits)


def partition(train: LocalDataset, M: int, per_device: int, seed) -> np.ndarray:
    """Draw each of M devices' local set from the training pool, shape (M, per_device).

    Row m holds the pool indices of device m + 1's samples: ``per_device``
    distinct indices drawn uniformly, independently of the other devices,
    so local sets may overlap across devices and some training samples may
    remain unassigned. The rows come in device order from one SFC64 stream,
    ``rng.generator(seed)``, seeded by ``seed`` itself (the master seed in a
    run).
    """
    if M < 1:
        raise ValueError(f"device count M must be >= 1, got {M}")
    if per_device > len(train):
        raise ValueError(f"per_device={per_device} exceeds dataset size {len(train)}")
    if per_device < 1:
        raise ValueError(f"per_device must be >= 1, got {per_device}")
    gen = rng.generator(seed)
    return np.stack([gen.choice(len(train), size=per_device, replace=False) for _ in range(M)])
