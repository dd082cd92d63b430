"""Dataset ingestion, synthetic data generation, and device partitioning.

Supports the IDX binary container (the MNIST distribution format: big-endian
magic and dimension words followed by raw unsigned bytes) and synthetic
Gaussian class clusters, drawn by float32 Box-Muller (``_normals``), for
desk-scale runs and the paper-size stand-in. The draw's blocks are part of
the stream's contract: they fix which uniforms each value takes. How many
blocks one pass of ufunc calls runs is execution only and moves no byte.
Partitioning mirrors a realistic edge deployment: every device samples its
local set independently from the training pool, so devices overlap and some
samples go unused. The partition is a matrix of pool indices, one row per
device, not copies of the rows.
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


# Values in one block of a synthetic draw: a block is max(1, _BLOCK_VALUES // F)
# rows. The block is the stream's contract, like verify's chunk, and fixes
# which uniforms each value takes, so the gate and the thread count move no
# byte. A pass, the blocks one set of ufunc calls runs, is execution only:
# as many blocks as keep its cosine scratch within rng's gate, 8 at paper
# size. The two threads wait on the interpreter lock between calls: on a
# 2-vCPU Xeon a paper-size draw took 21 ms in passes of one block and 15 ms
# in passes of 8.
_BLOCK_VALUES = 1 << 15


def _normals(gen: np.random.Generator, out: np.ndarray, offset=None) -> np.ndarray:
    """Fill the C-contiguous float32 (rows, F) ``out`` with standard normals from ``gen``.

    Rows come in blocks of max(1, ``_BLOCK_VALUES`` // F), each drawn by
    float32 Box-Muller (Box & Muller, 1958), whose log, sqrt, sin and cos
    run in numpy's SIMD loops. A block of n values takes the next
    2m = 2 * ceil(n / 2) float32 uniforms u of ``gen`` (``_uniforms``):
    value j < m is sqrt(-2 ln(1 - u_j)) * cos(2 pi u_{m+j}) and value m + j
    the same radius times the sine; an odd block drops its last sine. Every
    |value| is at most sqrt(-2 ln 2**-24), about 5.77. Given the float64
    (F,) ``offset``, each row is its normals plus the offset, rounded once to
    float32 (a value beyond float32's range is stored as inf).

    Each ufunc call runs a pass of k full blocks, the rows of a (k, n) view,
    k = ``rng.block_length`` of a block's m float32 cosines, the pass's
    scratch; the last partial block is a pass of its own. A pass's uniforms
    land in its own rows, or where n is odd in an array of their own.
    """
    step = max(1, _BLOCK_VALUES // out.shape[1])
    full = len(out) - len(out) % step  # the rows of full blocks
    cuts = [*range(0, full, step * rng.block_length(4 * -(-out[:step].size // 2))), full, len(out)]
    for rows in (out[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi):
        values = rows.reshape(len(rows) // step or 1, -1)  # a block a row
        (k, n), m = values.shape, -(-values.shape[1] // 2)
        u = _uniforms(gen, values if n == 2 * m else np.empty((k, 2 * m), np.float32))
        radius, angle = u[:, :m], u[:, m:]
        np.log(np.subtract(1, radius, out=radius), out=radius)
        np.sqrt(np.multiply(radius, -2, out=radius), out=radius)
        angle *= np.float32(2 * np.pi)
        cosines = np.cos(angle)
        sines = np.sin(angle[:, :n - m], out=values[:, m:])
        sines *= radius[:, :n - m]
        np.multiply(cosines, radius, out=values[:, :m])
        if offset is not None:
            with np.errstate(over="ignore"):
                np.add(rows, offset, out=rows, casting="same_kind")
    return out


def _uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the float32 ``out`` with ``gen.random(out.size, dtype=np.float32)``, ``out.size`` even.

    The values, and the stream position they leave, are that call's, given a
    generator that holds no half word (``has_uint32`` 0), as ``_normals``
    leaves its own: ``gen``'s raw 64-bit words cut in 32-bit halves, low
    then high, each shifted right by 8 and scaled by 2**-24, the words and
    the arithmetic numpy uses. Three vectorized calls fill them, where
    ``gen.random`` calls the bit generator once a half word.
    """
    words = gen.bit_generator.random_raw(out.size // 2).astype("<u8", copy=False).view("<u4")
    words >>= 8
    return np.multiply(words.reshape(out.shape), np.float32(2**-24), out=out, dtype=np.float32)


def _class_means(spec: SyntheticSpec) -> np.ndarray:
    """The (C, F) cluster means: orthogonal directions of norm ``margin``, or a line.

    The directions are the DATASET stream's (C, F) normals (``_normals``)
    made orthonormal in float64 by modified Gram-Schmidt in ufunc sums, with
    no BLAS or LAPACK call, so their bytes do not depend on the BLAS kernel
    that runs.
    """
    C, F = spec.classes, spec.features
    if C > F:
        means = np.zeros((C, F))
        means[:, 0] = spec.margin * np.arange(C)
        return means
    gen = rng.generator(rng.substream(spec.seed, rng.DATASET))
    raw = _normals(gen, np.empty((C, F), np.float32)).astype(np.float64)
    for i, row in enumerate(raw):
        row /= np.sqrt((row * row).sum())
        rest = raw[i + 1:]  # each later row loses its projection on this one
        rest -= (rest * row).sum(axis=1, keepdims=True) * row
    return spec.margin * raw  # pairwise distance margin * sqrt(2)


def make_synthetic(spec: SyntheticSpec):
    """Generate disjoint (train, test) draws of Gaussian class clusters.

    Rows come in class order, with labels ``np.repeat(np.arange(C), n)``.
    Class c draws its train rows, then its test rows, by ``_normals`` from
    the DATASET stream keyed c + 1 (``rng``'s docstring), each row its
    float32 normals plus the float64 class mean, rounded once to float32. No
    byte depends on the thread that draws it. ``rng.side_worker`` is opened
    with the bytes the draw writes, a 32-bit uniform word and a float32
    value for each value; given its thread, the first C // 2 classes are
    drawn there while the caller draws the rest.
    """
    C, F = spec.classes, spec.features
    means = _class_means(spec)
    splits = tuple(np.empty((C, n, F), np.float32)
                   for n in (spec.train_per_class, spec.test_per_class))

    def draw(classes):
        for c in classes:
            gen = rng.generator(rng.substream(spec.seed, rng.DATASET, c + 1))
            for split in splits:
                _normals(gen, split[c], means[c])

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
