import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from airsgd import experiment, rng
from airsgd.data import (
    DataError,
    _class_means,
    LocalDataset,
    SyntheticSpec,
    idx_shape,
    load_idx,
    make_synthetic,
    partition,
    write_idx_images,
    write_idx_labels,
)
from airsgd.learner import OptimizerSpec, apply_update, evaluate_accuracy, gradients
from airsgd.learner import init_optimizer_state, init_params, log_probabilities
from blas_kernels import BLAS_KERNELS, run_on_kernel

PIXELS = np.array(
    [[[0, 64], [128, 255]], [[1, 2], [3, 4]]], dtype=np.uint8
)
LABELS = np.array([3, 9], dtype=np.uint8)


def _write_fixture(tmp_path):
    images = tmp_path / "imgs.idx"
    labels = tmp_path / "lbls.idx"
    write_idx_images(images, PIXELS)
    write_idx_labels(labels, LABELS)
    return images, labels


def test_fixture_bytes_follow_the_container_layout(tmp_path):
    images, labels = _write_fixture(tmp_path)
    raw = images.read_bytes()
    # header: magic, count, rows, cols, all big-endian
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    assert (magic, count, rows, cols) == (0x00000803, 2, 2, 2)
    assert raw[16:] == bytes([0, 64, 128, 255, 1, 2, 3, 4])
    lab = labels.read_bytes()
    assert struct.unpack(">II", lab[:8]) == (0x00000801, 2)
    assert lab[8:] == bytes([3, 9])


def test_load_idx_roundtrip(tmp_path):
    images, labels = _write_fixture(tmp_path)
    ds = load_idx(images, labels)
    assert ds.features.shape == (2, 4)
    assert np.array_equal(ds.features, [[0.0, 64.0, 128.0, 255.0], [1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(ds.labels, [3, 9])


def test_load_idx_bad_magic(tmp_path):
    images, labels = _write_fixture(tmp_path)
    raw = bytearray(images.read_bytes())
    raw[3] = 0x55
    images.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad image magic 0x00000855"):
        load_idx(images, labels)


def test_load_idx_truncated(tmp_path):
    images, labels = _write_fixture(tmp_path)
    raw = images.read_bytes()
    images.write_bytes(raw[:-3])
    with pytest.raises(DataError, match="expected 8 bytes of pixel data, got 5"):
        load_idx(images, labels)


@pytest.mark.parametrize("which, header, message", [
    # (2^32 - 1)^3 pixel bytes: checked against the file, not read
    ("images", (0x803, 2**32 - 1, 2**32 - 1, 2**32 - 1), f"expected {(2**32 - 1)**3} bytes of pixel"),
    ("images", (0x803, 3, 2, 2), "expected 12 bytes of pixel data, got 8"),
    ("labels", (0x801, 5), "expected 5 bytes of label data, got 2"),
    # zero images of (2^32 - 1)^2 pixels would otherwise reach an impossible reshape
    ("images", (0x803, 0, 2**32 - 1, 2**32 - 1), "holds no images"),
    ("labels", (0x855, 2), "lbls.idx: bad label magic 0x00000855"),
], ids=["overflowing", "more-images", "more-labels", "no-images", "label-magic"])
def test_load_idx_rejects_a_header_the_file_cannot_hold(tmp_path, which, header, message):
    paths = dict(zip(("images", "labels"), _write_fixture(tmp_path)))
    payload = paths[which].read_bytes()[4 * len(header):]
    paths[which].write_bytes(struct.pack(f">{len(header)}I", *header) + payload)
    with pytest.raises(DataError, match=message):
        load_idx(paths["images"], paths["labels"])


def test_idx_shape_reads_the_headers_alone(tmp_path):
    images, labels = _write_fixture(tmp_path)
    assert idx_shape(images, labels) == (2, 4)
    labels.write_bytes(labels.read_bytes()[:-1] + bytes([12]))  # a label past 9: data, not header
    assert idx_shape(images, labels) == (2, 4)
    images.write_bytes(images.read_bytes()[:-3])
    with pytest.raises(DataError, match="expected 8 bytes of pixel data, got 5"):
        idx_shape(images, labels)


def test_load_idx_count_mismatch(tmp_path):
    images = tmp_path / "imgs.idx"
    labels = tmp_path / "lbls.idx"
    write_idx_images(images, PIXELS)
    write_idx_labels(labels, np.array([1, 2, 3], dtype=np.uint8))
    with pytest.raises(DataError, match="holds 2 images but .* holds 3 labels"):
        load_idx(images, labels)


def test_load_idx_rejects_label_out_of_range(tmp_path):
    images = tmp_path / "imgs.idx"
    labels = tmp_path / "lbls.idx"
    write_idx_images(images, PIXELS)
    write_idx_labels(labels, np.array([0, 12], dtype=np.uint8))
    with pytest.raises(DataError, match=r"label 12 outside \[0, 10\)"):
        load_idx(images, labels)


def test_scale_to_unit(tmp_path):
    # a run's IDX features: pixel bytes rescaled to [0, 1]
    images, labels = _write_fixture(tmp_path)
    ds = experiment._load_idx(images, labels)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.features[0, 3] == 1.0


def test_idx_features_are_each_bytes_float64_quotient_rounded_to_float32(tmp_path):
    # a run divides the float32 pixels by 255 in float32; for every byte value
    # that gives the bits of the float64 quotient cast to float32
    images, labels = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx_images(images, np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
    write_idx_labels(labels, np.zeros(1, dtype=np.uint8))
    features = experiment._load_idx(images, labels).features
    assert features.dtype == np.float32
    expected = (np.arange(256, dtype=np.float64) / 255).astype(np.float32)
    assert features.tobytes() == expected.tobytes()


def test_synthetic_deterministic():
    spec = SyntheticSpec(classes=3, features=5, train_per_class=20,
                         test_per_class=10, margin=2.0, seed=11)
    train1, test1 = make_synthetic(spec)
    train2, test2 = make_synthetic(spec)
    assert np.array_equal(train1.features, train2.features)
    assert np.array_equal(train1.labels, train2.labels)
    assert np.array_equal(test1.features, test2.features)


def test_synthetic_counts_and_balance():
    spec = SyntheticSpec(classes=2, features=4, train_per_class=100,
                         test_per_class=25, margin=1.0, seed=0)
    train, test = make_synthetic(spec)
    assert len(train.labels) == 200
    assert len(test.labels) == 50
    assert np.bincount(train.labels, minlength=2).tolist() == [100, 100]
    assert train.features.shape == (200, 4)


def test_synthetic_train_test_disjoint():
    spec = SyntheticSpec(classes=2, features=3, train_per_class=50,
                         test_per_class=50, margin=1.0, seed=3)
    train, test = make_synthetic(spec)
    train_rows = {tuple(row) for row in train.features}
    assert not any(tuple(row) in train_rows for row in test.features)


def test_synthetic_wide_margin_is_separable():
    spec = SyntheticSpec(classes=4, features=16, train_per_class=50,
                         test_per_class=50, margin=10.0, seed=8)
    train, test = make_synthetic(spec)
    # four equal device shards; their mean gradient is the whole set's
    X, y = train.features.reshape(4, -1, 16), train.labels.reshape(4, -1)
    theta = init_params(16, 4)
    opt = OptimizerSpec(kind="sgd", learning_rate=0.5)
    state = init_optimizer_state(theta.size)
    for _ in range(150):
        grad = gradients(X, y, log_probabilities(theta, X)).mean(axis=0)
        theta, state = apply_update(theta, grad, opt, state)
    assert evaluate_accuracy(theta, test.features, test.labels) >= 0.99


def test_synthetic_rejects_bad_spec():
    with pytest.raises(ValueError):
        SyntheticSpec(classes=1, features=4, train_per_class=10,
                      test_per_class=5, margin=1.0, seed=0)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*32\)"):
        SyntheticSpec(classes=2, features=4, train_per_class=10,
                      test_per_class=5, margin=1.0, seed=2**32)
    with pytest.raises(ValueError):
        SyntheticSpec(classes=2, features=4, train_per_class=0,
                      test_per_class=5, margin=1.0, seed=0)


def synthetic_reference(spec):
    """The (float64 features, labels) of both splits, drawn from the documented keys.

    Class c's train rows, then its test rows, are one call each from
    (seed, DATASET, c + 1), offset by ``_class_means``; rows come in class
    order. ``make_synthetic``'s features are these, cast to float32.
    """
    means = _class_means(spec)
    gens = [rng.generator(rng.substream(spec.seed, rng.DATASET, c + 1))
            for c in range(spec.classes)]
    return [(np.concatenate([gen.standard_normal((n, spec.features)) + mean
                             for gen, mean in zip(gens, means)]),
             np.repeat(np.arange(spec.classes), n))
            for n in (spec.train_per_class, spec.test_per_class)]


def _splits_digest(splits) -> str:
    digest = hashlib.sha256()
    for features, labels in splits:
        digest.update(np.ascontiguousarray(features).tobytes())
        digest.update(np.ascontiguousarray(labels).tobytes())
    return digest.hexdigest()


# sha256 of the float64 features and labels of both splits of two small
# synthetic datasets (orthogonal means, then means on a line), as the
# reference draws them from the SFC64 streams
SYNTHETIC_SHA256 = {
    (3, 5, 7, 4, 2.0, 11): "7812629c100311b62946230a0948771d88422f73bfb5f7fedd405b45e25226f8",
    (6, 3, 5, 2, 1.5, 4): "c4efc205e8591e0c32bf6ea8c09bdc8693fbbe50444c3a33a6afe2e2a4a940ab",
}
# the same digests of make_synthetic's float32 features
SYNTHETIC_FLOAT32_SHA256 = {
    (3, 5, 7, 4, 2.0, 11): "f909107f3559859f98bb701f35e6dc0b09562ecba63730a25a92b1e1a5efb352",
    (6, 3, 5, 2, 1.5, 4): "68051b9921e70f5ef708a74661376ff1d035078193582f3d8dcc4e34b09a736b",
}


@pytest.mark.parametrize("fields", sorted(SYNTHETIC_SHA256))
def test_synthetic_bytes_pinned(fields):
    spec = SyntheticSpec(*fields)
    reference = synthetic_reference(spec)
    assert _splits_digest(reference) == SYNTHETIC_SHA256[fields]
    splits = [(split.features, split.labels) for split in make_synthetic(spec)]
    for (features, labels), (ref_features, ref_labels) in zip(splits, reference):
        assert features.dtype == np.float32
        assert features.tobytes() == ref_features.astype(np.float32).tobytes()
        assert np.array_equal(labels, ref_labels)
    assert _splits_digest(splits) == SYNTHETIC_FLOAT32_SHA256[fields]


@pytest.mark.parametrize("fields, workers", [
    # two workers keep the ids these tests had when a side worker drew half the classes
    pytest.param(fields, workers,
                 id=f"fields{i}" + ("" if workers == 2 else f"-_WORKERS={workers}"))
    for i, fields in enumerate(sorted(SYNTHETIC_SHA256))
    for workers in (1, 2, 3)
])
def test_synthetic_bytes_pinned_on_the_worker(monkeypatch, fields, workers):
    # the classes are rng.map_chunks' chunks, drawn on _WORKERS threads
    monkeypatch.setattr(rng, "_WORKERS", workers)
    test_synthetic_bytes_pinned(fields)


@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_synthetic_bytes_pinned_on_every_blas_kernel(kernel):
    # the synthetic dataset makes no BLAS call, so its pins hold on any kernel
    run_on_kernel(kernel, "import test_data\n"
                          "for fields in sorted(test_data.SYNTHETIC_SHA256):\n"
                          "    test_data.test_synthetic_bytes_pinned(fields)")


def test_synthetic_rows_come_in_class_order_from_per_class_keys():
    spec = SyntheticSpec(classes=3, features=5, train_per_class=7, test_per_class=4,
                         margin=2.0, seed=11)
    train, test = make_synthetic(spec)
    means = _class_means(spec)
    assert np.array_equal(train.labels, np.repeat(np.arange(3), 7))
    assert np.array_equal(test.labels, np.repeat(np.arange(3), 4))
    by_class = train.features.reshape(3, 7, 5), test.features.reshape(3, 4, 5)
    for c in range(3):
        # class c's own key: its train rows, then its test rows continue the stream
        gen = rng.generator(rng.substream(11, rng.DATASET, c + 1))
        for rows in by_class:
            expected = (gen.standard_normal(rows[c].shape) + means[c]).astype(np.float32)
            assert np.array_equal(rows[c], expected)


def test_a_paper_size_synthetic_draw_holds_no_float64_pool(monkeypatch):
    # the float64 rows pass through a few dozen rows of buffer per class, so
    # the draw's peak is its float32 output, half the float64 pool, plus one
    # buffer per thread; a whole class drawn in float64 on each of the two
    # threads would take it to 0.67 of the pool
    monkeypatch.setattr(rng, "_WORKERS", 2)
    spec = SyntheticSpec(classes=10, features=784, train_per_class=600, test_per_class=100,
                         margin=8.0, seed=3)
    pool64 = 10 * (600 + 100) * 784 * 8  # 43.9 MB
    tracemalloc.start()
    try:
        train, test = make_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train.features.nbytes + test.features.nbytes == pool64 // 2
    assert peak < 0.6 * pool64


def test_synthetic_means_are_orthogonal_with_norm_margin():
    means = _class_means(SyntheticSpec(classes=10, features=784, train_per_class=1,
                                       test_per_class=1, margin=8.0, seed=3))
    assert np.allclose(means @ means.T, 64.0 * np.eye(10), rtol=0, atol=1e-12)


def _indexed_pool(n):
    return LocalDataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64))


def test_partition_full_size_devices_are_permutations():
    index = partition(_indexed_pool(50), 2, 50, seed=4)
    assert index.shape == (2, 50)
    for row in index:
        assert np.array_equal(np.sort(row), np.arange(50))
    # random permutation, not the identity layout
    assert not np.array_equal(index[0], np.arange(50))


def test_partition_within_device_distinct():
    index = partition(_indexed_pool(100), 8, 60, seed=9)
    assert index.shape == (8, 60)
    for row in index:
        assert len(np.unique(row)) == 60


def test_partition_device_ids_and_determinism():
    # row m - 1 is device m's local set
    train = _indexed_pool(30)
    a = partition(train, 3, 10, seed=1)
    b = partition(train, 3, 10, seed=1)
    c = partition(train, 3, 10, seed=2)
    assert a.shape == (3, 10) and a.dtype == np.int64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_partition_draws_devices_in_order_from_the_master_seed_stream():
    # the stream contract: row m is the m-th draw of one SFC64 stream
    gen = rng.generator(5)
    expected = [gen.choice(40, size=12, replace=False) for _ in range(4)]
    assert np.array_equal(partition(_indexed_pool(40), 4, 12, seed=5), np.stack(expected))


def test_partition_unassigned_fraction_matches_inclusion_probability():
    # drawing 1000 of 60000 per device, 20 devices: a sample escapes all
    # draws with probability (1 - 1/60)^20
    n, M, per_device = 60_000, 20, 1000
    expected = (1 - per_device / n) ** M
    train = _indexed_pool(n)
    fractions = []
    for seed in (0, 1, 2):
        taken = np.unique(partition(train, M, per_device, seed))
        fractions.append(1.0 - taken.size / n)
    observed = np.mean(fractions)
    assert abs(observed - expected) <= 0.02 * expected


def test_partition_rejects_oversized_request():
    with pytest.raises(ValueError):
        partition(_indexed_pool(10), 2, 11, seed=0)
