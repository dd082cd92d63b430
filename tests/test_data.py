import math
import struct
import tracemalloc

import numpy as np
import pytest

from airsgd import data, rng
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
from airsgd.statcheck import check_mean_zero, check_variance
from blas_kernels import BLAS_KERNELS, run_on_kernel
import pins

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
    expected = np.array([[0, 64, 128, 255], [1, 2, 3, 4]]) / 255  # float64 quotients, rounded
    assert np.array_equal(ds.features, expected.astype(np.float32))
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
    # the headers and the labels: every check load_idx makes, no pixel read
    images, labels = _write_fixture(tmp_path)
    assert idx_shape(images, labels) == (2, 4)
    images.write_bytes(images.read_bytes()[:-3])
    with pytest.raises(DataError, match="expected 8 bytes of pixel data, got 5"):
        idx_shape(images, labels)
    images, labels = _write_fixture(tmp_path)
    labels.write_bytes(labels.read_bytes()[:-1] + bytes([12]))  # a label past 9
    with pytest.raises(DataError, match=r"lbls.idx: label 12 outside \[0, 10\)"):
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
    # a run's IDX features: pixel bytes rescaled to [0, 1] by the reader
    images, labels = _write_fixture(tmp_path)
    ds = load_idx(images, labels)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.features[0, 3] == 1.0


def test_idx_features_are_each_bytes_float64_quotient_rounded_to_float32(tmp_path):
    # the reader divides the float32 pixels by 255 in float32; for every byte
    # value that gives the bits of the float64 quotient cast to float32
    images, labels = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx_images(images, np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
    write_idx_labels(labels, np.zeros(1, dtype=np.uint8))
    features = load_idx(images, labels).features
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


def box_muller_rows(gen, rows, features):
    """``rows`` float32 (rows, features) normals from ``gen`` by the documented draw.

    Blocks of max(1, 32768 // features) rows; a block of n values takes
    2m = 2 * ceil(n / 2) float32 uniforms u in one call, and value j < m is
    sqrt(-2 ln(1 - u_j)) cos(2 pi u_{m+j}), value m + j the same radius
    times the sine, an odd block's last sine dropped.
    """
    blocks = []
    step = max(1, 32768 // features)
    for row in range(0, rows, step):
        n = min(step, rows - row) * features
        m = -(-n // 2)
        u = gen.random(2 * m, dtype=np.float32)
        radius = np.sqrt(-2 * np.log(1 - u[:m]))
        angle = np.float32(2 * np.pi) * u[m:]
        values = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        blocks.append(values.reshape(-1, features))
    return np.concatenate(blocks)


def synthetic_reference(spec):
    """The (float64 features, labels) of both splits, drawn from the documented keys.

    Class c's train rows, then its test rows, are ``box_muller_rows`` from
    (seed, DATASET, c + 1), plus ``_class_means`` in float64; rows come in
    class order. ``make_synthetic``'s features are these, cast to float32.
    """
    means = _class_means(spec)
    gens = [rng.generator(rng.substream(spec.seed, rng.DATASET, c + 1))
            for c in range(spec.classes)]
    return [(np.concatenate([box_muller_rows(gen, n, spec.features) + mean
                             for gen, mean in zip(gens, means)]),
             np.repeat(np.arange(spec.classes), n))
            for n in (spec.train_per_class, spec.test_per_class)]


@pytest.mark.parametrize("fields", sorted(pins.PINS["synthetic"]))
def test_synthetic_bytes_pinned(fields):
    spec = SyntheticSpec(*fields)
    reference = synthetic_reference(spec)
    pins.check(("synthetic", fields, "float64"), *(part for split in reference for part in split))
    splits = [(split.features, split.labels) for split in make_synthetic(spec)]
    for (features, labels), (ref_features, ref_labels) in zip(splits, reference):
        assert features.dtype == np.float32
        assert features.tobytes() == ref_features.astype(np.float32).tobytes()
        assert np.array_equal(labels, ref_labels)
    pins.check(("synthetic", fields, "float32"), *(part for split in splits for part in split))


@pytest.mark.parametrize("fields, workers", [
    # two workers keep the ids these tests had when a side worker drew half the classes
    pytest.param(fields, workers,
                 id=f"fields{i}" + ("" if workers == 2 else f"-_WORKERS={workers}"))
    for i, fields in enumerate(sorted(pins.PINS["synthetic"]))
    for workers in (1, 2, 3)
])
def test_synthetic_bytes_pinned_on_the_worker(monkeypatch, fields, workers):
    # with no byte gate, a second CPU gives the side worker the first half of
    # the classes
    monkeypatch.setattr(rng, "_WORKERS", workers)
    monkeypatch.setattr(rng, "_OFFLOAD_BYTES", 0)
    test_synthetic_bytes_pinned(fields)


@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_synthetic_bytes_pinned_on_every_blas_kernel(kernel):
    # the synthetic dataset makes no BLAS call, so its pins hold on any kernel
    run_on_kernel(kernel, "import pins, test_data\n"
                          "for fields in sorted(pins.PINS['synthetic']):\n"
                          "    test_data.test_synthetic_bytes_pinned(fields)")


def test_synthetic_bytes_pinned_on_x86_v3_loops():
    # numpy's float32 log, sqrt, sin and cos, which the draw runs, give the
    # same bytes on the X86_V3 loops of an AVX2 host as on X86_V4's
    run_on_kernel("Haswell", "import pins, test_data\n"
                             "for fields in sorted(pins.PINS['synthetic']):\n"
                             "    test_data.test_synthetic_bytes_pinned(fields)", "X86_V3")


# (F, rows) of the pass check: 100 and 600 rows of 784 are 2 and 14 full
# blocks of 41 rows plus a partial one, a block of 5 rows of 6553 holds an
# odd 32,765 values, a row of 40,000 is a block, and one row is a partial
# block alone
PASS_SHAPES = [(784, 100), (784, 600), (6553, 13), (40000, 3), (784, 1)]


def check_pass_lengths():
    """``_normals`` gives ``box_muller_rows``' bytes in passes of 1, 2 and 3 blocks, and in one pass.

    Each shape is drawn with and without an offset. rng's gate sets the
    pass length, and the passes ``_uniforms`` is handed are checked too, so
    each draw runs the passes it names. Run in a child process on X86_V3
    loops as well.
    """
    gate, uniforms = rng._OFFLOAD_BYTES, data._uniforms
    try:
        for F, rows in PASS_SHAPES:
            step = max(1, 32768 // F)
            blocks, m = rows // step, -(-step * F // 2)
            reference = box_muller_rows(rng.generator((F, rows)), rows, F)
            for k in sorted({1, 2, 3, max(1, blocks)}):
                rng._OFFLOAD_BYTES = 4 * m * k  # the gate of k blocks' cosines
                expected_passes = [k] * (blocks // k) + [blocks % k] * (blocks % k > 0)
                expected_passes += [1] * (rows % step > 0)  # the partial block
                for offset in (None, np.linspace(-3.0, 3.0, F)):
                    passes = []
                    data._uniforms = lambda gen, out: passes.append(len(out)) or uniforms(gen, out)
                    out = data._normals(rng.generator((F, rows)), np.empty((rows, F), np.float32),
                                        offset)
                    expected = reference if offset is None else (reference + offset).astype(np.float32)
                    assert out.tobytes() == expected.tobytes(), (F, rows, k, offset is None)
                    assert passes == expected_passes, (F, rows, k)
    finally:
        rng._OFFLOAD_BYTES, data._uniforms = gate, uniforms


def test_the_pass_length_moves_no_byte():
    check_pass_lengths()


def test_the_pass_length_moves_no_byte_on_x86_v3_loops():
    run_on_kernel("Haswell", "import test_data\ntest_data.check_pass_lengths()", "X86_V3")


@pytest.mark.parametrize("shape", [(2,), (6,), (3, 32144)])
def test_the_raw_word_uniforms_are_numpys_float32_uniforms(shape):
    # SFC64 hands out a 64-bit word's low half, then its high half, which
    # is how gen.random(dtype=np.float32) consumes the words: the values and
    # the state after them must be that call's, mid-stream too. numpy keeps
    # the last high half it handed out in the state's "uinteger", which it
    # reads only while "has_uint32" is 1, so that field is not compared.
    gen, numpy_gen = rng.generator(7), rng.generator(7)
    for g in (gen, numpy_gen):
        g.standard_normal(5)
    for _ in range(2):
        out = data._uniforms(gen, np.empty(shape, np.float32))
        assert out.tobytes() == numpy_gen.random(out.size, dtype=np.float32).tobytes()
        state, numpy_state = gen.bit_generator.state, numpy_gen.bit_generator.state
        assert state["has_uint32"] == numpy_state["has_uint32"] == 0
        assert np.array_equal(state["state"]["state"], numpy_state["state"]["state"])


def test_synthetic_rows_come_in_class_order_from_per_class_keys():
    # 1001 features: blocks of 32 rows, so each train split is a block of 32
    # rows and an odd one of 3, and each test split one block of 4
    spec = SyntheticSpec(classes=3, features=1001, train_per_class=35, test_per_class=4,
                         margin=2.0, seed=11)
    train, test = make_synthetic(spec)
    means = _class_means(spec)
    assert np.array_equal(train.labels, np.repeat(np.arange(3), 35))
    assert np.array_equal(test.labels, np.repeat(np.arange(3), 4))
    by_class = train.features.reshape(3, 35, 1001), test.features.reshape(3, 4, 1001)
    for c in range(3):
        # class c's own key: its train rows, then its test rows continue the stream
        gen = rng.generator(rng.substream(11, rng.DATASET, c + 1))
        for rows in by_class:
            expected = (box_muller_rows(gen, len(rows[c]), 1001) + means[c]).astype(np.float32)
            assert np.array_equal(rows[c], expected)


def test_the_box_muller_sampler_draws_standard_normals():
    # 32 blocks of 41 rows of 784 values: each block's value j and value
    # m + j share a radius, so they must be uncorrelated, as values and as
    # squares
    rows, features, blocks = 41 * 32, 784, 32
    z = data._normals(rng.generator(2024), np.empty((rows, features), np.float32))
    z = z.astype(np.float64).reshape(-1)
    assert z.size >= 10**6
    assert check_mean_zero("box-muller mean", z).passed
    assert check_variance("box-muller variance", z, 1.0).passed
    assert np.abs(z).max() <= np.sqrt(-2 * np.log(2.0**-24))
    ordered = np.sort(z)
    cdf = 0.5 * (1 + np.array([math.erf(x / math.sqrt(2)) for x in ordered.tolist()]))
    ranks = np.arange(1, z.size + 1) / z.size
    distance = max((ranks - cdf).max(), (cdf - ranks + 1 / z.size).max())
    assert distance < 1.628 / math.sqrt(z.size)  # the KS test's 1% critical value
    cosines, sines = np.split(z.reshape(blocks, -1), 2, axis=1)
    assert check_mean_zero("pair products", cosines * sines).passed
    assert check_mean_zero("pair square products", (cosines**2 - 1) * (sines**2 - 1)).passed


def test_a_paper_size_synthetic_draw_holds_no_float64_pool(monkeypatch):
    # the float32 Box-Muller draw writes each value once, into its float32
    # output, half the float64 pool; each of the two threads adds only its
    # pass scratch, a pass's raw words and its cosines (1.5 MB at this
    # shape); a whole class drawn in float64 on each of the two threads
    # would take the peak to 0.67 of the pool
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
