import hashlib
import json
import os
import re

import numpy as np
import pytest

from airsgd import channel, cli, experiment, learner, ota, rng, verify
from airsgd.config import ConfigError, apply_overrides, parse_config, template
from airsgd.data import write_idx_images, write_idx_labels
from airsgd.experiment import (
    CSV_HEADER,
    NumericAbort,
    build_dataset,
    run,
    run_cells,
    run_matrix,
    write_metrics,
)


def _toy_doc(**updates):
    doc = template("minimal")
    doc.update(M=2, K=16, T=10, d=10, s=5, sigma_z_sq=0.0, eval_every=10)
    doc["dataset"] = {
        "kind": "synthetic", "classes": 2, "features": 4,
        "train_per_class": 60, "test_per_class": 30, "margin": 2.0, "seed": 3,
    }
    doc["partition"] = {"per_device": 40}
    doc["optimizer"] = {"kind": "sgd", "learning_rate": 0.05}
    doc.update(updates)
    return doc


def _fixed_grads(seed, d=10):
    # deterministic per-(iteration, device) pseudo-gradients, independent of theta
    def fn(theta, t, grads):
        return np.stack([np.random.default_rng((seed, t, m)).normal(size=d)
                         for m in range(1, len(grads) + 1)])
    return fn


def test_error_free_training_converges():
    doc = template("minimal")
    doc.update(M=4, T=200, mode="error_free", eval_every=50)
    doc["dataset"]["margin"] = 4.0
    doc["optimizer"] = {"kind": "sgd", "learning_rate": 0.2}
    records = run(parse_config(doc))
    assert records[-1].accuracy >= 0.95
    assert all(r.inst_power == 0.0 for r in records)
    assert all(r.est_mse is None for r in records)


def test_estimator_tracks_average_gradient_at_large_k():
    # sigma_z^2 = 0 and K = 1e4: channel hardening makes the estimate's
    # MSE a tiny fraction of the squared gradient norm, every iteration
    doc = _toy_doc(K=10_000, T=15, eval_every=1)
    config = parse_config(doc)
    per_iteration = {}

    def observing(theta, t, grads):
        per_iteration[t] = grads
        return grads

    records = run(config, gradient_fn=observing)
    for rec in records:
        avg = np.mean(per_iteration[rec.iteration], axis=0)
        rel_mse = rec.est_mse * config.d / float(avg @ avg)
        assert rel_mse <= 1e-2


def test_ota_approaches_error_free_as_antennas_grow():
    # fixed gradient streams and no noise: the parameter gap after 10
    # iterations shrinks monotonically as K runs through 4, 16, 64, 256
    grads = _fixed_grads(9)
    reference = {}
    run(parse_config(_toy_doc(mode="error_free", master_seed=7)),
        gradient_fn=grads, capture=reference)
    distances = []
    for K in (4, 16, 64, 256):
        captured = {}
        run(parse_config(_toy_doc(K=K, master_seed=7)),
            gradient_fn=grads, capture=captured)
        distances.append(float(np.linalg.norm(captured["theta"] - reference["theta"])))
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_metrics_file_bit_identical_across_reruns(tmp_path):
    config = parse_config(_toy_doc(T=8, eval_every=3, sigma_z_sq=4.0))
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_metrics(run(config), config, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# sha256 of the metrics file of a 12-iteration run of the minimal template.
# These pin the reproducibility contract across processes and commits: a
# change that moves any byte updates them on purpose and says why in
# CHANGES.md. Recorded with numpy 2.4 on x86-64. The ota digest pins the
# channel.sample_combined stream; test_channel pins the reference streams.
GOLDEN_METRICS_SHA256 = {
    "ota": "e72014c7f4f1732a680b206d10b2fffa58de887e86e3026e224cbb8b7b0ca5f4",
    "error_free": "3514bbf4c5872f74ff29cb3d9649725bd2b037a721c2f103154772fdd363ca8f",
}
# The same ota run with batch_size=16: pins the BATCH substreams, one per
# iteration, the smallest-keys selection in key order, and the minibatch
# gradient path.
GOLDEN_BATCH_METRICS_SHA256 = "460d4982371681b83d0013dfffc670c139dca77f47b78ce2e513bb54328309da"


def _golden_digest(tmp_path, *overrides):
    config = parse_config(apply_overrides(template("minimal"), ["T=12", "eval_every=4", *overrides]))
    path = tmp_path / "m.csv"
    write_metrics(run(config), config, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_METRICS_SHA256))
def test_metrics_file_matches_golden_digest(tmp_path, mode):
    assert _golden_digest(tmp_path, f"mode={mode}") == GOLDEN_METRICS_SHA256[mode]


def test_batch_metrics_file_matches_golden_digest(tmp_path):
    assert _golden_digest(tmp_path, "batch_size=16") == GOLDEN_BATCH_METRICS_SHA256


def test_batch_positions_draw_uniform_ordered_pairs():
    # 5 positions, batches of 2: each of the 20 ordered pairs is equally
    # likely on every device; chi-square 0.999 quantile at df=19 is 43.82
    config = parse_config(_toy_doc(M=3, partition={"per_device": 5}, batch_size=2, master_seed=11))
    batches = np.stack([experiment._batch_positions(config, t) for t in range(1, 4001)])
    assert batches.shape == (4000, 3, 2)
    assert np.all(batches[..., 0] != batches[..., 1])
    pairs = [(a, b) for a in range(5) for b in range(5) if a != b]
    for device in range(3):
        first, second = batches[:, device].T
        counts = np.array([np.sum((first == a) & (second == b)) for a, b in pairs])
        assert counts.sum() == 4000
        assert np.sum((counts - 200.0) ** 2 / 200.0) < 43.82


@pytest.mark.parametrize("layout", ["numpy", "reversed_sides"])
def test_batch_positions_are_the_smallest_keys_in_key_order(monkeypatch, layout):
    # [reversed_sides] lays each row of drawn keys out in descending order, so
    # both sides of the split run against position order: the batch is then the
    # last 12 positions, the smallest key's last
    generator = rng.generator

    class Descending:
        def __init__(self, seed_seq):
            self.gen = generator(seed_seq)

        def random(self, shape):
            return np.sort(self.gen.random(shape), axis=1)[:, ::-1]

    if layout == "reversed_sides":
        monkeypatch.setattr(rng, "generator", Descending)
    config = parse_config(_toy_doc(M=4, partition={"per_device": 40}, batch_size=12, master_seed=3))
    for t in (1, 2, 3):
        keys = rng.generator(rng.substream(3, rng.BATCH, t)).random((4, 40))
        expected = [sorted(range(40), key=lambda j: (row[j], j))[:12] for row in keys]
        if layout == "reversed_sides":
            assert expected == [list(range(39, 27, -1))] * 4
        np.testing.assert_array_equal(experiment._batch_positions(config, t), expected)


def test_batch_positions_break_key_ties_by_position(monkeypatch):
    keys = np.array([[0.5, 0.2, 0.5, 0.2, 0.9], [0.7, 0.7, 0.7, 0.1, 0.7]])

    class FixedKeys:
        def random(self, shape):
            assert shape == keys.shape
            return keys

    monkeypatch.setattr(rng, "generator", lambda seed_seq: FixedKeys())
    config = parse_config(_toy_doc(M=2, partition={"per_device": 5}, batch_size=3))
    np.testing.assert_array_equal(experiment._batch_positions(config, 1), [[1, 3, 0], [3, 0, 1]])


def test_batch_run_derives_one_substream_per_iteration(monkeypatch):
    keys = []
    substream = rng.substream

    def recording(master_seed, tag, *indices):
        keys.append((master_seed, tag, *indices))
        return substream(master_seed, tag, *indices)

    monkeypatch.setattr(rng, "substream", recording)
    run(parse_config(_toy_doc(T=6, batch_size=8, master_seed=5)))
    assert [key for key in keys if key[1] == rng.BATCH] == [(5, rng.BATCH, t) for t in range(1, 7)]


# sha256 of the `verify-stats --trials 2000 --seed 1` report, which pins the
# reference channel streams and the chunking of verify's draws: with chunks
# of 512 matrices each check draws four chunks, the last one short. The
# report must not depend on the worker count or the block size, so the
# digests are also checked with 1 and 3 workers and with one matrix a block.
GOLDEN_VERIFY_SHA256 = {
    4096: "21d4a8e6107403c81ccfb1bf1223d01deb85a181106089e46e9cb8a48c2968f8",
    512: "83c569180034e83786c8a2278f549a18d23aa2f3f1d934725114aff351a4fb49",
}


@pytest.mark.parametrize("chunk, settings", [
    pytest.param(chunk, settings, id="-".join([str(chunk), *(f"{k}={v}" for k, v in settings.items())]))
    for chunk in sorted(GOLDEN_VERIFY_SHA256)
    for settings in ({}, {"_WORKERS": 1}, {"_WORKERS": 3}, {"_BLOCK_BYTES": 1})
])
def test_verify_stats_report_matches_golden_digest(monkeypatch, capsys, chunk, settings):
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    for name, value in settings.items():
        monkeypatch.setattr(verify, name, value)
    cli.main(["verify-stats", "--trials", "2000", "--seed", "1"])
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_VERIFY_SHA256[chunk]


@pytest.mark.parametrize("workers, block_matrices", [(1, 5), (3, 1), (3, 5)])
def test_verify_statistics_equal_one_draw_per_chunk(monkeypatch, workers, block_matrices):
    # The report prints rounded figures; this reference, one draw per chunk
    # reduced and summed in chunk order, pins the values exactly.
    M, K, sigma_h_sq, trials = 3, 8, 1.5, 1300  # chunks of 512, 512 and 276
    monkeypatch.setattr(verify, "_CHUNK", 512)
    monkeypatch.setattr(verify, "_WORKERS", workers)
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 16 * M * K * block_matrices)
    draws = [channel.sample_channel(rng.substream(4, rng.CHANNEL, 0, c), n, M, K, 1, sigma_h_sq)
             for c, n in enumerate((512, 512, 276))]
    expected = np.concatenate([ota.interference_statistic(h)[:, 0] for h in draws])
    assert np.array_equal(verify.interference_samples(M, K, sigma_h_sq, trials, 4, 0), expected)
    total = 0.0
    for h in draws:
        total += float(((ota.effective_signal_gains(h) - sigma_h_sq) ** 2).sum())
    rms = float(np.sqrt(total / (trials * M)) / sigma_h_sq)
    assert verify.hardening_rms_deviation(M, K, sigma_h_sq, trials, 4, 0) == rms


@pytest.mark.parametrize("trials, chunk, sizes", [
    (1536, 512, [512, 512, 512]),
    (1300, 512, [512, 512, 276]),
    (300, 512, [300]),
], ids=["multiple", "short-last", "one-short"])
def test_map_chunks_cuts_trials_into_chunks(trials, chunk, sizes):
    assert verify.map_chunks(lambda c, n: (c, n), trials, chunk) == list(enumerate(sizes))


def test_map_chunks_returns_chunk_order_under_any_worker_count(monkeypatch):
    def draw(c, n):
        return rng.generator(rng.substream(9, rng.CHANNEL, c)).standard_normal(n)

    results = {}
    for workers in (1, 3):
        monkeypatch.setattr(verify, "_WORKERS", workers)
        results[workers] = verify.map_chunks(draw, 1000, 128)
    assert len(results[1]) == 8
    expected = [draw(c, min(128, 1000 - 128 * c)) for c in range(8)]
    for chunks in results.values():
        assert all(np.array_equal(a, b) for a, b in zip(chunks, expected, strict=True))


def test_map_chunks_propagates_an_exception_from_one_chunk(monkeypatch):
    monkeypatch.setattr(verify, "_WORKERS", 3)

    def fn(c, n):
        if c == 2:
            raise ValueError(f"chunk {c} of {n}")
        return c

    with pytest.raises(ValueError, match="chunk 2 of 100"):
        verify.map_chunks(fn, 1000, 100)


def test_a_run_and_a_verify_call_derive_distinct_streams(monkeypatch):
    # Every stream the program draws is seeded through rng.generator. The
    # run uses one seed for the master seed and the dataset, and sets a
    # batch, so it derives every kind of key; verify-stats cuts each check
    # into four chunks. A run and a verify-stats call at one seed share
    # streams by the trailing-zero rule (rng's docstring), so the call here
    # takes another seed.
    seeds = []
    generator = rng.generator

    def recording(seed):
        if not isinstance(seed, np.random.Generator):
            seeds.append(seed)
        return generator(seed)

    monkeypatch.setattr(rng, "generator", recording)
    doc = _toy_doc(T=6, batch_size=8, master_seed=5, sigma_z_sq=1.0)
    doc["dataset"]["seed"] = 5
    run(parse_config(doc))
    run_seeds = len(seeds)
    assert run_seeds == 1 + 1 + 3 * 6  # dataset, partition, then batch/channel/noise per t
    monkeypatch.setattr(verify, "_CHUNK", 512)
    verify.stat_suite(2000, 6)
    assert len(seeds) - run_seeds == 4 * (len(verify.INTERFERENCE_CASES) + len(verify.HARDENING_K))
    states = {tuple(np.random.SeedSequence(seed).generate_state(4)) if isinstance(seed, int)
              else tuple(seed.generate_state(4)) for seed in seeds}
    assert len(states) == len(seeds)


def test_metrics_file_layout(tmp_path):
    config = parse_config(_toy_doc(T=8, eval_every=3, sigma_z_sq=4.0))
    path = tmp_path / "m.csv"
    write_metrics(run(config), config, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# master_seed: 1"
    assert lines[2] == CSV_HEADER
    rows = [l for l in lines[3:] if l]
    assert len(rows) == 3  # evaluations at t = 3, 6, 8
    assert [int(r.split(",")[0]) for r in rows] == [3, 6, 8]
    embedded = json.loads(lines[0][len("# config: "):])
    assert embedded["K"] == config.K
    assert "\r" not in path.read_text(encoding="utf-8")


def test_error_free_metrics_leave_mse_blank(tmp_path):
    config = parse_config(_toy_doc(T=4, eval_every=2, mode="error_free"))
    path = tmp_path / "m.csv"
    write_metrics(run(config), config, path)
    rows = [l for l in path.read_text().split("\n")[3:] if l]
    assert all(row.endswith(",") for row in rows)


def test_numeric_abort_names_iteration_and_stage():
    def exploding(theta, t, grads):
        if t == 3:
            return np.full_like(grads, np.inf)
        return np.zeros_like(grads)

    with pytest.raises(NumericAbort) as excinfo:
        run(parse_config(_toy_doc()), gradient_fn=exploding)
    assert excinfo.value.iteration == 3
    assert excinfo.value.stage == "local_gradient"
    assert "iteration 3" in str(excinfo.value)


def test_power_report_zero_gradients():
    def silent(theta, t, grads):
        return np.zeros_like(grads)

    records = run(parse_config(_toy_doc(T=5)), gradient_fn=silent)
    assert records[-1].avg_power == 0.0


def test_power_report_unit_norm_constant_gradient():
    unit = np.zeros(10)
    unit[0] = 1.0

    def constant(theta, t, grads):
        return np.tile(unit, (len(grads), 1))

    doc = _toy_doc(T=7)
    doc["power"] = {"kind": "constant", "alpha0": 1.0}
    records = run(parse_config(doc), gradient_fn=constant)
    assert records[-1].avg_power == 1.0
    assert all(r.inst_power == 1.0 for r in records)


def test_run_matrix_antenna_sweep(tmp_path):
    doc = _toy_doc(M=20, T=2, eval_every=1)
    doc["partition"] = {"per_device": 20}
    paths = [path for path, _ in run_matrix(doc, [("K", [1, 5, 40, 800])], tmp_path)]
    assert len(paths) == 4
    for K, path in zip((1, 5, 40, 800), paths):
        assert f"K={K}" in path
        with open(path) as f:
            assert json.loads(f.readline()[len("# config: "):])["K"] == K


def test_run_matrix_cartesian_product(tmp_path):
    doc = _toy_doc(T=2, eval_every=1)
    paths = [path for path, _ in run_matrix(doc, [("sigma_z_sq", [20.0, 100.0]), ("K", [1, 5])],
                                           tmp_path)]
    assert len(paths) == 4
    names = [p.rsplit("/", 1)[-1] for p in paths]
    assert "metrics_sigma_z_sq=20.0_K=1.csv" in names
    assert "metrics_sigma_z_sq=100.0_K=5.csv" in names


def test_run_matrix_empty_sweep_single_run(tmp_path):
    # a cell with no swept field is named after its config's metrics_path
    doc = _toy_doc(T=2, eval_every=1, metrics_path="elsewhere/run.csv")
    ((path, _),) = run_matrix(doc, [], tmp_path)
    assert path == str(tmp_path / "run.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]


def test_run_matrix_returns_each_cells_path_and_records_in_cell_order(tmp_path):
    doc = _toy_doc(T=2, eval_every=1)
    cells = run_matrix(doc, [("mode", ["ota", "error_free"]), ("K", [4, 1])], tmp_path)
    assert [os.path.basename(path) for path, _ in cells] == [
        "metrics_mode=ota_K=4.csv", "metrics_mode=ota_K=1.csv",
        "metrics_mode=error_free_K=4.csv", "metrics_mode=error_free_K=1.csv",
    ]
    for path, records in cells:
        with open(path, encoding="utf-8") as f:
            config = parse_config(json.loads(f.readline()[len("# config: "):]))
        assert records == run(config)


def test_no_out_dir_keeps_each_configs_metrics_path(tmp_path):
    target = tmp_path / "new" / "x.csv"
    ((path, records),) = run_matrix(_toy_doc(T=2, eval_every=1, metrics_path=str(target)), [], None)
    assert path == str(target) and target.exists()
    assert [record.iteration for record in records] == [1, 2]


def test_two_cells_with_one_metrics_path_are_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="sweep repeats a field or a cell: metrics.csv"):
        run_matrix(_toy_doc(T=2), [("K", [1, 4])], None)
    assert list(tmp_path.iterdir()) == []


def test_run_matrix_unknown_field(tmp_path):
    with pytest.raises(ConfigError):
        run_matrix(_toy_doc(), [("antennas", [1, 2])], tmp_path)


@pytest.mark.parametrize("sweep, repeated", [
    ([("K", [4, 4])], "metrics_K=4.csv"),
    ([("K", [4]), ("sigma_z_sq", [1.0]), ("K", [8])], "K"),
    ([("sigma_z_sq", [20, 20.0])], "metrics_sigma_z_sq=20.0.csv, metrics_sigma_z_sq=20.csv"),
], ids=["value", "field", "parsed_value"])
def test_run_matrix_rejects_repeats_before_any_cell(tmp_path, monkeypatch, sweep, repeated):
    def forbidden(configs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment, "run_cells", forbidden)
    with pytest.raises(ConfigError, match=f"sweep repeats .*{re.escape(repeated)}"):
        run_matrix(_toy_doc(T=2), sweep, tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


def test_run_matrix_parses_every_cell_before_any_runs(tmp_path, monkeypatch):
    def forbidden(configs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment, "run_cells", forbidden)
    with pytest.raises(ConfigError, match="K must be a positive integer"):
        run_matrix(_toy_doc(T=2), [("K", [4, 0])], tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


def _desk_doc(**updates):
    # the desk shape: 10 devices and 10 classes, so every mean over devices
    # and over a local set sums enough terms for its order to show
    doc = _toy_doc(M=10, d=330, s=165, T=12, eval_every=1, master_seed=4)
    doc["dataset"] = {"kind": "synthetic", "classes": 10, "features": 32,
                      "train_per_class": 30, "test_per_class": 20, "margin": 4.0, "seed": 8}
    doc["partition"] = {"per_device": 40}
    doc["optimizer"] = {"kind": "adam", "learning_rate": 0.05}
    doc.update(updates)
    return doc


def test_run_matrix_cells_are_byte_identical_to_their_solo_runs(tmp_path):
    # Each batch_size runs as one group of four cells: two K values share
    # their coefficient draws across two noise levels, one of them zero.
    # Gathering log_probs[:, dev, pos, y] leaves the cell axis innermost in
    # memory, so a mean over each local set sums in another order unless the
    # gathered array is made contiguous: the loss then moves in its last bit
    # on some rows, which this comparison catches.
    sweep = [("K", [1, 4]), ("sigma_z_sq", [0.0, 20.0]), ("batch_size", [None, 8])]
    cells = run_matrix(_desk_doc(), sweep, tmp_path / "grid")
    assert len(cells) == 8
    for path, _ in cells:
        with open(path, "rb") as f:
            grid_bytes = f.read()
        embedded = json.loads(grid_bytes.split(b"\n", 1)[0][len(b"# config: "):])
        config = parse_config(embedded)
        solo = tmp_path / "solo.csv"
        write_metrics(run(config), config, solo)
        assert solo.read_bytes() == grid_bytes, os.path.basename(path)


@pytest.mark.parametrize("field, values", [
    ("batch_size", [None, 8]),
    ("master_seed", [1, 2]),
    ("mode", ["ota", "error_free"]),
    ("power.alpha0", [1.0, 2.0]),
])
def test_run_matrix_groups_cells_that_differ_in_k_and_noise_only(tmp_path, monkeypatch,
                                                                 field, values):
    groups = []

    def recording(configs):
        groups.append(configs)
        return ensemble(configs)

    ensemble = experiment.run_cells
    monkeypatch.setattr(experiment, "run_cells", recording)
    sweep = [("K", [1, 4]), (field, values), ("sigma_z_sq", [0.0, 20.0])]
    cells = run_matrix(_toy_doc(T=2, eval_every=1), sweep, tmp_path)
    assert len(cells) == 8 and all(os.path.exists(path) for path, _ in cells)
    assert [len(group) for group in groups] == [4, 4]
    for group in groups:
        keys = {experiment._group_key(config) for config in group}
        assert len(keys) == 1
        assert sorted((c.K, c.sigma_z_sq) for c in group) == [(1, 0.0), (1, 20.0),
                                                               (4, 0.0), (4, 20.0)]


def test_run_cells_rejects_cells_that_differ_beyond_k_and_noise():
    configs = [parse_config(_toy_doc()), parse_config(_toy_doc(batch_size=8))]
    with pytest.raises(ValueError, match="differ in K, sigma_z_sq and metrics_path only"):
        run_cells(configs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_numeric_abort_in_a_group_names_its_cell_and_keeps_earlier_groups(tmp_path):
    # error_free ignores the noise and finishes; in ota, sigma_z_sq = 1e308
    # overflows the noise variance while its sane neighbour is unharmed
    out = tmp_path / "grid"
    with pytest.raises(NumericAbort) as excinfo:
        run_matrix(_toy_doc(T=3), [("mode", ["error_free", "ota"]),
                                   ("sigma_z_sq", [1.0, 1e308])], out)
    assert excinfo.value.path == str(out / "metrics_mode=ota_sigma_z_sq=1e+308.csv")
    assert (excinfo.value.iteration, excinfo.value.stage) == (1, "estimate")
    assert excinfo.value.path in str(excinfo.value)
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics_mode=error_free_sigma_z_sq=1.0.csv",
        "metrics_mode=error_free_sigma_z_sq=1e+308.csv",
    ]


def test_idx_dataset_runs_end_to_end(tmp_path):
    pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    write_idx_images(tmp_path / "train-img.idx", pixels)
    write_idx_labels(tmp_path / "train-lbl.idx", np.array([0, 1], dtype=np.uint8))
    write_idx_images(tmp_path / "test-img.idx", pixels[::-1].copy())
    write_idx_labels(tmp_path / "test-lbl.idx", np.array([1, 0], dtype=np.uint8))
    doc = _toy_doc(T=3, eval_every=1, d=50, s=25, M=2)
    doc["dataset"] = {
        "kind": "idx",
        "train_images": str(tmp_path / "train-img.idx"),
        "train_labels": str(tmp_path / "train-lbl.idx"),
        "test_images": str(tmp_path / "test-img.idx"),
        "test_labels": str(tmp_path / "test-lbl.idx"),
    }
    doc["partition"] = {"per_device": 2}
    records = run(parse_config(doc))
    assert len(records) == 3
    assert records[-1].accuracy is not None


@pytest.mark.parametrize("updates, message", [
    ({"d": 12, "s": 1}, "config d=12, dataset implies (features+1)*classes=10"),
    ({"partition": {"per_device": 121}}, "per_device=121 exceeds 120 training samples"),
], ids=["d", "per_device"])
def test_build_dataset_checks_the_synthetic_config_against_the_dataset(updates, message):
    config = parse_config(_toy_doc(**updates))  # parses: the check needs the dataset
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_dataset(config)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(config)


def test_build_dataset_rejects_dimension_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    write_idx_images(tmp_path / "i.idx", pixels)
    write_idx_labels(tmp_path / "l.idx", np.array([0, 1], dtype=np.uint8))
    doc = _toy_doc(T=2, d=40, s=20)
    doc["dataset"] = {
        "kind": "idx",
        "train_images": str(tmp_path / "i.idx"),
        "train_labels": str(tmp_path / "l.idx"),
        "test_images": str(tmp_path / "i.idx"),
        "test_labels": str(tmp_path / "l.idx"),
    }
    doc["partition"] = {"per_device": 2}
    with pytest.raises(ConfigError, match="dimension"):
        build_dataset(parse_config(doc))


def test_ota_run_never_draws_the_fading_tensor(monkeypatch):
    # training draws the combiner output directly; the reference path is
    # for verification and decomposition only
    def forbidden(*args, **kwargs):
        raise AssertionError("reference channel path called from a training run")

    for module, name in ((channel, "sample_channel"), (channel, "sample_noise"),
                         (channel, "propagate"), (ota, "combine")):
        monkeypatch.setattr(module, name, forbidden)
    records = run(parse_config(_toy_doc(T=3, eval_every=1, sigma_z_sq=4.0)))
    assert len(records) == 3
    assert all(r.est_mse > 0 for r in records)


@pytest.mark.parametrize("mode", ["ota", "error_free"])
@pytest.mark.parametrize("batch_size", [None, 8])
def test_run_makes_one_batched_backward_per_iteration(monkeypatch, mode, batch_size):
    # all M gradients of an iteration come from one learner.gradients call
    calls = []

    def counting(X, y, log_probs):
        calls.append(X.shape[0])
        return backward(X, y, log_probs)

    backward = learner.gradients
    monkeypatch.setattr(learner, "gradients", counting)
    records = run(parse_config(_toy_doc(T=3, eval_every=1, mode=mode, batch_size=batch_size)))
    assert calls == [2] * 3  # T calls, each over all M = 2 devices
    assert len(records) == 3
    assert all(r.loss > 0 for r in records)


def test_gradient_fn_must_return_one_row_per_device():
    def one_row(theta, t, grads):
        return grads[0]

    with pytest.raises(ValueError, match="shape"):
        run(parse_config(_toy_doc(T=2)), gradient_fn=one_row)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("mode, value, stage", [("error_free", 1e308, "average"),
                                                ("ota", 1e200, "power")])
def test_finite_gradients_that_overflow_later_abort(mode, value, stage):
    # every row is finite, but the device mean (error_free) or the transmit
    # energy (ota) overflows: the run stops there, before any update or record
    def huge(theta, t, grads):
        return np.full_like(grads, value)

    with pytest.raises(NumericAbort) as excinfo:
        run(parse_config(_toy_doc(mode=mode)), gradient_fn=huge)
    assert (excinfo.value.iteration, excinfo.value.stage) == (1, stage)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("mode, margin, stage", [("error_free", 1e308, "average"),
                                                 ("ota", 1.5e307, "power")])
def test_an_overflowing_dataset_aborts_and_writes_no_file(tmp_path, mode, margin, stage):
    doc = template("minimal")
    doc.update(M=20, T=3, mode=mode, partition={"per_device": 100})
    doc["dataset"]["margin"] = margin
    with pytest.raises(NumericAbort) as excinfo:
        run_matrix(doc, [], tmp_path / "out")
    assert excinfo.value.stage == stage
    assert list((tmp_path / "out").iterdir()) == []


def test_cell_filename_keeps_plain_values():
    cells = [("K", 5), ("sigma_z_sq", 20.0), ("batch_size", None), ("x", True),
             ("y", 1e20), ("z", -0.5), ("optimizer.learning_rate", 1e-05)]
    assert experiment._cell_filename(cells) == (
        "metrics_K=5_sigma_z_sq=20.0_batch_size=None_x=True_y=1e+20_z=-0.5"
        "_optimizer-learning_rate=1e-05.csv"
    )


def test_run_matrix_path_values_stay_inside_out_dir(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    write_idx_images(data_dir / "img.idx", pixels)
    write_idx_labels(data_dir / "lbl.idx", np.array([0, 1], dtype=np.uint8))
    doc = _toy_doc(T=2, eval_every=1, d=50, s=25, M=2)
    doc["dataset"] = {
        "kind": "idx",
        "train_images": str(data_dir / "img.idx"),
        "train_labels": str(data_dir / "lbl.idx"),
        "test_images": str(data_dir / "img.idx"),
        "test_labels": str(data_dir / "lbl.idx"),
    }
    doc["partition"] = {"per_device": 1}
    # both values contain "/" and "../": unescaped, the first names
    # directories that do not exist under out, the second escapes it
    monkeypatch.chdir(data_dir)
    values = [f"{data_dir}/../data/img.idx", "../data/img.idx"]
    out_dir = tmp_path / "out"
    before = sorted(p for p in tmp_path.rglob("*"))
    cells = run_matrix(doc, [("dataset.train_images", values)], out_dir)
    assert len(cells) == 2
    for (path, _), value in zip(cells, values):
        assert os.path.dirname(path) == str(out_dir)
        with open(path) as f:
            assert json.loads(f.readline()[len("# config: "):])["dataset"]["train_images"] == value
    after = sorted(p for p in tmp_path.rglob("*"))
    assert [p for p in after if p not in before] == [out_dir] + sorted(out_dir.iterdir())


class _HalfWrite:
    """A text file whose second write fails after the first went to disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
        return False

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_write_keeps_earlier_file(tmp_path, monkeypatch, failure):
    earlier = parse_config(_toy_doc(T=2, eval_every=1))
    later = parse_config(_toy_doc(T=4, eval_every=2, K=4))
    path = tmp_path / "m.csv"
    write_metrics(run(earlier), earlier, path)
    kept = path.read_bytes()
    records = run(later)
    if failure == "write":
        monkeypatch.setattr(experiment, "open",
                            lambda *a, **kw: _HalfWrite(open(*a, **kw)), raising=False)
    else:
        def no_rename(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(experiment.os, "replace", no_rename)
    with pytest.raises(OSError):
        write_metrics(records, later, path)
    monkeypatch.undo()
    assert path.read_bytes() == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
    # and a write that succeeds replaces the file whole
    write_metrics(records, later, path)
    assert path.read_bytes() != kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
