import ast
import functools
import json
import os
import pathlib
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest

from airsgd import channel, cli, data, experiment, learner, ota, packing, rng, verify
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
from blas_kernels import BLAS_KERNELS, SIMD_TARGETS, run_on_kernel
from group_log import assert_no_child_alive, record_groups, recorded_groups
import pins
from test_data import synthetic_reference


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
    # iterations shrinks monotonically as K runs through 4, 16, 64, 256.
    # gradient_fn sees theta before each update, so at t = 11 it sees the
    # parameters after 10.
    grads = _fixed_grads(9)

    def final_theta(**updates):
        seen = {}

        def recording(theta, t, local):
            seen[t] = theta.copy()
            return grads(theta, t, local)

        run(parse_config(_toy_doc(T=11, master_seed=7, **updates)), gradient_fn=recording)
        return seen[11]

    reference = final_theta(mode="error_free")
    distances = [float(np.linalg.norm(final_theta(K=K) - reference)) for K in (4, 16, 64, 256)]
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_metrics_file_bit_identical_across_reruns(tmp_path):
    config = parse_config(_toy_doc(T=8, eval_every=3, sigma_z_sq=4.0))
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_metrics(run(config), config, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


@functools.cache
def blas_fingerprint() -> str:
    """sha256 of fixed float32 learner products at the minimal run's shapes.

    The products are the forward over ``held`` rows and the forward and
    backward over the devices' (M, n, F) stack, on fixed offset normals.
    ``held`` is fixed at 238, the count of rows the minimal run's devices
    held when the families were recorded, so no stream of the program moves
    the fingerprint; it is not a multiple of 8, OpenBLAS's unroll, so
    the families still round it differently. The digest names the family of
    the kernel this process runs.
    """
    config = parse_config(template("minimal"))
    M, n, held = config.M, config.partition.per_device, 238
    F, classes = config.dataset.features, config.dataset.classes
    gen = np.random.default_rng(0)
    held_X = (gen.standard_normal((held, F)) + 3.0).astype(np.float32)  # an offset, so sums round
    X = (gen.standard_normal((M, n, F)) + 3.0).astype(np.float32)
    y = gen.integers(0, classes, size=(M, n))
    theta = gen.standard_normal((1, (F + 1) * classes)) / F
    with rng.one_blas_thread():
        log_probs = learner.log_probabilities(theta[:, None], X)
        products = (learner.log_probabilities(theta, held_X), learner.gradients(X, y, log_probs))
    return pins.sha256(*products)


def _check_golden_run(tmp_path, run_pin):
    """Check the metrics file of run ``run_pin`` against this BLAS family's pin."""
    override = "batch_size=16" if run_pin == "batch" else f"mode={run_pin}"
    config = parse_config(apply_overrides(template("minimal"), ["T=12", "eval_every=4", override]))
    path = tmp_path / "m.csv"
    write_metrics(run(config), config, path)
    pins.check(("runs", pins.runs(blas_fingerprint()), run_pin), path.read_bytes())


# A minimal run's gate figure is below the side worker's threshold; with these
# settings the run opens the worker, which takes its channel draws and the
# first device half of each full-batch backward, each half making one
# backward call a device, and its dataset's classes are drawn on two
# threads, one block a pass. The held rows are compacted in the caller's
# thread either way.
ON_THE_WORKER = {"_WORKERS": 2, "_OFFLOAD_BYTES": 0}


def _set(monkeypatch, settings):
    for name, value in settings.items():
        monkeypatch.setattr(rng, name, value)


@pytest.mark.parametrize("mode, settings", [
    pytest.param(mode, settings, id="-".join([mode, *(f"{k}={v}" for k, v in settings.items())]))
    for mode in ("error_free", "ota")
    for settings in ({}, ON_THE_WORKER)
])
def test_metrics_file_matches_golden_digest(tmp_path, monkeypatch, mode, settings):
    _set(monkeypatch, settings)
    _check_golden_run(tmp_path, mode)


def test_batch_metrics_file_matches_golden_digest(tmp_path):
    _check_golden_run(tmp_path, "batch")


def test_batch_metrics_file_matches_golden_digest_on_the_worker(tmp_path, monkeypatch):
    _set(monkeypatch, ON_THE_WORKER)
    _check_golden_run(tmp_path, "batch")


def test_every_family_row_holds_its_key_and_the_three_run_digests():
    for family, row in pins.PINS["runs"].items():
        kernel, *target = family.split()
        # so a kernel test checks the row
        assert kernel in BLAS_KERNELS and target in ([], ["X86_V3"]), family
        assert sorted(row) == ["batch", "error_free", "fingerprint", "ota"], family


def test_every_pin_is_named_by_a_test():
    # a grouped pin's tests run over its own keys, so its name is enough
    tests = [path.read_text(encoding="utf-8") for path in pathlib.Path(__file__).parent.glob("test_*.py")]
    named = set(re.findall(r'pins\.check\(\(?"(\w+)"', "".join(tests)))
    assert set(pins.PINS) - named == set()


def _recording_draws(monkeypatch):
    """Patch channel.sample_combined to list the thread each call runs on."""
    sample, threads = channel.sample_combined, []

    def recording(*args):
        threads.append(threading.get_ident())
        return sample(*args)

    monkeypatch.setattr(channel, "sample_combined", recording)
    return threads


def test_golden_digest_holds_on_the_worker_under_constant_thread_switching(tmp_path, monkeypatch):
    _set(monkeypatch, ON_THE_WORKER)
    threads = _recording_draws(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_golden_run(tmp_path, "ota")
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 12 and threading.get_ident() not in threads


def test_an_abort_with_a_draw_in_flight_leaves_no_thread_behind(monkeypatch):
    _set(monkeypatch, ON_THE_WORKER)
    threads = _recording_draws(monkeypatch)

    def inf_at_3(theta, t, grads):
        if t < 3:
            return grads
        deadline = time.monotonic() + 10
        while len(threads) < 3 and time.monotonic() < deadline:  # iteration 3's draw has begun
            time.sleep(0.001)
        return np.full_like(grads, np.inf)

    before = threading.active_count()
    with pytest.raises(NumericAbort) as excinfo:
        run(parse_config(apply_overrides(template("minimal"), ["T=12"])), gradient_fn=inf_at_3)
    assert (excinfo.value.iteration, excinfo.value.stage) == (3, "local_gradient")
    assert len(threads) == 3
    deadline = time.monotonic() + 10
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before


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


@pytest.mark.parametrize("batch_size", [None, 8])
@pytest.mark.parametrize("mode", ["ota", "error_free"])
def test_batch_run_derives_one_substream_per_iteration(monkeypatch, mode, batch_size):
    # Streams are keyed, so no digest sees a draw that a run makes and never
    # uses: each run derives the run tags its two stages need, once per
    # iteration, and no others (an error_free run makes no channel draw).
    keys = []
    substream = rng.substream

    def recording(master_seed, tag, *indices):
        keys.append((master_seed, tag, *indices))
        return substream(master_seed, tag, *indices)

    monkeypatch.setattr(rng, "substream", recording)
    run(parse_config(_toy_doc(T=6, batch_size=batch_size, master_seed=5, mode=mode)))
    over_the_air, batch = mode == "ota", batch_size is not None
    for tag, used in ((rng.CHANNEL, over_the_air), (rng.NOISE, over_the_air), (rng.BATCH, batch)):
        assert [key for key in keys if key[1] == tag] == [(5, tag, t) for t in range(1, 7) if used]


# no report byte may depend on the worker count, the thread that draws a chunk
# (dealt between the side worker and the caller) or the block length
@pytest.mark.parametrize("chunk, settings", [
    pytest.param(chunk, settings, id="-".join([str(chunk), *(f"{k}={v}" for k, v in settings.items())]))
    for chunk in sorted(pins.PINS["verify_stats"])
    for settings in ({}, {"_WORKERS": 1}, {"_WORKERS": 3}, ON_THE_WORKER, {"_OFFLOAD_BYTES": 1})
])
def test_verify_stats_report_matches_golden_digest(monkeypatch, capsys, chunk, settings):
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    _set(monkeypatch, settings)
    cli.main(["verify-stats", "--trials", "2000", "--seed", "1"])
    pins.check(("verify_stats", chunk), capsys.readouterr().out.encode())


@pytest.mark.parametrize("workers, block_matrices", [(1, 5), (2, 1), (2, 5), (3, 1), (3, 5)])
def test_verify_statistics_equal_one_draw_per_chunk(monkeypatch, workers, block_matrices):
    # The report prints rounded figures; this reference, one draw per chunk
    # reduced and summed in chunk order, pins the values exactly. With two
    # or more workers the deal gives the side worker chunks 0 and 2 and the
    # caller chunk 1; a third worker changes nothing.
    M, K, sigma_h_sq, trials = 3, 8, 1.5, 1300  # chunks of 512, 512 and 276
    monkeypatch.setattr(verify, "_CHUNK", 512)
    # the suite's gains pass this gate, which makes blocks of block_matrices
    _set(monkeypatch, {"_WORKERS": workers, "_OFFLOAD_BYTES": 16 * M * K * block_matrices})
    draws = [channel.sample_channel(rng.substream(4, rng.CHANNEL, 0, c), n, M, K, 1, sigma_h_sq)
             for c, n in enumerate((512, 512, 276))]
    expected = np.concatenate([ota.interference_statistic(h)[:, 0] for h in draws])
    (chunks,) = verify._channel_statistics([(verify._interference, M, K, sigma_h_sq, 0)], trials, 4)
    assert np.array_equal(np.concatenate(chunks), expected)
    total = 0.0
    for h in draws:
        total += float(((ota.effective_signal_gains(h) - sigma_h_sq) ** 2).sum())
    rms = float(np.sqrt(total / (trials * M)) / sigma_h_sq)
    (chunks,) = verify._channel_statistics(
        [(ota.effective_signal_gains, M, K, sigma_h_sq, 0)], trials, 4)
    assert verify._rms_deviation(chunks, sigma_h_sq) == rms


@pytest.mark.parametrize("half", ["worker", "caller"])
def test_an_exception_in_either_half_of_a_checks_chunks_propagates_and_leaves_no_thread(
        monkeypatch, half):
    monkeypatch.setattr(verify, "_CHUNK", 512)
    _set(monkeypatch, ON_THE_WORKER)

    def failing(h):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (half == "worker"):
            raise ValueError(f"a chunk of the {half}'s half")
        return verify._interference(h)

    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"a chunk of the {half}'s half"):
        # one check's chunks 0 and 2 on the worker, 1 here
        verify._channel_statistics([(failing, 3, 8, 1.5, 0)], 1300, 4)
    assert threading.active_count() == threads


@pytest.mark.parametrize("trials", [10_000, 2_000])
def test_the_deal_balances_a_suites_chunks_to_within_the_largest(trials):
    # the n * M * K gains of the hardening suite's chunks, in (check, chunk) order
    sizes = [min(verify._CHUNK, trials - start) for start in range(0, trials, verify._CHUNK)]
    gains = [n * verify.HARDENING_M * K for K in verify.HARDENING_K for n in sizes]
    worker, caller = verify._deal(gains)
    assert sorted(worker + caller) == list(range(len(gains)))
    assert abs(sum(gains[i] for i in worker) - sum(gains[i] for i in caller)) <= max(gains)
    assert verify._deal(gains) == (worker, caller)


def test_the_deal_gives_the_worker_the_first_of_equal_chunks():
    # chunks of 512, 512 and 276 matrices: the worker takes chunk 0, the
    # caller chunk 1, and chunk 2, the totals being tied, goes to the worker
    assert verify._deal([512 * 24, 512 * 24, 276 * 24]) == ([0, 2], [1])


@pytest.mark.parametrize("suite, statistic", [
    (verify.interference_checks, "interference_statistic"),
    (verify.hardening_checks, "effective_signal_gains"),
], ids=["interference", "hardening"])
@pytest.mark.parametrize("side", ["worker", "caller"])
def test_an_exception_on_either_side_of_a_suites_deal_propagates_and_leaves_no_thread(
        monkeypatch, suite, statistic, side):
    monkeypatch.setattr(verify, "_CHUNK", 512)
    _set(monkeypatch, ON_THE_WORKER)
    reduce = getattr(ota, statistic)

    def failing(h):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (side == "worker"):
            raise ValueError(f"a chunk of the {side}'s share")
        return reduce(h)

    monkeypatch.setattr(ota, statistic, failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"a chunk of the {side}'s share"):
        suite(2000, 4)
    assert threading.active_count() == threads


def _group_and_pid(group):
    return group, os.getpid()


def _sleeping(delays):
    """``_group_and_pid``, after ``delays[group]`` seconds (none for a group not listed)."""
    def fn(group):
        time.sleep(delays.get(group, 0.0))
        return _group_and_pid(group)
    return fn


def test_map_groups_gives_the_caller_the_first_share_of_the_groups(monkeypatch):
    # P = min(_WORKERS, n) processes: the caller runs the first ceil(n / P)
    # of n groups and P - 1 forked workers the rest, whichever groups are
    # slow (here the caller's group 0 and a worker's group 3)
    for workers, n, share in ((2, 6, 3), (3, 6, 2), (3, 7, 3)):
        monkeypatch.setattr(rng, "_WORKERS", workers)
        before, fds = threading.active_count(), len(os.listdir("/proc/self/fd"))
        results = list(rng.map_groups(_sleeping({0: 0.1, 3: 0.3}), list(range(n)), 0))
        assert [group for group, _ in results] == list(range(n))
        pids = [pid for _, pid in results]
        assert [pid == os.getpid() for pid in pids] == [group < share for group in range(n)]
        assert len(set(pids[share:])) <= workers - 1
        assert threading.active_count() == before
        assert len(os.listdir("/proc/self/fd")) == fds  # every pipe closed
        assert_no_child_alive(pids)


@pytest.mark.parametrize("workers, groups, nbytes, thread", [
    (1, 3, 0, False),
    (2, 1, 0, False),
    (2, 3, rng._OFFLOAD_BYTES, False),
    (2, 3, 0, True),
], ids=["one-cpu", "one-group", "side-worker-size", "another-thread"])
def test_map_groups_runs_in_the_caller_off_its_gate(monkeypatch, workers, groups, nbytes,
                                                      thread):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if thread:
        other.start()
    try:
        results = list(rng.map_groups(_group_and_pid, list(range(groups)), nbytes))
    finally:
        release.set()
        if thread:
            other.join()
    assert results == [(group, os.getpid()) for group in range(groups)]


def test_run_matrix_gates_its_groups_on_the_largest_groups_gradient_bytes(tmp_path, monkeypatch):
    map_groups, seen = rng.map_groups, []

    def recording(fn, groups, nbytes):
        seen.append(nbytes)
        return map_groups(fn, groups, nbytes)

    monkeypatch.setattr(rng, "map_groups", recording)
    run_matrix(_toy_doc(T=2), [("M", [2, 4]), ("K", [1, 4])], tmp_path)
    assert seen == [8 * 2 * 4 * 10]  # (R, M, d) float64 of the M = 4 group


@pytest.mark.parametrize("workers, failing", [
    (1, (3, 5)),
    (2, (3, 5)),
    (3, (3, 5)),
    (2, (1, 4)),
], ids=["1", "2", "3", "caller-share-first"])
def test_map_groups_raises_the_first_failure_in_group_order_after_earlier_results(monkeypatch,
                                                                                 workers,
                                                                                 failing):
    # Groups 3 and 5 lie in the workers' share, given a worker, so group 3's
    # abort comes back pickled, after the caller's groups 0-2 (or 0-1 and the
    # worker's 2); group 5's is later and dropped. In the last case the
    # caller's group 1 aborts while its slow group 0 lets the worker's group
    # 4 abort first in time; group 1's abort is still the one raised.
    monkeypatch.setattr(rng, "_WORKERS", workers)
    before = threading.active_count()
    slow = _sleeping({0: 0.1})

    def fn(group):
        if group in failing:
            raise NumericAbort(group, "estimate", f"cell-{group}-{os.getpid()}.csv")
        return slow(group)

    seen = []
    with pytest.raises(NumericAbort) as excinfo:
        for result in rng.map_groups(fn, list(range(6)), 0):
            seen.append(result)
    first, share = failing[0], -(-6 // workers)
    assert [group for group, _ in seen] == list(range(first))
    assert [pid == os.getpid() for _, pid in seen] == [group < share for group in range(first)]
    assert excinfo.value.iteration == first
    assert (excinfo.value.cell == f"cell-{first}-{os.getpid()}.csv") == (first < share)
    # a worker's abort carries its traceback in the worker as its cause
    assert ("in fn\n" in str(excinfo.value.__cause__)) == (first >= share)
    assert threading.active_count() == before
    assert_no_child_alive([pid for _, pid in seen])


# The first group a worker begins (one of groups 3-7: 3 CPUs give the
# caller groups 0-2 and two workers the rest, groups 3-4 and 5-7) kills that
# worker after 0.3 s, while each group of the other worker takes 2 s. The
# caller finds the death when it reaches that worker's slice; it must then
# kill the other worker if it is still running, so the process exits, and
# leave nothing behind that would keep the next call from forking.
_DYING_WORKER = """
import os, sys, threading, time
from concurrent.futures import BrokenExecutor
from airsgd import rng

caller = os.getpid()

def fn(group):
    if os.getpid() == caller:
        time.sleep(0.05 if group == 0 else 0.0)
        return group
    try:
        os.close(os.open(sys.argv[1], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        time.sleep(2.0)
        return group
    time.sleep(0.3)
    os._exit(1)

rng._WORKERS = 3
try:
    list(rng.map_groups(fn, list(range(8)), 0))
except BrokenExecutor:
    print("broken pool")
print("threads:", [thread.name for thread in threading.enumerate()])
pids = list(rng.map_groups(lambda group: os.getpid(), [0, 1], 0))
print("next call forks:", pids[0] == caller != pids[1])
"""


def test_a_caller_exception_kills_the_workers_at_once(monkeypatch):
    # the worker's group would take 10 s; the caller's group raises at once
    monkeypatch.setattr(rng, "_WORKERS", 2)

    def fn(group):
        if group == 0:
            raise ValueError("the caller's group")
        time.sleep(10.0)
        return group

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's group"):
        list(rng.map_groups(fn, [0, 1], 0))
    assert time.monotonic() - start < 2.0
    assert_no_child_alive([])


def test_a_worker_that_dies_breaks_the_sweep_and_leaves_no_process_behind(tmp_path):
    log = tmp_path / "out.txt"
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen([sys.executable, "-c", _DYING_WORKER, str(tmp_path / "died")],
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=20)  # a worker left alive blocks the exit
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
        proc.wait()
    output = log.read_text(encoding="utf-8")
    assert (code, left) == (0, False), output
    assert output.splitlines() == ["broken pool", "threads: ['MainThread']",
                                   "next call forks: True"], output


# OpenBLAS's thread count before a two-group sweep, as each group starts,
# before any run pins it, and once the sweep is done. OpenBLAS caps the
# count at the CPUs the process may run on, so on one CPU it reads 1 throughout.
_BLAS_THREADS_IN_A_SWEEP = """
import os
from airsgd import rng

rng._WORKERS = 2
get = rng._openblas_threads()[0]
print(get())
print(list(rng.map_groups(lambda group: (os.getpid(), get()), [0, 1], 0)))
print(get())
"""


def test_a_sweeps_processes_run_their_groups_with_openblas_on_one_thread():
    # a worker forked while OpenBLAS keeps its default pool pays for that pool
    if rng._openblas_threads() is None:
        pytest.skip("numpy carries no OpenBLAS of its own")
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_IN_A_SWEEP], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    before, groups, after = proc.stdout.splitlines()
    (caller, caller_threads), (worker, worker_threads) = ast.literal_eval(groups)
    assert caller != worker
    assert (caller_threads, worker_threads, after) == (1, 1, before)


@pytest.mark.parametrize("workers, nbytes, on_worker", [
    (2, rng._OFFLOAD_BYTES, True),
    (2, rng._OFFLOAD_BYTES - 1, False),
    (1, 1 << 30, False),
], ids=["at-threshold", "below-threshold", "one-cpu"])
def test_side_worker_takes_work_at_its_threshold_given_a_second_cpu(monkeypatch, workers,
                                                                    nbytes, on_worker):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    threads = threading.active_count()
    with rng.side_worker(nbytes) as start:
        ident = start(threading.get_ident)
        assert (ident() != threading.get_ident()) == on_worker
        assert (threading.active_count() > threads) == on_worker  # no thread below the gate


def _standin_doc(**updates):
    """The paper-size stand-in that tier1.yml runs on one CPU and on all of them."""
    doc = template("minimal")
    doc.update(M=20, K=40, s=3925, d=7850, partition={"per_device": 1000}, **updates)
    doc["dataset"].update(classes=10, features=784, train_per_class=600, test_per_class=100,
                          margin=8.0)
    return doc


def _gate_figures(monkeypatch, docs) -> tuple:
    """The nbytes that rng.side_worker is opened with for the cells of ``docs``.

    run_cells opens it first, then make_synthetic, inside run_cells, for the
    dataset's draw: (run figure, build figure).
    """
    side_worker, seen = rng.side_worker, []

    def recording(nbytes):
        seen.append(nbytes)
        return side_worker(nbytes)

    monkeypatch.setattr(rng, "side_worker", recording)
    run_cells([parse_config(apply_overrides(doc, ["T=1"])) for doc in docs])
    run, build = seen
    return run, build


def test_only_a_paper_size_run_passes_the_side_workers_gate(monkeypatch):
    # the CI stand-in (tier1.yml), desk_sweep's 4-cell group (K x sigma_z_sq)
    # and the minimal template: only the first hands work to the side worker,
    # in the run and in the dataset's draw
    desk = template("minimal")
    desk.update(M=10, d=330, s=165, partition={"per_device": 150})
    desk["dataset"].update(classes=10, features=32)
    desk_group = [dict(desk, K=K, sigma_z_sq=sigma_z_sq)
                  for K in (1, 5) for sigma_z_sq in (20.0, 100.0)]
    runs, builds = zip(*(_gate_figures(monkeypatch, docs)
                         for docs in ([_standin_doc()], desk_group, [template("minimal")])))
    assert runs == (1_256_000, 105_600, 4_224)
    assert runs[0] >= rng._OFFLOAD_BYTES > max(runs[1:])
    # the float32 Box-Muller draw's bytes, a 32-bit uniform and a float32
    # value for each value, whatever its passes: 8 * C * (train + test) * F
    assert builds == (43_904_000, 384_000, 153_600)
    assert builds[0] >= rng._OFFLOAD_BYTES > max(builds[1:])


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
    # the means, each of the 2 classes, the partition, then batch/channel/noise per t
    assert run_seeds == 1 + 2 + 1 + 3 * 6
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
    assert lines[1] == CSV_HEADER
    rows = [l for l in lines[2:] if l]
    assert len(rows) == 3  # evaluations at t = 3, 6, 8
    assert [int(r.split(",")[0]) for r in rows] == [3, 6, 8]
    embedded = json.loads(lines[0][len("# config: "):])
    assert embedded["K"] == config.K
    assert "\r" not in path.read_text(encoding="utf-8")


def test_error_free_metrics_leave_mse_blank(tmp_path):
    config = parse_config(_toy_doc(T=4, eval_every=2, mode="error_free"))
    path = tmp_path / "m.csv"
    write_metrics(run(config), config, path)
    rows = [l for l in path.read_text().split("\n")[2:] if l]
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
    assert excinfo.value.cell == 0
    assert str(excinfo.value).endswith("iteration 3 in stage 'local_gradient' of cell 0")


def test_numeric_abort_survives_a_pickle_round_trip():
    abort = pickle.loads(pickle.dumps(NumericAbort(7, "estimate", "grid/metrics_K=4.csv")))
    assert type(abort) is NumericAbort
    assert (abort.iteration, abort.stage, abort.cell) == (7, "estimate", "grid/metrics_K=4.csv")
    assert str(abort) == str(NumericAbort(7, "estimate", "grid/metrics_K=4.csv"))


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
    # a cell with no swept field is metrics.csv
    ((path, _),) = run_matrix(_toy_doc(T=2, eval_every=1), [], tmp_path)
    assert path == str(tmp_path / "metrics.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


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


def test_a_sweeps_files_do_not_depend_on_where_they_are_written(tmp_path):
    # one sweep in two directories, one nested: no byte of a file names its place
    sweep = [("K", [1, 4]), ("mode", ["ota", "error_free"])]
    files = []
    for out in (tmp_path / "a", tmp_path / "b" / "deeper"):
        run_matrix(_toy_doc(T=2, eval_every=1), sweep, out)
        files.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(files[0]) == 4
    assert files[0] == files[1]


def test_run_matrix_unknown_field(tmp_path):
    with pytest.raises(ConfigError):
        run_matrix(_toy_doc(), [("antennas", [1, 2])], tmp_path)


@pytest.mark.parametrize("sweep, repeated", [
    ([("K", [4, 4])], "metrics_K=4.csv"),
    ([("K", [4]), ("sigma_z_sq", [1.0]), ("K", [8])], "K"),
    ([("sigma_z_sq", [20, 20.0])], "metrics_sigma_z_sq=20.0.csv, metrics_sigma_z_sq=20.csv"),
    ([("K", [1, 2]), ("K", [3])], "K"),  # the field alone: its cells' names would not exist
], ids=["value", "field", "parsed_value", "field_only"])
def test_run_matrix_rejects_repeats_before_any_cell(tmp_path, monkeypatch, sweep, repeated):
    monkeypatch.setattr(experiment, "run_cells", lambda configs: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match=f"sweep repeats .*: {re.escape(repeated)}$"):
        run_matrix(_toy_doc(T=2), sweep, tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


def test_run_matrix_parses_every_cell_before_any_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "run_cells", lambda configs: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match="K must be a positive integer"):
        run_matrix(_toy_doc(T=2), [("K", [4, 0])], tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


def test_run_matrix_refuses_a_field_with_no_value_before_making_a_directory(tmp_path):
    # the CLI refuses an empty value itself; a library caller reaches this
    with pytest.raises(ConfigError, match="sweep lists no value for K$"):
        run_matrix(_toy_doc(T=2), [("T", [2]), ("K", [])], tmp_path / "grid")
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


@pytest.mark.parametrize("batch_size", [None, 8])
def test_a_desk_ensembles_records_do_not_depend_on_its_draw_block(monkeypatch, batch_size):
    # A group of four cells (K x sigma_z_sq) draws its channel a block of
    # iterations a call, as many as fit the side worker's gate in bytes of
    # coefficients and noise: the gates below give T = 7 iterations in blocks
    # of 1, of 3 (3 + 3 + 1) and of all 7, with no side worker.
    configs = [parse_config(_desk_doc(T=7, K=K, sigma_z_sq=sigma_z_sq, batch_size=batch_size))
               for K in (1, 4) for sigma_z_sq in (0.0, 20.0)]
    iteration = 16 * 4 * 1 * (10 + 1) * 165  # complex (R, N, M + 1, s): N = 1 block of s = 165
    monkeypatch.setattr(rng, "_WORKERS", 1)
    sample, blocks = channel.sample_combined, []

    def recording(channel_seeds, *args):
        blocks.append(len(channel_seeds))
        return sample(channel_seeds, *args)

    monkeypatch.setattr(channel, "sample_combined", recording)
    records = []
    for gate, expected in ((iteration, [1] * 7), (4 * iteration - 1, [3, 3, 1]),
                           (10 * iteration, [7])):
        monkeypatch.setattr(rng, "_OFFLOAD_BYTES", gate)
        blocks.clear()
        records.append(pickle.dumps(run_cells(configs)))
        assert blocks == expected
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("mode", ["ota", "error_free"])
def test_a_desk_ensembles_records_do_not_depend_on_its_backward_chunk(monkeypatch, mode):
    # A full-batch group of four cells (K x sigma_z_sq) makes one backward
    # call for as many devices' (n, F) float32 rows as fit the side worker's
    # gate. The gates below give chunks of 1, of 3 and of all 10 devices,
    # capped at a half's 5 devices when the side worker runs the first half:
    # it does on two CPUs, since an iteration's gradients pass each gate.
    configs = [parse_config(_desk_doc(T=3, K=K, sigma_z_sq=sigma_z_sq, mode=mode))
               for K in (1, 4) for sigma_z_sq in (0.0, 20.0)]
    device = 40 * 32 * 4  # a device's rows: per_device x features float32
    assert device * 10 < experiment._gradient_bytes(configs)
    sizes = _recording_backward(monkeypatch)
    records = []
    for workers in (1, 2):
        monkeypatch.setattr(rng, "_WORKERS", workers)
        for k, expected in ((1, [[1] * 10, [1] * 10]), (3, [[3, 3, 3, 1], [3, 2, 3, 2]]),
                            (10, [[10], [5, 5]])):
            monkeypatch.setattr(rng, "_OFFLOAD_BYTES", k * device)
            sizes.clear()
            records.append(pickle.dumps(run_cells(configs)))
            assert sorted(count for count, _ in sizes) == sorted(expected[workers - 1] * 3)
            assert len({thread for _, thread in sizes}) == workers
    assert all(record == records[0] for record in records)


def test_a_full_batch_run_holds_no_device_stack():
    # 20 devices of 200 rows drawn from 600 rows of 784 features: the run
    # holds the 600 rows and gathers the devices' rows a chunk at a time,
    # where one (M, n, F) float32 stack of them would take 12.0 MiB
    doc = _toy_doc(M=20, T=2, d=4 * 785, s=1570, mode="ota")
    doc["dataset"] = {"kind": "synthetic", "classes": 4, "features": 784,
                      "train_per_class": 150, "test_per_class": 50, "margin": 4.0, "seed": 8}
    doc["partition"] = {"per_device": 200}
    config = parse_config(doc)
    stack = 20 * 200 * 784 * 4
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, (peak, stack)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_a_runs_and_verifys_draw_blocks_follow_the_one_gate(monkeypatch, k):
    # The gate is set for blocks of k items: a minimal run's T = 7 iterations
    # of coefficients and noise, and a verify chunk's 20 channel matrices.
    monkeypatch.setattr(rng, "_WORKERS", 1)
    sample_combined, sample_channel, sizes = channel.sample_combined, channel.sample_channel, []

    def combined(channel_seeds, *args):
        sizes.append(len(channel_seeds))
        return sample_combined(channel_seeds, *args)

    def full(gen, n, *args):
        sizes.append(n)
        return sample_channel(gen, n, *args)

    monkeypatch.setattr(channel, "sample_combined", combined)
    monkeypatch.setattr(channel, "sample_channel", full)
    config = parse_config(apply_overrides(template("minimal"), ["T=7"]))
    iteration = 16 * packing.block_count(config.d, config.s) * (config.M + 1) * config.s
    monkeypatch.setattr(rng, "_OFFLOAD_BYTES", k * iteration)
    run(config)
    assert rng.block_length(iteration) == k
    assert sizes == [min(k, 7 - t) for t in range(0, 7, k)]

    M, K = 3, 8
    matrix = 16 * M * K
    sizes.clear()
    monkeypatch.setattr(rng, "_OFFLOAD_BYTES", k * matrix)
    verify._channel_statistics([(verify._interference, M, K, 1.0, 0)], 20, 4)
    assert rng.block_length(matrix) == k
    assert sizes == [min(k, 20 - start) for start in range(0, 20, k)]


def test_a_desk_sweep_writes_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch):
    # Six groups of two cells (K), in the order (batch_size, master_seed)
    # below. The caller runs the first ceil(6 / P) of them, P = min(_WORKERS,
    # 6), and the workers the rest; each worker's first group is slowed, so
    # every worker takes one.
    sweep = [("K", [1, 4]), ("batch_size", [None, 8]), ("master_seed", [1, 2, 3])]
    files = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(rng, "_WORKERS", workers)
        log, out = tmp_path / f"groups-{workers}.jsonl", tmp_path / str(workers)
        record_groups(monkeypatch, log, worker_delay=0.2)
        cells = run_matrix(_desk_doc(), sweep, out)
        monkeypatch.setattr(experiment, "run_cells", run_cells)
        files[workers] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(files[workers]) == sorted(os.path.basename(path) for path, _ in cells)
        groups = recorded_groups(log)
        assert len(groups) == 6
        pids = [pid for pid, _ in groups]
        assert_no_child_alive(pids)
        caller_groups = [(configs[0].batch_size, configs[0].master_seed)
                         for pid, configs in groups if pid == os.getpid()]
        order = [(batch_size, seed) for batch_size in (None, 8) for seed in (1, 2, 3)]
        assert sorted(caller_groups, key=order.index) == order[:-(-6 // workers)]
        assert len(set(pids) - {os.getpid()}) == workers - 1
    assert len(files[1]) == 12
    assert files[1] == files[2] == files[3]


@pytest.mark.parametrize("field, values", [
    ("batch_size", [None, 8]),
    ("master_seed", [1, 2]),
    ("mode", ["ota", "error_free"]),
    ("power.alpha0", [1.0, 2.0]),
])
def test_run_matrix_groups_cells_that_differ_in_k_and_noise_only(tmp_path, monkeypatch,
                                                                 field, values):
    log = tmp_path / "groups.jsonl"
    record_groups(monkeypatch, log)
    sweep = [("K", [1, 4]), (field, values), ("sigma_z_sq", [0.0, 20.0])]
    cells = run_matrix(_toy_doc(T=2, eval_every=1), sweep, tmp_path)
    groups = [configs for _, configs in recorded_groups(log)]
    assert len(cells) == 8 and all(os.path.exists(path) for path, _ in cells)
    assert [len(group) for group in groups] == [4, 4]
    for group in groups:
        keys = {experiment._group_key(config) for config in group}
        assert len(keys) == 1
        assert sorted((c.K, c.sigma_z_sq) for c in group) == [(1, 0.0), (1, 20.0),
                                                               (4, 0.0), (4, 20.0)]


def test_run_cells_rejects_cells_that_differ_beyond_k_and_noise():
    configs = [parse_config(_toy_doc()), parse_config(_toy_doc(batch_size=8))]
    with pytest.raises(ValueError, match="differ in K and sigma_z_sq only"):
        run_cells(configs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_numeric_abort_in_a_group_names_its_cell_and_keeps_earlier_groups(tmp_path):
    # error_free ignores the noise and finishes; in ota, sigma_z_sq = 1e308
    # overflows the noise variance while its sane neighbour is unharmed
    out = tmp_path / "grid"
    with pytest.raises(NumericAbort) as excinfo:
        run_matrix(_toy_doc(T=3), [("mode", ["error_free", "ota"]),
                                   ("sigma_z_sq", [1.0, 1e308])], out)
    assert excinfo.value.cell == str(out / "metrics_mode=ota_sigma_z_sq=1e+308.csv")
    assert (excinfo.value.iteration, excinfo.value.stage) == (1, "estimate")
    assert excinfo.value.cell in str(excinfo.value)
    assert excinfo.value.__cause__.cell == 1  # run_cells' abort: the cell's index in its group
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


def test_build_dataset_makes_float32_features_for_both_kinds(tmp_path):
    # the data layer makes the learner's dtype, so a run casts nothing
    write_idx_images(tmp_path / "i.idx", np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
    write_idx_labels(tmp_path / "l.idx", np.array([0, 1], dtype=np.uint8))
    idx_doc = _toy_doc(d=50, s=25, M=2, partition={"per_device": 2})
    idx_doc["dataset"] = {"kind": "idx", "train_images": str(tmp_path / "i.idx"),
                          "train_labels": str(tmp_path / "l.idx"),
                          "test_images": str(tmp_path / "i.idx"),
                          "test_labels": str(tmp_path / "l.idx")}
    for doc in (_toy_doc(), idx_doc):
        train, test, _ = build_dataset(parse_config(doc))
        assert (train.features.dtype, test.features.dtype) == (np.float32, np.float32)


@pytest.mark.parametrize("updates, sweep, message", [
    ({"d": 12, "s": 1}, ("d", [10, 12]), "config d=12, dataset implies (features+1)*classes=10"),
    ({"partition": {"per_device": 121}}, ("partition.per_device", [40, 121]),
     "per_device=121 exceeds 120 training samples"),
], ids=["d", "per_device"])
def test_build_dataset_checks_the_synthetic_config_against_the_dataset(tmp_path, updates, sweep,
                                                                       message):
    # A synthetic dataset's shape follows from its config, so parsing checks d
    # and per_device against it, and a sweep whose second cell does not fit
    # fails before its first cell runs.
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(_toy_doc(**updates))
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_matrix(_toy_doc(s=1), [sweep], str(tmp_path / "out"))
    assert not list(tmp_path.rglob("*.csv"))


def test_build_dataset_rejects_dimension_mismatch(tmp_path, monkeypatch):
    # build_dataset makes run_matrix's check of the config against the files'
    # headers, so each fault is a ConfigError naming its key or file before
    # any pixel is read
    write_idx_images(tmp_path / "i.idx", np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l.idx", np.array([0, 1], dtype=np.uint8))
    write_idx_images(tmp_path / "t.idx", np.zeros((2, 3, 3), dtype=np.uint8))
    doc = _toy_doc(T=2, d=50, s=20)
    doc["dataset"] = {
        "kind": "idx",
        "train_images": str(tmp_path / "i.idx"),
        "train_labels": str(tmp_path / "l.idx"),
        "test_images": str(tmp_path / "i.idx"),
        "test_labels": str(tmp_path / "l.idx"),
    }
    doc["partition"] = {"per_device": 2}

    def forbidden(*args):
        raise AssertionError("an IDX pair was loaded before the config was checked")

    monkeypatch.setattr(data, "load_idx", forbidden)
    for override, message in [
        ("d=40", re.escape("config d=40, dataset implies (features+1)*classes=50")),
        ("partition.per_device=3", "per_device=3 exceeds 2 training samples"),
        (f"dataset.test_images={json.dumps(str(tmp_path / 't.idx'))}",
         "t.idx holds images of 9 pixels, .*i.idx of 4"),
        (f"dataset.test_images={json.dumps(str(tmp_path / 'no-such-file'))}",
         "cannot load dataset .*no-such-file"),
    ]:
        with pytest.raises(ConfigError, match=message):
            build_dataset(parse_config(apply_overrides(doc, [override])))


def test_ota_run_never_draws_the_fading_tensor(monkeypatch):
    # training draws the combiner output directly, in full-batch and batch
    # runs alike; the fading tensor and its reducers are verify's alone
    def forbidden(*args, **kwargs):
        raise AssertionError("verify's channel path called from a training run")

    for module, name in ((channel, "sample_channel"), (ota, "effective_signal_gains"),
                         (ota, "interference_statistic")):
        monkeypatch.setattr(module, name, forbidden)
    for batch_size in (None, 8):
        records = run(parse_config(_toy_doc(T=3, eval_every=1, sigma_z_sq=4.0,
                                            batch_size=batch_size)))
        assert len(records) == 3
        assert all(r.est_mse > 0 for r in records)


@pytest.mark.parametrize("mode", ["ota", "error_free"])
@pytest.mark.parametrize("batch_size", [None, 8])
def test_run_makes_one_batched_backward_per_iteration(monkeypatch, mode, batch_size):
    # all M gradients of an iteration come from one learner.device_gradients call
    calls = []

    def counting(X, residual):
        calls.append(X.shape[0])
        return backward(X, residual)

    backward = learner.device_gradients
    monkeypatch.setattr(learner, "device_gradients", counting)
    records = run(parse_config(_toy_doc(T=3, eval_every=1, mode=mode, batch_size=batch_size)))
    assert calls == [2] * 3  # T calls, each over all M = 2 devices
    assert len(records) == 3
    assert all(r.loss > 0 for r in records)


def _recording_backward(monkeypatch):
    """Patch learner.device_gradients to list each call's device count and thread."""
    backward, calls = learner.device_gradients, []

    def recording(X, residual):
        calls.append((X.shape[0], threading.get_ident()))
        return backward(X, residual)

    monkeypatch.setattr(learner, "device_gradients", recording)
    return calls


@pytest.mark.parametrize("mode", ["ota", "error_free"])
@pytest.mark.parametrize("M", [2, 3])
def test_a_full_batch_backward_on_the_worker_runs_in_two_device_halves(monkeypatch, mode, M):
    # the first M // 2 devices' gradients on the side worker, the rest here;
    # with no byte gate, each half makes one call a device
    _set(monkeypatch, ON_THE_WORKER)
    calls = _recording_backward(monkeypatch)
    run(parse_config(_toy_doc(T=3, eval_every=1, mode=mode, M=M)))
    here = threading.get_ident()
    assert [count for count, thread in calls if thread != here] == [1] * (M // 2) * 3
    assert [count for count, thread in calls if thread == here] == [1] * (M - M // 2) * 3


@pytest.mark.parametrize("mode, batch_size", [("ota", None), ("error_free", None), ("ota", 8)],
                         ids=["ota", "error_free", "batch"])
@pytest.mark.parametrize("M", [1, 3])
def test_the_backward_halves_write_the_bytes_of_one_call(tmp_path, monkeypatch, mode,
                                                         batch_size, M):
    config = parse_config(_toy_doc(T=4, eval_every=2, mode=mode, M=M, batch_size=batch_size))
    files = []
    for settings in ({"_WORKERS": 1}, ON_THE_WORKER):
        _set(monkeypatch, settings)
        calls = _recording_backward(monkeypatch)
        path = tmp_path / f"{len(files)}.csv"
        write_metrics(run(config), config, path)
        files.append(path.read_bytes())
        assert all(count > 0 for count, _ in calls)  # no call gets an empty half
        monkeypatch.undo()
    assert files[0] == files[1]


@pytest.mark.parametrize("index", [[2, 3, 4, 5, 6, 7], [0, 1, 4, 5, 7], [0, 1, 2], list(range(8)),
                                   [5], [1, 3, 4, 6]],
                         ids=["gap-at-start", "gaps-in-the-middle", "gap-at-end", "no-gap",
                              "one-row", "gaps-everywhere"])
def test_the_compaction_moves_the_held_rows_into_the_pool_in_place(index):
    src = np.arange(8 * 5, dtype=np.float32).reshape(8, 5)
    pool = src.copy()
    held = experiment._compact(pool, np.array(index))
    assert np.array_equal(held, src[index])
    assert np.shares_memory(held, pool)


# (M, n, F, C) shapes of a full-batch backward: 20 devices at paper width,
# and two with an odd device count in a half.
BACKWARD_SHAPES = [(20, 100, 784, 10), (3, 263, 784, 10), (5, 40, 97, 3)]


def check_split_backward(M, n, features, classes):
    """The full-batch backward, a device a call in halves on a side worker, gives the bytes of one call.

    The devices draw their rows from fewer held rows, so they share rows.
    The one call takes the device stack and the held-row residuals gathered
    to the devices by advanced indexing; ``experiment._backward`` takes the
    held rows and their residuals ungathered, held row outermost in memory
    as ``run_cells`` keeps them, and each call must gather only its own
    device's rows. Run in a child process by the kernel test, with two
    worker CPUs and no byte gate, so every shape is cut in halves and each
    half in one-device chunks.
    """
    rng._WORKERS, rng._OFFLOAD_BYTES = 2, 0
    gen = np.random.default_rng((M, n, classes))
    held = M * n // 3
    held_X = (gen.standard_normal((held, features)) + 3.0).astype(np.float32)  # offset, so sums round
    held_y = gen.integers(0, classes, size=held)
    rows = np.stack([gen.choice(held, size=n, replace=False) for _ in range(M)])
    theta = gen.standard_normal((2, (features + 1) * classes)) / features
    log_probs = learner.log_probabilities(theta, held_X)
    residual = learner.residuals(held_y, log_probs, n)
    held_first = learner.residuals(held_y, log_probs, n, out=np.empty((held, 2, classes)).swapaxes(0, 1))
    backward, calls = learner.device_gradients, []

    def recording(X, residual):  # copies, since each half reuses its buffers
        calls.append((threading.get_ident(), X.copy(), residual.copy()))
        return backward(X, residual)

    learner.device_gradients = recording
    try:
        with rng.one_blas_thread(), rng.side_worker(held_X.nbytes) as start:
            whole = backward(held_X[rows], residual[:, rows])
            halves = experiment._backward_halves(start, held_X, rows, 2, classes)
            split = experiment._backward(start, held_X, held_first, halves)
    finally:
        learner.device_gradients = backward
    here = threading.get_ident()
    first = [call for call in calls if call[0] != here]
    assert (len(first), len(calls)) == (M // 2, M), [len(X) for _, X, _ in calls]
    # the side worker's half, then this thread's, cover the devices in order
    for m, (_, X, received) in enumerate(first + [call for call in calls if call[0] == here]):
        assert np.array_equal(X, held_X[rows[m:m + 1]]), m
        assert np.array_equal(received, residual[:, rows[m:m + 1]]), m
    assert np.array_equal(split, whole), (M, n, features, classes)


def kernel_checks() -> dict:
    """What the kernel tests check, run in a child process under one BLAS kernel.

    "runs" maps to the first failed pin of the golden runs, "backward" to
    the split check's first failure; each maps to "" when all passed.
    """
    failures = {"runs": "", "backward": ""}
    # the runs come first, the ota run again with the side worker on and one
    # device a backward call, before check_split_backward sets rng's gate
    with tempfile.TemporaryDirectory() as directory:
        try:
            for run_pin, settings in [("error_free", {}), ("ota", {}), ("batch", {}),
                                      ("ota", ON_THE_WORKER)]:
                vars(rng).update(settings)
                _check_golden_run(pathlib.Path(directory), run_pin)
        except AssertionError as error:
            failures["runs"] = f"{settings}: {error}"
    for shape in BACKWARD_SHAPES:
        try:
            check_split_backward(*shape)
        except AssertionError as error:
            failures["backward"] = f"{shape}: {error}"
            break
    return failures


@functools.cache
def _kernel_checks_on(kernel, target):
    # the two kernel tests share one child process a kernel and target, which
    # saves an interpreter start-up each
    return json.loads(run_on_kernel(kernel, "import json, test_experiment\n"
                                            "print(json.dumps(test_experiment.kernel_checks()))",
                                    target))


# each kernel on numpy's X86_V4 loops, under the ids these tests had before
# they ran on X86_V3 loops too
KERNEL_TARGETS = [pytest.param(kernel, target,
                               id=kernel if target == "X86_V4" else f"{kernel}-{target}")
                  for target in SIMD_TARGETS for kernel in sorted(BLAS_KERNELS)]


@pytest.mark.parametrize("kernel, target", KERNEL_TARGETS)
def test_the_backward_halves_give_the_bytes_of_one_call_on_every_blas_kernel(kernel, target):
    assert _kernel_checks_on(kernel, target)["backward"] == ""


@pytest.mark.parametrize("kernel, target", KERNEL_TARGETS)
def test_the_golden_runs_match_their_kernel_familys_digests_on_every_blas_kernel(kernel, target):
    assert _kernel_checks_on(kernel, target)["runs"] == ""


def test_one_blas_thread_pins_openblas_until_the_last_block_leaves():
    threads = rng._openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no OpenBLAS of its own")
    get, set_ = threads
    before = get()
    set_(3)
    seen = []

    def pin_and_release():
        for _ in range(200):
            with rng.one_blas_thread():
                seen.append(get())
                with rng.one_blas_thread():  # an overlapping run
                    seen.append(get())
                seen.append(get())

    # blocks overlapping in more threads than cores, switching constantly
    workers = [threading.Thread(target=pin_and_release) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1] * 8 * 200 * 3 and get() == 3
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def test_a_paper_size_run_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # Large products split over OpenBLAS threads round differently; a run pins
    # BLAS to one thread, so the thread count it starts with moves no byte.
    config = tmp_path / "standin.json"
    config.write_text(json.dumps(_standin_doc(T=2, eval_every=1)))
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    files = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "airsgd", "run", "--config", str(config),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files.append((tmp_path / "out" / "metrics.csv").read_bytes())
    assert files[0] == files[1]


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


def _float64_overflow(config) -> str:
    """The check that ``config``'s dataset fails in iteration 1 with float64 products.

    The devices' first gradients, from the float64 rows of the reference
    draw that ``make_synthetic`` casts, must be finite; returns "average"
    when their mean overflows (error_free), "power" when their transmit
    energy does (ota), else "".
    """
    (features, labels), _ = synthetic_reference(config.dataset)
    index = data.partition(build_dataset(config)[0], config.M, config.partition.per_device,
                           config.master_seed)
    X, y = features[index], labels[index]
    theta = learner.init_params(X.shape[-1], config.dataset.classes)
    with np.errstate(over="ignore"):
        grads = learner.gradients(X, y, learner.log_probabilities(theta, X))
        assert np.isfinite(grads).all()
        if config.mode == "error_free":
            return "" if np.isfinite(grads.mean(axis=0)).all() else "average"
        energy = ota.transmit_energy(ota.transmit(grads, config.power.alpha_at(1), config.s))
        return "" if np.isfinite(energy).all() else "power"


@pytest.mark.parametrize("mode, margin, stage", [("error_free", 1e308, "average"),
                                                 ("ota", 1.5e307, "power")])
def test_an_overflowing_dataset_aborts_and_writes_no_file(tmp_path, mode, margin, stage):
    # features beyond float32's range abort before iteration 1, with no
    # warning from the cast that finds them; float64 products would have
    # run on into iteration 1 and overflowed at ``stage``
    doc = template("minimal")
    doc.update(M=20, T=3, mode=mode, partition={"per_device": 100})
    doc["dataset"]["margin"] = margin
    assert _float64_overflow(parse_config(doc)) == stage
    with pytest.raises(NumericAbort) as excinfo:
        run_matrix(doc, [], tmp_path / "out")
    assert (excinfo.value.iteration, excinfo.value.stage) == (0, "features")
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
