"""Acceptance gate: one test per headline claim, one pass/fail line each.

Covers the aggregation statistics (interference moments, channel hardening,
combiner decomposition, estimator unbiasedness/consistency), the numeric
plumbing (packing round trips, gradient correctness), the qualitative
antenna-count study at desk scale, power accounting, and byte-level rerun
determinism. Monte Carlo seeds are pinned, so every verdict here is
reproducible.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from airsgd import channel, ota, rng, verify
from airsgd.config import parse_config, template
from airsgd.experiment import run, run_cells, write_metrics
from airsgd.learner import gradients, log_probabilities, losses, param_count
from airsgd.packing import pack, unpack
from reference import combine, decompose, propagate, sample_noise

MC_SEED = 2026


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_interference_statistics():
    # per-coefficient cross-device term: zero mean, variance M(M-1)sig_h^4/K
    expected = [verify.interference_variance(M, K, v)
                for M, K, v in verify.INTERFERENCE_CASES]
    assert expected == [0.5, 1.5, 14.0]  # formula values at the three cases
    results = verify.interference_checks(100_000, MC_SEED)
    for r in results:
        print("   " + r.describe())
    ok = all(r.passed for r in results)
    _report("criterion 1: interference mean and variance", ok,
            f"{len(results)} checks at 1e5 draws")
    assert ok


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_channel_hardening():
    # relative RMS deviation of the effective gain halves when K quadruples
    results = verify.hardening_checks(10_000, MC_SEED)
    for r in results:
        print("   " + r.describe())
    ok = all(r.passed for r in results)
    _report("criterion 2: hardening deviation ratio in [0.4, 0.6]", ok,
            "K in {4,16,64,256}, 1e4 draws")
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_decomposition_identity():
    gen = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        M = int(gen.integers(1, 9))
        K = int(gen.integers(1, 17))
        s = int(gen.integers(1, 9))
        N = int(gen.integers(1, 3))
        alpha = float(gen.uniform(0.5, 2.0))
        grads = gen.normal(size=(M, 2 * s * N))
        blocks = pack(grads, s)
        h = channel.sample_channel(rng.substream(MC_SEED, rng.CHANNEL, 3, trial),
                                   N, M, K, s, 1.0)
        z = sample_noise(rng.substream(MC_SEED, rng.NOISE, 3, trial), N, K, s, 2.0)
        obs = combine(propagate(alpha * blocks, h, z), h)
        parts = decompose(blocks, h, z, alpha)
        rel = float(np.abs(parts.total - obs).max() / np.abs(obs).max())
        worst = max(worst, rel)
    ok = worst <= 1e-10
    _report("criterion 3: signal+interference+noise equals combiner output", ok,
            f"worst relative error {worst:.3e} over 100 instances")
    assert ok


# ---------------------------------------------------------------- criterion 4


def _reference_observations(n, M, K, s, sigma_h, sigma_z, tx, K_index, chunk_index):
    # drawn and combined in draw blocks of fading gains: consecutive slices
    # of one generator are the bytes of one draw
    h_gen = rng.generator(rng.substream(123, rng.CHANNEL, K_index, chunk_index))
    z_gen = rng.generator(rng.substream(123, rng.NOISE, K_index, chunk_index))
    rows = rng.block_length(16 * M * K * s)
    obs = []
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        h = channel.sample_channel(h_gen, stop - start, M, K, s, sigma_h)
        z = sample_noise(z_gen, stop - start, K, s, sigma_z)
        obs.append(combine(propagate(tx[:, start:stop], h, z), h))
    return np.concatenate(obs)


def _combined_observations(n, M, K, s, sigma_h, sigma_z, tx, K_index, chunk_index):
    (coeffs,), (noise,) = channel.sample_combined(
        [rng.substream(123, rng.CHANNEL, K_index, chunk_index)],
        [rng.substream(123, rng.NOISE, K_index, chunk_index)],
        n, M, K, s, sigma_h, sigma_z,
    )
    return np.einsum("nmi,mni->ni", coeffs, tx) + noise


def _criterion_4(observe, label):
    M, d, s = 4, 16, 8
    alpha, sigma_h, sigma_z = 1.0, 1.0, 4.0
    trials = 100_000
    gen = np.random.default_rng(77)
    grads = gen.normal(size=(M, d))
    true_avg = grads.mean(axis=0)
    blocks = pack(grads, s)  # (M, 1, s)

    max_dev = {}
    mse = {}
    for K in (1, 8, 64):
        def chunk_sums(ci, n):
            tx = np.broadcast_to(alpha * blocks, (M, n, s))
            obs = observe(n, M, K, s, sigma_h, sigma_z, tx, K, ci)
            ests = ota.estimate_average_gradient(obs[:, None, :], alpha, M, sigma_h, d)
            return ests.sum(axis=0), (ests**2).sum(axis=0), ((ests - true_avg) ** 2).sum()

        chunk = max(1000, min(20_000, int(4e6 // (M * K * s))))
        sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
        total = np.zeros(d)
        total_sq = np.zeros(d)
        err_sq = 0.0
        with ThreadPoolExecutor(rng._WORKERS) as pool:
            for chunk_total, chunk_sq, chunk_err in pool.map(chunk_sums, range(len(sizes)), sizes):
                total += chunk_total
                total_sq += chunk_sq
                err_sq += chunk_err
        mean = total / trials
        var = (total_sq - trials * mean**2) / (trials - 1)
        se = np.sqrt(var / trials)
        assert np.all(se > 0)
        max_dev[K] = float((np.abs(mean - true_avg) / se).max())
        mse[K] = err_sq / (trials * d)

    unbiased = all(v <= 4.0 for v in max_dev.values())
    decreasing = mse[1] > mse[8] > mse[64]
    detail = (f"max dev {max(max_dev.values()):.2f} SE; "
              f"MSE {mse[1]:.4f} > {mse[8]:.4f} > {mse[64]:.4f}")
    _report(f"criterion 4: estimator unbiased, MSE decreasing in K ({label})",
            unbiased and decreasing, detail)
    assert unbiased
    assert decreasing


def test_criterion_4_estimator_unbiased_and_consistent():
    _criterion_4(_reference_observations, "sample_channel -> combine")


def test_criterion_4_estimator_unbiased_and_consistent_combined_sampler():
    # the training path's sampler, under the same bounds
    _criterion_4(_combined_observations, "sample_combined")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_packing_roundtrip():
    gen = np.random.default_rng(5)
    for _ in range(1000):
        d = int(gen.integers(1, 65))
        s = int(gen.integers(1, 17))
        g = gen.normal(size=d)
        if not np.array_equal(unpack(pack(g, s), d), g):
            _report("criterion 5: pack/unpack identity", False, f"d={d} s={s}")
            raise AssertionError(f"round trip failed at d={d}, s={s}")
    _report("criterion 5: pack/unpack identity", True, "1000 random (d, s, g) triples")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_gradient_matches_finite_differences():
    # row m of the batched gradient against central differences of device m's loss
    gen = np.random.default_rng(7)
    M, features, classes = 3, 5, 4
    X = gen.normal(size=(M, 15, features))
    y = gen.integers(0, classes, size=(M, 15))
    step = 1e-6
    worst = 0.0
    for _ in range(10):
        theta = gen.normal(size=param_count(features, classes)) * 0.7
        grads = gradients(X, y, log_probabilities(theta, X))
        for _ in range(20):
            direction = gen.normal(size=theta.size)
            direction /= np.linalg.norm(direction)
            plus = losses(y, log_probabilities(theta + step * direction, X))
            minus = losses(y, log_probabilities(theta - step * direction, X))
            numeric = (plus - minus) / (2 * step)
            analytic = grads @ direction
            rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-8)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-5
    _report("criterion 6: analytic softmax gradient vs central differences", ok,
            f"worst relative gap {worst:.2e} over {M} devices x 10 points x 20 directions")
    assert ok


# ------------------------------------------------------- criteria 7 and 8


DESK_SEEDS = (1, 2, 3, 4, 5)
DESK_K = (1, 5, 20, 200)  # K in {1, 5, 2M, 2M^2} at M = 10
DESK_SIGMA = (20.0, 100.0)


def _desk_doc(mode, K, sigma_z, master):
    doc = template("minimal")
    doc.update(M=10, K=K, T=300, d=330, s=165, sigma_h_sq=1.0,
               sigma_z_sq=float(sigma_z), mode=mode, master_seed=master,
               eval_every=300)
    doc["power"] = {"kind": "linear_ramp", "alpha0": 1.0, "slope": 0.001}
    doc["optimizer"] = {"kind": "adam", "learning_rate": 0.01,
                        "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    doc["dataset"] = {"kind": "synthetic", "classes": 10, "features": 32,
                      "train_per_class": 100, "test_per_class": 50,
                      "margin": 4.0, "seed": 42}
    doc["partition"] = {"per_device": 150}
    return parse_config(doc)


@pytest.fixture(scope="module")
def desk_matrix():
    """Final accuracy and realized power for the antenna/noise grid.

    10 devices, 10-class synthetic data (d=330), 300 iterations, the ramped
    power schedule, 5 master seeds; plus the error-free baseline per seed.
    Shared between the accuracy-ordering and power-ordering tests because
    the grid is the expensive part. The seeds are independent, so they run
    on a pool of one thread per CPU, and their results come back in seed
    order.
    """
    acc = {}
    power = {}
    baseline = []
    cells = [(sigma_z, K) for sigma_z in DESK_SIGMA for K in DESK_K]

    def seed_runs(master):
        # a seed's ota cells differ in K and sigma_z_sq only: one ensemble
        return (run(_desk_doc("error_free", 1, 20.0, master)),
                run_cells([_desk_doc("ota", K, sigma_z, master) for sigma_z, K in cells]))

    with ThreadPoolExecutor(rng._WORKERS) as pool:
        for records, group in pool.map(seed_runs, DESK_SEEDS):
            baseline.append(records[-1].accuracy)
            for key, records in zip(cells, group):
                acc.setdefault(key, []).append(records[-1].accuracy)
                power.setdefault(key, []).append(records[-1].avg_power)
    mean_acc = {key: float(np.mean(v)) for key, v in acc.items()}
    mean_power = {key: float(np.mean(v)) for key, v in power.items()}
    return mean_acc, mean_power, float(np.mean(baseline))


def test_criterion_7_antenna_accuracy_ordering(desk_matrix):
    mean_acc, _, baseline = desk_matrix
    ok = True

    # (a) mean final accuracy nondecreasing in K, 0.02 noise margin
    for sigma_z in DESK_SIGMA:
        accs = [mean_acc[(sigma_z, K)] for K in DESK_K]
        worst = float(np.diff(accs).min())  # most adverse step; negative means a fall
        passed = worst >= -0.02
        print(f"   [{'PASS' if passed else 'FAIL'}] accuracy@sz{sigma_z:g}: worst step {worst:.6g} "
              "(margin 0.02)  " + " ".join(f"K={K}:{a:.3f}" for K, a in zip(DESK_K, accs)))
        ok = ok and passed

    # (b) many-antenna run lands close to the error-free baseline
    gap_200 = baseline - mean_acc[(100.0, 200)]
    print(f"   baseline {baseline:.3f}, K=200@sz100 {mean_acc[(100.0, 200)]:.3f}, "
          f"gap {gap_200:.3f}")
    ok = ok and abs(gap_200) <= 0.03

    # (c) antennas help more when the noise is higher
    spread = {sz: mean_acc[(sz, 200)] - mean_acc[(sz, 1)] for sz in DESK_SIGMA}
    print(f"   K=1 -> K=200 gain: {spread[20.0]:.3f} at sz=20, "
          f"{spread[100.0]:.3f} at sz=100")
    ok = ok and spread[100.0] > spread[20.0]

    _report("criterion 7: accuracy ordering across K and noise levels", ok)
    assert ok


def test_criterion_8_power_accounting(desk_matrix):
    # exact arithmetic: constant gradient with packed norm g0, constant alpha
    g0 = np.zeros(10)
    g0[0], g0[1] = 3.0, 4.0  # squared packed norm 25

    def constant_gradient(theta, t, grads):
        return np.tile(g0, (len(grads), 1))

    doc = template("minimal")
    doc.update(M=2, K=4, T=7, d=10, s=5, eval_every=7)
    doc["power"] = {"kind": "constant", "alpha0": 0.5}
    doc["dataset"] = {"kind": "synthetic", "classes": 2, "features": 4,
                      "train_per_class": 30, "test_per_class": 10,
                      "margin": 2.0, "seed": 3}
    doc["partition"] = {"per_device": 20}
    records = run(parse_config(doc), gradient_fn=constant_gradient)
    exact = records[-1].avg_power == 0.5**2 * 25.0
    print(f"   constant-gradient run: P={records[-1].avg_power!r}, expected 6.25")

    # realized power falls as antennas are added, at both noise levels
    _, mean_power, _ = desk_matrix
    monotone = True
    for sigma_z in DESK_SIGMA:
        lo, hi = mean_power[(sigma_z, 200)], mean_power[(sigma_z, 1)]
        print(f"   sz={sigma_z:g}: P K=1 {hi:.3f} vs K=200 {lo:.3f}")
        monotone = monotone and lo < hi

    ok = exact and monotone
    _report("criterion 8: power identity exact, power decreasing in K", ok)
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_rerun_determinism(tmp_path):
    doc = template("minimal")
    doc.update(T=12, eval_every=5, K=8, sigma_z_sq=20.0)
    config = parse_config(doc)
    blobs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        write_metrics(run(config), config, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    _report("criterion 9: rerun produces byte-identical metrics", ok,
            f"{len(blobs[0])} bytes compared")
    assert ok
