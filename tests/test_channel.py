import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from airsgd import rng
from airsgd.channel import sample_channel, sample_combined
from reference import combine, propagate, sample_noise


def _h(seed=42, N=2, M=3, K=4, s=5, var=1.0):
    return sample_channel(rng.substream(seed, rng.CHANNEL, 0), N, M, K, s, var)


def test_channel_determinism():
    assert np.array_equal(_h(), _h())


def test_streams_differ_by_tag_and_index():
    a = sample_channel(rng.substream(1, rng.CHANNEL, 0), 1, 1, 1, 8, 1.0)
    b = sample_channel(rng.substream(1, rng.CHANNEL, 1), 1, 1, 1, 8, 1.0)
    c = sample_channel(rng.substream(2, rng.CHANNEL, 0), 1, 1, 1, 8, 1.0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [7, (7, rng.CHANNEL, 3)], ids=["int", "key"])
def test_generator_is_sfc64_seeded_by_the_keys_seed_sequence(seed):
    # the stream contract: a key's generator is SFC64 seeded by SeedSequence(key)
    def hand_built():
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))

    for key in (seed, np.random.SeedSequence(seed)):
        gen = rng.generator(key)
        assert type(gen.bit_generator) is np.random.SFC64
        assert gen.standard_normal(16).tobytes() == hand_built().standard_normal(16).tobytes()
    gen = hand_built()
    assert rng.generator(gen) is gen


def test_channel_shape_and_dtype():
    h = _h()
    assert h.shape == (2, 3, 4, 5)
    assert h.dtype == np.complex128


def test_channel_moments_1e6():
    h = sample_channel(rng.substream(7, rng.CHANNEL, 0), 100, 2, 5, 1000, 1.0)
    flat = h.ravel()
    assert flat.size == 10**6
    power = (flat.real**2 + flat.imag**2).mean()
    assert abs(power - 1.0) < 0.01
    # real and imaginary parts each carry half the variance
    assert abs(flat.real.var() - 0.5) < 0.01
    assert abs(flat.imag.var() - 0.5) < 0.01
    # circular symmetry: components uncorrelated
    cross = flat.real * flat.imag
    sem = cross.std(ddof=1) / np.sqrt(cross.size)
    assert abs(cross.mean()) <= 3 * sem


def test_noise_moments_1e6():
    z = sample_noise(rng.substream(8, rng.NOISE, 0), 100, 10, 1000, 20.0)
    flat = z.ravel()
    assert flat.size == 10**6
    power = (flat.real**2 + flat.imag**2).mean()
    assert abs(power - 20.0) < 0.01 * 20.0


def test_zero_noise_variance_gives_zeros():
    z = sample_noise(rng.substream(1, rng.NOISE, 0), 2, 3, 4, 0.0)
    assert np.all(z == 0)
    assert z.shape == (2, 3, 4)


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("rows", [1, 4, 20])
def test_slices_from_one_generator_are_the_one_call_draw(rows, s):
    # 13 matrices in slices of 1, of 4 (an uneven tail of 1) and of 20 (one slice)
    seed_seq = rng.substream(5, rng.CHANNEL, 2)
    whole = sample_channel(seed_seq, 13, 3, 4, s, 2.0)
    gen = rng.generator(seed_seq)
    assert rng.generator(gen) is gen
    slices = [sample_channel(gen, min(rows, 13 - start), 3, 4, s, 2.0)
              for start in range(0, 13, rows)]
    assert np.array_equal(np.concatenate(slices), whole)


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_channel(rng.substream(1, rng.CHANNEL, 0), 0, 1, 1, 1, 1.0)
    with pytest.raises(ValueError):
        sample_channel(rng.substream(1, rng.CHANNEL, 0), 1, 1, 1, 1, 0.0)


def test_propagate_identity_channel():
    x = np.array([[[3.0 + 4.0j, 1.0 - 1.0j]]])  # (M=1, N=1, s=2)
    h = np.ones((1, 1, 1, 2), dtype=complex)
    z = np.zeros((1, 1, 2), dtype=complex)
    y = propagate(x, h, z)
    assert np.array_equal(y, np.array([[[3.0 + 4.0j, 1.0 - 1.0j]]]))


def test_propagate_two_device_hand_sum():
    # h = [1, j] on the single antenna, both devices send 1: y = 1 + j
    x = np.ones((2, 1, 1), dtype=complex)
    h = np.array([1.0, 1.0j]).reshape(1, 2, 1, 1)
    z = np.zeros((1, 1, 1), dtype=complex)
    y = propagate(x, h, z)
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == 1 + 1j


def test_propagate_zero_signal_returns_noise():
    z = sample_noise(rng.substream(3, rng.NOISE, 0), 2, 4, 3, 5.0)
    x = np.zeros((3, 2, 3), dtype=complex)
    h = _h(N=2, M=3, K=4, s=3)
    assert np.array_equal(propagate(x, h, z), z)


def test_propagate_linearity():
    gen = np.random.default_rng(11)
    x1 = gen.normal(size=(3, 2, 4)) + 1j * gen.normal(size=(3, 2, 4))
    x2 = gen.normal(size=(3, 2, 4)) + 1j * gen.normal(size=(3, 2, 4))
    h = _h(N=2, M=3, K=2, s=4)
    z0 = np.zeros((2, 2, 4), dtype=complex)
    lhs = propagate(2.0 * x1 + x2, h, z0)
    rhs = 2.0 * propagate(x1, h, z0) + propagate(x2, h, z0)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_received_mean_concentrates_at_zero():
    # fixed tx, many independent channel draws: E[y] = 0 since E[h] = 0
    x = np.full((2, 1, 1), 1.5 + 0.5j)
    samples = np.empty(10_000, dtype=complex)
    for r in range(100):
        h = sample_channel(rng.substream(5, rng.CHANNEL, r), 100, 2, 1, 1, 1.0)
        z = sample_noise(rng.substream(5, rng.NOISE, r), 100, 1, 1, 4.0)
        big_x = np.broadcast_to(x, (2, 100, 1))
        samples[r * 100 : (r + 1) * 100] = propagate(big_x, h, z)[:, 0, 0]
    for part in (samples.real, samples.imag):
        sem = part.std(ddof=1) / np.sqrt(part.size)
        assert abs(part.mean()) <= 4 * sem


# sha256 of small reference draws. Training runs draw neither the fading
# tensor nor the oracle's per-antenna noise, so the metrics golden digests do
# not cover their streams; these do. Recorded with numpy 2.4 on x86-64.
def test_sample_channel_bytes_pinned():
    h = sample_channel(rng.substream(2026, rng.CHANNEL, 7), 2, 3, 4, 5, 1.5)
    assert h.shape == (2, 3, 4, 5)
    assert hashlib.sha256(h.tobytes()).hexdigest() == (
        "9f265af0d034cb0cdc6619ad2cf8dca8e39534b2930e00db6ecf33c43e014b5f"
    )


def test_sample_noise_bytes_pinned():
    z = sample_noise(rng.substream(2026, rng.NOISE, 7), 2, 4, 5, 20.0)
    assert z.shape == (2, 4, 5)
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "36ce5ab63d111b1c35879469a97bb53a44fd0f8bfd09a178e89a1cc7358a6d09"
    )


# ------------------------------------------------------------ sample_combined


def _combined(seed=42, N=2, M=3, K=4, s=5, var=1.5, noise_var=2.0):
    (coeffs,), (noise,) = sample_combined([rng.substream(seed, rng.CHANNEL, 0)],
                                          [rng.substream(seed, rng.NOISE, 0)],
                                          N, M, K, s, var, noise_var)
    return coeffs, noise


def test_combined_follows_documented_stream_contract():
    # gamma (N, s) then normals (N, M, s, 2) on the channel stream; normals
    # (N, s, 2) on the noise stream
    N, M, K, s, var, noise_var = 2, 3, 4, 5, 1.5, 2.0
    coeffs, noise = _combined(N=N, M=M, K=K, s=s, var=var, noise_var=noise_var)
    assert coeffs.shape == (N, M, s) and coeffs.dtype == np.complex128
    assert noise.shape == (N, s) and noise.dtype == np.complex128
    gen = rng.generator(rng.substream(42, rng.CHANNEL, 0))
    r = var * gen.standard_gamma(K, size=(N, s))
    parts = gen.standard_normal((N, M, s, 2))
    f = np.sqrt(var * r[:, None, :] / 2) * (parts[..., 0] + 1j * parts[..., 1])
    expected = r[:, None, :] / K + np.sqrt(M) / K * (f - f.mean(axis=1, keepdims=True))
    assert np.allclose(coeffs, expected, rtol=1e-12, atol=1e-14)
    parts = rng.generator(rng.substream(42, rng.NOISE, 0)).standard_normal((N, s, 2))
    w = np.sqrt(noise_var * M * r / K**2 / 2) * (parts[..., 0] + 1j * parts[..., 1])
    assert np.allclose(noise, w, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("ensemble", [False, True], ids=["scalar", "ensemble"])
def test_combined_noise_scale_holds_past_the_int64_square(ensemble):
    # K**2 wraps in int64 from K ~ 3.04e9; the contract's scale squares K in float
    N, M, K, s, var, noise_var = 2, 3, 2**32 + 1, 5, 1.5, 2.0
    _, noise = _combined(N=N, M=M, K=np.array([K, K]) if ensemble else K, s=s)
    r = var * rng.generator(rng.substream(42, rng.CHANNEL, 0)).standard_gamma(K, size=(N, s))
    parts = rng.generator(rng.substream(42, rng.NOISE, 0)).standard_normal((N, s, 2))
    w = np.sqrt(noise_var * M * r / float(K) ** 2 / 2) * (parts[..., 0] + 1j * parts[..., 1])
    assert np.allclose(noise, np.broadcast_to(w, noise.shape), rtol=1e-12, atol=0)


# sha256 of a small sample_combined draw: coefficient bytes, then noise bytes.
# This pins the stream contract of the training path's channel.
COMBINED_SHA256 = "b262a6875bf0ad64be3f634e098a518b3defdf7fd43b4f78fe749984c93dd5a9"


def test_combined_bytes_pinned():
    coeffs, noise = _combined(seed=2026)
    digest = hashlib.sha256(coeffs.tobytes() + noise.tobytes()).hexdigest()
    assert digest == COMBINED_SHA256


def test_combined_zero_noise_is_exactly_zero():
    coeffs, noise = _combined(noise_var=0.0)
    assert np.all(noise == 0)
    assert noise.shape == (2, 5)
    assert np.array_equal(coeffs, _combined()[0])  # the noise never touches the channel stream


def test_combined_ensemble_gives_each_cell_its_own_bytes(monkeypatch):
    # one generator per distinct K on the channel stream, one on the noise
    # stream; a zero noise variance gives +0.0, never -0.0, as alone
    generators = []
    generator = rng.generator

    def counting(seed):
        generators.append(seed)
        return generator(seed)

    K = np.array([4, 1, 4, 1])
    noise_var = np.array([0.0, 2.0, 2.0, 0.0])
    monkeypatch.setattr(rng, "generator", counting)
    coeffs, noise = _combined(K=K, noise_var=noise_var)
    assert len(generators) == 3
    monkeypatch.undo()
    assert coeffs.shape == (4, 2, 3, 5) and noise.shape == (4, 2, 5)
    for cell, (k, var) in enumerate(zip(K, noise_var)):
        alone = _combined(K=int(k), noise_var=float(var))
        assert coeffs[cell].tobytes() == alone[0].tobytes()
        assert noise[cell].tobytes() == alone[1].tobytes()


@pytest.mark.parametrize("N, M, K, s, noise_var", [
    (1, 10, 3, 1, 2.0),  # s = 1: the device mean is a pairwise sum over M >= 8
    (3, 4, 5, 7, 2.0),  # N = 3, as d = 40 at s = 7 gives, its last block padded
    (2, 3, np.array([1, 7, 1, 200]), 5, np.array([2.0, 3.0, 0.5, 1.0])),  # three distinct K
    (2, 3, np.array([4, 4, 9]), 5, np.array([0.0, 2.0, 0.0])),  # zero noise beside noisy cells
    (1, 20, np.array([40]), 3925, np.array([20.0])),  # the paper shape
], ids=["s1-pairwise", "N3", "three-K", "zero-noise", "paper"])
def test_combined_block_is_its_iterations_draws_stacked(N, M, K, s, noise_var):
    # a block draws each iteration from its own seeds; the arithmetic on the
    # draws runs once over the block and moves no byte
    def draw(ts):
        return sample_combined([rng.substream(5, rng.CHANNEL, t) for t in ts],
                               [rng.substream(5, rng.NOISE, t) for t in ts],
                               N, M, K, s, 1.5, noise_var)

    alone = [draw([t]) for t in range(1, 6)]
    for cut in ([1, 2, 3, 4, 5], [1, 2], [3, 4, 5]):
        coeffs, noise = draw(cut)
        assert coeffs.shape == (len(cut), *np.shape(K), N, M, s)
        assert noise.shape == (len(cut), *np.shape(K), N, s)
        assert coeffs.tobytes() == b"".join(alone[t - 1][0].tobytes() for t in cut)
        assert noise.tobytes() == b"".join(alone[t - 1][1].tobytes() for t in cut)


def test_combined_single_device_gain_is_real():
    # M = 1: no interference, the coefficient is the effective gain r / K
    coeffs, _ = _combined(M=1, K=7)
    assert np.all(coeffs.imag == 0)
    assert np.all(coeffs.real > 0)


def test_combined_rejects_bad_arguments():
    seeds = ([rng.substream(1, rng.CHANNEL, 0)], [rng.substream(1, rng.NOISE, 0)])
    with pytest.raises(ValueError):
        sample_combined(*seeds, 1, 1, 0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_combined(*seeds, 1, 1, 1, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_combined(*seeds, 1, 1, 1, 1, 1.0, -1.0)
    with pytest.raises(ValueError):
        sample_combined(*seeds, 1, 1, np.array([2, 0]), 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_combined(*seeds, 1, 1, 1, 1, 1.0, np.array([1.0, -1.0]))


COMBINED_CASES = ((1, 4), (2, 1), (10, 5), (20, 40), (3, 200))
SAMPLES = 20_000
SIG_H, SIG_Z = 1.5, 2.0


def _reference_combiner(seed, M, K):
    """(SAMPLES, M) coefficients and (SAMPLES,) noise via sample_channel -> combine.

    Samples run along the subchannel axis. h[:, m] is what propagate
    delivers when device m alone sends a unit symbol, so combine(h[:, m], h)
    is device m's coefficient, and combine(z, h) is the combined noise.
    """
    def chunk_draw(c, n):
        h = sample_channel(rng.substream(seed, rng.CHANNEL, c), 1, M, K, n, SIG_H)
        z = sample_noise(rng.substream(seed, rng.NOISE, c), 1, K, n, SIG_Z)
        coeffs = np.stack([combine(h[:, m], h)[0] for m in range(M)], axis=1)
        return coeffs, combine(z, h)[0]

    chunk = max(1, 2_000_000 // (M * K))
    sizes = [min(chunk, SAMPLES - start) for start in range(0, SAMPLES, chunk)]
    with ThreadPoolExecutor(rng._WORKERS) as pool:
        chunks = list(pool.map(chunk_draw, range(len(sizes)), sizes))
    return (np.concatenate([coeffs for coeffs, _ in chunks]),
            np.concatenate([noise for _, noise in chunks]))


def _moment_samples(coeffs, noise, mu):
    """Per-draw values whose means are the compared moments, each i.i.d. across draws.

    Per-device moments are averaged over the exchangeable devices within a
    draw; the cross-device covariances over the ordered device pairs.
    """
    M = coeffs.shape[1]
    dev = coeffs - mu
    energy = dev.real**2 + dev.imag**2
    out = {
        "mean": coeffs.mean(axis=1),
        "variance": energy.mean(axis=1),
        "pseudo_variance": (dev**2).mean(axis=1),
        "fourth": (energy**2).mean(axis=1),
        "noise_variance": noise.real**2 + noise.imag**2,
        # the noise energy grows with the channel's: the joint law, not just the marginals
        "noise_gain_corr": (noise.real**2 + noise.imag**2) * dev.real.mean(axis=1),
    }
    if M > 1:
        total = dev.sum(axis=1)
        pairs = M * (M - 1)
        # sum over m != m' of dev_m conj(dev_m'), which is real
        out["cross_covariance"] = (total.real**2 + total.imag**2 - energy.sum(axis=1)) / pairs
        out["cross_pseudo_covariance"] = (total**2 - (dev**2).sum(axis=1)) / pairs
    return out


def _standard_errors_apart(a, b):
    """Largest |mean(a) - mean(b)| over their two-sample standard error, per component."""
    worst = 0.0
    for part in (np.real, np.imag):
        x, y = part(a), part(b)
        se = np.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        gap = abs(x.mean() - y.mean())
        worst = max(worst, 0.0 if gap == 0 else gap / se)
    return worst


@pytest.mark.parametrize("M,K", COMBINED_CASES)
def test_combined_matches_reference_moments(M, K):
    ref_c, ref_w = _reference_combiner(31, M, K)
    new_c, new_w = sample_combined([rng.substream(32, rng.CHANNEL)], [rng.substream(32, rng.NOISE)],
                                   1, M, K, SAMPLES, SIG_H, SIG_Z)
    new_c, new_w = new_c[0, 0].T, new_w[0, 0]
    mu = SIG_H  # E[c_m] for every device; checked below on both samples
    ref = _moment_samples(ref_c, ref_w, mu)
    new = _moment_samples(new_c, new_w, mu)
    gaps = {name: _standard_errors_apart(ref[name], new[name]) for name in ref}
    assert all(gap <= 4.0 for gap in gaps.values()), gaps

    # closed forms: E[c] = sigma_h^2, E|c - E c|^2 = M sigma_h^4 / K,
    # E[(c - E c)^2] = sigma_h^4 / K, E|w|^2 = M sigma_h^2 sigma_z^2 / K
    closed = {
        "mean": SIG_H,
        "variance": M * SIG_H**2 / K,
        "pseudo_variance": SIG_H**2 / K,
        "noise_variance": M * SIG_H * SIG_Z / K,
    }
    for sample in (ref, new):
        for name, value in closed.items():
            x = sample[name]
            for part, target in ((np.real, value), (np.imag, 0.0)):
                se = part(x).std(ddof=1) / np.sqrt(x.size)
                gap = abs(part(x).mean() - target)
                assert gap == 0 or gap <= 4.0 * se, (name, part(x).mean(), target, se)
