import numpy as np
import pytest

from airsgd import rng, verify
from airsgd.channel import sample_channel
from airsgd.ota import (
    PowerSchedule,
    effective_signal_gains,
    estimate_average_gradient,
    interference_statistic,
    transmit,
    transmit_energy,
)
from airsgd.packing import pack
from reference import Decomposition, combine, decompose, propagate, sample_noise


def test_ramp_schedule_values():
    sched = PowerSchedule(kind="linear_ramp", alpha0=1.0, slope=0.001)
    assert sched.alpha_at(0) == 1.0
    assert sched.alpha_at(800) == 1.8
    assert sched.alpha_at(1) == 1.001


def test_constant_schedule():
    sched = PowerSchedule(kind="constant", alpha0=0.5)
    assert sched.alpha_at(1) == sched.alpha_at(10**6) == 0.5


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PowerSchedule(kind="constant", alpha0=0.0)
    with pytest.raises(ValueError):
        PowerSchedule(kind="exp", alpha0=1.0)
    with pytest.raises(ValueError, match="slope"):
        PowerSchedule(kind="constant", alpha0=1.0, slope=0.5)
    with pytest.raises(ValueError):
        PowerSchedule(kind="linear_ramp", alpha0=1.0, slope=-2.0).validate_horizon(10)


def test_transmit_is_scaled_pack():
    g = np.arange(1.0, 7.0)
    assert np.array_equal(transmit(g, 1.0, 2), pack(g, 2))
    scaled = transmit(np.array([1.0, 0.0]), 2.0, 1)
    assert scaled[0, 0] == 2 + 0j
    with pytest.raises(ValueError):
        transmit(g, 0.0, 2)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["vector", "devices", "cells"])
def test_transmit_is_alpha_times_pack_with_and_without_padding(lead):
    # one pass into one complex array: the values of the two-step product,
    # on whole blocks and on a last block that is partly padding
    gen = np.random.default_rng(3)
    for d, s in [(6, 3), (12, 3), (7, 3), (10, 3), (1, 4), (5, 1), (330, 165), (132, 33)]:
        g = gen.normal(size=lead + (d,))
        g[..., ::4] = 0.0
        blocks = transmit(g, 0.7, s)
        assert blocks.shape == lead + (-(-d // (2 * s)), s) and blocks.dtype == np.complex128
        assert np.array_equal(blocks, 0.7 * pack(g, s))


def test_transmit_energy_matches_alpha_squared_norm():
    g = np.array([3.0, 4.0])
    blocks = transmit(g, 2.0, 1)
    assert transmit_energy(blocks) == pytest.approx(4.0 * 25.0)


def test_transmit_energy_of_stacked_devices_is_one_per_device():
    gen = np.random.default_rng(2)
    grads = gen.normal(size=(4, 23))
    blocks = transmit(grads, 0.7, 3)
    energies = transmit_energy(blocks)
    assert energies.shape == (4,)
    assert energies.tolist() == [transmit_energy(transmit(g, 0.7, 3)) for g in grads]


def test_combine_unit_gain():
    rx = np.array([[[5.0 - 2.0j]]])  # (N=1, K=1, s=1)
    h = np.ones((1, 1, 1, 1), dtype=complex)
    assert combine(rx, h)[0, 0] == 5.0 - 2.0j


def test_combine_removes_phase():
    rx = np.array([[[1.0j]]])
    h = np.full((1, 1, 1, 1), 1.0j)
    assert combine(rx, h)[0, 0] == 1.0 + 0.0j


def test_combine_hand_average_over_antennas():
    rx = np.array([[[2.0 + 0.0j], [4.0 + 0.0j]]])  # (N=1, K=2, s=1)
    h = np.ones((1, 1, 2, 1), dtype=complex)
    assert combine(rx, h)[0, 0] == 3.0 + 0.0j


def test_estimate_end_to_end_identity_channel():
    # single device, unit channel, no noise: the estimate is the gradient
    g = np.array([3.0, 4.0])
    x = transmit(g, 1.0, 1)[None, ...]  # d=2, s=1: one block, one device
    assert x.shape == (1, 1, 1)
    h = np.ones((1, 1, 1, 1), dtype=complex)
    z = np.zeros((1, 1, 1), dtype=complex)
    obs = combine(propagate(x, h, z), h)
    assert obs[0, 0] == 3.0 + 4.0j
    est = estimate_average_gradient(obs, 1.0, 1, 1.0, 2)
    assert np.array_equal(est, [3.0, 4.0])


def test_estimate_inverts_hardened_signal():
    # obs equal to alpha*M*sigma_h^2*(packed mean gradient): exact recovery
    mean_g = np.array([0.5, -1.0, 2.0, 0.25])
    obs = 1.6 * 5 * 2.0 * pack(mean_g, 2)
    est = estimate_average_gradient(obs, 1.6, 5, 2.0, 4)
    assert np.allclose(est, mean_g, rtol=1e-15)


def test_estimate_zero_observation():
    assert np.array_equal(estimate_average_gradient(np.zeros((1, 3), complex), 1.0, 2, 1.0, 5),
                          np.zeros(5))


def test_estimate_rejects_bad_scaling():
    obs = np.zeros((1, 1), dtype=complex)
    with pytest.raises(ValueError):
        estimate_average_gradient(obs, 0.0, 1, 1.0, 2)
    with pytest.raises(ValueError):
        estimate_average_gradient(obs, 1.0, 0, 1.0, 2)
    with pytest.raises(ValueError):
        estimate_average_gradient(obs, 1.0, 1, 0.0, 2)


def test_effective_gains_shape_and_value():
    h = np.full((1, 2, 4, 3), 1.0 + 1.0j)
    gains = effective_signal_gains(h)
    assert gains.shape == (1, 2, 3)
    assert np.allclose(gains, 2.0)


@pytest.mark.parametrize("reduce", [effective_signal_gains, interference_statistic],
                         ids=["effective_signal_gains", "interference_statistic"])
def test_verify_reducers_reject_a_gain_tensor_not_of_rank_4(reduce):
    with pytest.raises(ValueError, match=r"expected h \(N,M,K,s\)"):
        reduce(np.ones((2, 4, 5), dtype=complex))  # no device axis


def test_interference_statistic_single_device_exactly_zero():
    h = sample_channel(rng.substream(0, rng.CHANNEL, 0), 4, 1, 8, 3, 1.0)
    stat = interference_statistic(h)
    assert stat.dtype == np.float64 and stat.shape == (4, 3)
    assert np.all(stat == 0)


def test_interference_statistic_two_device_hand_value():
    a, b = 1.0 + 2.0j, -0.5 + 1.0j
    h = np.array([a, b]).reshape(1, 2, 1, 1)
    stat = interference_statistic(h)
    assert stat.dtype == np.float64
    assert np.isclose(stat[0, 0], 2 * (np.conj(a) * b).real)  # conj(a) b + conj(b) a


def _reduced_interference_statistic(h):
    """The statistic as numpy's reductions over the device axis give it."""
    total = h.sum(axis=1)
    pair_sum = total.real**2 + total.imag**2 - (h.real**2 + h.imag**2).sum(axis=1)
    return pair_sum.mean(axis=1)


@pytest.mark.parametrize("M, K, sigma_h_sq", verify.INTERFERENCE_CASES)
def test_interference_statistic_has_the_bytes_of_the_reductions_on_verifys_blocks(
        M, K, sigma_h_sq):
    rows = verify._BLOCK_BYTES // (16 * M * K)
    h = sample_channel(rng.substream(7, rng.CHANNEL, M), rows, M, K, 1, sigma_h_sq)
    assert interference_statistic(h).tobytes() == _reduced_interference_statistic(h).tobytes()


def test_interference_statistic_has_the_bytes_of_the_reductions_over_a_grid():
    # K = 1 with s = 1 is left out: there the device axis is the innermost
    # and numpy adds M >= 8 terms pairwise, so the last bit may differ
    for N in (1, 64):
        for M in (1, 2, 3, 8, 16):
            for K in (2, 4, 16, 256):
                for s in (1, 3):
                    h = sample_channel(rng.substream(8, rng.CHANNEL, N, M, K, s), N, M, K, s, 1.0)
                    assert (interference_statistic(h).tobytes()
                            == _reduced_interference_statistic(h).tobytes()), (N, M, K, s)


def test_decomposition_identity_random_instance():
    gen = np.random.default_rng(3)
    M, K, s, N = 3, 2, 2, 1
    g = gen.normal(size=(M, 2 * s * N))
    blocks = pack(g, s)
    h = sample_channel(rng.substream(9, rng.CHANNEL, 0), N, M, K, s, 1.0)
    z = sample_noise(rng.substream(9, rng.NOISE, 0), N, K, s, 2.0)
    alpha = 1.3
    obs = combine(propagate(alpha * blocks, h, z), h)
    dec = decompose(blocks, h, z, alpha)
    assert isinstance(dec, Decomposition)
    rel = np.abs(dec.total - obs).max() / np.abs(obs).max()
    assert rel < 1e-12


def test_decompose_single_device_interference_zero():
    g = np.arange(1.0, 5.0)
    blocks = pack(g, 2)[None, ...]
    h = sample_channel(rng.substream(4, rng.CHANNEL, 0), 1, 1, 6, 2, 1.0)
    z = sample_noise(rng.substream(4, rng.NOISE, 0), 1, 6, 2, 1.0)
    dec = decompose(blocks, h, z, 1.0)
    assert np.all(dec.interference == 0)


def test_decompose_zero_noise_term():
    g = np.arange(1.0, 5.0)
    blocks = np.stack([pack(g, 2), pack(2 * g, 2)])
    h = sample_channel(rng.substream(5, rng.CHANNEL, 0), 1, 2, 3, 2, 1.0)
    z = np.zeros((1, 3, 2), dtype=complex)
    assert np.all(decompose(blocks, h, z, 1.0).noise_out == 0)
