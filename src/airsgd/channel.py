"""Rayleigh fading multiple-access channel with additive receiver noise.

Channel gains and noise are i.i.d. circularly symmetric complex Gaussians:
a scalar with total variance v has real and imaginary parts each N(0, v/2).
Gains are independent across symbols, devices, antennas, and subchannels
(the only correlation model supported); noise likewise across symbols,
antennas, and subchannels.

The receiver sees the channel only through its matched-sum combiner output,
so the program draws that output from its exact law: ``sample_combined``
gives the per-device coefficients and the combined noise, O(M s) values per
symbol instead of O(M K s) gains. ``sample_channel`` draws the full fading
tensor, which only ``verify``'s statistics need, since they reduce the
individual gains. The per-antenna noise, the superposed received signal and
the combiner itself, written literally, live in the tests' oracle,
``tests/reference.py``, against which ``sample_combined`` is checked.

Array conventions used throughout the package:

    channel gains h : (N, M, K, s) complex128   symbol, device, antenna, subchannel
    transmitted x   : (M, N, s)    complex128   one block row per symbol
    combiner coeffs : (N, M, s)    complex128
    combined noise  : (N, s)       complex128
"""

import numpy as np

from . import rng

__all__ = ["sample_channel", "sample_combined"]


def _complex_normal(gen: np.random.Generator, shape, variance) -> np.ndarray:
    """CN(0, variance) draws of ``shape``; an array variance broadcasts against it.

    The real and imaginary parts of entry j are the normals 2j and 2j+1 of
    one ``shape + (2,)`` draw.
    """
    parts = gen.standard_normal(shape + (2,))
    parts *= np.sqrt(np.asarray(variance) / 2.0)[..., None]
    return parts.view(np.complex128)[..., 0]


def _check_dims(**dims):
    for name, value in dims.items():
        if value < 1:
            raise ValueError(f"dimension {name} must be >= 1, got {value}")


def _check_gain_variance(sigma_h_sq: float):
    if sigma_h_sq <= 0:
        raise ValueError(f"sigma_h_sq must be positive, got {sigma_h_sq}")


def sample_channel(rng_seed, N: int, M: int, K: int, s: int, sigma_h_sq: float) -> np.ndarray:
    """Draw an (N, M, K, s) tensor of fading gains, each CN(0, sigma_h_sq).

    Deterministic given the seed: the tensor is drawn in a single call with
    fixed axis order, so the value at every (n, m, k, i) is pinned. Given a
    ``Generator`` instead of a seed, the draw continues that generator's
    stream, so consecutive calls on one generator for N1, N2, ... matrices
    concatenate along the first axis to the one-call (N1 + N2 + ...) tensor.
    """
    _check_dims(N=N, M=M, K=K, s=s)
    _check_gain_variance(sigma_h_sq)
    gen = rng.generator(rng_seed)
    return _complex_normal(gen, (N, M, K, s), sigma_h_sq)


def sample_combined(
    channel_seed, noise_seed, N: int, M: int, K: int, s: int,
    sigma_h_sq: float, sigma_z_sq: float,
):
    """Draw the matched-sum combiner output's coefficients and noise directly.

    Returns ``(coeffs, noise)`` of shapes (N, M, s) and (N, s), distributed
    exactly as ``c[n, m, i]`` and ``w[n, i]`` in the combiner output

        (1/K) sum_k conj(sum_m h[n, m, k, i]) (sum_m h[n, m, k, i] tx[m, n, i] + z[n, k, i])
            = sum_m c[n, m, i] tx[m, n, i] + w[n, i]

    for h from ``sample_channel`` and per-antenna noise z with entries
    CN(0, sigma_z_sq), jointly over (c, w), for every K >= 1. Per symbol and
    subchannel, with sigma^2 = sigma_h_sq:

        r   ~ sigma^2 Gamma(K, 1)
        f   ~ CN(0, sigma^2 r I_M)
        c_m = r / K + (sqrt(M) / K) (f_m - mean_m f)
        w   ~ CN(0, sigma_z_sq M r / K^2), exactly zero when sigma_z_sq = 0

    Why: split the K x M gain matrix H as a v^T + B U^T, with v = 1/sqrt(M)
    and U an orthonormal basis of the complement of the all-ones vector.
    a = H v and B = H U are independent with i.i.d. CN(0, sigma^2) entries,
    c^T = (1/K) (H 1)^H H = (sqrt(M)/K) (|a|^2 v^T + (a^H B) U^T), and given
    a, a^H B ~ CN(0, sigma^2 |a|^2 I) and (1/K) (H 1)^H z ~
    CN(0, sigma_z_sq M |a|^2 / K^2). Hence r = |a|^2.

    Stream contract: the channel seed's generator draws the gamma array
    (N, s) first, then the standard normals (N, M, s, 2) behind f; the noise
    seed's generator draws the normals (N, s, 2) behind w.

    An ensemble of cells that share both seeds passes K and sigma_z_sq as (R,)
    arrays and gets outputs with that leading axis: the channel stream is drawn
    once per distinct K and the noise normals once, scaled for each cell, so
    each cell gets the bytes of its own call.
    """
    K, sigma_z_sq = np.broadcast_arrays(np.asarray(K), np.asarray(sigma_z_sq, dtype=np.float64))
    _check_dims(N=N, M=M, K=K.min(), s=s)
    _check_gain_variance(sigma_h_sq)
    if sigma_z_sq.min() < 0:
        raise ValueError(f"sigma_z_sq must be nonnegative, got {sigma_z_sq.min()}")
    r = np.empty(K.shape + (N, s))
    coeffs = np.empty(K.shape + (N, M, s), dtype=np.complex128)
    for k in map(int, np.unique(K)):
        gen = rng.generator(channel_seed)
        r_k = sigma_h_sq * gen.standard_gamma(k, size=(N, s))
        # f / sqrt(sigma^2 r), centred over the devices, then scaled and shifted in place
        c = _complex_normal(gen, (N, M, s), 1.0)
        c -= c.mean(axis=1, keepdims=True)
        c *= (np.sqrt(M * sigma_h_sq * r_k) / k)[:, None, :]
        c += (r_k / k)[:, None, :]
        r[K == k], coeffs[K == k] = r_k, c
    noise = np.zeros(K.shape + (N, s), dtype=np.complex128)
    if sigma_z_sq.max() > 0:
        K_sq = np.square(K[..., None, None], dtype=np.float64)  # an int64 square wraps past 3e9
        scale = np.sqrt(sigma_z_sq[..., None, None] * M * r / K_sq / 2.0)
        parts = rng.generator(noise_seed).standard_normal((N, s, 2)) * scale[..., None]
        noise = parts.view(np.complex128)[..., 0]
        noise[sigma_z_sq == 0] = 0  # sqrt(0) times a negative normal is -0.0
    return coeffs, noise
