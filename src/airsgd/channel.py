"""Rayleigh fading multiple-access channel with additive receiver noise.

Channel gains and noise are i.i.d. circularly symmetric complex Gaussians:
a scalar with total variance v has real and imaginary parts each N(0, v/2).
Gains are independent across symbols, devices, antennas, and subchannels
(the only correlation model supported); noise likewise across symbols,
antennas, and subchannels.

Two ways to draw the channel:

* the reference path: ``sample_channel`` and ``sample_noise`` draw the full
  fading tensor and the per-antenna noise, ``propagate`` superposes the
  device symbols and ``ota.combine`` applies the matched-sum combiner. The
  verification suites and the signal/interference/noise split use it,
  because they need the individual gains.
* ``sample_combined`` draws the combiner output's law directly: the
  per-device coefficients and the combined noise, O(M s) values per symbol
  instead of O(M K s). Training runs use it, because the receiver's
  estimate depends on the channel only through that output.

Array conventions used throughout the package:

    channel gains h : (N, M, K, s) complex128   symbol, device, antenna, subchannel
    noise z         : (N, K, s)    complex128
    transmitted x   : (M, N, s)    complex128   one block row per symbol
    received y      : (N, K, s)    complex128
    combiner coeffs : (N, M, s)    complex128
    combined noise  : (N, s)       complex128
"""

import numpy as np

from . import rng

__all__ = ["sample_channel", "sample_noise", "propagate", "sample_combined"]


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


def _check_noise_variance(sigma_z_sq: float):
    if sigma_z_sq < 0:
        raise ValueError(f"sigma_z_sq must be nonnegative, got {sigma_z_sq}")


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


def sample_noise(rng_seed, N: int, K: int, s: int, sigma_z_sq: float) -> np.ndarray:
    """Draw an (N, K, s) tensor of receiver noise, each CN(0, sigma_z_sq).

    sigma_z_sq = 0 yields an exactly zero tensor (noiseless channel).
    """
    _check_dims(N=N, K=K, s=s)
    _check_noise_variance(sigma_z_sq)
    if sigma_z_sq == 0:
        return np.zeros((N, K, s), dtype=np.complex128)
    gen = rng.generator(rng_seed)
    return _complex_normal(gen, (N, K, s), sigma_z_sq)


def propagate(tx: np.ndarray, h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Superpose the scaled device symbols through the fading MAC.

    y[n, k, i] = sum_m h[n, m, k, i] * tx[m, n, i] + z[n, k, i]

    ``tx`` holds the already power-scaled symbol blocks of every device.
    The channel acts entrywise per subchannel.
    """
    tx = np.asarray(tx, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if tx.ndim != 3 or h.ndim != 4 or z.ndim != 3:
        raise ValueError(
            f"expected tx (M,N,s), h (N,M,K,s), z (N,K,s); got {tx.shape}, {h.shape}, {z.shape}"
        )
    M, N, s = tx.shape
    if h.shape[0] != N or h.shape[1] != M or h.shape[3] != s:
        raise ValueError(f"channel shape {h.shape} inconsistent with tx shape {tx.shape}")
    if z.shape != (N, h.shape[2], s):
        raise ValueError(f"noise shape {z.shape} inconsistent with channel shape {h.shape}")
    return np.einsum("nmki,mni->nki", h, tx) + z


def sample_combined(
    channel_seed, noise_seed, N: int, M: int, K: int, s: int,
    sigma_h_sq: float, sigma_z_sq: float,
):
    """Draw the matched-sum combiner output's coefficients and noise directly.

    Returns ``(coeffs, noise)`` of shapes (N, M, s) and (N, s), distributed
    exactly as ``c[n, m, i]`` and ``w[n, i]`` in

        combine(propagate(tx, h, z), h)[n, i] = sum_m c[n, m, i] tx[m, n, i] + w[n, i]

    for h from ``sample_channel`` and z from ``sample_noise``, jointly over
    (c, w), for every K >= 1. Per symbol and subchannel, with
    sigma^2 = sigma_h_sq:

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
    _check_noise_variance(sigma_z_sq.min())
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
