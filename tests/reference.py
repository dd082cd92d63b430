"""The paper's K-antenna MAC, written literally: the tests' oracle.

The program draws the matched-sum combiner output from its exact law
(``channel.sample_combined``) and never forms the received signal. This
module computes that output the long way, from the full fading tensor of
``channel.sample_channel``: per-antenna receiver noise, the superposition of
the device symbols, the combiner, and the combiner output's split into
signal, interference and noise parts. The tests check the program against it.

Array conventions, besides ``channel``'s:

    noise z    : (N, K, s) complex128   symbol, antenna, subchannel
    received y : (N, K, s) complex128

Nothing here checks its arguments: the tests pass well-formed arrays.
"""

from dataclasses import dataclass

import numpy as np

from airsgd import channel, rng
from airsgd.ota import effective_signal_gains


def sample_noise(rng_seed, N, K, s, sigma_z_sq):
    """Draw an (N, K, s) tensor of receiver noise, each CN(0, sigma_z_sq).

    Drawn from the seed's generator as ``sample_channel`` draws its gains;
    sigma_z_sq = 0 yields an exactly zero tensor (noiseless channel).
    """
    if sigma_z_sq == 0:
        return np.zeros((N, K, s), dtype=np.complex128)
    return channel._complex_normal(rng.generator(rng_seed), (N, K, s), sigma_z_sq)


def propagate(tx, h, z):
    """Superpose the scaled device symbols through the fading MAC.

    y[n, k, i] = sum_m h[n, m, k, i] * tx[m, n, i] + z[n, k, i]
    """
    return np.einsum("nmki,mni->nki", h, tx) + z


def combine(rx, h):
    """Matched-sum combining: (1/K) sum_k conj(sum_m h[n, m, k, i]) rx[n, k, i]."""
    return (h.sum(axis=1).conj() * rx).sum(axis=1) / h.shape[2]


@dataclass
class Decomposition:
    """Signal / interference / noise split of the combiner output."""

    signal: np.ndarray
    interference: np.ndarray
    noise_out: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.signal + self.interference + self.noise_out


def decompose(gradient_blocks, h, z, alpha_t) -> Decomposition:
    """Split the combiner output into signal, interference, and noise parts.

    ``gradient_blocks`` holds the unscaled packed gradients, shape (M, N, s).
    The signal part weights each device by the program's
    ``effective_signal_gains``; the noise part is combine(z, h), so
    signal + interference + noise_out equals combine(propagate(...)).
    """
    signal = alpha_t * np.einsum("nmi,mni->ni", effective_signal_gains(h), gradient_blocks)
    # device m's gain times the other devices' conjugated gains: exactly 0 at M = 1
    others = (h.sum(axis=1, keepdims=True) - h).conj()
    interference = alpha_t * np.einsum("nmki,nmki,mni->ni", others, h, gradient_blocks) / h.shape[2]
    return Decomposition(signal=signal, interference=interference, noise_out=combine(z, h))
