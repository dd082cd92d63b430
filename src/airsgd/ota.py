"""Over-the-air aggregation: transmit scaling, gradient-average estimation,
and the channel statistics behind the estimate.

Devices send x^n_m = alpha_t * g^n_m uncoded. The receiver, knowing all
gains, combines its K antennas per symbol n and subchannel i as

    y^n_i = (1/K) sum_k ( sum_m h^n_{m,k,i} )^* y^n_{k,i}

which splits algebraically into a signal part weighted by the per-device
effective gains (1/K) sum_k |h|^2, a cross-device interference part and a
combined noise part. The interference gain, summed over ordered device
pairs, is real, with zero mean and variance M(M-1) sigma_h^4 / K per
coefficient. As K grows the effective gains concentrate at sigma_h^2
(channel hardening), so dividing the combined observation by
alpha_t * M * sigma_h^2 recovers the gradient average. A run draws that
observation from its exact law (``channel.sample_combined``); the two gain
statistics below serve ``verify``, which reduces the full fading tensor.
"""

from dataclasses import dataclass

import numpy as np

from .packing import scaled_pack, unpack

__all__ = [
    "PowerSchedule",
    "transmit",
    "transmit_energy",
    "estimate_average_gradient",
    "effective_signal_gains",
    "interference_statistic",
]


@dataclass(frozen=True)
class PowerSchedule:
    """Per-iteration amplitude scaling alpha_t of the transmitted gradients.

    alpha_t = alpha0 + slope * t. kind "constant" keeps alpha_t = alpha0 and
    takes no nonzero slope; "linear_ramp" grows it, useful because gradient
    magnitudes shrink over training while the noise floor does not.
    """

    kind: str
    alpha0: float
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear_ramp"):
            raise ValueError(f"unknown power schedule kind {self.kind!r}")
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if self.kind == "constant" and self.slope != 0:
            raise ValueError(f"a constant power schedule takes no slope, got {self.slope}")

    def alpha_at(self, t: int) -> float:
        """Scaling factor at iteration t (1-based)."""
        return self.alpha0 + self.slope * t

    def validate_horizon(self, T: int) -> None:
        """Check alpha_t > 0 for every t in [1, T]."""
        worst = min(self.alpha_at(1), self.alpha_at(T))
        if worst <= 0:
            raise ValueError(f"power schedule is nonpositive within horizon T={T}")


def transmit(gradient, alpha_t: float, s: int) -> np.ndarray:
    """Scale and pack gradients (..., d), already checked finite, into blocks (..., N, s)."""
    if alpha_t <= 0:
        raise ValueError(f"alpha_t must be positive, got {alpha_t}")
    return scaled_pack(np.asarray(gradient, dtype=np.float64), s, alpha_t)


def transmit_energy(blocks: np.ndarray):
    """Total symbol energy sum_n ||x^n||^2 of each (N, s) block array in (..., N, s)."""
    b = np.asarray(blocks)
    return np.sum(b.real**2 + b.imag**2, axis=(-2, -1))


def estimate_average_gradient(
    obs: np.ndarray, alpha_t: float, M: int, sigma_h_sq: float, d: int
) -> np.ndarray:
    """Recover length-d gradient-average estimates (..., d) from combiner output (..., N, s).

    Divides by alpha_t * M * sigma_h_sq and unpacks, dropping padding beyond
    d. sigma_h_sq is the configured gain variance, not an empirical
    estimate: the receiver knows the channel statistics.
    """
    if alpha_t <= 0 or sigma_h_sq <= 0:
        raise ValueError("alpha_t and sigma_h_sq must be positive")
    if M < 1:
        raise ValueError(f"device count M must be >= 1, got {M}")
    obs = np.asarray(obs, dtype=np.complex128)
    return unpack(obs / (alpha_t * M * sigma_h_sq), d)


def effective_signal_gains(h: np.ndarray) -> np.ndarray:
    """Per-device signal weights (1/K) sum_k |h|^2, shape (N, M, s).

    These multiply each device's own symbols in the combiner output and
    concentrate at sigma_h_sq as K grows.
    """
    h = np.asarray(h)
    if h.ndim != 4:
        raise ValueError(f"expected h (N,M,K,s), got shape {h.shape}")
    return (h.real**2 + h.imag**2).mean(axis=2)


def interference_statistic(h: np.ndarray) -> np.ndarray:
    """Cross-device gain statistic per (symbol, subchannel), real, shape (N, s).

    (1/K) sum_k sum_m sum_{m' != m} conj(h[m]) h[m'], a sum over ordered
    device pairs and so real: |sum_m h|^2 - sum_m |h|^2, averaged over the
    K antennas. Zero mean, variance M(M-1) sigma_h^4 / K. Exactly zero for
    M = 1, where both terms are the same products.

    Both device sums add the (N, K, s) device slices in device order, which
    is faster than a reduction over the short device axis. That is the
    order numpy's ``sum(axis=1)`` takes too, so the bytes are the same,
    except with K = s = 1, where that axis is the innermost and numpy adds
    M >= 8 terms pairwise: there the two can differ in the last bit.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 4:
        raise ValueError(f"expected h (N,M,K,s), got shape {h.shape}")
    squares = h.real**2
    squares += h.imag**2
    total, energy = h[:, 0].copy(), squares[:, 0].copy()
    for m in range(1, h.shape[1]):
        total += h[:, m]
        energy += squares[:, m]
    pair_sum = total.real**2
    pair_sum += total.imag**2
    pair_sum -= energy
    return pair_sum.mean(axis=1)
