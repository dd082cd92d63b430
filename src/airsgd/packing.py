"""Packing of real gradient vectors into complex symbol blocks.

A length-d real vector is zero-padded to length 2*s*N, with N = ceil(d / 2s),
and folded into N complex blocks of dimension s. Within each consecutive
2s-chunk, the first s entries become the real parts and the second s entries
the imaginary parts of one block:

    block[n][i] = g[2*n*s + i] + 1j * g[(2*n + 1)*s + i]   (0-indexed)

The map is linear and energy preserving: the summed squared magnitudes of the
blocks equal the squared Euclidean norm of the padded vector. Both directions
act on the last axis only, so a stack of vectors (..., d), one per device or
per ensemble cell, folds to blocks (..., N, s) and back.
"""

import numpy as np

__all__ = ["block_count", "pack", "unpack"]


def block_count(d: int, s: int) -> int:
    """Number of complex symbols needed to carry a length-d real vector."""
    if s < 1:
        raise ValueError(f"subchannel count s must be >= 1, got {s}")
    if d < 1:
        raise ValueError(f"vector length d must be >= 1, got {d}")
    return -(-d // (2 * s))


def pack(gradient, s: int) -> np.ndarray:
    """Fold real vectors (..., d) into complex128 symbol blocks (..., N, s).

    Leading axes, such as a device or cell axis, pass through unchanged.
    Entries beyond the vector length read as zero padding. Rejects
    non-finite input since those values would silently corrupt every
    downstream channel statistic.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if g.ndim == 0:
        raise ValueError("gradient must have a vector axis, got a scalar")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    *lead, d = g.shape
    n_blocks = block_count(d, s)
    padded = np.zeros((*lead, 2 * s * n_blocks), dtype=np.float64)
    padded[..., :d] = g
    folded = padded.reshape(*lead, n_blocks, 2, s)
    return folded[..., 0, :] + 1j * folded[..., 1, :]


def unpack(blocks, d: int) -> np.ndarray:
    """Invert :func:`pack`: blocks (..., N, s) back to real vectors (..., d).

    N must equal ceil(d / 2s); padding positions beyond d are discarded and
    leading axes pass through. Exact inverse: no arithmetic is performed on
    the values.
    """
    b = np.asarray(blocks, dtype=np.complex128)
    if b.ndim < 2 or b.size == 0:
        raise ValueError(f"blocks must be a nonempty (..., N, s) array, got shape {b.shape}")
    *lead, n_blocks, s = b.shape
    if n_blocks != block_count(d, s):
        raise ValueError(
            f"expected {block_count(d, s)} blocks of length {s} for d={d}, got {n_blocks}"
        )
    flat = np.empty((*lead, n_blocks, 2, s), dtype=np.float64)
    flat[..., 0, :] = b.real
    flat[..., 1, :] = b.imag
    return flat.reshape(*lead, -1)[..., :d].copy()
