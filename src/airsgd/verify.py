"""Monte Carlo verification of the aggregation statistics.

Two suites, both built on fresh channel draws:

* interference: the cross-device gain of the combiner output, a real
  number per coefficient, has zero mean and variance M(M-1) sigma_h^4 / K;
  the report has one mean and one variance line per case, judged by
  ``statcheck``, whose variance window widens with the standard error, so
  a small trial count does not fail correct code by chance;
* hardening: the per-device effective gain (1/K) sum_k |h|^2 concentrates
  at sigma_h^2, its relative RMS deviation shrinking like 1/sqrt(K), so
  quadrupling K should roughly halve it.

These back the `verify-stats` CLI verb and the statistical acceptance
tests. Every check draws its channel matrices in chunks of at most
``_CHUNK``; chunk c of check ``index`` reads its own substream (seed,
CHANNEL, index, c), so the chunks are independent. Each suite opens
``rng.side_worker`` with the bytes of its checks' channel gains and, given
its thread, deals the chunks of all its checks between it and the caller
by cost. A chunk is drawn from one generator in blocks of
``rng.block_length`` matrices, and each block is reduced before the next
is drawn, so no chunk-sized tensor is ever held.
The report's bytes depend on neither the block length nor the thread that
draws a chunk: consecutive blocks of one generator are the bytes of the
one-call chunk draw, both statistics reduce each matrix on its own, and
results are combined in chunk order (``rng``'s docstring).
"""

import itertools

import numpy as np

from . import channel, ota, rng, statcheck
from .config import ConfigError

__all__ = [
    "interference_checks",
    "hardening_checks",
    "stat_suite",
    "format_report",
]

_CHUNK = 4096

# (M, K, sigma_h_sq) triples exercised by the interference suite.
INTERFERENCE_CASES = ((2, 4, 1.0), (4, 8, 1.0), (8, 16, 2.0))

HARDENING_M = 2
HARDENING_SIGMA_H_SQ = 1.0
HARDENING_K = (4, 16, 64, 256)


def interference_variance(M: int, K: int, sigma_h_sq: float) -> float:
    """Predicted per-coefficient variance of the cross-device term."""
    return M * (M - 1) * sigma_h_sq**2 / K


def _deal(costs) -> tuple:
    """Indices of ``costs`` for the side worker and for the caller, balanced by cost.

    The costs are taken from the largest down, ties in index order, and
    each goes to the side whose total so far is smaller, the worker on a
    tie; so the two totals differ by at most the largest cost.
    """
    sides, totals = ([], []), [0, 0]
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        side = int(totals[1] < totals[0])
        sides[side].append(i)
        totals[side] += costs[i]
    return sides


def _channel_statistics(checks, trials, seed) -> list:
    """Per check, ``statistic`` of each chunk's (n, M, K, 1) channel draw, in chunk order.

    ``checks`` holds a suite's (statistic, M, K, sigma_h_sq, index) checks.
    Chunk c of a check holds at most ``_CHUNK`` matrices and reads (seed,
    CHANNEL, index, c). It is drawn from one generator in blocks of
    ``rng.block_length`` matrices, and the per-block statistics, which must
    be per-matrix, are concatenated along the first axis. The suite's chunks
    are dealt by their n * M * K gains (``_deal``): given
    ``rng.side_worker``'s thread for the suite's channel bytes, the
    worker's share runs there while the caller runs its own.
    """
    count = -(-trials // _CHUNK)
    sizes = [min(_CHUNK, trials - c * _CHUNK) for c in range(count)]
    chunks = [(check, c) for check in checks for c in range(count)]
    gains = [sizes[c] * M * K for (_, M, K, _, _), c in chunks]

    def draw(check, c):
        statistic, M, K, sigma_h_sq, index = check
        rows = rng.block_length(16 * M * K)  # matrices a block
        gen = rng.generator(rng.substream(seed, rng.CHANNEL, index, c))
        return np.concatenate([
            statistic(channel.sample_channel(gen, min(rows, sizes[c] - start), M, K, 1, sigma_h_sq))
            for start in range(0, sizes[c], rows)
        ])

    def run(share):
        return [draw(*chunks[i]) for i in share]

    worker, caller = _deal(gains)
    results = [None] * len(chunks)
    with rng.side_worker(16 * sum(gains)) as start:
        first = start(run, worker)
        mine = run(caller)
        for i, statistic in zip(worker + caller, first() + mine):
            results[i] = statistic
    return [results[i:i + count] for i in range(0, len(results), count)]


def _interference(h) -> np.ndarray:
    return ota.interference_statistic(h)[:, 0]


def interference_checks(trials: int, seed: int) -> list:
    """Mean and variance checks of the interference statistic per case, as one suite."""
    checks = [(_interference, M, K, sigma_h_sq, index)
              for index, (M, K, sigma_h_sq) in enumerate(INTERFERENCE_CASES)]
    results = []
    for (M, K, sigma_h_sq), chunks in zip(INTERFERENCE_CASES,
                                          _channel_statistics(checks, trials, seed)):
        samples = np.concatenate(chunks)
        label = f"interference(M={M},K={K},sig_h2={sigma_h_sq:g})"
        results.append(statcheck.check_mean_zero(f"{label}.mean", samples))
        expected = interference_variance(M, K, sigma_h_sq)
        results.append(statcheck.check_variance(f"{label}.var", samples, expected))
    return results


def _rms_deviation(chunks, sigma_h_sq) -> float:
    """Relative RMS deviation from sigma_h^2 of a check's effective gains, over its chunks."""
    total = 0.0
    count = 0
    for gains in chunks:
        total += float(((gains - sigma_h_sq) ** 2).sum())  # gains: (n, M, 1)
        count += gains.size
    return float(np.sqrt(total / count) / sigma_h_sq)


def hardening_checks(trials: int, seed: int) -> list:
    """Check the RMS deviation roughly halves each time K quadruples."""
    # Offset the stream index so these draws never coincide with an
    # interference case of the same shape and seed.
    checks = [(ota.effective_signal_gains, HARDENING_M, K, HARDENING_SIGMA_H_SQ, 100 + i)
              for i, K in enumerate(HARDENING_K)]
    deviations = [_rms_deviation(chunks, HARDENING_SIGMA_H_SQ)
                  for chunks in _channel_statistics(checks, trials, seed)]
    results = []
    for (k_lo, dev_lo), (k_hi, dev_hi) in itertools.pairwise(zip(HARDENING_K, deviations)):
        ratio = dev_hi / dev_lo
        results.append(
            statcheck.CheckResult(
                name=f"hardening.ratio(K={k_lo}->{k_hi})",
                observed=ratio,
                expected=0.5,
                kind="range",
                tolerance=0.1,
                trials=trials,
                passed=bool(0.4 <= ratio <= 0.6),
            )
        )
    return results


def stat_suite(trials: int, seed: int) -> list:
    """All statistical checks, as run by the verify-stats command."""
    if trials < 1000:
        raise ConfigError(f"need at least 1000 trials for stable checks, got {trials}")
    if not 0 <= seed < rng.SEED_LIMIT:
        raise ConfigError(f"seed must lie in [0, 2**32), got {seed}")
    results = interference_checks(trials, seed)
    # Hardening ratios stabilize well below 1e5 draws; cap to keep runtime flat.
    results.extend(hardening_checks(min(trials, 10_000), seed))
    return results


def format_report(results) -> str:
    lines = [r.describe() for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
