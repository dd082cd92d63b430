"""Substream derivation for reproducible simulation randomness.

All randomness flows through the Philox counter-based bit generator. Each
consumer derives its own stream from (master_seed, stream tag, indices...),
so results never depend on the order in which tensors are drawn. Within a
stream, each tensor is drawn in one vectorized call, in a documented order
and axis layout, which pins the counter assignment of every scalar; a
tensor drawn in consecutive slices along its first axis from one
``Generator`` has the same bytes, since the stream fills in C order. A
training run derives CHANNEL, NOISE and, with batch_size set, BATCH once per
iteration t, keyed (master_seed, tag, t). The cells of one
``experiment.run_cells`` ensemble share these substreams, and each shared
draw is made once per iteration for the whole group. ``data.make_synthetic``
draws the cluster means' normals from (dataset_seed, DATASET), and class
c's train rows, then its test rows, from (dataset_seed, DATASET, c + 1);
key c would give class 0 the means' stream, by the trailing-zero rule
below. One stream carries no tag: ``data.partition`` draws the devices'
local sets, device by device, from ``generator(master_seed)``, the Philox
stream seeded by the master seed alone.

The key (seed, tag, *indices) is handed to ``SeedSequence`` as its entropy,
and that encoding is not one-to-one, so two rules keep keys apart:

* trailing zeros are dropped: ``(s, tag)``, ``(s, tag, 0)`` and
  ``(s, tag, 0, 0)`` give one stream. No two keys of one run, or of one
  verify-stats call, differ only in trailing zeros. A run and a verify-stats
  call at one seed do share streams this way (verify's (s, CHANNEL, 1, 0)
  is a run's (s, CHANNEL, 1)), but no figure draws on both;
* an int of ``SEED_LIMIT`` (2^32) or more spans two words, so
  ``(5 + 2**32, tag, 3)`` is ``(5, tag, 1, 3)``. Every seed the program
  accepts (``master_seed``, ``dataset.seed``, ``verify-stats --seed``) is
  checked to lie below it.

The package's threads live here too, since these keys are why no output
byte depends on the thread that does the work: a draw's bytes are fixed by
its substream key, a row copy is a copy, and results are combined in a
fixed order. ``map_chunks`` runs a Monte Carlo check's keyed chunks on
``_WORKERS`` threads. ``side_worker`` is one thread beside the caller's: a
training run hands it the next iteration's CHANNEL and NOISE draw
(iteration 1's while the dataset is built) and half of each row copy, and
``data.make_synthetic`` the classes below C // 2, when there is a second
CPU and the work fills at least ``_OFFLOAD_BYTES`` (every such array of an
MNIST-size run, none of a desk-size one).
"""

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream. Tag 3 is unassigned.
CHANNEL = 1
NOISE = 2
BATCH = 4
DATASET = 5

# Seeds lie in [0, SEED_LIMIT): one 32-bit word of SeedSequence entropy.
SEED_LIMIT = 2**32

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1
# Work that fills an array smaller than this stays in the caller's thread:
# handing it over costs more than it overlaps. Every array of a desk-size
# run is smaller (the largest, a 10-device stack of 150 x 32 rows, is
# 384 KB); the draws and row copies of an MNIST-size run are 1.3-125 MB.
_OFFLOAD_BYTES = 1 << 19


def substream(master_seed: int, tag: int, *indices: int) -> np.random.SeedSequence:
    """Seed material for the (tag, indices) stream of a master seed."""
    return np.random.SeedSequence((int(master_seed), int(tag), *map(int, indices)))


def generator(seed) -> np.random.Generator:
    """Philox generator from an int, tuple, or SeedSequence seed.

    A ``Generator`` is returned as is, so a sampler handed one continues its
    stream: N matrices drawn in consecutive slices from one generator are
    the bytes of one N-matrix draw.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def map_chunks(fn, trials: int, chunk: int) -> list:
    """``fn(c, n)`` for each chunk c of ``trials`` cut into chunks of at most ``chunk``.

    Chunk c holds n = min(chunk, trials - c * chunk) trials. The chunks run
    on ``_WORKERS`` threads; the results come back in chunk order, and an
    exception raised in one chunk propagates. Callers key chunk c's
    randomness by c and combine the results in order, so the outcome does
    not depend on the worker count.
    """
    sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
    with ThreadPoolExecutor(_WORKERS) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


@contextlib.contextmanager
def side_worker():
    """One worker thread for work that can overlap the caller's, as ``start``.

    ``start(nbytes, fn, *args)`` returns a zero-argument callable that gives
    ``fn(*args)``. When there are ``_WORKERS`` > 1 CPUs and fn fills an array
    of at least ``_OFFLOAD_BYTES``, fn begins at once on the worker (numpy
    releases the interpreter lock while it draws and copies) and the callable
    waits for it; otherwise fn runs in the caller's thread when the callable
    is called. Callers call every callable they start, so an exception from
    the worker is raised where its result is used. Leaving the block cancels
    work not yet begun and waits for the running one, so no thread outlives
    it.
    """
    pool = ThreadPoolExecutor(1)

    def start(nbytes, fn, *args):
        if _WORKERS > 1 and nbytes >= _OFFLOAD_BYTES:
            return pool.submit(fn, *args).result
        return functools.partial(fn, *args)

    try:
        yield start
    finally:
        pool.shutdown(cancel_futures=True)
