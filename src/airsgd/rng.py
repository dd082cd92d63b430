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
draw is made once per iteration for the whole group. The thread a draw runs
on does not matter, since its substream key fixes its bytes: a run may make
iteration t + 1's draw on a worker thread while it trains on iteration t.
One stream carries no tag:
``data.partition`` draws the devices' local sets, device by device, from
``generator(master_seed)``, the Philox stream seeded by the master seed alone.

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
"""

import numpy as np

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream. Tag 3 is unassigned.
CHANNEL = 1
NOISE = 2
BATCH = 4
DATASET = 5

# Seeds lie in [0, SEED_LIMIT): one 32-bit word of SeedSequence entropy.
SEED_LIMIT = 2**32


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
