"""Substream derivation for reproducible simulation randomness.

All randomness flows through the Philox counter-based bit generator. Each
consumer derives its own stream from (master_seed, stream tag, indices...),
so results never depend on the order in which tensors are drawn. Within a
stream, each tensor is drawn in one vectorized call, in a documented order
and axis layout, which pins the counter assignment of every scalar. A
training run derives CHANNEL, NOISE and, with batch_size set, BATCH once per
iteration t, keyed (master_seed, tag, t). The cells of one
``experiment.run_cells`` ensemble share these substreams, and each shared
draw is made once per iteration for the whole group. One stream carries no tag:
``data.partition`` draws the devices' local sets, device by device, from
``generator(master_seed)``, the Philox stream seeded by the master seed alone.
"""

import numpy as np

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream. Tag 3 is unassigned.
CHANNEL = 1
NOISE = 2
BATCH = 4
DATASET = 5


def substream(master_seed: int, tag: int, *indices: int) -> np.random.SeedSequence:
    """Seed material for the (tag, indices) stream of a master seed."""
    return np.random.SeedSequence((int(master_seed), int(tag), *map(int, indices)))


def generator(seed) -> np.random.Generator:
    """Philox generator from an int, tuple, or SeedSequence seed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))
