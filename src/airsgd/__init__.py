"""Analog distributed SGD over a fading multiple-access channel.

Edge devices transmit scaled gradient blocks simultaneously; superposition
delivers their sum, and a multi-antenna receiver with channel knowledge
turns that into an average-gradient estimate whose error shrinks as
antennas are added. This package simulates the whole loop: gradient
packing, the fading channel, matched-sum combining, the training dynamics,
and the Monte Carlo checks of the underlying statistics. Import it by
module (``from airsgd import config, experiment``); the package itself
holds only ``__version__``.
"""

__version__ = "0.1.0"
