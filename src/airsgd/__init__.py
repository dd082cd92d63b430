"""Analog distributed SGD over a fading multiple-access channel.

Edge devices transmit scaled gradient blocks simultaneously; superposition
delivers their sum, and a multi-antenna receiver with channel knowledge
turns that into an average-gradient estimate whose error shrinks as
antennas are added. This package simulates the whole loop: gradient
packing, the fading channel, matched-sum combining, the training dynamics,
and the Monte Carlo checks of the underlying statistics.
"""

from .channel import propagate, sample_channel, sample_combined, sample_noise
from .config import ConfigError, RunConfig, load_config, parse_config, template
from .data import LocalDataset, SyntheticSpec, load_idx, make_synthetic, partition
from .experiment import MetricsRecord, NumericAbort, run, run_matrix, write_metrics
from .learner import (
    OptimizerSpec,
    OptimizerState,
    apply_update,
    evaluate_accuracy,
    init_params,
)
from .ota import (
    Decomposition,
    PowerSchedule,
    combine,
    decompose,
    estimate_average_gradient,
    interference_statistic,
    transmit,
)
from .packing import block_count, pack, unpack

__all__ = [
    "pack", "unpack", "block_count",
    "sample_channel", "sample_noise", "propagate", "sample_combined",
    "PowerSchedule", "transmit", "combine", "estimate_average_gradient",
    "interference_statistic", "decompose", "Decomposition",
    "LocalDataset", "SyntheticSpec", "make_synthetic", "partition", "load_idx",
    "OptimizerSpec", "OptimizerState", "init_params", "apply_update",
    "evaluate_accuracy",
    "RunConfig", "ConfigError", "load_config", "parse_config", "template",
    "run", "run_matrix", "write_metrics",
    "MetricsRecord", "NumericAbort",
]

__version__ = "0.1.0"
