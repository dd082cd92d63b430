"""Run configuration: frozen dataclasses, file loading, overrides, templates.

A run is fully described by a JSON document mirroring RunConfig, and the
dataclasses are its only description. ``parse_config`` walks their fields
and type hints, rejecting unknown keys (so typos fail loudly instead of
silently running a different experiment), missing keys and ill-typed values;
each dataclass checks its own ranges in ``__post_init__``. The dataset's
``kind`` selects SyntheticSpec or IdxPaths. Every metrics file embeds the
resolved config, so the canonical serialization lives here too.
"""

import dataclasses
import json
import sys
import typing
from dataclasses import asdict, dataclass
from typing import ClassVar, Optional, Union

from .data import SyntheticSpec
from .learner import OptimizerSpec
from .ota import PowerSchedule
from .rng import SEED_LIMIT

__all__ = [
    "ConfigError",
    "IdxPaths",
    "PartitionSpec",
    "RunConfig",
    "load_config",
    "load_document",
    "parse_config",
    "parse_value",
    "apply_overrides",
    "template",
    "resolved_json",
]


class ConfigError(Exception):
    """Raised for unparseable, ill-typed, or inconsistent configs."""


@dataclass(frozen=True)
class IdxPaths:
    kind: ClassVar[str] = "idx"

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass(frozen=True)
class PartitionSpec:
    per_device: int

    def __post_init__(self):
        if self.per_device < 1:
            raise ConfigError(f"per_device must be >= 1, got {self.per_device}")


@dataclass(frozen=True)
class RunConfig:
    M: int
    K: int
    s: int
    d: int
    T: int
    sigma_h_sq: float
    sigma_z_sq: float
    power: PowerSchedule
    optimizer: OptimizerSpec
    dataset: Union[SyntheticSpec, IdxPaths]
    partition: PartitionSpec
    mode: str  # "ota" | "error_free"
    master_seed: int
    metrics_path: str = "metrics.csv"
    eval_every: int = 10
    batch_size: Optional[int] = None  # None means the full local set each iteration

    def __post_init__(self):
        for name in ("M", "K", "s", "d", "T", "eval_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.s > self.d:
            raise ConfigError(f"s={self.s} exceeds d={self.d}")
        if self.sigma_h_sq < 0:
            raise ConfigError(f"sigma_h_sq must be nonnegative, got {self.sigma_h_sq}")
        if self.sigma_z_sq < 0:
            raise ConfigError(f"sigma_z_sq must be nonnegative, got {self.sigma_z_sq}")
        if self.mode not in ("ota", "error_free"):
            raise ConfigError(f"mode must be 'ota' or 'error_free', got {self.mode!r}")
        if self.mode == "ota" and self.sigma_h_sq <= 0:
            raise ConfigError("ota mode needs sigma_h_sq > 0")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ConfigError(f"master_seed must lie in [0, 2**32), got {self.master_seed}")
        if not self.metrics_path:
            raise ConfigError("metrics_path must be a nonempty path")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive or null, got {self.batch_size}")
        if self.batch_size is not None and self.batch_size > self.partition.per_device:
            raise ConfigError(
                f"batch_size={self.batch_size} exceeds per-device sample count "
                f"per_device={self.partition.per_device}"
            )
        self.power.validate_horizon(self.T)


def _invalid(path: str, message: str) -> ConfigError:
    return ConfigError(f"config invalid at {path}: {message}" if path else f"config invalid: {message}")


def _json_text(value) -> str:
    return json.dumps(value, default=repr)


def _build(hint, value, path: str):
    """Check ``value`` against the type ``hint`` and return it built.

    ``int`` takes an int but never a bool or a float; ``float`` takes a finite
    int or float and stores a float; ``Optional[...]`` takes null; dataclasses
    are built from objects, and a union of dataclasses dispatches on the
    object's ``kind``. ``path`` is the dotted key named in every error.
    """
    if typing.get_origin(hint) is Union:
        options = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None and type(None) in typing.get_args(hint):
            return None
        if len(options) == 1:
            return _build(options[0], value, path)
        if not isinstance(value, dict):
            raise _invalid(path, f"expected an object, got {_json_text(value)}")
        kinds = {cls.kind: cls for cls in options}
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise _invalid(f"{path}.kind", f"expected one of {sorted(kinds)}, got {_json_text(kind)}")
        return _build_dataclass(kinds[kind], {k: v for k, v in value.items() if k != "kind"}, path)
    if dataclasses.is_dataclass(hint):
        return _build_dataclass(hint, value, path)
    numeric = isinstance(value, (int, hint)) and not isinstance(value, bool)
    if hint is int and numeric:
        return value
    if hint is float and numeric and abs(value) <= sys.float_info.max:  # false for NaN too
        return float(value)
    if hint is str and isinstance(value, str):
        return value
    expected = {int: "an integer", float: "a finite number", str: "a string"}[hint]
    raise _invalid(path, f"expected {expected}, got {_json_text(value)}")


def _build_dataclass(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise _invalid(path, f"expected an object, got {_json_text(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise _invalid(path, f"unknown key {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in doc:
            kwargs[name] = _build(hints[name], doc[name], f"{path}.{name}" if path else name)
        elif f.default is dataclasses.MISSING:
            raise _invalid(path, f"missing required key {name!r}")
    try:
        return cls(**kwargs)
    except (ValueError, ConfigError) as exc:
        raise _invalid(path, str(exc)) from exc


def parse_config(doc: dict) -> RunConfig:
    """Check a config dict against the RunConfig dataclasses and build it."""
    return _build_dataclass(RunConfig, doc, "")


def load_document(path) -> dict:
    """Read a config JSON file into a dict, without validating it yet."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def load_config(path, overrides=()) -> RunConfig:
    """Read a JSON config file, apply key=value overrides, and validate."""
    doc = apply_overrides(load_document(path), overrides)
    return parse_config(doc)


def parse_value(text: str):
    """One override or sweep value: JSON when it parses, else the text itself."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings like mode=ota need no quoting


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `a.b.c=value` assignments onto a config dict (returns a copy).

    Values are parsed as JSON when possible, otherwise taken as strings.
    Every key but the last must name an object already in the document; the
    last may be new, so an optional key the document leaves out can be set.
    A key the config does not know fails later, in :func:`parse_config`.
    """
    result = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form KEY=VALUE")
        key, text = item.split("=", 1)
        *parents, last = key.split(".")
        node = result
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"override key {key!r} does not match the config layout")
        node[last] = parse_value(text)
    return result


def template(kind: str) -> dict:
    """Ready-to-run config documents: a fast synthetic run, or survey scale."""
    if kind not in ("minimal", "paper_scale"):
        raise ConfigError(f"unknown template kind {kind!r}")
    doc = {
        "M": 4,
        "K": 8,
        "s": 33,
        "d": 132,
        "T": 60,
        "sigma_h_sq": 1.0,
        "sigma_z_sq": 20.0,
        "mode": "ota",
        "master_seed": 1,
        "eval_every": 10,
        "batch_size": None,
        "metrics_path": "metrics.csv",
        "power": {"kind": "linear_ramp", "alpha0": 1.0, "slope": 0.001},
        "optimizer": {
            "kind": "adam", "learning_rate": 0.01,
            "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
        },
        "dataset": {
            "kind": "synthetic",
            "classes": 4,
            "features": 32,
            "train_per_class": 100,
            "test_per_class": 50,
            "margin": 3.0,
            "seed": 7,
        },
        "partition": {"per_device": 80},
    }
    if kind == "paper_scale":
        # Same key order as minimal: update() keeps each replaced key in place.
        doc.update(M=20, K=40, s=3925, d=7850, T=800, partition={"per_device": 1000})
        doc["optimizer"]["learning_rate"] = 0.001
        doc["dataset"] = {
            "kind": "idx",
            "train_images": "data/train-images-idx3-ubyte",
            "train_labels": "data/train-labels-idx1-ubyte",
            "test_images": "data/t10k-images-idx3-ubyte",
            "test_labels": "data/t10k-labels-idx1-ubyte",
        }
    return doc


def resolved_json(config: RunConfig) -> str:
    """Canonical one-line serialization embedded in the metrics header comment."""
    doc = asdict(config)
    doc["dataset"]["kind"] = config.dataset.kind
    return json.dumps(doc, sort_keys=True)
