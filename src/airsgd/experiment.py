"""Full training runs: local gradients, analog aggregation, metrics files.

One iteration in ota mode is the pipeline
(M, d) local gradients -> (M, N, s) transmit blocks -> combiner output
-> estimate_average_gradient -> optimizer update. The device axis is an array
axis throughout: one forward pass over the distinct training rows the devices
hold (or, with batch_size set, over their stacked batch rows), one batched
backward product for all M gradients, one pack. The combiner output
sum_m c_m x_m + w is drawn from its exact law by ``channel.sample_combined``
(coefficients c and combined noise w), never from the full per-antenna fading
tensor, which only the verification and decomposition paths draw. The
error_free mode skips the channel and hands the optimizer the exact
device-average gradient, giving the idealized baseline the noisy runs are
compared against.

Cells that differ only in K and sigma_z_sq run as one ensemble (``run_cells``)
on a leading cell axis: data, partition, batches and each iteration's CHANNEL
and NOISE draws are made once per group, and every (cell, device) product keeps
its solo shape, so each cell's metrics are the bytes of its own run.

Metrics land in a CSV whose header comments carry the fully resolved config,
so every data file is reproducible on its own.
"""

import itertools
import json
import os
from dataclasses import dataclass, replace
from urllib.parse import quote

import numpy as np

from . import channel, data, learner, ota, packing, rng
from .config import ConfigError, RunConfig, apply_overrides, parse_config, resolved_json

__all__ = [
    "MetricsRecord",
    "NumericAbort",
    "build_dataset",
    "run",
    "run_cells",
    "write_metrics",
    "run_matrix",
]

CSV_HEADER = "iter,accuracy,loss,inst_power,avg_power,est_mse"


@dataclass
class MetricsRecord:
    """Per-iteration measurements; accuracy/loss filled on evaluation rows only."""

    iteration: int
    accuracy: float  # None between evaluations
    loss: float  # None between evaluations
    inst_power: float  # realized per-device transmit power this iteration
    avg_power: float  # running mean of inst_power up to this iteration
    est_mse: float  # per-coordinate MSE of the estimate vs the true average; None in error_free


class NumericAbort(Exception):
    """A run produced non-finite numbers; carries where it happened."""

    def __init__(self, iteration: int, stage: str, path: str):
        self.iteration = iteration
        self.stage = stage
        self.path = path  # metrics path of the run that aborted
        super().__init__(f"non-finite values at iteration {iteration} in stage {stage!r} of {path}")


def _load_idx(images_path, labels_path) -> data.LocalDataset:
    """One IDX pair with pixels rescaled to [0, 1]; a missing or bad file is a ConfigError."""
    try:
        return data.scale_to_unit(data.load_idx(images_path, labels_path))
    except (OSError, data.DataError) as exc:
        raise ConfigError(f"cannot load dataset {images_path}, {labels_path}: {exc}") from exc


def build_dataset(config: RunConfig):
    """Materialize (train, test) datasets described by the config.

    IDX pixel features are rescaled to [0, 1]; synthetic features are used
    as generated. In both cases d and per_device are checked against the
    dataset before any training starts.
    """
    if config.dataset.kind == "synthetic":
        train, test = data.make_synthetic(config.dataset)
        classes = config.dataset.classes
    else:
        paths = config.dataset
        train = _load_idx(paths.train_images, paths.train_labels)
        test = _load_idx(paths.test_images, paths.test_labels)
        classes = 10
    n_features = train.features.shape[1]
    expected = learner.param_count(n_features, classes)
    if expected != config.d:
        raise ConfigError(
            f"model dimension mismatch: config d={config.d}, "
            f"dataset implies (features+1)*classes={expected}"
        )
    if config.partition.per_device > train.features.shape[0]:
        raise ConfigError(
            f"per_device={config.partition.per_device} exceeds "
            f"{train.features.shape[0]} training samples"
        )
    return train, test, classes


def _batch_positions(config: RunConfig, t: int) -> np.ndarray:
    """Each device's batch at iteration t: (M, batch_size) positions in its local set.

    BATCH substream t draws (M, per_device) uniform keys; row m-1 is device m's
    and selects the positions of its batch_size smallest keys, in key order
    (a tie goes to the lower position).
    """
    keys = rng.generator(rng.substream(config.master_seed, rng.BATCH, t)).random(
        (config.M, config.partition.per_device))
    return np.argsort(keys, axis=1, kind="stable")[:, :config.batch_size]


def _group_key(config: RunConfig) -> RunConfig:
    """What the cells of one ensemble share: the config but K, sigma_z_sq and metrics_path."""
    return replace(config, K=1, sigma_z_sq=0.0, metrics_path="metrics.csv")


def _check_finite(values, t: int, stage: str, configs) -> None:
    """NumericAbort naming the first cell whose row of ``values`` is not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        cell = int(np.argmin(finite.reshape(len(configs), -1).all(axis=1)))
        raise NumericAbort(t, stage, configs[cell].metrics_path)


def run(config: RunConfig, gradient_fn=None, capture=None) -> list:
    """Execute a full training run; returns one MetricsRecord per iteration.

    ``gradient_fn(theta, t, grads) -> (M, d) array`` receives the (M, d)
    local softmax gradients of iteration t and returns the gradients the
    devices send, which is the hook for studying the aggregation path under
    alternative local objectives (gradient clipping, synthetic gradient
    streams, and so on). Passing a dict as ``capture`` stores the final
    parameter vector under "theta" for trajectory-level analysis the records
    do not carry.

    Accuracy and training loss are computed every ``eval_every`` iterations
    and always at t = T; power is tracked every iteration. Raises
    NumericAbort rather than continuing with non-finite numbers. This is the
    one-cell case of :func:`run_cells`.
    """
    (records,) = run_cells([config], gradient_fn, None if capture is None else [capture])
    return records


def run_cells(configs, gradient_fn=None, captures=None) -> list:
    """Execute R runs as one ensemble; returns each cell's list of MetricsRecords.

    The configs may differ in K, sigma_z_sq and metrics_path only; each cell
    gets the bytes of its own :func:`run`. ``gradient_fn`` and a list of one
    ``captures`` dict per cell act per cell as in :func:`run`, and a
    NumericAbort names the metrics path of the cell it hit.
    """
    config = configs[0]
    if any(_group_key(cell) != _group_key(config) for cell in configs):
        raise ValueError("cells of one ensemble may differ in K, sigma_z_sq and metrics_path only")
    R, M, d, s = len(configs), config.M, config.d, config.s
    K = np.array([cell.K for cell in configs])
    sigma_z_sq = np.array([cell.sigma_z_sq for cell in configs])
    train, test, classes = build_dataset(config)
    index = data.partition(train, M, config.partition.per_device, config.master_seed)
    # Devices share rows: the forward pass runs once over the distinct rows
    # they hold, and rows[m] gathers device m's local set back out of them.
    # A BLAS may round a row's product by the size of the matrix it sits in,
    # so the last bit can differ from a per-device forward pass when a local
    # set is small (OpenBLAS 0.3 on AVX-512: at most 1200 / C rows).
    held, rows = np.unique(index, return_inverse=True)
    rows = rows.reshape(index.shape)
    held_X, held_y = train.features[held], train.labels[held]
    del train  # keep the held rows, not the whole pool
    X, y = held_X[rows], held_y[rows]
    learner.check_labels(y, classes)
    device = np.arange(M)[:, None]

    theta = np.tile(learner.init_params(X.shape[-1], classes), (R, 1))
    state = learner.init_optimizer_state(d)  # its zero moments broadcast to (R, d)
    N = packing.block_count(d, s)
    records = [[] for _ in configs]
    power_sum = np.zeros(R)
    log_probs = None  # (R, M, n, C) local-set log-probabilities at the current theta, once computed

    for t in range(1, config.T + 1):
        alpha = config.power.alpha_at(t)
        if config.batch_size is None:
            if log_probs is None:
                log_probs = learner.log_probabilities(theta, held_X)[:, rows]
            grads = learner.gradients(X, y, log_probs)
        else:
            batch = _batch_positions(config, t)
            X_batch = X[device, batch]
            grads = learner.gradients(
                X_batch, y[device, batch], learner.log_probabilities(theta[:, None], X_batch)
            )
        if gradient_fn is not None:
            sent = [np.asarray(gradient_fn(cell_theta, t, cell_grads), dtype=np.float64)
                    for cell_theta, cell_grads in zip(theta, grads)]
            wrong = [cell_grads.shape for cell_grads in sent if cell_grads.shape != (M, d)]
            if wrong:
                raise ValueError(f"gradient_fn returned shape {wrong[0]}, expected {(M, d)}")
            grads = np.stack(sent)
        _check_finite(grads, t, "local_gradient", configs)
        true_avg = grads.mean(axis=1)

        if config.mode == "ota":
            tx = ota.transmit(grads, alpha, s)
            coeffs, noise = channel.sample_combined(
                rng.substream(config.master_seed, rng.CHANNEL, t),
                rng.substream(config.master_seed, rng.NOISE, t),
                N, M, K, s, config.sigma_h_sq, sigma_z_sq,
            )
            obs = np.einsum("rnmi,rmni->rni", coeffs, tx) + noise
            update_grad = ota.estimate_average_gradient(obs, alpha, M, config.sigma_h_sq, d)
            _check_finite(update_grad, t, "estimate", configs)
            inst_power = np.mean(ota.transmit_energy(tx), axis=1) / N
            _check_finite(inst_power, t, "power", configs)
            est_mse = np.mean((update_grad - true_avg) ** 2, axis=1)
            _check_finite(est_mse, t, "est_mse", configs)
            est_mse = est_mse.tolist()
        else:
            update_grad = true_avg
            _check_finite(update_grad, t, "average", configs)
            est_mse = [None] * R
            inst_power = np.zeros(R)

        theta, state = learner.apply_update(theta, update_grad, config.optimizer, state)
        _check_finite(theta, t, "update", configs)
        log_probs = None

        power_sum += inst_power
        avg_power = power_sum / t
        accuracy = loss = [None] * R
        if (t % config.eval_every == 0) or (t == config.T):
            accuracy = learner.evaluate_accuracy(theta, test).tolist()
            log_probs = learner.log_probabilities(theta, held_X)[:, rows]
            # mean over each device's set first, then over devices
            loss = learner.losses(y, log_probs).mean(axis=1).tolist()
        for cell, row in zip(records, zip(accuracy, loss, inst_power.tolist(),
                                          avg_power.tolist(), est_mse)):
            cell.append(MetricsRecord(t, *row))
    for capture, cell_theta in zip(captures or [], theta):
        capture["theta"] = cell_theta
    return records


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_metrics(records, config: RunConfig, path) -> None:
    """Write evaluation rows as CSV with the resolved config in '#' comments.

    The file appears at ``path`` complete or not at all.
    """
    lines = [
        f"# config: {resolved_json(config)}",
        f"# master_seed: {config.master_seed}",
        CSV_HEADER,
    ]
    for rec in records:
        if rec.accuracy is None:
            continue
        lines.append(
            f"{rec.iteration},{_format_cell(rec.accuracy)},{_format_cell(rec.loss)},"
            f"{_format_cell(rec.inst_power)},{_format_cell(rec.avg_power)},"
            f"{_format_cell(rec.est_mse)}"
        )
    # Write a sibling temp file, then rename it over the target: a failed or
    # interrupted write leaves any earlier file at ``path`` as it was.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _prepare_metrics_path(path) -> None:
    """Make the directory of metrics file ``path``; ``path`` itself must not be a directory."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc.strerror}") from exc
    if os.path.isdir(path):
        raise ConfigError(f"metrics path {path} is a directory")


def _cell_filename(assignments) -> str:
    """One filename per cell, inside the sweep's directory whatever the values.

    Values are percent-encoded, so a "/" or "../" in a string value cannot
    name another directory. Numbers, None and booleans come through
    unchanged; "+" is kept for exponents such as 1e+20.
    """
    parts = [
        f"{field.replace('.', '-')}={quote(str(value), safe='+')}"
        for field, value in assignments
    ]
    return "metrics_" + "_".join(parts) + ".csv"


def run_matrix(base_doc: dict, sweep, out_dir) -> list:
    """Run the cartesian product of parameter sweeps over a base config dict.

    ``sweep`` is a list of (field, values) pairs where field is a config key
    in override syntax (dots for nesting). Each cell's metrics file lies in
    ``out_dir``, named by its assignments, or by its config's ``metrics_path``
    file name when the sweep has no field; ``out_dir`` None keeps each
    config's own ``metrics_path``. Returns one (metrics path, records) pair
    per cell, in cell order. Every cell is parsed before any runs; a repeated
    field, two cells with one config, or two cells with one metrics path is
    a ConfigError.

    Cells that differ in K and sigma_z_sq only run as one :func:`run_cells`
    group, whose files are written once it finishes: a NumericAbort leaves
    the files of earlier groups and none of its own.
    """
    fields = [field for field, _ in sweep]
    repeated = sorted({field for field in fields if fields.count(field) > 1})
    configs = []
    for combo in itertools.product(*(values for _, values in sweep)):
        assignments = list(zip(fields, combo))
        overrides = [f"{field}={json.dumps(value)}" for field, value in assignments]
        config = parse_config(apply_overrides(base_doc, overrides))
        if out_dir is not None:
            own_name = os.path.basename(config.metrics_path)
            name = _cell_filename(assignments) if assignments else own_name
            config = replace(config, metrics_path=os.path.join(out_dir, name))
        configs.append(config)
    paths = [config.metrics_path for config in configs]
    # two cells repeat each other when their configs differ in metrics_path only
    cells = [replace(config, metrics_path="metrics.csv") for config in configs]
    repeated += sorted({os.path.basename(path) for path, cell in zip(paths, cells)
                        if cells.count(cell) > 1 or paths.count(path) > 1})
    if repeated:
        raise ConfigError(f"sweep repeats a field or a cell: {', '.join(repeated)}")
    for path in paths:
        _prepare_metrics_path(path)
    groups = {}
    for config in configs:
        groups.setdefault(_group_key(config), []).append(config)
    records = {}
    for group in groups.values():
        for config, cell_records in zip(group, run_cells(group)):
            write_metrics(cell_records, config, config.metrics_path)
            records[config.metrics_path] = cell_records
    return [(path, records[path]) for path in paths]
