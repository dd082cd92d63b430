"""Full training runs: local gradients, analog aggregation, metrics files.

An iteration is the paper's DSGD step in stages: local gradients, aggregation,
the optimizer update and, every eval_every iterations, the evaluation. A run
picks its local-gradient stage (full batch, or batch_size rows per device) and
its aggregation stage (ota or error_free) once, before its first iteration.
The device axis is an array axis throughout: the learner gets the distinct
training rows the devices hold and each device's positions in them (or the
devices' stacked batch rows) and computes all M gradients at once, and one
pack sends them; ``learner``'s docstring says which of its work runs once
per held row. The ota aggregation is (M, d) gradients -> (M, N, s) transmit
blocks -> combiner output -> estimate_average_gradient; the
combiner output sum_m c_m x_m + w is drawn from its exact law by
``channel.sample_combined`` (coefficients c and combined noise w), never from
the full per-antenna fading tensor, which only ``verify``'s statistics draw.
The error_free aggregation skips the channel and hands the optimizer the exact
device-average gradient, the idealized baseline the noisy runs are compared
against.

Cells that differ only in K and sigma_z_sq run as one ensemble (``run_cells``)
on a leading cell axis: data, partition, batches and each iteration's CHANNEL
and NOISE draws are made once per group, and every (cell, device) product keeps
its solo shape, so each cell's metrics are the bytes of its own run.

The learner gets the held rows in ``data``'s float32 pool itself, compacted
in place into its first rows (``_compact``), with no copy of the pool and no
cast in the run, and a full-batch backward gathers its devices' rows from them
``rng.block_length`` devices a call, holding no (M, n, F) stack; ``learner``'s
docstring says which of its values are float32. The channel side is float64.

A run opens ``rng.side_worker`` with the bytes of one iteration's (R, M, d)
float64 gradients and, given its thread, hands it the channel draws and the
first device half of a full-batch backward, with the gathers of those
devices' rows and residual rows; the compaction runs in the caller's
thread. It draws its channel ``rng.block_length`` iterations a call, an
iteration's coefficients and noise being one item, with one block in flight
at a time. ``run_matrix`` hands ``rng.map_groups`` its groups and the
largest group's gradient bytes. ``rng``'s docstring says where each of these
runs and why no output byte depends on it.
Every (cell, device) backward product keeps its shape in any chunk of either
half, and the forward over the held rows is one call, since float32 products
cut in row parts move last bits on OpenBLAS's AVX2 kernels; BLAS runs on one
thread for the length of a run (``rng.one_blas_thread``), so no product's bytes
depend on the CPU count.

Metrics land in a CSV whose header comment carries the fully resolved config,
so every data file is reproducible on its own. ``run_matrix`` picks where a
file lies, and no byte of it says where: its bytes depend on the run alone.
"""

import contextlib
import functools
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

    def __init__(self, iteration: int, stage: str, cell):
        self.iteration = iteration
        self.stage = stage
        self.cell = cell  # its index in its ensemble, or its metrics path from run_matrix
        where = f"cell {cell}" if isinstance(cell, int) else cell
        super().__init__(f"non-finite values at iteration {iteration} in stage {stage!r} of {where}")

    def __reduce__(self):
        # pickled by its fields, as a sweep group's abort returns from a worker process
        return type(self), (self.iteration, self.stage, self.cell)


def _read_idx(read, images_path, labels_path):
    """``read(images_path, labels_path)``, with a missing or bad file as a ConfigError."""
    try:
        return read(images_path, labels_path)
    except (OSError, data.DataError) as exc:
        raise ConfigError(f"cannot load dataset {images_path}, {labels_path}: {exc}") from exc


def _check_idx_files(configs) -> None:
    """Read the headers and labels of each IDX pair the configs name, and check each config.

    A ConfigError names the first missing or malformed file (a label
    outside [0, IDX_CLASSES) included), test images whose pixel count is not
    the train images' (the model reads its class count off d and the
    features of the rows it is handed), or the first config whose d or
    per_device the train pair does not fit.
    """
    shapes = {}
    for config in configs:
        paths = config.dataset
        if paths.kind != "idx":
            continue
        pairs = (paths.train_images, paths.train_labels), (paths.test_images, paths.test_labels)
        for pair in pairs:
            if pair not in shapes:
                shapes[pair] = _read_idx(data.idx_shape, *pair)
        (samples, features), (_, test_features) = (shapes[pair] for pair in pairs)
        if test_features != features:
            raise ConfigError(f"{paths.test_images} holds images of {test_features} pixels, "
                              f"{paths.train_images} of {features}")
        config.check_dataset(features, data.IDX_CLASSES, samples)


def build_dataset(config: RunConfig):
    """Materialize the config's (train, test) datasets and their class count.

    A synthetic config was checked against its dataset when it was parsed.
    An IDX config is checked against its files' headers and labels by
    :func:`_check_idx_files`, the check :func:`run_matrix` makes for every
    cell, before any pixel is read; the pixels come from ``data.load_idx``
    in [0, 1].
    """
    dataset = config.dataset
    if dataset.kind == "synthetic":
        return (*data.make_synthetic(dataset), dataset.classes)
    _check_idx_files([config])
    return (_read_idx(data.load_idx, dataset.train_images, dataset.train_labels),
            _read_idx(data.load_idx, dataset.test_images, dataset.test_labels), data.IDX_CLASSES)


def _batch_positions(config: RunConfig, t: int) -> np.ndarray:
    """Each device's batch at iteration t: (M, batch_size) positions in its local set.

    BATCH substream t draws (M, per_device) uniform keys; row m-1 is device m's
    and selects the positions of its batch_size smallest keys, in key order
    (a tie goes to the lower position), so the batch and its order depend on
    the keys alone, not on how numpy orders a partition.
    """
    keys = rng.generator(rng.substream(config.master_seed, rng.BATCH, t)).random(
        (config.M, config.partition.per_device))
    return np.argsort(keys, axis=1, kind="stable")[:, :config.batch_size]


def _group_key(config: RunConfig) -> RunConfig:
    """What the cells of one ensemble share: the config but K and sigma_z_sq."""
    return replace(config, K=1, sigma_z_sq=0.0)


def _gradient_bytes(configs) -> int:
    """The bytes of one iteration's (R, M, d) float64 gradients, which ``rng``'s gates read."""
    return 8 * len(configs) * configs[0].M * configs[0].d


def _check_finite(values, t: int, stage: str, configs) -> None:
    """NumericAbort naming the first cell whose row of ``values`` is not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        cell = int(np.argmin(finite.reshape(len(configs), -1).all(axis=1)))
        raise NumericAbort(t, stage, cell)


def run(config: RunConfig, gradient_fn=None) -> list:
    """Execute a full training run; returns one MetricsRecord per iteration.

    ``gradient_fn(theta, t, grads) -> (M, d) array`` receives the (M, d)
    local softmax gradients of iteration t and returns the gradients the
    devices send, which is the hook for studying the aggregation path under
    alternative local objectives (gradient clipping, synthetic gradient
    streams, and so on).

    Accuracy and training loss are computed every ``eval_every`` iterations
    and always at t = T; power is tracked every iteration. Raises
    NumericAbort, naming cell 0, rather than continuing with non-finite
    numbers. This is the one-cell case of :func:`run_cells`.
    """
    (records,) = run_cells([config], gradient_fn)
    return records


def run_cells(configs, gradient_fn=None) -> list:
    """Execute R runs as one ensemble; returns each cell's list of MetricsRecords.

    The configs may differ in K and sigma_z_sq only; each cell gets the
    bytes of its own :func:`run`. ``gradient_fn`` acts per cell as in
    :func:`run`, and a NumericAbort names the index of the cell it hit, or
    0 for features, which every cell shares.

    Its stages are picked once, before the loop; an iteration is local
    gradients, the ``gradient_fn`` hook, aggregation, update and evaluation.
    """
    config = configs[0]
    if any(_group_key(cell) != _group_key(config) for cell in configs):
        raise ValueError("cells of one ensemble may differ in K and sigma_z_sq only")
    R, M, d, s = len(configs), config.M, config.d, config.s

    # BLAS is pinned until the side worker, with any product it runs, has stopped
    with rng.one_blas_thread(), rng.side_worker(_gradient_bytes(configs)) as start:
        if config.mode == "ota":  # aggregation: transmit, the MAC, the PS's estimate
            K = np.array([cell.K for cell in configs])
            sigma_z_sq = np.array([cell.sigma_z_sq for cell in configs])
            N = packing.block_count(d, s)
            # iterations a draw, an iteration being its coefficients and noise
            block = rng.block_length(16 * R * N * (M + 1) * s)

            def draw(t):  # iterations t to t + block - 1, or to T
                ts = range(t, min(t + block, config.T + 1))
                return channel.sample_combined(
                    [rng.substream(config.master_seed, rng.CHANNEL, u) for u in ts],
                    [rng.substream(config.master_seed, rng.NOISE, u) for u in ts],
                    N, M, K, s, config.sigma_h_sq, sigma_z_sq)

            # One block of draws is in flight at a time: the first overlaps the
            # dataset's synthesis, and the next is started when one is taken.
            channel_draw, drawn = start(draw, 1), None

            def aggregate(grads, t):
                nonlocal channel_draw, drawn
                alpha = config.power.alpha_at(t)
                tx = ota.transmit(grads, alpha, s)
                i = (t - 1) % block
                if i == 0:
                    drawn = channel_draw()
                    if t + block <= config.T:
                        channel_draw = start(draw, t + block)
                coeffs, noise = drawn[0][i], drawn[1][i]
                obs = np.einsum("rnmi,rmni->rni", coeffs, tx)
                obs += noise
                update_grad = ota.estimate_average_gradient(obs, alpha, M, config.sigma_h_sq, d)
                _check_finite(update_grad, t, "estimate", configs)
                inst_power = np.mean(ota.transmit_energy(tx), axis=1) / N
                _check_finite(inst_power, t, "power", configs)
                est_mse = np.mean((update_grad - grads.mean(axis=1)) ** 2, axis=1)
                _check_finite(est_mse, t, "est_mse", configs)
                return update_grad, inst_power, est_mse.tolist()
        else:  # aggregation: the exact device average, sent at no power
            def aggregate(grads, t):
                update_grad = grads.mean(axis=1)
                _check_finite(update_grad, t, "average", configs)
                return update_grad, np.zeros(R), [None] * R

        train, test, classes = build_dataset(config)
        index = data.partition(train, M, config.partition.per_device, config.master_seed)
        # held: the distinct rows the devices hold; rows[m]: device m's local
        # set as positions in held
        held, rows = np.unique(index, return_inverse=True)
        rows = rows.reshape(index.shape)
        held_X, held_y = _compact(train.features, held), train.labels[held]
        test_X, test_y = test.features, test.labels
        del train, test  # keep the held rows, now the pool's first rows, and the test arrays
        # Float32 features (the channel's error dwarfs their rounding); a value
        # beyond float32's range is inf in the dataset and aborts the run here.
        if not (np.isfinite(held_X).all() and np.isfinite(test_X).all()):
            raise NumericAbort(0, "features", 0)
        if config.batch_size is None:  # local gradients: the backward, a device chunk a call
            # The backward's work arrays, made once a run (arrays made afresh
            # every iteration go back to the allocator, which may return them to
            # the OS and fault them in again page by page): the held rows'
            # (R, H, C) residuals, held row outermost, and the halves' buffers.
            residual = np.empty((len(held), R, classes)).swapaxes(0, 1)
            halves = _backward_halves(start, held_X, rows, R, classes)

            def local_gradients(theta, t, log_probs):
                if log_probs is None:
                    log_probs = learner.log_probabilities(theta, held_X)
                learner.residuals(held_y, log_probs, rows.shape[1], out=residual)
                return _backward(start, held_X, residual, halves)
        else:  # local gradients: each device's batch, with its own forward
            def local_gradients(theta, t, log_probs):
                batch_rows = np.take_along_axis(rows, _batch_positions(config, t), axis=1)
                X_batch = held_X[batch_rows]
                return learner.gradients(X_batch, held_y[batch_rows],
                                         learner.log_probabilities(theta[:, None], X_batch))

        theta = np.tile(learner.init_params(held_X.shape[-1], classes), (R, 1))
        state = learner.init_optimizer_state(d)  # its zero moments broadcast to (R, d)
        records = [[] for _ in configs]
        power_sum = np.zeros(R)
        log_probs = None  # (R, H, C) held-row log-probabilities at the current theta, once computed

        for t in range(1, config.T + 1):
            grads = local_gradients(theta, t, log_probs)
            if gradient_fn is not None:
                sent = [np.asarray(gradient_fn(cell_theta, t, cell_grads), dtype=np.float64)
                        for cell_theta, cell_grads in zip(theta, grads)]
                wrong = [cell_grads.shape for cell_grads in sent if cell_grads.shape != (M, d)]
                if wrong:
                    raise ValueError(f"gradient_fn returned shape {wrong[0]}, expected {(M, d)}")
                grads = np.stack(sent)
            _check_finite(grads, t, "local_gradient", configs)
            update_grad, inst_power, est_mse = aggregate(grads, t)
            theta, state = learner.apply_update(theta, update_grad, config.optimizer, state)
            _check_finite(theta, t, "update", configs)
            log_probs = None

            power_sum += inst_power
            avg_power = power_sum / t
            accuracy = loss = [None] * R
            if (t % config.eval_every == 0) or (t == config.T):
                accuracy = learner.evaluate_accuracy(theta, test_X, test_y).tolist()
                log_probs = learner.log_probabilities(theta, held_X)
                # mean over each device's set first, then over devices
                loss = learner.losses(held_y, log_probs, rows).mean(axis=1).tolist()
            for cell, row in zip(records, zip(accuracy, loss, inst_power.tolist(),
                                              avg_power.tolist(), est_mse)):
                cell.append(MetricsRecord(t, *row))
    return records


def _backward_halves(start, held_X, rows, cells: int, classes: int) -> list:
    """The full-batch backward's halves, made once a run: (rows, X, out) each.

    Given a thread behind ``start``, the first M // 2 devices of the (M, n)
    held rows ``rows`` are one half, run there, and the rest another; else
    all M are one. X takes the (n, F) rows of k = ``rng.block_length``
    devices, at most the half's, and is filled here if it holds them all;
    ``out`` their (n, R, C) residual rows, laid out as a gather lays them.
    """
    (M, n), F = rows.shape, held_X.shape[1]
    cut = 0 if start is functools.partial else M // 2
    k = rng.block_length(n * F * held_X.itemsize)
    halves = []
    for part in (rows[:cut], rows[cut:]) if cut else (rows,):
        X = np.empty((min(k, len(part)), n, F), dtype=held_X.dtype)
        if len(X) == len(part):
            np.take(held_X, part, axis=0, out=X, mode="clip")
        halves.append((part, X, np.empty(X.shape[:2] + (cells, classes))))
    return halves


def _backward(start, held_X, residual, halves) -> np.ndarray:
    """The (R, M, d) gradients of ``halves``' devices, given the (R, H, C) held-row ``residual``.

    ``learner.device_gradients`` gives each device the bytes it gets with
    any other devices, so the chunks' bytes are one call's.
    """
    first = [start(_device_gradients, held_X, residual, *half) for half in halves[:-1]]
    parts = _device_gradients(held_X, residual, *halves[-1])
    parts = [part for done in first for part in done()] + parts
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def _device_gradients(held_X, residual, rows, X, out) -> list:
    """The (R, k, d) gradients of ``rows``' devices, k = len(X) a ``learner.device_gradients`` call.

    A chunk gathers its devices' rows into X, unless X holds them all, and
    their residual rows into ``out``, one (R, C) block a row, contiguous as
    the residual holds its held row outermost in memory. The indices come
    from ``np.unique``, so they lie in range, and mode "clip" spares
    ``np.take`` the buffered copy it makes under "raise".
    """
    parts = []
    for chunk in np.split(rows, range(len(X), len(rows), len(X))):
        X_chunk, out_chunk = X[:len(chunk)], out[:len(chunk)]
        if len(X) < len(rows):
            np.take(held_X, chunk, axis=0, out=X_chunk, mode="clip")
        np.take(residual.swapaxes(0, 1), chunk, axis=0, out=out_chunk, mode="clip")
        parts.append(learner.device_gradients(X_chunk, out_chunk.transpose(2, 0, 1, 3)))
    return parts


def _compact(src, index) -> np.ndarray:
    """``src[index]``, moved into the first len(index) rows of the 2-d ``src`` itself.

    ``index`` is sorted and distinct (``np.unique``'s), so row i comes from
    row index[i] >= i: each run of consecutive indices moves forward by one
    slice assignment, in order, and no run overwrites a row a later one
    reads. The runs move on a flat view, which numpy copies in place where
    a 2-d assignment would first copy an overlapping source; a run that
    stays where it is costs nothing.
    """
    F, flat = src.shape[1], src.reshape(-1)
    cuts = [0, *(np.flatnonzero(np.diff(index) != 1) + 1).tolist(), len(index)]
    for lo, hi, row in zip(cuts, cuts[1:], index[cuts[:-1]].tolist()):
        flat[lo * F:hi * F] = flat[row * F:(row + hi - lo) * F]
    return flat[:len(index) * F].reshape(-1, F)


def _format_cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_metrics(records, config: RunConfig, path) -> None:
    """Write evaluation rows as CSV with the resolved config in '#' comments.

    The file appears at ``path`` complete or not at all.
    """
    lines = [f"# config: {resolved_json(config)}", CSV_HEADER]
    for rec in records:
        if rec.accuracy is not None:
            fields = rec.accuracy, rec.loss, rec.inst_power, rec.avg_power, rec.est_mse
            lines.append(",".join([str(rec.iteration), *map(_format_cell, fields)]))
    # Write a sibling temp file, then rename it over the target: a failed or
    # interrupted write leaves any earlier file at ``path`` as it was.
    tmp = _temp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _temp_path(path) -> str:
    return f"{path}.{os.getpid()}.tmp"


def _prepare_metrics_file(path) -> None:
    """Make the directory of metrics file ``path`` and check the file can be written there.

    ``path`` must not be a directory, and the temp file :func:`write_metrics`
    writes first is created and removed, so a name the OS refuses (too long,
    say) is a ConfigError before any cell runs.
    """
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc.strerror}") from exc
    if os.path.isdir(path):
        raise ConfigError(f"metrics path {path} is a directory")
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb"):
            pass
        os.remove(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write metrics file {path}: {exc.strerror}") from exc


def _cell_filename(assignments) -> str:
    """One filename per cell, inside the sweep's directory whatever the values.

    No assignment gives metrics.csv. Values are percent-encoded, so a "/"
    or "../" in a string value cannot name another directory. Numbers, None
    and booleans come through unchanged; "+" is kept for exponents (1e+20).
    """
    parts = [
        f"{field.replace('.', '-')}={quote(str(value), safe='+')}"
        for field, value in assignments
    ]
    return "_".join(["metrics", *parts]) + ".csv"


def run_matrix(base_doc: dict, sweep, out_dir) -> list:
    """Run the cartesian product of parameter sweeps over a base config dict.

    ``sweep`` is a list of (field, values) pairs where field is a config key
    in override syntax (dots for nesting). This alone decides where a file
    goes: ``out_dir/<cell name>`` (:func:`_cell_filename`). Returns one
    (metrics path, records) pair per cell, in cell order. Every cell is
    parsed, and every IDX file's header and labels read, before any runs; a
    field with no value, a repeated field, two cells with one config, or a
    missing or malformed IDX file is a ConfigError, raised before any
    directory is made.

    Cells that differ in K and sigma_z_sq only run as one :func:`run_cells`
    group, and the groups run through ``rng.map_groups``, which may fork
    workers for them; a group's files are written by this process, in
    group order, once it and every earlier group have finished, so a
    NumericAbort leaves the files of earlier groups and none of its own or
    of any later group; it names the cell's metrics path, raised from
    ``run_cells``' abort, which names the cell's index in its group.
    """
    fields = [field for field, _ in sweep]
    empty = [field for field, values in sweep if not values]
    if empty:
        raise ConfigError(f"sweep lists no value for {', '.join(empty)}")
    repeated = sorted({field for field in fields if fields.count(field) > 1})
    configs, paths = [], []
    # a repeated field's last value would win, so its cells are never built
    for combo in [] if repeated else itertools.product(*(values for _, values in sweep)):
        assignments = list(zip(fields, combo))
        overrides = [f"{field}={json.dumps(value)}" for field, value in assignments]
        configs.append(parse_config(apply_overrides(base_doc, overrides)))
        paths.append(os.path.join(out_dir, _cell_filename(assignments)))
    repeated += sorted({os.path.basename(path) for path, config in zip(paths, configs)
                        if configs.count(config) > 1})
    if repeated:
        raise ConfigError(f"sweep repeats a field or a cell: {', '.join(repeated)}")
    _check_idx_files(configs)
    for path in paths:
        _prepare_metrics_file(path)
    groups = {}
    for config in configs:
        groups.setdefault(_group_key(config), []).append(config)
    groups = list(groups.values())
    nbytes = max(map(_gradient_bytes, groups))
    path_of, records = dict(zip(configs, paths)), {}  # the configs are distinct
    with contextlib.closing(rng.map_groups(run_cells, groups, nbytes)) as results:
        for group in groups:
            try:
                group_records = next(results)
            except NumericAbort as exc:
                raise NumericAbort(exc.iteration, exc.stage, path_of[group[exc.cell]]) from exc
            for config, cell_records in zip(group, group_records):
                write_metrics(cell_records, config, path_of[config])
                records[config] = cell_records
    return [(path, records[config]) for config, path in zip(configs, paths)]
