"""airsgd benchmark: one workload per process, through ``airsgd.cli.main``.

Usage (from the root of the repository):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` runs it with spans around calls into the program's modules
and prints the per-layer metrics; an untraced copy of the same operations
runs in a child process that never installs a wrapper, and the two runs'
metrics files must match byte for byte. Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Outputs go under ``.bench_out/<workload>/``.
"""

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads; the set-up probes and the untraced
# reference child inherit it. The arrays are small, and on a shared 2-vCPU
# host a second BLAS thread waits for a busy core: it made operations slower
# and their times spread more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
OUT_ROOT = ".bench_out"

SETUP_REPEATS = 7  # cold set-ups per run; setup_s is their median
# Seconds host_kernel() took, median of 60 calls on a shared 2-vCPU Xeon VM
# with one BLAS thread. Throughput is scaled to a host as fast as that one.
REF_KERNEL_S = 0.2
MIN_TIMED_OPS = 3
CHILD_TIMEOUT_S = 150


def _import_program():
    """Import airsgd from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "airsgd", "__init__.py")):
        raise SystemExit(f"no airsgd sources under {SRC}")
    sys.path.insert(0, SRC)
    import airsgd
    from airsgd import cli

    if os.path.dirname(os.path.abspath(airsgd.__file__)) != os.path.join(SRC, "airsgd"):
        raise SystemExit(f"airsgd imported from {airsgd.__file__}, not from {SRC}")
    return airsgd, cli


class OpRunner:
    """Runs one workload operation at a time and checks what it wrote."""

    def __init__(self, workload, cli, out_dir):
        self.workload = workload
        self.cli = cli
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.first = None  # outcome of the first operation, the reference for the rest
        self.errors = []

    def run_op(self):
        """One operation: returns (wall seconds, Outcome)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        calls = self.workload.calls(self.out_dir)
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            for argv in calls:
                try:
                    codes.append(self.cli.main(argv))
                except Exception:  # a crash is a failed operation, not a crashed benchmark
                    traceback.print_exc()
                    codes.append(None)
        wall = time.perf_counter() - start
        outcome = self.workload.read(self.out_dir, stdout.getvalue())
        for argv, code in zip(calls, codes):
            if code != 0:
                outcome.problems.append(f"`airsgd {argv[0]}` exited with {code}")
        if self.first is None:
            self.first = outcome
        elif outcome.digests != self.first.digests or outcome.mse != self.first.mse:
            outcome.problems.append("outputs differ from the first operation's")
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            detail = stderr.getvalue().strip().splitlines()
            self.errors.append("; ".join(outcome.problems[:3] + detail[-1:]))
        return wall, outcome

    def run_for(self, seconds, before_op=None):
        """Operations until ``seconds`` have passed (at least MIN_TIMED_OPS)."""
        walls = []
        begin = time.perf_counter()
        while len(walls) < MIN_TIMED_OPS or time.perf_counter() - begin < seconds:
            if before_op is not None:
                before_op(len(walls))
            wall, outcome = self.run_op()
            walls.append(wall)
        return walls, outcome


def host_kernel():
    """Seconds that fixed work takes now: the host's speed, read next to each operation.

    On a shared host other tenants slow this process by up to 50% for
    stretches of seconds to minutes, longer than a run. The kernel mixes
    the two kinds of work the workloads do, a fresh 50 MB normal draw like
    one paper-size fading tensor and a Python loop over small arrays, and
    never changes, so an operation's time over the kernel's time next to
    it moves with the program and not with the host.
    """
    start = time.perf_counter()
    gen = np.random.default_rng(0)
    h = gen.standard_normal((2, 20, 40, 3925))
    total = float(np.abs(h[0] + 1j * h[1]).sum())
    x, w = gen.standard_normal((150, 32)), gen.standard_normal((32, 10))
    for i in range(2000):
        z = x @ w
        total += float(np.exp(z - z.max(axis=1, keepdims=True))[0, 0]) + len(json.dumps({"i": i}))
    return time.perf_counter() - start


def _setup_seconds(workload):
    """Median seconds of SETUP_REPEATS cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        args = [sys.executable, PROBE, SRC] + ([workload.setup_path] if workload.setup_path else [])
        proc = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _blas():
    """BLAS library, version and thread count of the loaded numpy."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"),
                    configuration=blas.get("openblas configuration"))
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    return info


def _provenance(airsgd, workload, seed, outcome):
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs": workload.doc,
        "resolved_configs": outcome.configs,
        "csv_sha256": outcome.digests,
        "airsgd": airsgd.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def _result(correct, runner, metrics, units):
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    fail_frac = runner.failed / runner.attempted
    print(f"fail_frac {fail_frac!r} 1 ({runner.failed} of {runner.attempted} operations failed)")
    for error in runner.errors[:5]:
        print(f"failure: {error}")
    print(json.dumps({
        "correct": bool(correct and runner.failed == 0),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


END_TO_END_UNITS = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_acc": "fraction",
    "est_mse": "1",
}


def timed_run(airsgd, cli, workload, seed, seconds, work):
    setup_s = _setup_seconds(workload)
    runner = OpRunner(workload, cli, os.path.join(work, "out"))
    runner.run_op()  # warm-up: lazy imports and allocator growth, not timed
    # Peak memory through the first operation. Later repeats of the same
    # operation sometimes raised it by 10%, from allocator and kernel timing.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernels = []  # host_kernel() before each operation and after the last
    walls, outcome = runner.run_for(seconds, before_op=lambda _: kernels.append(host_kernel()))
    kernels.append(host_kernel())
    op_s = statistics.median(wall * 2 * REF_KERNEL_S / (kernels[i] + kernels[i + 1])
                             for i, wall in enumerate(walls))
    write_json(os.path.join(work, "provenance.json"), _provenance(airsgd, workload, seed, outcome))
    print(f"{workload.name} seed {seed}: {len(walls)} timed operations, fastest "
          f"{min(walls):.4f} s, median {statistics.median(walls):.4f} s, median scaled to the "
          f"reference host {op_s:.4f} s; host_kernel median {statistics.median(kernels):.4f} s "
          f"(reference {REF_KERNEL_S} s); unscaled iters_per_s at the fastest operation "
          f"{outcome.iterations / min(walls):.4f}; provenance in {work}/provenance.json")
    metrics = {
        "setup_s": setup_s,
        "iters_per_s": outcome.iterations / op_s,
        "trials_per_s": outcome.trials / op_s,
        "peak_rss_mb": peak_rss_mb,
        "final_acc": statistics.fmean(outcome.accuracies) if outcome.accuracies else 0.0,
        "est_mse": statistics.fmean(outcome.mse) if outcome.mse else 0.0,
    }
    _result(True, runner, metrics, END_TO_END_UNITS)


def reference_run(cli, workload, n_ops, work):
    """Untraced operations for a traced run to compare against; never wrapped."""
    runner = OpRunner(workload, cli, os.path.join(work, "out"))
    runner.run_op()
    walls = [runner.run_op()[0] for _ in range(n_ops)]
    write_json(os.path.join(work, "reference.json"), {
        "wall_s": sum(walls),
        "csv_sha256": runner.first.digests,
        "mse": runner.first.mse,
        "failed": runner.failed,
    })


def trace_targets():
    """(module, attribute, span name) for each public function traced.

    Each name is patched where its caller looks it up: ``ota`` imports
    pack/unpack into its own namespace, ``experiment`` imports
    parse_config, and ``experiment.run`` calls build_dataset as a global.
    """
    from airsgd import channel, cli, config, data, experiment, learner, ota, rng, statcheck, verify

    targets = [(cli, "main", "cli.main"), (experiment, "parse_config", "config.parse_config"),
               (config, "parse_config", "config.parse_config"),
               (ota, "pack", "packing.pack"), (ota, "unpack", "packing.unpack")]
    for module, names in (
        (experiment, ("run", "run_matrix", "write_metrics", "build_dataset")),
        (data, ("make_synthetic", "partition")),
        (learner, ("local_gradient", "apply_update", "evaluate_accuracy", "local_loss")),
        (ota, ("transmit", "transmit_energy", "combine", "estimate_average_gradient",
               "interference_statistic", "effective_signal_gains")),
        (channel, ("sample_channel", "sample_noise", "propagate")),
        (rng, ("substream", "generator")),
        (statcheck, ("check_mean_zero", "check_variance", "check_monotone")),
        (verify, ("stat_suite", "interference_checks", "interference_samples",
                  "hardening_checks", "hardening_rms_deviation", "format_report")),
    ):
        short = module.__name__.rsplit(".", 1)[-1]
        targets.extend((module, name, f"{short}.{name}") for name in names)
    present = [t for t in targets if hasattr(t[0], t[1])]
    absent = [f"{t[0].__name__}.{t[1]}" for t in targets if not hasattr(t[0], t[1])]
    return present, absent


def _count_draws(result, counters):
    counters["channel.draws"] += result.size
    counters["channel.bytes_out"] += result.nbytes


def _count_channel(result, counters):
    _count_draws(result, counters)
    n_blocks, _, _, s = result.shape
    counters["channel.coords"] += 2 * n_blocks * s  # real gradient coordinates the draw carries


OBSERVERS = {"channel.sample_channel": _count_channel, "channel.sample_noise": _count_draws}


def _layer_metrics(tracer, n_ops, traced_wall, untraced_wall):
    def busy(*names):
        return sum(tracer.busy[n] for n in names) / n_ops

    def self_s(prefix):
        return sum(v for n, v in tracer.self_time.items() if n.startswith(prefix)) / n_ops

    def calls(*names):
        return sum(tracer.calls[n] for n in names) / n_ops

    counters = tracer.counters
    coords = counters["channel.coords"]
    table = [
        ("channel.sample_channel.busy_s", "s/op", busy("channel.sample_channel")),
        ("channel.sample_noise.busy_s", "s/op", busy("channel.sample_noise")),
        ("channel.draws", "count/op", counters["channel.draws"] / n_ops),
        ("channel.bytes_out", "B/op", counters["channel.bytes_out"] / n_ops),
        ("channel.draws_per_coord", "draws/coord",
         counters["channel.draws"] / coords if coords else 0.0),
        ("channel.propagate.busy_s", "s/op", busy("channel.propagate")),
        ("ota.combine.busy_s", "s/op", busy("ota.combine")),
        ("ota.estimate_average_gradient.busy_s", "s/op", busy("ota.estimate_average_gradient")),
        ("ota.interference_statistic.busy_s", "s/op", busy("ota.interference_statistic")),
        ("ota.effective_signal_gains.busy_s", "s/op", busy("ota.effective_signal_gains")),
        ("verify.self_s", "s/op", self_s("verify.")),
        ("statcheck.busy_s", "s/op", busy("statcheck.check_mean_zero", "statcheck.check_variance",
                                           "statcheck.check_monotone")),
        ("learner.local_gradient.calls", "count/op", calls("learner.local_gradient")),
        ("learner.local_gradient.busy_s", "s/op", busy("learner.local_gradient")),
        ("ota.transmit.busy_s", "s/op", busy("ota.transmit")),
        ("ota.transmit_energy.calls", "count/op", calls("ota.transmit_energy")),
        ("packing.pack.calls", "count/op", calls("packing.pack")),
        ("packing.busy_s", "s/op", busy("packing.pack", "packing.unpack")),
        ("learner.apply_update.busy_s", "s/op", busy("learner.apply_update")),
        ("learner.eval.busy_s", "s/op", busy("learner.evaluate_accuracy", "learner.local_loss")),
        ("rng.calls", "count/op", calls("rng.substream", "rng.generator")),
        ("rng.busy_s", "s/op", busy("rng.substream", "rng.generator")),
        ("config.parse_config.calls", "count/op", calls("config.parse_config")),
        ("config.parse_config.busy_s", "s/op", busy("config.parse_config")),
        ("data.make_synthetic.busy_s", "s/op", busy("data.make_synthetic")),
        ("data.partition.busy_s", "s/op", busy("data.partition")),
        ("experiment.run.self_s", "s/op", self_s("experiment.run")),
        ("experiment.run_matrix.self_s", "s/op", self_s("experiment.run_matrix")),
        ("experiment.write_metrics.busy_s", "s/op", busy("experiment.write_metrics")),
        ("cli.self_s", "s/op", self_s("cli.")),
        ("trace.overhead_frac", "ratio", traced_wall / untraced_wall - 1.0),
        ("trace.accounted_frac", "ratio", sum(tracer.self_time.values()) / traced_wall),
    ]
    return {name: value for name, _, value in table}, {name: unit for name, unit, _ in table}


def traced_run(cli, workload, seed, seconds, work):
    runner = OpRunner(workload, cli, os.path.join(work, "out"))
    runner.run_op()  # the same untraced warm-up the reference run makes
    targets, absent = trace_targets()
    before = {(module, attr): getattr(module, attr) for module, attr, _ in targets}
    tracer = Tracer(targets, OBSERVERS)

    def mark(op):
        tracer.op = op

    with tracer:  # half the time traced, the other half for the untraced reference
        walls, outcome = runner.run_for(seconds / 2, before_op=mark)
    unwrapped = all(getattr(module, attr) is fn for (module, attr), fn in before.items())
    tracer.save(os.path.join(work, "spans.npz"))

    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--reference", str(len(walls))],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise SystemExit(f"untraced reference run failed:\n{child.stderr}")
    with open(os.path.join(work, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)

    traced_wall = sum(walls)
    # verify-stats writes no CSV; its figures, read from stdout, must match instead
    identical = reference["csv_sha256"] == outcome.digests and reference["mse"] == outcome.mse
    accounted = tracer.root_time() <= traced_wall
    print(f"{workload.name} seed {seed}: {len(walls)} traced operations, {tracer.span_count} spans "
          f"in {work}/spans.npz; wrappers removed: {unwrapped}; "
          f"outputs identical to the untraced run: {identical}; "
          f"self times within wall time: {accounted}")
    if absent:
        print("not traced (absent from the program): " + ", ".join(absent))
    metrics, units = _layer_metrics(tracer, len(walls), traced_wall, reference["wall_s"])
    _result(unwrapped and identical and accounted and reference["failed"] == 0,
            runner, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="airsgd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, default=None, metavar="N_OPS",
                        help=argparse.SUPPRESS)  # internal: the untraced half of --trace 1
    args = parser.parse_args(argv)

    os.chdir(ROOT)  # output paths, which the metrics files embed, are relative to the root
    airsgd, cli = _import_program()
    workload = WORKLOADS[args.workload]()
    work = os.path.join(OUT_ROOT, workload.name)
    if args.reference is None:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    workload.prepare(args.seed, work)

    if args.reference is not None:
        reference_run(cli, workload, args.reference, work)
    elif args.trace:
        traced_run(cli, workload, args.seed, args.seconds, work)
    else:
        timed_run(airsgd, cli, workload, args.seed, args.seconds, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
