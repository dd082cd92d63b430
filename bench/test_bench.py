"""Self-tests for the benchmark's tracer, runner and failure accounting.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import io
import json
import os
import sys
import time
import types
from contextlib import redirect_stdout

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

airsgd, cli = run._import_program()


def _toy_module():
    mod = types.ModuleType("toy")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    return mod


class TinyRun:
    """A short ``airsgd run`` on the minimal template, sized for tests."""

    name = "tiny"

    def __init__(self, work, argv_tail=()):
        doc = airsgd.config.template("minimal")
        doc["T"] = 6
        doc["eval_every"] = 3
        self.config_path = workloads.write_json(os.path.join(work, "tiny.json"), doc)
        self.doc = doc
        self.argv_tail = list(argv_tail)

    def calls(self, out_dir):
        return [["run", "--config", self.config_path, "--out", os.path.join(out_dir, "run")]
                + self.argv_tail]

    def read(self, out_dir, stdout):
        out = workloads.Outcome()
        cell = {k: self.doc[k] for k in ("M", "K", "T", "mode")}
        workloads._read_csv_dir(out_dir, "run", [cell], out)
        return out


def test_self_times_sum_to_no_more_than_wall_time():
    mod = _toy_module()
    tracer = Tracer([(mod, "outer", "toy.outer"), (mod, "inner", "toy.inner")])
    start = time.perf_counter()
    with tracer:
        mod.outer()
        mod.inner()
    wall = time.perf_counter() - start
    total_self = sum(tracer.self_time.values())
    assert total_self <= wall
    assert abs(total_self - tracer.root_time()) < 1e-9
    assert tracer.calls == {"toy.outer": 1, "toy.inner": 3}
    # outer's self time excludes the two inner calls it made
    assert tracer.self_time["toy.outer"] < tracer.busy["toy.outer"] - 0.015


def test_self_times_within_wall_time_of_a_real_operation(tmp_path):
    runner = run.OpRunner(TinyRun(str(tmp_path)), cli, str(tmp_path / "out"))
    targets, _ = run.trace_targets()
    tracer = Tracer(targets, run.OBSERVERS)
    with tracer:
        wall, outcome = runner.run_op()
    assert not outcome.problems
    assert 0 < sum(tracer.self_time.values()) <= wall
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["learner.local_gradient"] == 6 * 4  # T iterations x M devices


def test_wrappers_removed_after_traced_run(tmp_path):
    targets, absent = run.trace_targets()
    assert not absent
    before = [getattr(module, attr) for module, attr, _ in targets]
    sample_channel = airsgd.channel.sample_channel
    runner = run.OpRunner(TinyRun(str(tmp_path)), cli, str(tmp_path / "out"))
    with Tracer(targets, run.OBSERVERS):
        assert airsgd.channel.sample_channel is not sample_channel
        runner.run_op()
    assert [getattr(module, attr) for module, attr, _ in targets] == before


def test_wrappers_removed_when_the_traced_call_raises():
    mod = types.ModuleType("toy")

    def boom():
        raise KeyError("boom")

    mod.boom = boom
    tracer = Tracer([(mod, "boom", "toy.boom")])
    with pytest.raises(KeyError):
        with tracer:
            mod.boom()
    assert mod.boom is boom
    assert tracer.calls["toy.boom"] == 1 and tracer.root_time() > 0


def test_tracing_leaves_metrics_files_byte_identical(tmp_path):
    plain = run.OpRunner(TinyRun(str(tmp_path)), cli, str(tmp_path / "out"))
    _, untraced = plain.run_op()
    targets, _ = run.trace_targets()
    with Tracer(targets, run.OBSERVERS):
        _, traced = plain.run_op()
    assert untraced.digests and traced.digests == untraced.digests
    assert plain.failed == 0


def test_fail_frac_counts_a_forced_nonzero_exit(tmp_path):
    good = run.OpRunner(TinyRun(str(tmp_path)), cli, str(tmp_path / "out"))
    good.run_op()
    # An unknown override key is a config error: airsgd exits with code 2.
    bad_workload = TinyRun(str(tmp_path), argv_tail=["--set", "no_such_key=1"])
    good.workload = bad_workload
    good.run_op()
    assert (good.attempted, good.failed) == (2, 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run._result(True, good, {"setup_s": 1.0}, {"setup_s": "s"})
    lines = buf.getvalue().splitlines()
    assert "fail_frac 0.5 1 (1 of 2 operations failed)" in lines
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first, second, other = cls(), cls(), cls()
        first.prepare(3, str(tmp_path))
        second.prepare(3, str(tmp_path))
        other.prepare(4, str(tmp_path))
        assert first.doc == second.doc, name
        assert first.doc != other.doc, name
