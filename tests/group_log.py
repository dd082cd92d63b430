"""A record of the ensemble groups a sweep runs, kept across forked workers.

``rng.map_groups`` may run a group in a forked process, where an append to
a list in the test would land in the child's copy. Each group is appended,
one JSON line, to a file instead: the pid that ran it and its resolved
configs.
"""

import json
import os
import time

from airsgd import experiment
from airsgd.config import parse_config, resolved_json


def record_groups(monkeypatch, log, worker_delay=0.0):
    """Patch ``experiment.run_cells`` to log each group to ``log`` before running it.

    Each forked worker sleeps ``worker_delay`` seconds before its first
    group, so that the next group goes to another worker.
    """
    ensemble, slept = experiment.run_cells, {os.getpid()}

    def recording(configs):
        if os.getpid() not in slept:
            slept.add(os.getpid())
            time.sleep(worker_delay)
        line = json.dumps({"pid": os.getpid(), "configs": [resolved_json(c) for c in configs]})
        with open(log, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        return ensemble(configs)

    monkeypatch.setattr(experiment, "run_cells", recording)


def recorded_groups(log) -> list:
    """(pid, configs) for each group logged, in the order they were logged."""
    if not os.path.exists(log):
        return []
    with open(log, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    return [(rec["pid"], [parse_config(json.loads(doc)) for doc in rec["configs"]])
            for rec in records]


def assert_no_child_alive(pids) -> None:
    """No child of this process, and none of ``pids``, is alive or unreaped."""
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError(f"a child of this process outlived the sweep: {child}")
    for pid in pids:
        if pid != os.getpid():
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            raise AssertionError(f"process {pid} outlived the sweep")
