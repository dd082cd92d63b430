import contextlib
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import airsgd
from airsgd import cli, experiment, rng, verify
from airsgd.config import parse_config, template
from airsgd.data import write_idx_images, write_idx_labels
from group_log import assert_no_child_alive, record_groups, recorded_groups


def _cli(*args):
    """``airsgd *args`` run in this process, its outcome as a CompletedProcess.

    A RuntimeWarning (numpy's overflow on the way to a numeric abort) is not
    an error, as in a child process; it is ignored rather than printed.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def _cli_process(*args):
    return subprocess.run(
        [sys.executable, "-m", "airsgd", *args],
        capture_output=True, text=True,
    )


def _write_fast_config(tmp_path, **updates):
    doc = template("minimal")
    doc.update(T=6, eval_every=2, K=4)
    doc.update(updates)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_template_minimal_validates():
    proc = _cli("template", "minimal")
    assert proc.returncode == 0
    parse_config(json.loads(proc.stdout))


def test_template_paper_scale_contents():
    proc = _cli("template", "paper_scale")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["T"] == 800
    parse_config(doc)


def test_run_smoke(tmp_path):
    config = _write_fast_config(tmp_path)
    proc = _cli_process("run", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "final accuracy:" in proc.stdout
    assert "average power:" in proc.stdout
    assert (tmp_path / "metrics.csv").exists()


def test_run_override_lands_in_metrics_header(tmp_path):
    config = _write_fast_config(tmp_path)
    proc = _cli("run", "--config", str(config), "--set", "K=5",
                "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert json.loads(header[len("# config: "):])["K"] == 5


def test_run_without_out_writes_metrics_csv_in_the_working_directory(tmp_path, monkeypatch):
    config = _write_fast_config(tmp_path)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert _cli("run", "--config", str(config)).returncode == 0
    elsewhere = tmp_path / "elsewhere" / "deeper"
    assert _cli("run", "--config", str(config), "--out", str(elsewhere)).returncode == 0
    assert os.listdir(tmp_path / "cwd") == ["metrics.csv"]
    assert (tmp_path / "cwd" / "metrics.csv").read_bytes() == (elsewhere / "metrics.csv").read_bytes()


@pytest.mark.parametrize("verb", [["run"], ["sweep", "--sweep", "K=1,5"]], ids=["run", "sweep"])
def test_a_config_file_naming_metrics_path_exits_2_naming_the_key(tmp_path, verb):
    # a config written before the output path left it fails loudly, before any directory
    config = _write_fast_config(tmp_path, metrics_path="metrics.csv")
    proc = _cli(*verb, "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "unknown key 'metrics_path'" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_run_missing_config_exits_2(tmp_path):
    proc = _cli("run", "--config", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert "absent.json" in proc.stderr


@pytest.mark.parametrize("verb", [["run"], ["sweep", "--sweep", "K=1"]], ids=["run", "sweep"])
@pytest.mark.parametrize("make_config", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe{}"),
    lambda path: path.write_text("{", encoding="utf-8"),
    lambda path: path.write_text("[]", encoding="utf-8"),
], ids=["directory", "not-utf-8", "not-json", "an-array"])
def test_an_unreadable_config_file_exits_2(tmp_path, verb, make_config):
    config = tmp_path / "config.json"
    make_config(config)
    proc = _cli(verb[0], "--config", str(config), *verb[1:], "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "config error: " in proc.stderr and str(config) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, key", [
    ("K=0", "K"),
    ("K=true", "K"),
    ("partition.per_device=80.0", "partition.per_device"),
    ("master_seed=1.0", "master_seed"),
    (f"K={2**63}", "K"),
    (f"K={2**64}", "K"),
    (f"dataset.classes={10**20}", "dataset.classes"),
    (f"dataset.train_per_class={10**20}", "dataset.train_per_class"),
    ('metrics_path="metrics.csv"', "unknown key 'metrics_path'"),
    ('dataset={"kind": "idx", "train_images": "a\\u0000b", "train_labels": "l", '
     '"test_images": "t", "test_labels": "u"}', "dataset.train_images"),
], ids=["K=0", "K=true", "per_device=80.0", "master_seed=1.0",
        "K=2**63", "K=2**64", "classes=10**20", "train_per_class=10**20",
        "metrics_path", "train_images=NUL"])
def test_run_invalid_config_exits_2(tmp_path, override, key):
    config = _write_fast_config(tmp_path)
    proc = _cli("run", "--config", str(config), "--set", override, "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_run_with_k_past_the_int64_square_exits_0(tmp_path):
    # K**2 wraps in int64 from K ~ 3.04e9; the combined noise's scale squares K in float.
    # Called directly, not through _cli: a RuntimeWarning here fails the test.
    config = _write_fast_config(tmp_path)
    argv = ["run", "--config", str(config), "--set", f"K={2**32}", "--set", "T=2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0


def _paper_scale_config(tmp_path):
    # the template's dataset files, under a directory that does not hold them
    doc = json.loads(_cli("template", "paper_scale").stdout)
    doc["dataset"].update((key, str(tmp_path / path)) for key, path in doc["dataset"].items()
                          if key != "kind")
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    return path, doc["dataset"]["train_images"]


def _truncated_idx_config(tmp_path):
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(images, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(labels, np.array([0, 1], dtype=np.uint8))
    images.write_bytes(images.read_bytes()[:-3])
    dataset = {"kind": "idx", "train_images": str(images), "train_labels": str(labels),
               "test_images": str(images), "test_labels": str(labels)}
    return _write_fast_config(tmp_path, dataset=dataset), str(images)


def _overflowing_idx_config(tmp_path):
    # a header that claims (2^32 - 1)^3 pixel bytes: refused before any read or allocation
    config, images = _truncated_idx_config(tmp_path)
    with open(images, "r+b") as f:
        f.write(struct.pack(">IIII", 0x803, *[2**32 - 1] * 3))
    return config, images


@pytest.mark.parametrize("make_config",
                         [_paper_scale_config, _truncated_idx_config, _overflowing_idx_config],
                         ids=["missing", "truncated", "overflowing"])
def test_run_unreadable_dataset_exits_2(tmp_path, make_config):
    config, dataset_file = make_config(tmp_path)
    proc = _cli("run", "--config", str(config))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert dataset_file in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spoil", [
    lambda path: path.unlink(),
    lambda path: path.write_bytes(path.read_bytes()[:-3]),
    lambda path: write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8)),
], ids=["missing", "truncated", "other-image-size"])
def test_sweep_checks_every_idx_file_before_any_cell_runs(tmp_path, spoil):
    # the second cell's test images are bad: no cell runs, not even the first.
    # 3 x 3 test images against 2 x 2 train images would otherwise be read as
    # 5 classes of 9 pixels by a model of 10 classes of 4.
    labels = tmp_path / "lbl.idx"
    write_idx_labels(labels, np.array([0, 1], dtype=np.uint8))
    good, bad = tmp_path / "img.idx", tmp_path / "bad.idx"
    for images in (good, bad):
        write_idx_images(images, np.zeros((2, 2, 2), dtype=np.uint8))
    spoil(bad)
    dataset = {"kind": "idx", "train_images": str(good), "train_labels": str(labels),
               "test_images": str(good), "test_labels": str(labels)}
    config = _write_fast_config(tmp_path, dataset=dataset, d=50, s=25,
                                partition={"per_device": 2})
    out = tmp_path / "out"
    proc = _cli("sweep", "--config", str(config), "--out", str(out),
                "--sweep", f"dataset.test_images={json.dumps(str(good))},{json.dumps(str(bad))}")
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_a_label_outside_the_classes_exits_2_before_any_directory_is_made(tmp_path, verb):
    # a sweep's first cell is good and its second names the bad labels, so at
    # most one cell could run; a run names them itself
    images, labels, bad = tmp_path / "img.idx", tmp_path / "lbl.idx", tmp_path / "bad.idx"
    write_idx_images(images, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(labels, np.array([0, 1], dtype=np.uint8))
    write_idx_labels(bad, np.array([0, 12], dtype=np.uint8))
    dataset = {"kind": "idx", "train_images": str(images), "train_labels": str(labels),
               "test_images": str(images), "test_labels": str(bad if verb == "run" else labels)}
    config = _write_fast_config(tmp_path, dataset=dataset, d=50, s=25,
                                partition={"per_device": 2})
    out = tmp_path / "out"
    sweep = (["--sweep", f"dataset.test_labels={json.dumps(str(labels))},{json.dumps(str(bad))}"]
             if verb == "sweep" else [])
    proc = _cli(verb, "--config", str(config), "--out", str(out), *sweep)
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("config error") and str(bad) in line and "label 12" in line
               for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_creates_a_missing_metrics_directory(tmp_path):
    config = _write_fast_config(tmp_path)
    out = tmp_path / "new" / "deeper"
    proc = _cli("run", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").read_text().startswith("# config: ")


@pytest.mark.parametrize("args, message", [
    (["run", "--out", "{f}"], "cannot create output directory {f}"),
    (["run", "--out", "{f}/sub"], "cannot create output directory {f}/sub"),
    (["sweep", "--out", "{f}/sub", "--sweep", "K=1,5"], "cannot create output directory {f}/sub"),
    (["run", "--out", "{d}"], "metrics path {d}/metrics.csv is a directory"),
], ids=["run-out", "run-out-nested", "sweep-out", "run-metrics.csv-directory"])
def test_output_directory_under_a_regular_file_exits_2(tmp_path, args, message):
    config = _write_fast_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    adir = tmp_path / "adir"
    (adir / "metrics.csv").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    verb, *rest = (arg.format(f=afile, d=adir) for arg in args)
    proc = _cli(verb, "--config", str(config), *rest)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {message.format(f=afile, d=adir)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_a_metrics_file_name_the_os_refuses_exits_2_before_any_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "run_cells", lambda *args: pytest.fail("a cell ran"))
    config = _write_fast_config(tmp_path)
    out = tmp_path / "out"
    # two whole-object values name a cell past the 255-byte file name limit
    sweep = [(field, template("minimal")[field]) for field in ("optimizer", "dataset")]
    name = experiment._cell_filename(sweep)
    assert len(name) > 255
    args = [arg for field, value in sweep for arg in ("--sweep", f"{field}={json.dumps(value)}")]
    proc = _cli("sweep", "--config", str(config), "--out", str(out), *args)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: cannot write metrics file {out / name}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(out.iterdir()) == []


def test_run_numeric_abort_exits_3(tmp_path):
    config = _write_fast_config(
        tmp_path, sigma_h_sq=1e200,
        power={"kind": "constant", "alpha0": 1e200},
    )
    proc = _cli("run", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "numeric abort" in proc.stderr
    assert "iteration 1" in proc.stderr


def test_sweep_numeric_abort_names_the_cell_and_keeps_finished_groups(tmp_path):
    # the error_free group finishes; in the ota group only sigma_z_sq = 1e308
    # diverges, and no file of that group is written
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    out = tmp_path / "grid"
    proc = _cli("sweep", "--config", str(config), "--out", str(out),
                "--sweep", "mode=error_free,ota", "--sweep", "sigma_z_sq=1,1e308")
    assert proc.returncode == 3
    assert "numeric abort" in proc.stderr
    assert str(out / "metrics_mode=ota_sigma_z_sq=1e+308.csv") in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics_mode=error_free_sigma_z_sq=1.csv",
        "metrics_mode=error_free_sigma_z_sq=1e+308.csv",
    ]


def test_sweep_numeric_abort_in_a_workers_group_keeps_only_earlier_groups(tmp_path, monkeypatch):
    # Four groups: error_free at alpha0 1 and 2, then ota at alpha0 1 and 2,
    # whose sigma_z_sq = 1e308 cells diverge. The caller runs its share, the
    # first ceil(4 / 2) groups, and the worker groups 2 and 3, so group 2's
    # abort comes back from it, pickled; group 3's abort is later and dropped.
    monkeypatch.setattr(rng, "_WORKERS", 2)
    log = tmp_path / "groups.jsonl"
    record_groups(monkeypatch, log)
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    out = tmp_path / "grid"
    proc = _cli("sweep", "--config", str(config), "--out", str(out),
                "--sweep", "mode=error_free,ota", "--sweep", "power.alpha0=1,2",
                "--sweep", "sigma_z_sq=1,1e308")
    assert proc.returncode == 3
    aborted = str(out / "metrics_mode=ota_power-alpha0=1_sigma_z_sq=1e+308.csv")
    assert f"numeric abort: non-finite values at iteration 1 in stage 'estimate' of {aborted}" \
        in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics_mode=error_free_power-alpha0=1_sigma_z_sq=1.csv",
        "metrics_mode=error_free_power-alpha0=1_sigma_z_sq=1e+308.csv",
        "metrics_mode=error_free_power-alpha0=2_sigma_z_sq=1.csv",
        "metrics_mode=error_free_power-alpha0=2_sigma_z_sq=1e+308.csv",
    ]
    groups = recorded_groups(log)
    (runner,) = [pid for pid, configs in groups
                 if any((config.mode, config.power.alpha0, config.sigma_z_sq) == ("ota", 1, 1e308)
                        for config in configs)]
    assert runner != os.getpid()
    assert_no_child_alive([pid for pid, _ in groups])


# A sweep whose forked worker dies: every group a worker runs ends the
# worker at once, while the caller runs its share as usual.
_DYING_WORKER_SWEEP = """
import os, sys
from airsgd import cli, experiment, rng

caller, run_cells = os.getpid(), experiment.run_cells

def dying(configs):
    if os.getpid() != caller:
        os._exit(1)
    return run_cells(configs)

experiment.run_cells = dying
rng._WORKERS = 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_sweep_whose_worker_dies_exits_1_and_keeps_the_callers_groups(tmp_path):
    # four groups on two processes: the caller's share is groups 0 and 1
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    out = tmp_path / "grid"
    proc = subprocess.Popen(
        [sys.executable, "-c", _DYING_WORKER_SWEEP, "sweep", "--config", str(config),
         "--out", str(out), "--sweep", "master_seed=1,2,3,4", "--sweep", "K=1,5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=20)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
        proc.wait()
    assert (proc.returncode, left) == (1, False), stderr
    assert stderr.startswith("worker process failed: ") and stderr.count("\n") == 1, stderr
    assert stdout == ""
    assert sorted(p.name for p in out.iterdir()) == [
        f"metrics_master_seed={seed}_K={K}.csv" for seed in (1, 2) for K in (1, 5)]


# A sweep that marks each group it begins with a file named for the pid
# that runs it, in the directory given first.
_MARKING_SWEEP = """
import os, sys
from airsgd import cli, experiment, rng

marks, run_cells = sys.argv.pop(1), experiment.run_cells

def marking(configs):
    open(os.path.join(marks, str(os.getpid())), "a").close()
    return run_cells(configs)

experiment.run_cells = marking
rng._WORKERS = 2
sys.exit(cli.main(sys.argv[1:]))
"""


def _live_processes_in_session(session) -> list:
    """Pids of the processes of ``session`` still running: neither gone nor zombies."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                state, _, _, sid = f.read().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue  # gone meanwhile
        if int(sid) == session and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL, signal.SIGINT],
                         ids=["SIGTERM", "SIGKILL", "SIGINT"])
def test_a_stopped_sweep_leaves_no_process_and_only_whole_groups_files(tmp_path, signum):
    # four groups on two processes, about a second each; the signal goes to
    # the caller alone once the worker has begun its first group
    config = _write_fast_config(tmp_path, T=3000, eval_every=100)
    out, marks = tmp_path / "grid", tmp_path / "marks"
    marks.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", _MARKING_SWEEP, str(marks), "sweep", "--config", str(config),
         "--out", str(out), "--sweep", "master_seed=1,2,3,4", "--sweep", "K=1,5"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while {p.name for p in marks.iterdir()} <= {str(proc.pid)}:
            assert proc.poll() is None and time.monotonic() < deadline, "no worker began"
            time.sleep(0.01)
        proc.send_signal(signum)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while _live_processes_in_session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = _live_processes_in_session(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, left) == (-signum, [])
    files = sorted(p.name for p in out.iterdir())
    groups = [[f"metrics_master_seed={seed}_K={K}.csv" for K in (1, 5)] for seed in (1, 2, 3, 4)]
    assert files in [sum(groups[:n], []) for n in range(len(groups))]


@pytest.mark.parametrize("command", [
    ["-m", "airsgd"],
    # a line printed before the sweep sits in the pipe's buffer until flushed:
    # a worker forked with it unflushed would print it again as it exits
    ["-c", "import sys; print('sweeping'); from airsgd import cli; "
           "sys.exit(cli.main(sys.argv[1:]))"],
], ids=["module", "after-a-print"])
def test_a_piped_sweep_prints_each_line_once(tmp_path, command):
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    out = tmp_path / "grid"
    proc = subprocess.run(
        [sys.executable, *command, "sweep", "--config", str(config), "--out", str(out),
         "--sweep", "master_seed=1,2,3", "--sweep", "K=1,5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [f"metrics: {out / f'metrics_master_seed={seed}_K={K}.csv'}"
                for seed in (1, 2, 3) for K in (1, 5)] + ["6 runs complete"]
    if command[0] == "-c":
        expected.insert(0, "sweeping")
    assert proc.stdout.splitlines() == expected


def test_sweep_writes_all_cells(tmp_path):
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    out = tmp_path / "grid"
    proc = _cli("sweep", "--config", str(config),
                "--sweep", "K=1,5", "--sweep", "sigma_z_sq=20,100",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in out.glob("*.csv"))
    assert len(files) == 4
    assert "metrics_K=1_sigma_z_sq=20.csv" in files
    assert "4 runs complete" in proc.stdout


def test_a_sweep_reads_its_values_as_one_json_array_so_an_object_may_hold_commas(tmp_path):
    schedules = [{"kind": "constant", "alpha0": 1.0, "slope": 0.0},
                 {"kind": "linear_ramp", "alpha0": 1.0, "slope": 0.001}]
    proc = _cli("sweep", "--config", str(_write_fast_config(tmp_path, T=2)), "--out",
                str(tmp_path / "grid"), "--sweep", "power=" + ",".join(map(json.dumps, schedules)))
    assert proc.returncode == 0, proc.stderr
    paths = sorted((tmp_path / "grid").iterdir())  # the constant schedule's name sorts first
    headers = [path.read_text(encoding="utf-8").splitlines()[0] for path in paths]
    assert [json.loads(header[len("# config: "):])["power"] for header in headers] == schedules


def test_an_omitted_batch_size_can_be_set_and_swept(tmp_path):
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    doc = json.loads(config.read_text())
    del doc["batch_size"]
    config.write_text(json.dumps(doc))
    proc = _cli("run", "--config", str(config), "--set", "batch_size=8",
                "--out", str(tmp_path / "one"))
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "one" / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(header[len("# config: "):])["batch_size"] == 8
    proc = _cli("sweep", "--config", str(config), "--sweep", "batch_size=4,8",
                "--out", str(tmp_path / "grid"))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "grid").iterdir()) == [
        "metrics_batch_size=4.csv", "metrics_batch_size=8.csv",
    ]


@pytest.mark.parametrize("item, message", [
    ("K", "sweep 'K' is not of the form KEY=V1,V2,..."),
    ("K=1,,2", "sweep 'K=1,,2' has an empty value"),
    ("K=", "sweep 'K=' has an empty value"),
], ids=["no-equals", "empty-value", "empty-list"])
def test_a_malformed_sweep_exits_2_naming_it(tmp_path, item, message):
    config = _write_fast_config(tmp_path)
    proc = _cli("sweep", "--config", str(config), "--sweep", item, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_unknown_field_exits_2(tmp_path):
    config = _write_fast_config(tmp_path)
    proc = _cli("sweep", "--config", str(config), "--sweep", "foo=1,2",
                "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "unknown key 'foo'" in proc.stderr


def test_verify_stats_smoke():
    proc = _cli("verify-stats", "--trials", "2000", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
    assert "interference" in proc.stdout
    assert "hardening" in proc.stdout


def test_verify_stats_exits_4_on_a_failed_check(monkeypatch):
    # a doubled variance expectation lies outside every case's window
    predicted = verify.interference_variance
    monkeypatch.setattr(verify, "interference_variance", lambda *case: 2 * predicted(*case))
    proc = _cli("verify-stats", "--trials", "2000", "--seed", "3")
    assert proc.returncode == 4, proc.stdout + proc.stderr
    failed = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed == [f"[FAIL] interference(M={M},K={K},sig_h2={v:g}).var"
                      for M, K, v in verify.INTERFERENCE_CASES]
    assert "6/9 checks passed" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [("--trials", "500"), ("--seed", "-1"), ("--seed", str(2**32))],
                         ids=["trials-500", "seed-negative", "seed-two-words"])
def test_verify_stats_rejects_tiny_trials(args):
    proc = _cli("verify-stats", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def _fresh_modules(code):
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    code += "; import sys; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_leaves_jsonschema_unloaded():
    assert "jsonschema" not in _fresh_modules("import airsgd.cli")


def test_cli_import_leaves_the_process_machinery_unloaded():
    loaded = _fresh_modules("import airsgd.cli")
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


def test_a_forked_sweep_loads_no_process_machinery(tmp_path):
    # rng.map_groups forks its workers itself, on a pipe each
    config = _write_fast_config(tmp_path, T=2, eval_every=1)
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "grid"),
            "--sweep", "master_seed=1,2"]
    loaded = _fresh_modules(
        "import os; forks = []; os.register_at_fork(after_in_parent=lambda: forks.append(1)); "
        f"from airsgd import cli, rng; rng._WORKERS = 2; code = cli.main({argv!r}); "
        "assert (code, forks) == (0, [1]), (code, forks)")
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


# The airsgd modules each statement loads: the leaves load no other, data
# only rng (its thread helper included), experiment no statistics module.
IMPORT_CASES = {
    "rng": ("import airsgd.rng", {"rng"}),
    "packing": ("import airsgd.packing", {"packing"}),
    "statcheck": ("import airsgd.statcheck", {"statcheck"}),
    "learner": ("import airsgd.learner", {"learner"}),
    "data": ("import airsgd.data", {"data", "rng"}),
    "data-make_synthetic": ("from airsgd import data; "
                            "data.make_synthetic(data.SyntheticSpec(2, 2, 3, 3, 1.0, 0))",
                            {"data", "rng"}),
    "experiment": ("import airsgd.experiment", {"experiment", "channel", "config", "data",
                                                 "learner", "ota", "packing", "rng"}),
}


@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_importing_a_module_loads_only_the_airsgd_modules_it_needs(case):
    code, expected = IMPORT_CASES[case]
    loaded = {name.removeprefix("airsgd.") for name in _fresh_modules(code)
              if name.startswith("airsgd.")}
    assert loaded == expected


def test_package_holds_its_version_and_every_module_imports():
    # the package re-exports nothing; callers, the bench included, import by module
    code = ("import airsgd; print(airsgd.__version__, [n for n in vars(airsgd) if n[0] != '_']); "
            "from airsgd import channel, cli, config, data, experiment, learner, ota, packing, "
            "rng, statcheck, verify")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{airsgd.__version__} []"


def test_unknown_verb_exits_2():
    proc = _cli("orbit")
    assert proc.returncode == 2
