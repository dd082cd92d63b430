import contextlib
import io
import json
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from airsgd import cli
from airsgd.config import parse_config, template
from airsgd.data import write_idx_images, write_idx_labels


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


def test_run_missing_config_exits_2(tmp_path):
    proc = _cli("run", "--config", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert "absent.json" in proc.stderr


@pytest.mark.parametrize("verb", [["run"], ["sweep", "--sweep", "K=1"]], ids=["run", "sweep"])
@pytest.mark.parametrize("make_config", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe{}"),
], ids=["directory", "not-utf-8"])
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
], ids=["K=0", "K=true", "per_device=80.0", "master_seed=1.0"])
def test_run_invalid_config_exits_2(tmp_path, override, key):
    config = _write_fast_config(tmp_path)
    proc = _cli("run", "--config", str(config), "--set", override, "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_run_creates_a_missing_metrics_directory(tmp_path):
    config = _write_fast_config(tmp_path)
    target = tmp_path / "new" / "deeper" / "x.csv"
    proc = _cli("run", "--config", str(config), "--set", f"metrics_path={json.dumps(str(target))}")
    assert proc.returncode == 0, proc.stderr
    assert target.read_text().startswith("# config: ")


@pytest.mark.parametrize("args, message", [
    (["run", "--out", "{f}"], "cannot create output directory {f}"),
    (["run", "--set", "metrics_path=\"{f}/x.csv\""], "cannot create output directory {f}"),
    (["sweep", "--out", "{f}/sub", "--sweep", "K=1,5"], "cannot create output directory {f}/sub"),
    (["run", "--set", "metrics_path=\"{d}\""], "metrics path {d} is a directory"),
], ids=["run-out", "run-metrics_path", "sweep-out", "run-metrics_path-directory"])
def test_output_directory_under_a_regular_file_exits_2(tmp_path, args, message):
    config = _write_fast_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    adir = tmp_path / "adir"
    adir.mkdir()
    before = sorted(tmp_path.rglob("*"))
    verb, *rest = (arg.format(f=afile, d=adir) for arg in args)
    proc = _cli(verb, "--config", str(config), *rest)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {message.format(f=afile, d=adir)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize("args", [("--trials", "500"), ("--seed", "-1"), ("--seed", str(2**32))],
                         ids=["trials-500", "seed-negative", "seed-two-words"])
def test_verify_stats_rejects_tiny_trials(args):
    proc = _cli("verify-stats", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_jsonschema_unloaded():
    code = "import sys, airsgd.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_verb_exits_2():
    proc = _cli("orbit")
    assert proc.returncode == 2
