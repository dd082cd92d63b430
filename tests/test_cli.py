import json
import subprocess
import sys

import numpy as np
import pytest

from airsgd.config import parse_config
from airsgd.data import write_idx_images, write_idx_labels


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "airsgd", *args],
        capture_output=True, text=True,
    )


def _write_fast_config(tmp_path, **updates):
    proc = _cli("template", "minimal")
    doc = json.loads(proc.stdout)
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
    proc = _cli("run", "--config", str(config), "--out", str(tmp_path))
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


@pytest.mark.parametrize("make_config", [_paper_scale_config, _truncated_idx_config],
                         ids=["missing", "truncated"])
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


def test_sweep_unknown_field_exits_2(tmp_path):
    config = _write_fast_config(tmp_path)
    proc = _cli("sweep", "--config", str(config), "--sweep", "foo=1,2",
                "--out", str(tmp_path))
    assert proc.returncode == 2


def test_verify_stats_smoke():
    proc = _cli("verify-stats", "--trials", "2000", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
    assert "interference" in proc.stdout
    assert "hardening" in proc.stdout


def test_verify_stats_rejects_tiny_trials():
    proc = _cli("verify-stats", "--trials", "500")
    assert proc.returncode == 2


def test_cli_import_leaves_jsonschema_unloaded():
    code = "import sys, airsgd.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_verb_exits_2():
    proc = _cli("orbit")
    assert proc.returncode == 2
