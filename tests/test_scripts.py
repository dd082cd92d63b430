import json
import pathlib
import subprocess
import sys

import numpy as np

from airsgd.data import SyntheticSpec, load_idx, make_synthetic

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_antenna_study_writes_one_csv_per_cell_naming_itself(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_antenna_study.py"),
         "--out", str(tmp_path), "--iters", "2", "--seeds", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mean final accuracy over seeds [1]" in proc.stdout
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 9  # the error-free baseline and 2 noise levels x 4 antenna counts
    for path in paths:
        header = path.read_text(encoding="utf-8").splitlines()[0]
        config = json.loads(header[len("# config: "):])
        seed = f"master_seed={config['master_seed']}"
        cell = (f"mode=error_free_{seed}" if config["mode"] == "error_free"
                else f"{seed}_sigma_z_sq={config['sigma_z_sq']}_K={config['K']}")
        assert path.name == f"metrics_{cell}.csv"


def test_idx_fixture_maps_both_splits_with_the_train_range(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_idx_fixture.py"), "--out", str(tmp_path),
         "--side", "3", "--train-per-class", "20", "--test-per-class", "10", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spec = SyntheticSpec(classes=10, features=9, train_per_class=20, test_per_class=10,
                         margin=4.0, seed=0)
    train, test = make_synthetic(spec)
    lo, hi = train.features.min(), train.features.max()
    assert test.features.min() < lo  # so a test value must clip rather than wrap
    for split, name in ((train, "train"), (test, "test")):
        expected = np.clip((split.features - lo) / (hi - lo) * 255.0, 0.0, 255.0).astype(np.uint8)
        written = load_idx(tmp_path / f"{name}-images-idx3-ubyte", tmp_path / f"{name}-labels-idx1-ubyte")
        # the reader gives each pixel byte's quotient by 255
        assert np.array_equal(written.features, (expected / 255).astype(np.float32))
        assert np.array_equal(written.labels, split.labels)
