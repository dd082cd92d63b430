import json
import pathlib
import subprocess
import sys

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
        assert json.loads(header[len("# config: "):])["metrics_path"] == str(path)
