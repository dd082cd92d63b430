"""The benchmark's workloads.

A workload turns a seed into config files, names the ``airsgd`` CLI calls
that make up one operation, and reads that operation's outputs back: it
checks them and returns the figures the end-to-end metrics are built from.
NOTES.md records why each workload was chosen.
"""

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

CSV_HEADER = "iter,accuracy,loss,inst_power,avg_power,est_mse"
CONFIG_PREFIX = "# config: "

# Trials per verify-stats sampling round: one channel draw of at most this
# many (M, K) matrices, the chunk the verify suites loop over.
VERIFY_ROUND = 4096


@dataclass
class Outcome:
    """What one operation produced, as read back from its files and stdout."""

    iterations: int = 0  # training iterations, or verify-stats sampling rounds
    trials: int = 0  # channel realizations: one (M, K) fading matrix per symbol and subchannel
    accuracies: list = field(default_factory=list)  # final accuracy per CSV, or check pass rate
    mse: list = field(default_factory=list)  # est_mse per ota evaluation row, or variance ratios
    digests: dict = field(default_factory=dict)  # CSV path relative to the output dir -> sha256
    configs: dict = field(default_factory=dict)  # CSV path -> resolved config embedded in it
    problems: list = field(default_factory=list)  # why the outputs are wrong; empty when correct


def _derived_seeds(seed: int):
    """(master_seed, dataset_seed) for a workload seed."""
    gen = random.Random(seed)
    return gen.randrange(2**31), gen.randrange(2**31)


def _training_doc(master_seed, data_seed, **fields) -> dict:
    doc = {
        "sigma_h_sq": 1.0,
        "mode": "ota",
        "master_seed": master_seed,
        "batch_size": None,
        "power": {"kind": "linear_ramp", "alpha0": 1.0, "slope": 0.001},
        "optimizer": {"kind": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "dataset": {"kind": "synthetic", "seed": data_seed},
    }
    for key, value in fields.items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    return doc


def write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path


def _finite(text: str, where: str, problems: list):
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{where}: {text!r} is not a number")
        return None
    if not math.isfinite(value):
        problems.append(f"{where}: non-finite value {text}")
        return None
    return value


def read_metrics_csv(path, out: Outcome, name: str) -> None:
    """Check one metrics CSV and add its figures to ``out``."""
    with open(path, "rb") as f:
        raw = f.read()
    out.digests[name] = hashlib.sha256(raw).hexdigest()
    config = None
    rows = []
    header_seen = False
    for number, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        if line.startswith(CONFIG_PREFIX):
            config = json.loads(line[len(CONFIG_PREFIX):])
        elif line.startswith("#"):
            continue
        elif line == CSV_HEADER:
            header_seen = True
        else:
            rows.append((number, line.split(",")))
    if config is None or not header_seen or not rows:
        out.problems.append(f"{name}: missing config comment, header or rows")
        return
    out.configs[name] = config
    ota = config["mode"] == "ota"
    accuracy = None
    last_iter = None
    for number, cells in rows:
        where = f"{name}:{number}"
        if len(cells) != 6:
            out.problems.append(f"{where}: expected 6 cells, got {len(cells)}")
            continue
        last_iter, accuracy = (_finite(cell, where, out.problems) for cell in cells[:2])
        for cell in cells[2:5]:
            _finite(cell, where, out.problems)
        if accuracy is not None and not 0.0 <= accuracy <= 1.0:
            out.problems.append(f"{where}: accuracy {accuracy} outside [0, 1]")
        if ota:
            mse = _finite(cells[5], where, out.problems)
            if mse is not None:
                if mse <= 0.0:
                    out.problems.append(f"{where}: est_mse {mse} is not positive")
                out.mse.append(mse)
        elif cells[5]:
            out.problems.append(f"{where}: error_free row carries est_mse {cells[5]!r}")
    if last_iter != config["T"]:
        out.problems.append(f"{name}: last row is iteration {last_iter}, expected T={config['T']}")
    if accuracy is not None:
        if accuracy <= 1.0 / config["dataset"]["classes"]:
            out.problems.append(f"{name}: final accuracy {accuracy} is no better than chance")
        out.accuracies.append(accuracy)
    out.iterations += config["T"]
    if ota:
        n_blocks = -(-config["d"] // (2 * config["s"]))
        out.trials += config["T"] * n_blocks * config["s"]


def _read_csv_dir(out_dir, sub, expected_cells, out: Outcome) -> None:
    """Read every CSV of ``out_dir/sub`` and match their configs to the cells asked for.

    ``expected_cells`` is a list of dicts of config keys; each CSV must embed
    a config agreeing with exactly one of them, and each cell must appear once.
    """
    directory = os.path.join(out_dir, sub)
    names = []
    if os.path.isdir(directory):
        names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    if len(names) != len(expected_cells):
        out.problems.append(f"{sub}: {len(names)} metrics files, expected {len(expected_cells)}")
    remaining = list(expected_cells)
    for filename in names:
        name = f"{sub}/{filename}"
        read_metrics_csv(os.path.join(directory, filename), out, name)
        config = out.configs.get(name)
        if config is None:
            continue
        match = [cell for cell in remaining if all(config.get(k) == v for k, v in cell.items())]
        if len(match) != 1:
            out.problems.append(f"{name}: embedded config matches none of the cells asked for")
        else:
            remaining.remove(match[0])


class PaperStandin:
    """Paper-size synthetic stand-in for MNIST: one ``airsgd run``."""

    name = "paper_standin"
    T = 4
    EVAL_EVERY = 2

    def prepare(self, seed: int, work: str) -> None:
        master, data_seed = _derived_seeds(seed)
        self.doc = _training_doc(
            master, data_seed,
            M=20, K=40, s=3925, d=7850, T=self.T, eval_every=self.EVAL_EVERY,
            sigma_z_sq=20.0,
            optimizer={"learning_rate": 0.001},
            dataset={"classes": 10, "features": 784, "train_per_class": 600,
                     "test_per_class": 100, "margin": 8.0},
            partition={"per_device": 1000},
        )
        self.config_path = write_json(os.path.join(work, "paper_standin.json"), self.doc)
        self.setup_path = self.config_path

    def calls(self, out_dir: str) -> list:
        return [["run", "--config", self.config_path, "--out", os.path.join(out_dir, "run")]]

    def read(self, out_dir: str, stdout: str) -> Outcome:
        out = Outcome()
        cell = {k: self.doc[k] for k in ("M", "K", "s", "d", "T", "master_seed", "mode")}
        _read_csv_dir(out_dir, "run", [cell], out)
        return out


class DeskSweep:
    """Desk-size ``airsgd sweep``: K x batch_size x sigma_z_sq in ota, plus error_free."""

    name = "desk_sweep"
    T = 60
    EVAL_EVERY = 5
    K_VALUES = (1, 5)
    BATCH_SIZES = (None, 32)
    SIGMA_Z_SQ = (20.0, 100.0)

    def prepare(self, seed: int, work: str) -> None:
        master, data_seed = _derived_seeds(seed)
        self.doc = _training_doc(
            master, data_seed,
            M=10, K=self.K_VALUES[0], s=165, d=330, T=self.T, eval_every=self.EVAL_EVERY,
            sigma_z_sq=self.SIGMA_Z_SQ[0],
            optimizer={"learning_rate": 0.01},
            dataset={"classes": 10, "features": 32, "train_per_class": 100,
                     "test_per_class": 50, "margin": 6.0},
            partition={"per_device": 150},
        )
        self.config_path = write_json(os.path.join(work, "desk_base.json"), self.doc)
        # The first cell of the ota sweep equals the base document.
        self.setup_path = self.config_path

    def _values(self, values) -> str:
        return ",".join(json.dumps(v) for v in values)

    def calls(self, out_dir: str) -> list:
        return [
            ["sweep", "--config", self.config_path, "--out", os.path.join(out_dir, "ota"),
             "--sweep", f"K={self._values(self.K_VALUES)}",
             "--sweep", f"batch_size={self._values(self.BATCH_SIZES)}",
             "--sweep", f"sigma_z_sq={self._values(self.SIGMA_Z_SQ)}"],
            ["sweep", "--config", self.config_path, "--out", os.path.join(out_dir, "error_free"),
             "--set", "mode=error_free",
             "--sweep", f"batch_size={self._values(self.BATCH_SIZES)}"],
        ]

    def read(self, out_dir: str, stdout: str) -> Outcome:
        out = Outcome()
        fixed = {k: self.doc[k] for k in ("M", "s", "d", "T", "master_seed")}
        ota_cells = [
            dict(fixed, mode="ota", K=K, batch_size=b, sigma_z_sq=sz)
            for K in self.K_VALUES for b in self.BATCH_SIZES for sz in self.SIGMA_Z_SQ
        ]
        free_cells = [dict(fixed, mode="error_free", batch_size=b) for b in self.BATCH_SIZES]
        _read_csv_dir(out_dir, "ota", ota_cells, out)
        _read_csv_dir(out_dir, "error_free", free_cells, out)
        return out


_CHECK_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (\S+): observed=(\S+) expected=(\S+) \(.*n=(\d+)\)$"
)
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


class VerifyStats:
    """``airsgd verify-stats``: interference and hardening Monte Carlo checks."""

    name = "verify_stats"
    TRIALS = 100_000

    def prepare(self, seed: int, work: str) -> None:
        self.master, _ = _derived_seeds(seed)
        self.doc = {"trials": self.TRIALS, "seed": self.master}
        self.setup_path = None  # verify-stats reads no config: set-up is the import alone

    def calls(self, out_dir: str) -> list:
        return [["verify-stats", "--trials", str(self.TRIALS), "--seed", str(self.master)]]

    def read(self, out_dir: str, stdout: str) -> Outcome:
        """Figures from the report: trials per case, pass rate, variance ratios.

        Interference cases each print one ``.var`` line carrying their trial
        count. The hardening checks print one ratio line per pair of
        neighbouring antenna counts, so they cover one more case than lines.
        """
        out = Outcome()
        checks = []
        summary = None
        for line in stdout.splitlines():
            match = _CHECK_LINE.match(line)
            if match:
                checks.append(match.groups())
            elif _SUMMARY_LINE.match(line):
                summary = line
        if not checks or summary is None:
            out.problems.append("verify-stats printed no check report")
            return out
        cases = []
        hardening = [int(n) for _, name, _, _, n in checks if name.startswith("hardening.")]
        for verdict, name, observed, expected, n in checks:
            if verdict != "PASS":
                out.problems.append(f"failed statistical check {name}")
            if name.endswith(".var"):
                cases.append(int(n))
                out.mse.append(float(observed) / float(expected))
        if hardening:
            cases.extend([hardening[0]] * (len(hardening) + 1))
        out.trials = sum(cases)
        out.iterations = sum(-(-n // VERIFY_ROUND) for n in cases)
        out.accuracies.append(sum(c[0] == "PASS" for c in checks) / len(checks))
        return out


WORKLOADS = {w.name: w for w in (PaperStandin, DeskSweep, VerifyStats)}
