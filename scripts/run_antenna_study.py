"""Desk-scale antenna study: final accuracy across K and noise levels.

Runs the 10-device softmax task on synthetic data for every combination of
antenna count and channel-noise variance, plus the error-free baseline,
averaged over a few master seeds. Writes one metrics CSV per cell and
prints a summary table of mean final accuracy and mean realized transmit
power.

Usage:
    python3 scripts/run_antenna_study.py --out results/desk --seeds 1 2 3
"""

import argparse

import numpy as np

from airsgd.config import template
from airsgd.experiment import run_matrix

ANTENNAS = (1, 5, 20, 200)
NOISE_VARS = (20.0, 100.0)


def desk_doc(iters):
    doc = template("minimal")
    doc.update(M=10, K=1, T=iters, d=330, s=165, sigma_z_sq=NOISE_VARS[0],
               eval_every=max(1, iters // 10))
    doc["dataset"] = {"kind": "synthetic", "classes": 10, "features": 32,
                      "train_per_class": 100, "test_per_class": 50,
                      "margin": 4.0, "seed": 42}
    doc["partition"] = {"per_device": 150}
    return doc


def print_table(values):
    """One row per noise level of a (seeds, noise levels, antenna counts) array's seed mean."""
    print("sigma_z^2 " + "".join(f"{'K=' + str(K):>10}" for K in ANTENNAS))
    for i, sigma_z in enumerate(NOISE_VARS):
        print(f"{sigma_z:<10g}"
              + "".join(f"{np.mean(values[:, i, j]):>10.3f}" for j in range(len(ANTENNAS))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/desk",
                        help="directory for per-cell metrics CSVs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="master seeds to average over")
    parser.add_argument("--iters", type=int, default=300,
                        help="SGD iterations per run")
    args = parser.parse_args()

    doc = desk_doc(args.iters)
    baseline_grid = [("mode", ["error_free"]), ("master_seed", args.seeds)]
    baseline = [records[-1].accuracy for _, records in run_matrix(doc, baseline_grid, args.out)]
    # run_matrix returns the cells in itertools.product order: seed, noise level, K.
    grid = [("master_seed", args.seeds), ("sigma_z_sq", NOISE_VARS), ("K", ANTENNAS)]
    finals = [records[-1] for _, records in run_matrix(doc, grid, args.out)]
    shape = (len(args.seeds), len(NOISE_VARS), len(ANTENNAS))

    print(f"\nmean final accuracy over seeds {args.seeds} "
          f"(error-free baseline {np.mean(baseline):.3f})")
    print_table(np.reshape([final.accuracy for final in finals], shape))
    print("\nmean realized transmit power")
    print_table(np.reshape([final.avg_power for final in finals], shape))
    print(f"\nper-cell metrics written to {args.out}/")


if __name__ == "__main__":
    main()
