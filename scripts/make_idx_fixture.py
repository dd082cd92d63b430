"""Generate a small IDX train/test fixture from the synthetic sampler.

Handy for exercising the idx dataset path of the CLI without real image
data: writes four big-endian IDX files (train/test images and labels)
whose pixel values are the synthetic features rescaled into 0..255 bytes by
the train split's range (test values outside it clip to 0 or 255). The
rescaling runs in float32, the features' dtype.

Usage:
    python3 scripts/make_idx_fixture.py --out data/fixture
"""

import argparse
import pathlib

import numpy as np

from airsgd.data import SyntheticSpec, make_synthetic, write_idx_images, write_idx_labels


def to_bytes(features, lo, hi):
    """Map features onto 0..255 with [lo, hi] spanning the byte range; values outside clip."""
    scaled = np.clip((features - lo) / (hi - lo) * 255.0, 0.0, 255.0)
    side = int(np.sqrt(features.shape[1]))
    if side * side != features.shape[1]:
        raise SystemExit("feature count must be a perfect square for image layout")
    return scaled.astype(np.uint8).reshape(-1, side, side)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data/fixture")
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--side", type=int, default=6,
                        help="image side length; features = side^2")
    parser.add_argument("--train-per-class", type=int, default=100)
    parser.add_argument("--test-per-class", type=int, default=50)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    spec = SyntheticSpec(classes=args.classes, features=args.side**2,
                         train_per_class=args.train_per_class,
                         test_per_class=args.test_per_class,
                         margin=4.0, seed=args.seed)
    train, test = make_synthetic(spec)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # both splits share the train range, so a test byte means what a train byte means
    lo, hi = train.features.min(), train.features.max()
    write_idx_images(out / "train-images-idx3-ubyte", to_bytes(train.features, lo, hi))
    write_idx_labels(out / "train-labels-idx1-ubyte", train.labels.astype(np.uint8))
    write_idx_images(out / "test-images-idx3-ubyte", to_bytes(test.features, lo, hi))
    write_idx_labels(out / "test-labels-idx1-ubyte", test.labels.astype(np.uint8))

    d = (args.side**2 + 1) * args.classes
    print(f"wrote {args.classes}-class fixture to {out}/ "
          f"({train.features.shape[0]} train, {test.features.shape[0]} test); "
          f"use d={d} with this dataset")


if __name__ == "__main__":
    main()
