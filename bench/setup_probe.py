"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of airsgd, then, when a config is given, loading it,
building its dataset and partitioning that dataset across the devices.
Prints the seconds it took on the last line of standard output.

Usage: python3 bench/setup_probe.py SRC_DIR [CONFIG_JSON]
"""

import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[1])
    from airsgd import cli, data, experiment  # noqa: F401  (cli is the entry point users load)
    from airsgd.config import load_config

    if len(argv) > 2:
        config = load_config(argv[2])
        train, _, _ = experiment.build_dataset(config)
        data.partition(train, config.M, config.partition.per_device, config.master_seed)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
