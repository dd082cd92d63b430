"""Command-line front end.

Verbs:
  run           one experiment from a JSON config, metrics to CSV (a one-cell sweep)
  sweep         cartesian product of parameter values over a base config
  verify-stats  Monte Carlo checks of the aggregation statistics
  template      print a ready-to-edit config (minimal | paper_scale)

Exit codes: 0 success, 1 a sweep's worker process died (earlier groups'
files are kept), 2 config problem (a missing or malformed dataset file
included), 3 numeric abort mid-run, 4 statistical check failure.
"""

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor

from . import experiment, verify
from .config import ConfigError, apply_overrides, load_document, parse_value, template

__all__ = ["main"]

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_STATS = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsgd",
        description="Analog gradient aggregation experiments over a fading channel.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable, dots for nesting)")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="directory for the metrics file (default: per config)")

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments")
    p_sweep.add_argument("--config", required=True, help="base JSON config path")
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="fixed overrides applied to every cell")
    p_sweep.add_argument("--sweep", action="append", default=[], metavar="KEY=V1,V2,...",
                         help="sweep a config entry over listed values (repeatable)")
    p_sweep.add_argument("--out", default=".", metavar="DIR",
                         help="directory for metrics files (default: current)")

    p_verify = sub.add_parser("verify-stats", help="Monte Carlo statistics checks")
    p_verify.add_argument("--trials", type=int, default=100_000,
                          help="draws per check (minimum 1000, default 100000)")
    p_verify.add_argument("--seed", type=int, default=2026, help="master seed")

    p_template = sub.add_parser("template", help="print a config template")
    p_template.add_argument("kind", choices=["minimal", "paper_scale"])

    return parser


def _parse_sweep_args(items) -> list:
    sweep = []
    for item in items:
        if "=" not in item:
            raise ConfigError(f"sweep {item!r} is not of the form KEY=V1,V2,...")
        field, text = item.split("=", 1)
        pieces = [piece.strip() for piece in text.split(",")]
        if not all(pieces):
            raise ConfigError(f"sweep {item!r} has an empty value")
        sweep.append((field, [parse_value(piece) for piece in pieces]))
    return sweep


def _cmd_run(args) -> int:
    doc = apply_overrides(load_document(args.config), args.set)
    ((path, records),) = experiment.run_matrix(doc, [], args.out)
    print(f"final accuracy: {records[-1].accuracy:.4f}")
    print(f"average power:  {records[-1].avg_power:.6g}")
    print(f"metrics: {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = apply_overrides(load_document(args.config), args.set)
    cells = experiment.run_matrix(doc, _parse_sweep_args(args.sweep), args.out)
    for path, _ in cells:
        print(f"metrics: {path}")
    print(f"{len(cells)} runs complete")
    return EXIT_OK


def _cmd_verify_stats(args) -> int:
    results = verify.stat_suite(args.trials, args.seed)
    print(verify.format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_STATS


def _cmd_template(args) -> int:
    print(json.dumps(template(args.kind), indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-stats": _cmd_verify_stats,
        "template": _cmd_template,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiment.NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenExecutor as exc:
        print(f"worker process failed: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
