"""Command line entry point.

Usage::

    shevar <experiment> [--config FILE] [--seed N] [--out DIR]
                        [--replicates R] [--threads N]
    shevar <experiment> --verify-report report.json

Experiments: identities, lln, clt, estimate, scaling, simulate.  Options
layer as defaults < config file < command line flags.  Exit status is 0 iff
every configured tolerance passed (or, with --verify-report, iff the stored
report reproduces exactly).  A config that does not parse, or a report that
cannot be read or whose config does not parse, exits with status 2.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    EXPERIMENTS,
    ConfigError,
    default_config,
    load_config,
    run_experiment,
    verify_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shevar",
        description="Monte Carlo experiments for heat-equation power variations",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="experiment config file (key = value lines)")
        sp.add_argument("--seed", type=int, help="master seed (overrides config)")
        sp.add_argument("--out", help="output directory for report.json / replicates.csv")
        sp.add_argument("--replicates", type=int, help="replicate count (overrides config)")
        sp.add_argument("--threads", type=int,
                        help="worker threads for FFT batches and random draws "
                             "(results are unaffected)")
        sp.add_argument("--verify-report", metavar="FILE",
                        help="re-run the embedded config of a stored report and compare")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.verify_report:
        try:
            ok = verify_report(args.verify_report)
        except (OSError, ConfigError) as exc:
            print(f"verify {args.verify_report}: cannot verify: {exc}", file=sys.stderr)
            return 2
        print(f"verify {args.verify_report}: {'MATCH' if ok else 'MISMATCH'}")
        return 0 if ok else 1

    try:
        cfg = default_config(args.experiment)
        if args.config:
            cfg = load_config(args.config, base=cfg)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.replicates is not None:
            overrides["replicates"] = args.replicates
        if args.threads is not None:
            overrides["threads"] = args.threads
        if overrides:
            cfg = cfg.replace(**overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    workers = cfg.get("threads") or None
    report = run_experiment(cfg, workers=workers, out_dir=args.out)

    print(f"experiment: {report.kind}   seed: {report.seed}   "
          f"config: {report.config_hash[:12]}")
    for key in sorted(report.summary):
        print(f"  {key} = {report.summary[key]}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        print(f"written: {args.out}/report.json, {args.out}/replicates.csv")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
