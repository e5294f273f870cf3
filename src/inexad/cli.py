"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 130 interrupted.
"""

import argparse
import os
import sys

from .harness import ExperimentConfig, emit_report, run_experiment
from .training import DEFAULT_LAMBDA_GRID, MODES, TrainConfig


def number_list(text):
    """A --lambda-grid value: comma-separated numbers."""
    return tuple(map(float, text.split(",")))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="inexad",
        description="Train and evaluate anomaly detectors on data with "
                    "set-level weak anomaly labels.",
    )
    parser.add_argument("--dataset", choices=["synthetic", "csv"],
                        default="synthetic", help="data source")
    parser.add_argument("--csv", metavar="PATH",
                        help="CSV file (only with, and required by, --dataset csv)")
    parser.add_argument("--label-col",
                        help="label column name (only with --dataset csv; default: label)")
    parser.add_argument("--mode", action="append", choices=list(MODES),
                        help="mode to run; repeatable (default: proposed)")
    lam = parser.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="fixed_lambda", type=float,
                     help="fixed ranking weight (skips grid search)")
    lam.add_argument("--lambda-grid", metavar="V1,V2,...", type=number_list,
                     default=DEFAULT_LAMBDA_GRID,
                     help="comma-separated grid for lambda selection")
    parser.add_argument("--repeats", type=int, default=10,
                        help="number of repeated random splits (default: 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default: 0)")
    parser.add_argument("--epochs", type=int, default=1000,
                        help="maximum training epochs (default: 1000)")
    parser.add_argument("--patience", type=int, default=100,
                        help="early-stopping patience in epochs (default: 100)")
    parser.add_argument("--out", default="results",
                        help="output directory (default: results)")
    return parser


def cli_parse(argv):
    """Parse argv into an ExperimentConfig; raises SystemExit(2) on usage errors."""
    parser = _build_parser()
    if not argv:
        parser.print_help()
        raise SystemExit(2)
    args = parser.parse_args(argv)
    if args.dataset == "csv" and not args.csv:
        parser.error("--dataset csv requires --csv PATH")
    for flag, value in (("--csv", args.csv), ("--label-col", args.label_col)):
        if args.dataset != "csv" and value is not None:
            parser.error(f"{flag} requires --dataset csv")
    # the report is written after training: a file in the way would waste it
    existing = os.path.abspath(args.out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        parser.error(f"--out: {existing} exists and is not a directory")
    grid = args.lambda_grid if args.fixed_lambda is None else (args.fixed_lambda,)
    try:
        return ExperimentConfig(
            csv_path=args.csv,
            label_col="label" if args.label_col is None else args.label_col,
            modes=tuple(args.mode) if args.mode else ("proposed",),
            n_repeats=args.repeats,
            seed=args.seed,
            out_dir=args.out,
            train_config=TrainConfig(max_epochs=args.epochs, patience=args.patience,
                                     lambda_grid=grid),
        )
    except ValueError as exc:  # a config that fails validation is a usage error
        parser.error(str(exc))


def main(argv=None):
    config = cli_parse(sys.argv[1:] if argv is None else argv)
    try:
        report = run_experiment(config)
        files = emit_report(report, config.out_dir)
    except Exception as exc:  # surface runtime failures as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # the shell's code for SIGINT; the pool is gone by now
        print("interrupted", file=sys.stderr)
        return 130
    for mode, res in sorted(report.modes.items()):
        # such a run's reported model is the best it reached before the overflow
        for r, rd in enumerate(res.rounds):
            for lam, result in rd.results:
                if result.stop_reason == "non-finite":
                    print(f"warning: {mode} repeat {r} lambda {lam:g} stopped at epoch "
                          f"{result.stopped_epoch}: its Adam state became non-finite",
                          file=sys.stderr)
        print(f"{mode}: mean test AUC {res.mean:.3f} "
              f"(stderr {res.stderr:.3f}, {len(res.aucs)} repeats)")
    print(f"wrote {len(files)} files to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
