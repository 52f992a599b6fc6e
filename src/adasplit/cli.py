"""Command-line interface.

Three subcommands:

* ``analyze``:   run one procedure on a trial CSV and write a JSON report;
* ``simulate``:  run all procedures on a named synthetic scenario for R
  replications, writing per-replication and summary CSVs;
* ``reproduce``: regenerate one of the four synthetic-study tables.

Exit codes are a stable contract: 0 success, 2 malformed input, 3 invalid
configuration, 1 internal error. An internal error prints one line to stderr;
with ``ADASPLIT_DEBUG=1`` in the environment its traceback follows.
"""

import argparse
import functools
import os
import sys
import traceback
from pathlib import Path

from .data import AdaSplitConfig, SubgroupPartition, partition_by_quantiles, read_dataset_csv
from .engine import canonical_method, run_method, write_trace_csv
from .errors import ConfigError, ValidationError
from .simlab import get_scenario, reproduce_table, run_replications, summarize_replications

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="adasplit",
        description="Adaptive sample splitting for subgroup randomization tests.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker process cap for replication loops only (default 1); "
             "workers gain only with OPENBLAS_NUM_THREADS=1, since OpenBLAS's "
             "default pool oversubscribes the cores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one trial CSV")
    pa.add_argument("--data", required=True, help="input CSV (x1..xd,y,z[,subgroup])")
    pa.add_argument("--config", help="JSON config file")
    pa.add_argument("--subgroup-column", default=None,
                    help="use this CSV column as the subgroup label (default: 'subgroup' when present)")
    pa.add_argument("--quantile-cuts", default=None,
                    help="comma-separated quantile cuts in (0,1), e.g. 0.2,0.4,0.6,0.8")
    pa.add_argument("--on", default=None,
                    help="covariate for --quantile-cuts: a name like x1 or a 1-based index")
    pa.add_argument("--method", default="adasplit",
                    help="rt | random_split | adasplit (default adasplit)")
    pa.add_argument("--out", default=None, help="report JSON path (default stdout)")
    pa.add_argument("--trace", default=None, help="optional per-iteration trace CSV")
    pa.add_argument("--seed", type=int, default=None, help="override config seed")

    ps = sub.add_parser("simulate", help="run a synthetic scenario")
    ps.add_argument("--scenario", required=True)
    ps.add_argument("--reps", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--config", help="JSON config file")
    ps.add_argument("--out", required=True,
                    help="per-replication CSV; a summary lands next to it")

    pr = sub.add_parser("reproduce", help="reproduce a synthetic-study table")
    pr.add_argument("--table", type=int, required=True)
    pr.add_argument("--reps", type=int, required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--config", help="JSON config file")
    pr.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config(path, seed=None):
    config = AdaSplitConfig.from_json(path) if path else AdaSplitConfig()
    if seed is not None:
        config = config.replace(seed=seed)
    return config


def _parse_column(name, d):
    if name is None:
        raise ValidationError("--quantile-cuts requires --on")
    text = name.strip().lower()
    if text.startswith("x"):
        text = text[1:]
    try:
        idx = int(text) - 1
    except ValueError:
        raise ValidationError(f"--on: cannot parse column {name!r}")
    if not 0 <= idx < d:
        raise ValidationError(f"--on: column {name!r} out of range for d={d}")
    return idx


def _cmd_analyze(args):
    config = _load_config(args.config, seed=args.seed)
    method = canonical_method(args.method)
    if args.trace is not None and method != "adasplit":
        raise ValidationError("--trace is only available for the adasplit method")
    if args.on is not None and args.quantile_cuts is None:
        raise ValidationError("--on requires --quantile-cuts")
    if args.subgroup_column is not None and args.quantile_cuts is not None:
        raise ValidationError("--subgroup-column and --quantile-cuts both define the "
                              "subgroups; pass one of them")
    dataset, labels = read_dataset_csv(
        args.data, subgroup_column=args.subgroup_column or "subgroup"
    )
    if args.quantile_cuts is not None:
        try:
            cuts = tuple(float(c) for c in args.quantile_cuts.split(",") if c.strip())
        except ValueError as exc:
            raise ValidationError(f"--quantile-cuts: {exc}")
        if not cuts:
            raise ValidationError(f"--quantile-cuts: no cut in {args.quantile_cuts!r}")
        column = _parse_column(args.on, dataset.d)
        partition = partition_by_quantiles(dataset, column, cuts)
    elif labels is not None:
        partition = SubgroupPartition.from_labels(labels)
    else:
        name = args.subgroup_column or "subgroup"
        raise ValidationError(
            f"no subgroups: provide a {name!r} column or --quantile-cuts/--on"
        )
    report = run_method(method, dataset, partition, config,
                        collect_trace=args.trace is not None)
    # The trace goes first, so a trace path that cannot be opened leaves no report.
    if args.trace is not None:
        write_trace_csv(report, args.trace)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_simulate(args):
    get_scenario(args.scenario)
    if args.reps < 1:
        raise ConfigError("reps >= 1 required")
    config = _load_config(args.config, seed=None)
    results = run_replications(args.scenario, args.reps, args.seed, config,
                               threads=args.threads)
    summary = summarize_replications(args.scenario, results, config)
    out = Path(args.out)
    summary.write_raw_csv(out)
    summary.write_csv(out.with_name(out.stem + "_summary" + (out.suffix or ".csv")))
    return EXIT_OK


def _cmd_reproduce(args):
    config = _load_config(args.config)
    summary = reproduce_table(args.table, args.reps, args.seed, config,
                              threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary.write_csv(out / f"table{args.table}.csv")
    summary.write_raw_csv(out / f"table{args.table}_raw.csv")
    (out / f"table{args.table}.txt").write_text(summary.render_text())
    print(summary.render_text(), end="")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_reproduce(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if os.environ.get("ADASPLIT_DEBUG") == "1":
            traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
