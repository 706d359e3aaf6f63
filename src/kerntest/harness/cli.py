"""Command-line interface.

Subcommands::

    kerntest test two-sample   --x X.csv --y Y.csv [options]
    kerntest test independence --paired Z.csv --split K [options]
    kerntest test gof          --sample X.csv --score SPEC [options]
    kerntest experiment run    --config FILE [--output PATH]

Test results are emitted as a single JSON object.  Exit codes: 0 on
completion (whatever the decision), 2 on usage/configuration errors,
3 on data errors.  All output fields except ``timing_ms`` are
deterministic functions of the invocation and the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from ..errors import ConfigError, DataError
from ..kernels import FAMILIES
from . import io as hio
from .config import parse_config_file
from .experiments import report_json, run_experiment
from .run import ADAPT_CHOICES, METHOD_NAMES, TestSetup, execute, validate_setup

USAGE_EXIT = 2
DATA_EXIT = 3


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=FAMILIES, default="gaussian")
    parser.add_argument("--bandwidth", default="median", help="median | FLOAT | grid:N")
    parser.add_argument("--imq-exponent", type=float, default=0.75)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--replicates", type=int, default=199)
    parser.add_argument("--method", choices=tuple(METHOD_NAMES), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--design-size", type=int, default=None)
    parser.add_argument("--adapt", choices=ADAPT_CHOICES, default="none")
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--normalized", action="store_true")
    parser.add_argument("--dp-epsilon", type=float, default=None)
    parser.add_argument("--dp-delta", type=float, default=0.0)
    parser.add_argument("--robust-r", type=int, default=None)
    parser.add_argument("--output", default="-")


def positive_int(text: str) -> int:
    """An integer flag that no data can make valid below one (``--split``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kerntest", description="Kernel hypothesis tests")
    top = parser.add_subparsers(dest="command", required=True)

    test = top.add_parser("test", help="run one calibrated test on CSV data")
    kinds = test.add_subparsers(dest="kind", required=True)

    two = kinds.add_parser("two-sample", help="MMD two-sample test")
    two.add_argument("--x", required=True, help="CSV of the first sample")
    two.add_argument("--y", required=True, help="CSV of the second sample")
    _add_test_flags(two)

    ind = kinds.add_parser("independence", help="HSIC independence test")
    ind.add_argument("--paired", required=True, help="CSV of paired rows [X | Y]")
    ind.add_argument("--split", type=positive_int, required=True, help="number of X columns")
    _add_test_flags(ind)

    gof = kinds.add_parser("gof", help="KSD goodness-of-fit test")
    gof.add_argument("--sample", required=True, help="CSV of the sample")
    gof.add_argument("--score", required=True, help="gaussian | student-t:NU | file:PATH")
    _add_test_flags(gof)

    exp = top.add_parser("experiment", help="seeded experiment harness")
    actions = exp.add_subparsers(dest="action", required=True)
    runp = actions.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--output", default=None, help="overrides the config's output path")
    return parser


def _setup_from_args(args: argparse.Namespace, framework: str) -> TestSetup:
    # every test flag but --kernel is named after its TestSetup field
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(TestSetup) if hasattr(args, f.name)}
    return TestSetup(framework=framework, kernel_family=args.kernel, **flags)


def _load(args: argparse.Namespace):
    if args.kind == "two-sample":
        return hio.load_dataset("two_csv", x=args.x, y=args.y)
    if args.kind == "independence":
        return hio.load_dataset("paired_csv", paired=args.paired, split=args.split)
    return hio.load_dataset("model_csv_with_scores", sample=args.sample, score=args.score)


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _run_test(args: argparse.Namespace) -> int:
    framework = {"two-sample": "mmd", "independence": "hsic", "gof": "ksd"}[args.kind]
    setup = _setup_from_args(args, framework)
    validate_setup(setup)  # before any data is read
    data = _load(args)
    start = time.perf_counter()
    result = execute(setup, data)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    payload = result.to_json_dict()
    payload["timing_ms"] = round(elapsed_ms, 3)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config)
    report = run_experiment(config)
    _emit(report_json(report), args.output or config.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        if args.command == "test":
            return _run_test(args)
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
