"""The three workloads: inputs made from the workload seed, the calls that
make up a round, and the correctness check of every output.

A call is one timed call into the program's entry point; a test is one
calibrated test.  ``Mix.call(i)`` gives call ``i`` of the closed loop.
calibrate_small walks fresh experiment cells and adaptive_constrained
fresh datasets (call ``i`` always has the same inputs); oneshot_large
repeats one round of calls on inputs made at set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

ALPHA = 0.05


@dataclasses.dataclass
class Call:
    label: str
    tests: int
    run: Callable[[], object]
    # raw output -> (deterministic JSON text, problems, null trials as (framework, trials, rejects))
    inspect: Callable[[object], tuple[str, list[str], tuple | None]]


@dataclasses.dataclass
class Mix:
    round_len: int
    call: Callable[[int], Call]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _canonical(payload) -> str:
    """Deterministic text of an output; non-finite floats are kept so that
    the digest still covers outputs that fail the strict-JSON check."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_problems(payload: dict, strong_alternative: bool) -> list[str]:
    """Checks every test result must pass."""
    problems = []
    p, stat = payload.get("p_value"), payload.get("statistic")
    if not (isinstance(p, float) and 0.0 < p <= 1.0):
        problems.append(f"p_value {p!r} outside (0, 1]")
    elif payload.get("reject") is not (p <= payload["alpha"]):
        problems.append(f"reject={payload.get('reject')} disagrees with p={p} and alpha={payload['alpha']}")
    if not (isinstance(stat, float) and math.isfinite(stat)):
        problems.append(f"statistic {stat!r} is not finite")
    if strong_alternative and payload.get("reject") is not True:
        problems.append("strong alternative not rejected")
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        problems.append(f"result is not strict JSON: {exc}")
    return problems


# --------------------------------------------------------------------------
# calibrate_small: experiment cells under H0, criterion-1 shapes
# --------------------------------------------------------------------------

CALIBRATE_TRIALS = 4
CALIBRATE_SHAPES = (
    ("mmd", {"sample_sizes": (20,), "dimension": 2, "method": "permutation"}),
    ("hsic", {"sample_sizes": (20,), "dimension": 1, "method": "permutation"}),
    ("ksd", {"sample_sizes": (200,), "dimension": 1, "kernel": "imq", "method": "wild"}),
)
CALIBRATE_ROUND = 4 * len(CALIBRATE_SHAPES)


def _calibrate_small(seed: int, workdir: Path) -> Mix:
    from kerntest.harness import experiments
    from kerntest.harness.config import ExperimentConfig

    trials: list = []
    original_execute = experiments.execute

    def collecting_execute(setup, data):
        result = original_execute(setup, data)
        trials.append(result)
        return result

    # Trial results are collected at the name run_experiment looks up and
    # checked after the call; collecting costs one append per trial.
    experiments.execute = collecting_execute

    def call(index: int) -> Call:
        framework, shape = CALIBRATE_SHAPES[index % len(CALIBRATE_SHAPES)]
        config_seed = int(np.random.SeedSequence((seed, 2, index)).generate_state(1)[0] >> 1)
        config = ExperimentConfig(
            experiment="calibrate", framework=framework, trials=CALIBRATE_TRIALS,
            replicates=99, alpha=ALPHA, bandwidth="median", seed=config_seed, **shape,
        )

        def run():
            trials.clear()
            report = experiments.run_experiment(config)
            return report, list(trials)

        def inspect(raw):
            report, results = raw
            problems = []
            for result in results:
                problems += result_problems(result.to_json_dict(), strong_alternative=False)
            try:
                json.dumps(report, allow_nan=False)
            except ValueError as exc:
                problems.append(f"report is not strict JSON: {exc}")
            cell = report["cells"][0]
            rejects = sum(int(r.reject) for r in results)
            if len(results) != CALIBRATE_TRIALS or cell["trials"] != CALIBRATE_TRIALS:
                problems.append(f"{len(results)} trials ran, {cell['trials']} reported")
            elif abs(cell["rejection_rate"] * CALIBRATE_TRIALS - rejects) > 1e-9:
                problems.append(f"rejection_rate {cell['rejection_rate']} disagrees with {rejects} rejections")
            for key in ("mean_statistic", "mean_threshold"):
                if not math.isfinite(cell[key]):
                    problems.append(f"{key} {cell[key]!r} is not finite")
            stripped = {**report, "cells": [{k: v for k, v in c.items() if k != "wall_clock_ms"}
                                            for c in report["cells"]]}
            return _canonical(stripped), problems, (framework, CALIBRATE_TRIALS, rejects)

        return Call(f"calibrate/{framework}", CALIBRATE_TRIALS, run, inspect)

    return Mix(CALIBRATE_ROUND, call)


# --------------------------------------------------------------------------
# oneshot_large: in-process CLI on CSVs written at set-up
# --------------------------------------------------------------------------

LARGE_N = 512
LARGE_REPLICATES = 199


def _write_csv(path: Path, matrix: np.ndarray) -> None:
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


def _oneshot_large(seed: int, workdir: Path) -> Mix:
    from kerntest.harness import cli

    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    n = LARGE_N
    files = {}
    for case, shift, rho in (("null", 0.0, 0.0), ("alt", 1.0, 0.8)):
        files[f"mmd_{case}_x"] = rng.normal(size=(n, 50))
        files[f"mmd_{case}_y"] = rng.normal(size=(n, 50)) + shift
        x = rng.normal(size=(n, 25))
        files[f"hsic_{case}"] = np.hstack([x, rho * x + math.sqrt(1.0 - rho**2) * rng.normal(size=(n, 25))])
        files[f"ksd_{case}"] = rng.normal(size=(n, 50)) + shift
    paths = {}
    for name, matrix in files.items():
        paths[name] = workdir / f"{name}.csv"
        _write_csv(paths[name], matrix)

    common = ["--replicates", str(LARGE_REPLICATES), "--bandwidth", "median", "--alpha", str(ALPHA)]
    calls = []
    for index, (kind, case) in enumerate(
        (kind, case)
        for kind in ("mmd_permutation", "mmd_wild", "hsic_permutation", "ksd_wild")
        for case in ("null", "alt")
    ):
        call_seed = str(int(np.random.SeedSequence((seed, 4, index)).generate_state(1)[0] >> 1))
        if kind.startswith("mmd"):
            argv = ["test", "two-sample", "--x", str(paths[f"mmd_{case}_x"]),
                    "--y", str(paths[f"mmd_{case}_y"]), "--method", kind.split("_")[1]]
        elif kind.startswith("hsic"):
            argv = ["test", "independence", "--paired", str(paths[f"hsic_{case}"]), "--split", "25",
                    "--method", "permutation"]
        else:
            argv = ["test", "gof", "--sample", str(paths[f"ksd_{case}"]), "--score", "gaussian",
                    "--kernel", "imq", "--method", "wild"]
        calls.append(_cli_call(cli, f"{kind}/{case}", argv + common + ["--seed", call_seed], case == "alt"))
    return Mix(len(calls), lambda index: calls[index % len(calls)])


def _cli_call(cli, label: str, argv: list[str], strong_alternative: bool) -> Call:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def inspect(raw):
        code, text = raw
        if code != 0:
            return text, [f"exit code {code}"], None
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return text, [f"output is not strict JSON: {exc}"], None
        problems = result_problems(payload, strong_alternative)
        payload.pop("timing_ms", None)
        return _canonical(payload), problems, None

    return Call(label, 1, run, inspect)


# --------------------------------------------------------------------------
# adaptive_constrained: in-process execute on in-memory data
# --------------------------------------------------------------------------


def _adaptive_constrained(seed: int, workdir: Path) -> Mix:
    from kerntest.harness import run
    from kerntest.statistics import TwoSampleData

    common = {"framework": "mmd", "replicates": 499, "alpha": ALPHA}
    kinds = (
        ("agg_permutation", {"bandwidth": "grid:10", "adapt": "agg", "method": "permutation"}),
        ("agg_wild", {"bandwidth": "grid:10", "adapt": "agg", "method": "wild_bootstrap"}),
        ("pool_fuse", {"bandwidth": "grid:10", "adapt": "pool:fuse"}),
        ("dp_pool_fuse", {"bandwidth": "grid:10", "adapt": "pool:fuse", "dp_epsilon": 1.0}),
        ("robust", {"bandwidth": "median", "robust_r": 2}),
    )

    # How long the aggregation search takes depends on the data, so every
    # round runs the five calls on a fresh null dataset: a run averages
    # over many draws instead of resting on a few.  The data of round k is
    # made before its calls are timed.
    @functools.lru_cache(maxsize=2)
    def dataset(k: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 5, k)))
        return TwoSampleData(rng.normal(size=(50, 2)), rng.normal(size=(50, 2)))

    def call(index: int) -> Call:
        label, options = kinds[index % len(kinds)]
        call_seed = int(np.random.SeedSequence((seed, 6, index)).generate_state(1)[0] >> 1)
        setup = run.TestSetup(seed=call_seed, **common, **options)
        return _execute_call(run, label, setup, dataset(index // len(kinds)))

    return Mix(len(kinds), call)


def _execute_call(run, label: str, setup, data) -> Call:
    def call():
        return run.execute(setup, data)

    def inspect(result):
        payload = result.to_json_dict()
        return _canonical(payload), result_problems(payload, strong_alternative=False), None

    return Call(label, 1, call, inspect)


WORKLOADS = {
    "calibrate_small": _calibrate_small,
    "oneshot_large": _oneshot_large,
    "adaptive_constrained": _adaptive_constrained,
}
