"""Seeded experiment runner: calibration, power, rate scaling, constraint sweeps.

Each cell of the experiment grid runs ``trials`` independent tests.  The
data seed and the test seed of trial ``t`` in a grid are derived from
(master seed, sample-size index, t) only, never from the constraint axes,
so sweeps over xi / r / blocks see matched data and replicate draws.

Reports are pure functions of (config, seed) except for the wall-clock
fields, which are measured.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from ..errors import ConfigError, reported_as
from ..resampling import TAG_CELL
from .config import ExperimentConfig, config_echo
from .generators import GENERATORS, builtin_generator, generator_params
from .run import TestSetup, execute, validate_setup

_POWER_TARGET = 0.5


def _derive_seed(master: int, *parts: int) -> int:
    seq = np.random.SeedSequence((int(master), TAG_CELL, *[int(p) for p in parts]))
    return int(seq.generate_state(1, np.uint64)[0])


def _generator_params(config: ExperimentConfig, size: int, knob: float | None = None) -> tuple[str, dict]:
    """The config's values of its generator's parameters; the knob, when
    given, replaces the alternative's magnitude (shift or rho)."""
    name = config.resolved_generator()
    values = {
        "m": size, "n": size, "dim": config.dimension, "scale": config.scale, "df": config.df,
        "shift": config.shift if knob is None else knob,
        "rho": config.rho if knob is None else knob,
    }
    return name, {key: value for key, value in values.items() if key in GENERATORS[name][1]}


def _setup_for(config: ExperimentConfig, seed: int, cell: dict) -> TestSetup:
    xi = cell.get("xi")
    return TestSetup(
        framework=config.framework,
        kernel_family=config.kernel,
        bandwidth=config.bandwidth,
        imq_exponent=config.imq_exponent,
        alpha=config.alpha,
        replicates=config.replicates,
        method=config.method,
        seed=seed,
        blocks=cell.get("blocks"),
        design_size=cell.get("design_size"),
        adapt=config.adapt,
        nu=config.nu,
        normalized=config.normalized,
        dp_epsilon=xi if xi is not None else None,  # delta = 0 makes xi = epsilon
        dp_delta=0.0,
        robust_r=cell.get("r"),
    )


def _run_trials(config: ExperimentConfig, cell: dict, size_index: int, knob: float | None = None) -> dict:
    size = cell["sample_size"]
    rejects = 0
    stat_sum = 0.0
    thr_sum = 0.0
    for trial in range(config.trials):
        data_seed = _derive_seed(config.seed, size_index, trial, 0)
        test_seed = _derive_seed(config.seed, size_index, trial, 1)
        name, params = _generator_params(config, size, knob)
        data = builtin_generator(name, params, data_seed)
        result = execute(_setup_for(config, test_seed, cell), data)
        rejects += int(result.reject)
        stat_sum += result.statistic
        thr_sum += result.threshold
    rate = rejects / config.trials
    return {
        "rejection_rate": rate,
        "rejection_se": math.sqrt(rate * (1.0 - rate) / config.trials),
        "mean_statistic": stat_sum / config.trials,
        "mean_threshold": thr_sum / config.trials,
    }


def _grid(config: ExperimentConfig) -> list[dict]:
    axes = [("xi", config.xi_values), ("r", config.r_values),
            ("blocks", config.blocks), ("design_size", config.design_sizes)]
    cells: list[dict] = []
    for si, size in enumerate(config.sample_sizes):
        combos: list[dict] = [{}]
        for key, values in axes:
            if not values:
                continue
            combos = [{**c, key: v} for c in combos for v in values]
        for combo in combos:
            cells.append({"sample_size": size, "_size_index": si, **combo})
    return cells


def _cell_echo(cell: dict) -> dict:
    # xi = inf (no privacy noise) is echoed as null, as in test results
    return {k: None if k == "xi" and math.isinf(v) else v for k, v in cell.items() if not k.startswith("_")}


def _frequency_experiment(config: ExperimentConfig) -> dict:
    cells = []
    for index, cell in enumerate(_grid(config)):
        start = time.perf_counter()
        summary = _run_trials(config, cell, cell["_size_index"])
        cells.append({
            **_cell_echo(cell),
            "trials": config.trials,
            **summary,
            "wall_clock_ms": 1e3 * (time.perf_counter() - start),
        })
    return {"cells": cells}


def _knob_name(config: ExperimentConfig) -> str:
    return "rho" if config.resolved_generator() == "correlated_gaussian_pairs" else "shift"


def _knob_cap(config: ExperimentConfig) -> float:
    return 0.99 if _knob_name(config) == "rho" else math.inf


def _power_at(config: ExperimentConfig, cell: dict, knob: float) -> float:
    return _run_trials(config, cell, cell["_size_index"], knob=knob)["rejection_rate"]


def _detectable_knob(config: ExperimentConfig, cell: dict) -> float:
    """Alternative magnitude reaching power ~ 1/2, by bisection over the knob."""
    cap = _knob_cap(config)
    hi = min(config.shift_bracket, cap)
    for _ in range(3):
        if _power_at(config, cell, hi) >= _POWER_TARGET or hi >= cap:
            break
        hi = min(2.0 * hi, cap)
    lo = 0.0
    for _ in range(config.bisection_steps):
        mid = 0.5 * (lo + hi)
        power = _power_at(config, cell, mid)
        if abs(power - _POWER_TARGET) <= config.power_tolerance:
            return mid
        if power < _POWER_TARGET:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fit_slope(log_n: np.ndarray, log_shift: np.ndarray) -> dict:
    slope, intercept = np.polyfit(log_n, log_shift, 1)
    fitted = slope * log_n + intercept
    residual = log_shift - fitted
    dof = max(log_n.size - 2, 1)
    var = float(residual @ residual) / dof
    sxx = float(((log_n - log_n.mean()) ** 2).sum())
    se = math.sqrt(var / sxx)
    return {
        "estimate": float(slope),
        "intercept": float(intercept),
        "stderr": se,
        "ci_low": float(slope - 1.96 * se),
        "ci_high": float(slope + 1.96 * se),
    }


def _rate_scaling_experiment(config: ExperimentConfig) -> dict:
    cells = []
    points = []
    for cell in _grid(config):
        start = time.perf_counter()
        knob = _detectable_knob(config, cell)
        power = _power_at(config, cell, knob)
        points.append((cell["sample_size"], knob))
        cells.append({
            **_cell_echo(cell),
            "trials": config.trials,
            "detectable_" + _knob_name(config): knob,
            "power_at_detectable": power,
            "wall_clock_ms": 1e3 * (time.perf_counter() - start),
        })
    log_n = np.log(np.array([n for n, _ in points], dtype=float))
    log_s = np.log(np.maximum(np.array([s for _, s in points]), 1e-12))
    return {"cells": cells, "slope": {**_fit_slope(log_n, log_s),
                                      "points": [{"sample_size": n, _knob_name(config): s} for n, s in points]}}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured experiment and return the report dictionary; every
    grid cell and every sample size's generator are checked before any draw."""
    for cell in _grid(config):
        validate_setup(_setup_for(config, 0, cell))
    with reported_as(ConfigError):
        for size in config.sample_sizes:
            generator_params(*_generator_params(config, size))
    if config.experiment == "rate_scaling":
        body = _rate_scaling_experiment(config)
    else:
        body = _frequency_experiment(config)
    return {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config_echo(config),
        **body,
    }


def report_json(report: dict) -> str:
    """Canonical JSON serialisation; reparse-and-reemit is the identity."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
