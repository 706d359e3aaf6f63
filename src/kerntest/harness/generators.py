"""Seeded desk-scale data generators for the experiment harness.

All generators are deterministic functions of (name, params, seed).  The
alternative families are Gaussian: a mean shift along the first
coordinate for two-sample and goodness-of-fit data, a per-coordinate
correlation for paired data, and a scale change as a second two-sample
alternative.  Their null settings are shift=0, rho=0 and scale=1.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import standard_gaussian_score, student_t_score
from ..resampling import TAG_DATA, stream
from ..statistics import ModelSampleData, PairedData, TwoSampleData

# each generator's framework, and its parameters with their defaults (None
# marks a required one)
GENERATORS = {
    "gaussian_mean_shift": ("mmd", {"m": None, "n": None, "dim": 1, "shift": 0.0}),
    "gaussian_scale": ("mmd", {"m": None, "n": None, "dim": 1, "scale": 1.0}),
    "correlated_gaussian_pairs": ("hsic", {"n": None, "dim": 1, "rho": 0.0}),
    "gaussian_model_sample": ("ksd", {"n": None, "dim": 1, "shift": 0.0}),
    "student_t_model_sample": ("ksd", {"n": None, "dim": 1, "df": 5.0, "shift": 0.0}),
}
GENERATOR_NAMES = tuple(GENERATORS)


def generator_params(name: str, params: dict) -> dict:
    """The parameters ``builtin_generator`` draws with: ``params`` merged
    over the defaults and range-checked, without drawing any data."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choose from {GENERATOR_NAMES}")
    allowed = GENERATORS[name][1]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} for generator {name!r}")
    merged = {**allowed, **params}
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise ValueError(f"generator {name!r} requires parameters {missing}")
    if not all(math.isfinite(float(v)) for v in merged.values()):
        raise ValueError(f"parameters of generator {name!r} must be finite")
    if int(merged["dim"]) < 1:
        raise ValueError("dim must be at least 1")
    if "rho" in merged and not (-1.0 < float(merged["rho"]) < 1.0):
        raise ValueError("rho must lie in (-1, 1)")
    if "scale" in merged and not float(merged["scale"]) > 0:
        raise ValueError("scale must be positive")
    if "df" in merged:
        student_t_score(float(merged["df"]), int(merged["dim"]))  # rejects df <= 0
    return merged


def _shifted(rng: np.random.Generator, n: int, dim: int, shift: float) -> np.ndarray:
    out = rng.normal(size=(n, dim))
    out[:, 0] += shift
    return out


def builtin_generator(name: str, params: dict, seed: int):
    """Build a dataset from a named generator; see GENERATORS."""
    p = generator_params(name, params)
    rng = stream(seed, TAG_DATA, 0)
    n, dim = int(p["n"]), int(p["dim"])
    if name == "gaussian_mean_shift":
        return TwoSampleData(rng.normal(size=(int(p["m"]), dim)), _shifted(rng, n, dim, float(p["shift"])))
    if name == "gaussian_scale":
        return TwoSampleData(
            rng.normal(size=(int(p["m"]), dim)), float(p["scale"]) * rng.normal(size=(n, dim))
        )
    if name == "correlated_gaussian_pairs":
        rho = float(p["rho"])
        x = rng.normal(size=(n, dim))
        y = rho * x + np.sqrt(1.0 - rho**2) * rng.normal(size=(n, dim))
        return PairedData.from_parts(x, y)
    if name == "gaussian_model_sample":
        x = _shifted(rng, n, dim, float(p["shift"]))
        return ModelSampleData.from_score_field(x, standard_gaussian_score())
    # student_t_model_sample, the last name generator_params accepts
    df = float(p["df"])
    z = rng.normal(size=(n, dim))
    g = rng.chisquare(df, size=(n, 1))
    x = z / np.sqrt(g / df)
    x[:, 0] += float(p["shift"])
    return ModelSampleData.from_score_field(x, student_t_score(df, dim))
