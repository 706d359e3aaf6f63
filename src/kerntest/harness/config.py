"""Experiment configuration: dataclass and the key=value file format.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
list-valued fields take comma-separated entries.  Keys mirror the
ExperimentConfig field names (hyphens and underscores interchangeable).
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from ..errors import ConfigError
from .generators import GENERATORS

EXPERIMENTS = ("calibrate", "power", "rate_scaling", "constraint_sweep")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a test template, a data-generating process, a grid."""

    experiment: str
    framework: str
    sample_sizes: tuple[int, ...]
    trials: int
    generator: str = ""
    alpha: float = 0.05
    replicates: int = 99
    method: str | None = None
    seed: int = 0
    kernel: str = "gaussian"
    bandwidth: str = "median"
    imq_exponent: float = 0.75
    dimension: int = 1
    shift: float = 0.0
    rho: float = 0.0
    scale: float = 1.0
    df: float = 5.0
    adapt: str = "none"
    nu: float | None = None
    normalized: bool = False
    xi_values: tuple[float, ...] = ()
    r_values: tuple[int, ...] = ()
    blocks: tuple[int, ...] = ()
    design_sizes: tuple[int, ...] = ()
    bisection_steps: int = 8
    power_tolerance: float = 0.05
    shift_bracket: float = 4.0
    output: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.sample_sizes:
            raise ConfigError("sample_sizes must be nonempty")
        if any(n < 4 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be at least 4")
        if self.generator and self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.generator and GENERATORS[self.generator][0] != self.framework:
            raise ConfigError(f"generator {self.generator!r} draws data for {GENERATORS[self.generator][0]} tests")
        if self.experiment == "rate_scaling" and self.framework == "ksd":
            raise ConfigError("rate_scaling is implemented for the mmd and hsic frameworks")
        if self.experiment == "rate_scaling" and len(set(self.sample_sizes)) < 2:
            raise ConfigError("rate_scaling fits a slope and needs at least two distinct sample sizes")
        if self.experiment == "rate_scaling" and not 0.0 < self.shift_bracket < math.inf:
            raise ConfigError("shift_bracket must be positive and finite")

    def resolved_generator(self) -> str:
        if self.generator:
            return self.generator
        return {
            "mmd": "gaussian_mean_shift",
            "hsic": "correlated_gaussian_pairs",
            "ksd": "gaussian_model_sample",
        }[self.framework]


_LIST_INT = {"sample_sizes", "r_values", "blocks", "design_sizes"}
_LIST_FLOAT = {"xi_values"}
_INT = {"trials", "replicates", "seed", "dimension", "bisection_steps"}
_FLOAT = {"alpha", "imq_exponent", "shift", "rho", "scale", "df", "nu", "power_tolerance", "shift_bracket"}
_BOOL = {"normalized"}
_STR = {"experiment", "framework", "method", "kernel", "bandwidth", "generator", "adapt", "output"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _LIST_INT:
            return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
        if key in _LIST_FLOAT:
            return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
        if key in _INT:
            return int(raw)
        if key in _FLOAT:
            return float(raw)
        if key in _BOOL:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from None


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: config file not found")
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _LIST_INT | _LIST_FLOAT | _INT | _FLOAT | _BOOL | _STR:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    missing = [k for k in ("experiment", "framework", "sample_sizes", "trials") if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    return ExperimentConfig(**values)


def config_echo(config: ExperimentConfig) -> dict:
    """JSON-friendly echo of the configuration, fields in declaration order."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        out[field.name] = list(value) if isinstance(value, tuple) else value
    # xi = inf (no privacy noise) is echoed as null, as in test results
    out["xi_values"] = [None if math.isinf(v) else v for v in config.xi_values]
    return out
