"""Shared test assembly: flag coherence checks, kernel resolution, dispatch.

Both the command line and the experiment runner reduce a test request to
a TestSetup, validate it before touching any data, then execute it on a
loaded or generated dataset.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..adaptive import (
    KernelCollection,
    PoolConfig,
    aggregated_test,
    bonferroni_feasible,
    pooled_test,
)
from ..constrained import PrivacyParams, RobustParams, dp_test, robust_test
from ..errors import ConfigError
from ..kernels import KernelSpec, bandwidth_grid, median_heuristic
from ..resampling import ReplicateSpec, TestResult
from ..statistics import ModelSampleData, PairedData, TwoSampleData
from ..testing import goodness_of_fit_test, independence_test, two_sample_test

ADAPT_CHOICES = ("none", "agg", "pool:mean", "pool:max", "pool:fuse")


@dataclasses.dataclass(frozen=True)
class TestSetup:
    """A fully specified test request, independent of the data source."""

    framework: str
    kernel_family: str = "gaussian"
    bandwidth: str = "median"
    imq_exponent: float = 0.75
    alpha: float = 0.05
    replicates: int = 199
    method: str | None = None
    seed: int = 0
    blocks: int | None = None
    design_size: int | None = None
    adapt: str = "none"
    nu: float | None = None
    normalized: bool = False
    dp_epsilon: float | None = None
    dp_delta: float = 0.0
    robust_r: int | None = None


def _parse_bandwidth(raw: str) -> tuple[str, float | int | None]:
    """Classify a --bandwidth value: ('median', None), ('grid', N) or ('fixed', value)."""
    if raw == "median":
        return "median", None
    if raw.startswith("grid:"):
        try:
            count = int(raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"invalid bandwidth grid size in {raw!r}") from None
        if count < 1:
            raise ConfigError("bandwidth grid size must be at least 1")
        return "grid", count
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"invalid bandwidth {raw!r}: use 'median', a number, or 'grid:N'") from None
    if not value > 0:
        raise ConfigError("bandwidth must be positive")
    return "fixed", value


def resolve_method(setup: TestSetup) -> str:
    if setup.method is not None:
        return setup.method
    if setup.framework == "ksd":
        return "wild_bootstrap"
    if setup.blocks is not None or setup.design_size is not None:
        return "wild_bootstrap"
    return "permutation"


def validate_setup(setup: TestSetup) -> None:
    """Reject incoherent flag combinations before any computation."""
    if setup.framework not in ("mmd", "hsic", "ksd"):
        raise ConfigError(f"unknown framework {setup.framework!r}")
    if not (0.0 < setup.alpha < 1.0):
        raise ConfigError("alpha must lie in (0, 1)")
    if setup.replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if setup.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if setup.adapt not in ADAPT_CHOICES:
        raise ConfigError(f"unknown adaptivity mode {setup.adapt!r}")
    mode, grid_size = _parse_bandwidth(setup.bandwidth)
    method = resolve_method(setup)
    if method not in ("permutation", "wild_bootstrap"):
        raise ConfigError(f"unknown method {setup.method!r}")
    constrained = setup.dp_epsilon is not None or setup.robust_r is not None

    if setup.framework == "ksd":
        if method == "permutation":
            raise ConfigError("goodness-of-fit testing has no permutation method; use --method wild")
        if constrained:
            raise ConfigError("private/robust testing is not available for the KSD framework")
    if setup.blocks is not None and setup.design_size is not None:
        raise ConfigError("--blocks and --design-size are mutually exclusive")
    if (setup.blocks is not None or setup.design_size is not None) and method != "wild_bootstrap":
        raise ConfigError("block/incomplete statistics require --method wild")
    if setup.blocks is not None and setup.blocks < 1:
        raise ConfigError("--blocks must be at least 1")
    if setup.design_size is not None and setup.design_size < 1:
        raise ConfigError("--design-size must be at least 1")
    if constrained:
        if method != "permutation":
            raise ConfigError("private/robust tests are permutation-based; drop --method wild")
        if setup.adapt == "agg":
            raise ConfigError("aggregation under privacy/robustness constraints is not supported")
        if setup.normalized:
            raise ConfigError("normalised pooling is not supported under privacy/robustness constraints")
        if setup.blocks is not None or setup.design_size is not None:
            raise ConfigError("block/incomplete statistics are not supported under constraints")
    if setup.dp_epsilon is not None and not setup.dp_epsilon > 0:
        raise ConfigError("--dp-epsilon must be positive (inf allowed)")
    if not (0.0 <= setup.dp_delta < 1.0):
        raise ConfigError("--dp-delta must lie in [0, 1)")
    if setup.dp_delta > 0.0 and setup.dp_epsilon is None:
        raise ConfigError("--dp-delta requires --dp-epsilon")
    if setup.robust_r is not None and setup.robust_r < 0:
        raise ConfigError("--robust-r must be nonnegative")
    if setup.adapt == "none":
        if mode == "grid":
            raise ConfigError("a bandwidth grid needs an adaptive mode (--adapt agg or pool:*)")
        if setup.nu is not None:
            raise ConfigError("--nu only applies to fuse pooling")
        if setup.normalized:
            raise ConfigError("--normalized only applies to pooled tests")
    elif setup.adapt == "agg":
        count = grid_size if mode == "grid" else 1
        if setup.framework == "hsic":
            count *= count  # one kernel pair per (x, y) grid point
        if not bonferroni_feasible(setup.replicates, setup.alpha, count):
            raise ConfigError(
                f"--adapt agg needs (replicates+1) * alpha / |K| >= 1: got {setup.replicates} "
                f"replicates for alpha={setup.alpha}, |K|={count}"
            )
        if setup.nu is not None:
            raise ConfigError("--nu only applies to fuse pooling")
        if setup.normalized:
            raise ConfigError("--normalized only applies to pooled tests")
    elif setup.adapt in ("pool:mean", "pool:max") and setup.nu is not None:
        raise ConfigError("--nu only applies to fuse pooling")
    if not (0.5 < setup.imq_exponent < 1.0):
        raise ConfigError("imq exponent must lie strictly in (1/2, 1)")


def _make_spec(setup: TestSetup, bandwidth: float) -> KernelSpec:
    if setup.kernel_family == "imq":
        return KernelSpec("imq", bandwidth, imq_exponent=setup.imq_exponent)
    return KernelSpec(setup.kernel_family, bandwidth)


def _resolve_kernels(setup: TestSetup, data) -> KernelCollection:
    """Turn the bandwidth request into a kernel collection: one spec (or
    HSIC pair) for a fixed or median bandwidth, one per grid point otherwise."""
    mode, value = _parse_bandwidth(setup.bandwidth)

    def bandwidths(points):
        if mode == "fixed":
            return (value,)
        if mode == "median":
            return (median_heuristic(points),)
        return bandwidth_grid(points, value)

    if setup.framework == "hsic":
        grid_x = bandwidths(data.x_part)
        grid_y = bandwidths(data.y_part)
        return KernelCollection(
            tuple((_make_spec(setup, bx), _make_spec(setup, by)) for bx in grid_x for by in grid_y)
        )
    points = np.vstack([data.x, data.y]) if isinstance(data, TwoSampleData) else data.x
    return KernelCollection(tuple(_make_spec(setup, b) for b in bandwidths(points)))


def execute(setup: TestSetup, data) -> TestResult:
    """Run the configured test on a loaded dataset."""
    validate_setup(setup)
    method = resolve_method(setup)
    rep = ReplicateSpec(count=setup.replicates, method=method, seed=setup.seed)
    collection = _resolve_kernels(setup, data)
    privacy = None
    if setup.dp_epsilon is not None:
        privacy = PrivacyParams(setup.dp_epsilon, setup.dp_delta)
    robust = RobustParams(setup.robust_r) if setup.robust_r is not None else None

    if privacy is not None or robust is not None:
        pool_config = None
        kernels = collection.kernels[0]
        if setup.adapt.startswith("pool:"):
            pool_config = PoolConfig(method=setup.adapt.split(":", 1)[1], nu=setup.nu)
            kernels = collection
        if privacy is not None:
            return dp_test(data, kernels, setup.alpha, privacy, rep, pool_config=pool_config, robust=robust)
        return robust_test(data, kernels, setup.alpha, robust, rep, pool_config=pool_config)

    if setup.adapt == "agg":
        return aggregated_test(
            data, collection, rep, setup.alpha, blocks=setup.blocks, design_size=setup.design_size
        )
    if setup.adapt.startswith("pool:"):
        config = PoolConfig(
            method=setup.adapt.split(":", 1)[1], nu=setup.nu, normalized=setup.normalized
        )
        return pooled_test(
            data, collection, config, rep, setup.alpha,
            blocks=setup.blocks, design_size=setup.design_size,
        )

    entry = collection.kernels[0]
    if isinstance(data, TwoSampleData):
        return two_sample_test(
            data, None, entry, alpha=setup.alpha, replicates=setup.replicates,
            method=method, seed=setup.seed, blocks=setup.blocks, design_size=setup.design_size,
        )
    if isinstance(data, PairedData):
        kx, ky = entry
        return independence_test(
            data, kx, ky, alpha=setup.alpha, replicates=setup.replicates,
            method=method, seed=setup.seed, blocks=setup.blocks, design_size=setup.design_size,
        )
    assert isinstance(data, ModelSampleData)
    return goodness_of_fit_test(
        data, None, entry, alpha=setup.alpha, replicates=setup.replicates,
        seed=setup.seed, blocks=setup.blocks, design_size=setup.design_size,
    )
