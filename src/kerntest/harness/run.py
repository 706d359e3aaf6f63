"""Shared test assembly: flag coherence checks, kernel resolution, dispatch.

Both the command line and the experiment runner reduce a test request to
a TestSetup, validate it before touching any data, then execute it on a
loaded or generated dataset.
"""

from __future__ import annotations

import dataclasses

from ..adaptive import KernelCollection, PoolConfig
from ..constrained import PrivacyParams, RobustParams
from ..errors import ConfigError, DataError, reported_as
from ..kernels import STEIN_FAMILIES, KernelSpec, bandwidth_grid, median_heuristic
from ..resampling import ReplicateSpec, TestResult
from ..testing import AGGREGATE, check_options, run_test

# No function here calls the public tests: execute runs run_test.  They stay
# importable here because perfbench/spans.py TARGETS wraps them by name.
from ..testing import aggregated_test, dp_test, goodness_of_fit_test, independence_test  # noqa: F401
from ..testing import pooled_test, robust_test, two_sample_test  # noqa: F401

ADAPT_CHOICES = ("none", "agg", "pool:mean", "pool:max", "pool:fuse")
# method names of the command line and of config files; the library's own
# names ("wild_bootstrap") are accepted as they are
METHOD_NAMES = {"permutation": "permutation", "wild": "wild_bootstrap"}


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


@dataclasses.dataclass(frozen=True)
class CheckedSetup:
    """The objects a validated TestSetup configures, built before any data."""

    rep: ReplicateSpec
    kernel: KernelSpec  # family and exponent; median and grid bandwidths are set on the data
    bandwidth: tuple[str, float | int | None]  # see _parse_bandwidth
    pool: PoolConfig | None
    privacy: PrivacyParams | None
    robust: RobustParams | None


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
        return "fixed", float(raw)
    except ValueError:
        raise ConfigError(f"invalid bandwidth {raw!r}: use 'median', a number, or 'grid:N'") from None


def resolve_method(setup: TestSetup) -> str:
    if setup.method is not None:
        return METHOD_NAMES.get(setup.method, setup.method)
    if setup.framework == "ksd" or setup.blocks is not None or setup.design_size is not None:
        return "wild_bootstrap"
    return "permutation"


def _kernel_template(setup: TestSetup, bandwidth: float) -> KernelSpec:
    # the IMQ exponent is checked whatever the family, as the flag always is
    imq = KernelSpec("imq", bandwidth, imq_exponent=setup.imq_exponent)
    return imq if setup.kernel_family == "imq" else KernelSpec(setup.kernel_family, bandwidth)


def validate_setup(setup: TestSetup) -> CheckedSetup:
    """Reject incoherent flags before any computation; return what they configure.

    Range rules live in the objects built here (ReplicateSpec, KernelSpec,
    PoolConfig, PrivacyParams, RobustParams) and the rules between options
    in ``testing.check_options``, whose ValueError is reported as a
    ConfigError; the checks below are the rules of flags the library does
    not take.
    """
    with reported_as(ConfigError):
        if setup.adapt not in ADAPT_CHOICES:
            raise ConfigError(f"unknown adaptivity mode {setup.adapt!r}")
        mode, value = _parse_bandwidth(setup.bandwidth)
        if mode == "grid" and setup.adapt == "none":
            raise ConfigError("a bandwidth grid needs an adaptive mode (--adapt agg or pool:*)")
        pooling = setup.adapt.startswith("pool:")
        if (setup.nu is not None or setup.normalized) and not pooling:
            raise ConfigError("--nu and --normalized only apply to pooled tests")
        if setup.dp_delta != 0.0 and setup.dp_epsilon is None:
            raise ConfigError("--dp-delta requires --dp-epsilon")
        rep = ReplicateSpec(count=setup.replicates, method=resolve_method(setup), seed=setup.seed)
        pool = PoolConfig(setup.adapt.split(":", 1)[1], setup.nu, setup.normalized) if pooling else None
        privacy = PrivacyParams(setup.dp_epsilon, setup.dp_delta) if setup.dp_epsilon is not None else None
        robust = RobustParams(setup.robust_r) if setup.robust_r is not None else None
        count = value if mode == "grid" else 1
        check_options(
            setup.framework, rep, setup.alpha,
            kernel_count=count * count if setup.framework == "hsic" else count,  # a pair per (x, y) grid point
            combine=AGGREGATE if setup.adapt == "agg" else pool,
            blocks=setup.blocks, design_size=setup.design_size,
            constrained=privacy is not None or robust is not None,
        )
        kernel = _kernel_template(setup, value if mode == "fixed" else 1.0)
        if setup.framework == "ksd" and kernel.family not in STEIN_FAMILIES:
            raise ConfigError(
                f"the {kernel.family} kernel has no Stein kernel (it is not differentiable); "
                f"goodness-of-fit testing takes --kernel {' or '.join(STEIN_FAMILIES)}"
            )
    return CheckedSetup(rep, kernel, (mode, value), pool, privacy, robust)


def _resolve_kernels(setup: TestSetup, checked: CheckedSetup, data) -> KernelCollection:
    """Turn the bandwidth request into a kernel collection: one spec (or
    HSIC pair) for a fixed or median bandwidth, one per grid point otherwise."""
    mode, value = checked.bandwidth

    def specs(distances):
        if mode == "fixed":
            return (checked.kernel,)
        if mode == "median":
            bandwidths = (median_heuristic(distances),)
        else:
            bandwidths = bandwidth_grid(distances, value)
        return tuple(dataclasses.replace(checked.kernel, bandwidth=b) for b in bandwidths)

    # the bandwidth rule reads the distances the engines' grams are made from
    if setup.framework == "hsic":
        x_specs, y_specs = specs(data.x_distances), specs(data.y_distances)
        return KernelCollection(tuple((kx, ky) for kx in x_specs for ky in y_specs))
    return KernelCollection(specs(data.distances))


def execute(setup: TestSetup, data) -> TestResult:
    """Run the configured test on a loaded dataset.

    The setup is validated first (ConfigError).  A ValueError of the
    library after that is a mismatch between the setup and the data, such
    as a wild-bootstrap MMD with m != n, and is raised as a DataError.
    """
    checked = validate_setup(setup)
    with reported_as(DataError):
        return run_test(
            data, _resolve_kernels(setup, checked, data), checked.rep, setup.alpha,
            combine=AGGREGATE if setup.adapt == "agg" else checked.pool,
            blocks=setup.blocks, design_size=setup.design_size, privacy=checked.privacy, robust=checked.robust,
        )
