"""Single-kernel MMD, HSIC and KSD tests.

Two calibration routes are exposed:

* ``method="permutation"`` (two-sample and independence only): the
  statistic, by default the square-rooted V-statistic, is recomputed on
  uniformly permuted data; level control is non-asymptotic.
* ``method="wild_bootstrap"``: the design-averaged core statistic is
  recomputed under Rademacher sign flips.  For the MMD with m = n and
  for the HSIC with N even this coincides with a subgroup of
  permutations, so the level guarantee is again non-asymptotic; for the
  KSD (the only route available) it is asymptotic.

Block and incomplete designs are wild-bootstrap-only: a permuted
incomplete statistic would need core values outside the design.
"""

from __future__ import annotations

import numpy as np

from .engines import collection_replicates, framework_of
from .kernels import KernelSpec, ScoreField
from .resampling import ReplicateSpec, TestResult, test_decision
from .statistics import DesignSet, ModelSampleData, PairedData, TwoSampleData


def resolve_design(data, method: str, blocks: int | None, design_size: int | None) -> DesignSet | None:
    """The design a test averages its wild-bootstrap core over; None means
    all off-diagonal pairs.

    The wild core has one row per MMD pair (m), per HSIC half-split block
    (N/2) or per KSD sample point (n).
    """
    if blocks is None and design_size is None:
        return None
    if method != "wild_bootstrap":
        raise ValueError("block/incomplete statistics require the wild bootstrap")
    if blocks is not None and design_size is not None:
        raise ValueError("blocks and design_size are mutually exclusive")
    framework = framework_of(data)
    n = data.m if framework == "mmd" else (data.n // 2 if framework == "hsic" else data.n)
    if blocks is not None:
        return DesignSet.block(n, blocks)
    return DesignSet.incomplete(n, design_size)


def _collection_descriptions(framework: str, entries) -> tuple:
    """One description per kernel spec; an x and a y description per HSIC pair."""
    if framework != "hsic":
        return tuple(spec.describe() for spec in entries)
    return tuple(
        {**spec.describe(), "component": component} for pair in entries for spec, component in zip(pair, "xy")
    )


def _single_test(
    data,
    entry,
    *,
    alpha: float,
    replicates: int,
    method: str,
    seed: int,
    statistic: str | None,
    blocks: int | None,
    design_size: int | None,
) -> TestResult:
    framework = framework_of(data)
    rep = ReplicateSpec(count=replicates, method=method, seed=seed)
    design = resolve_design(data, method, blocks, design_size)
    values = collection_replicates(data, [entry], rep, statistic=statistic, design=design)
    return test_decision(
        values[0, 0],
        values[0, 1:],
        alpha,
        framework=framework,
        method=method,
        seed=seed,
        kernels=_collection_descriptions(framework, [entry]),
    )


def two_sample_test(
    x,
    y,
    kernel: KernelSpec,
    *,
    alpha: float = 0.05,
    replicates: int = 199,
    method: str = "permutation",
    seed: int = 0,
    statistic: str | None = None,
    blocks: int | None = None,
    design_size: int | None = None,
) -> TestResult:
    """MMD two-sample test of H0: the two samples share one distribution."""
    data = x if isinstance(x, TwoSampleData) else TwoSampleData(x, y)
    return _single_test(
        data,
        kernel,
        alpha=alpha,
        replicates=replicates,
        method=method,
        seed=seed,
        statistic=statistic,
        blocks=blocks,
        design_size=design_size,
    )


def independence_test(
    data: PairedData,
    kernel_x: KernelSpec,
    kernel_y: KernelSpec,
    *,
    alpha: float = 0.05,
    replicates: int = 199,
    method: str = "permutation",
    seed: int = 0,
    statistic: str | None = None,
    blocks: int | None = None,
    design_size: int | None = None,
) -> TestResult:
    """HSIC independence test of H0: the pair components are independent."""
    return _single_test(
        data,
        (kernel_x, kernel_y),
        alpha=alpha,
        replicates=replicates,
        method=method,
        seed=seed,
        statistic=statistic,
        blocks=blocks,
        design_size=design_size,
    )


def goodness_of_fit_test(
    x,
    score,
    kernel: KernelSpec,
    *,
    alpha: float = 0.05,
    replicates: int = 199,
    seed: int = 0,
    blocks: int | None = None,
    design_size: int | None = None,
) -> TestResult:
    """KSD goodness-of-fit test of H0: the sample follows the score's model.

    ``score`` is a ScoreField, an array of precomputed score values, or a
    ready ModelSampleData.  Only the wild bootstrap applies here; its
    level control is asymptotic.
    """
    if isinstance(x, ModelSampleData):
        data = x
    elif isinstance(score, ScoreField):
        data = ModelSampleData.from_score_field(x, score)
    else:
        data = ModelSampleData(x, np.asarray(score, dtype=float))
    return _single_test(
        data,
        kernel,
        alpha=alpha,
        replicates=replicates,
        method="wild_bootstrap",
        seed=seed,
        statistic=None,
        blocks=blocks,
        design_size=design_size,
    )
