"""The test pipeline, ``run_test``, and the seven public tests that wrap it.

Every test, single-kernel, pooled, aggregated, private or robust, and the
harness's ``execute`` run the same steps: ``check_options`` (the rules
between options, which need no data) -> the design -> the (K, B + 1)
replicate values, column 0 the original's -> pool (``adaptive._pooled``)
or aggregate (``adaptive._aggregate_decide``, which also decides) ->
privacy noise and the robust shift (``constrained._constrain``) -> the
decision.  Two calibration routes are exposed:

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

from .adaptive import (
    AggregatedTestResult,
    KernelCollection,
    PoolConfig,
    _aggregate_decide,
    _collection_descriptions,
    _pooled,
    bonferroni_feasible,
)
from .constrained import PrivacyParams, RobustParams, Sensitivity, _constrain
from .engines import collection_replicates, framework_of, resolve_design
from .kernels import KernelSpec, ScoreField
from .resampling import ReplicateSpec, TestResult, check_alpha, test_decision
from .statistics import FRAMEWORKS, ModelSampleData, PairedData, TwoSampleData

# the combine step that aggregates; a PoolConfig pools, None takes one kernel
AGGREGATE = "agg"


def check_options(
    framework: str,
    rep: ReplicateSpec,
    alpha: float,
    *,
    kernel_count: int = 1,
    combine: PoolConfig | str | None = None,
    statistic: str | None = None,
    blocks: int | None = None,
    design_size: int | None = None,
    constrained: bool = False,
) -> None:
    """Raise ValueError for options no data can make valid; ``combine`` is
    a PoolConfig, ``AGGREGATE`` or None.  The constraint rules come first,
    so that a private KSD test is refused for what it is."""
    if framework not in FRAMEWORKS:
        raise ValueError(f"unknown framework {framework!r}")
    check_alpha(alpha)
    designed = blocks is not None or design_size is not None
    if constrained:
        if framework == "ksd":
            raise ValueError(
                "private and robust KSD tests are not available: goodness-of-fit "
                "testing cannot be framed as testing exchangeability"
            )
        if rep.method != "permutation":
            raise ValueError("private/robust tests are permutation-based")
        if combine == AGGREGATE:
            raise ValueError("aggregation under privacy/robustness constraints is not supported")
        if isinstance(combine, PoolConfig) and combine.normalized:
            raise ValueError("normalised pooling is data-dependent and not supported under constraints")
        if designed:
            raise ValueError("block/incomplete statistics are not supported under constraints")
    if framework == "ksd" and rep.method == "permutation":
        raise ValueError("goodness-of-fit testing has no permutation method; use the wild bootstrap")
    if blocks is not None and design_size is not None:
        raise ValueError("blocks and design_size are mutually exclusive")
    if designed and rep.method != "wild_bootstrap":
        raise ValueError("block/incomplete statistics require the wild bootstrap")
    if (blocks is not None and blocks < 1) or (design_size is not None and design_size < 1):
        raise ValueError("blocks and design_size must be at least 1")
    if statistic is not None and rep.method == "wild_bootstrap":
        raise ValueError("wild-bootstrap statistics are design means; the statistic kind is not configurable")
    if combine is None and kernel_count > 1:
        raise ValueError("a kernel collection requires a pooling configuration or aggregation")
    if combine == AGGREGATE and not bonferroni_feasible(rep.count, alpha, kernel_count):
        raise ValueError(
            f"need (replicates+1) * alpha / |K| >= 1 for the Bonferroni level: "
            f"got {rep.count} replicates for alpha={alpha}, |K|={kernel_count}"
        )


def run_test(
    data,
    collection: KernelCollection,
    rep: ReplicateSpec,
    alpha: float,
    *,
    combine: PoolConfig | str | None = None,
    statistic: str | None = None,
    blocks: int | None = None,
    design_size: int | None = None,
    privacy: PrivacyParams | None = None,
    robust: RobustParams | None = None,
    sensitivity: Sensitivity | None = None,
) -> TestResult:
    """One calibrated test of ``data`` over ``collection``, in the steps of
    the module docstring; ``sensitivity`` overrides the closed-form Delta."""
    framework = framework_of(data)
    constrained = privacy is not None or robust is not None
    check_options(
        framework, rep, alpha, kernel_count=collection.size, combine=combine, statistic=statistic,
        blocks=blocks, design_size=design_size, constrained=constrained,
    )
    design = resolve_design(data, blocks, design_size)
    values = collection_replicates(data, list(collection.kernels), rep, statistic=statistic, design=design)
    if combine == AGGREGATE:
        return _aggregate_decide(values, alpha, framework, rep, collection)
    stats = values[0] if combine is None else _pooled(values, combine, data, collection)
    shift, meta = 0.0, None
    if constrained:
        stats, shift, meta = _constrain(stats, framework, data, collection, rep.seed, privacy, robust, sensitivity)
    return test_decision(
        stats[0], stats[1:], alpha, threshold_shift=shift, framework=framework, method=rep.method, seed=rep.seed,
        kernels=_collection_descriptions(framework, collection.kernels), constraint=meta,
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
    rep = ReplicateSpec(count=replicates, method=method, seed=seed)
    return run_test(
        data, KernelCollection((kernel,)), rep, alpha, statistic=statistic, blocks=blocks, design_size=design_size
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
    rep = ReplicateSpec(count=replicates, method=method, seed=seed)
    return run_test(
        data, KernelCollection(((kernel_x, kernel_y),)), rep, alpha,
        statistic=statistic, blocks=blocks, design_size=design_size,
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
    rep = ReplicateSpec(count=replicates, method="wild_bootstrap", seed=seed)
    return run_test(data, KernelCollection((kernel,)), rep, alpha, blocks=blocks, design_size=design_size)


def pooled_test(
    data,
    collection: KernelCollection,
    config: PoolConfig,
    rep: ReplicateSpec,
    alpha: float = 0.05,
    *,
    blocks: int | None = None,
    design_size: int | None = None,
    statistic: str | None = None,
) -> TestResult:
    """Calibrated test on the pooled statistic.

    The original and every replicate are pooled in one call with the
    identical configuration, so a replicate tied with the original stays
    tied; with a single kernel the result is bit-identical to the
    single-kernel test.  Normalisation scales default to the empirical
    standard deviation of each kernel's replicate statistics (zero scales
    fall back to one); given scales must number one per kernel.
    """
    return run_test(
        data, collection, rep, alpha, combine=config, statistic=statistic, blocks=blocks, design_size=design_size
    )


def aggregated_test(
    data,
    collection: KernelCollection,
    rep: ReplicateSpec,
    alpha: float = 0.05,
    *,
    blocks: int | None = None,
    design_size: int | None = None,
    statistic: str | None = None,
) -> AggregatedTestResult:
    """Multiple test over the collection at the adjusted level u*.

    Rejects when any kernel's original statistic exceeds its u*-level
    quantile; u* is the largest feasible candidate level (a breakpoint of
    the quantile counts, alpha/|K| or alpha).  The reported p-value is the
    smallest level at which the aggregated test would reject,
    min(|K| e_o, max(e_o, H(e_o)/B), 1) for the original's entry level e_o
    and the number H(e_o) of replicates exceeding by then; it is at most
    alpha exactly when the test rejects.  Both come from a rank table
    built once per test, and the thresholds are gathered once, at u*.
    With ``blocks`` or ``design_size`` (wild bootstrap only) each kernel's
    statistic is its block or incomplete design mean, as for the
    single-kernel test.
    """
    return run_test(
        data, collection, rep, alpha, combine=AGGREGATE, statistic=statistic, blocks=blocks, design_size=design_size
    )


def dp_test(
    data,
    kernel,
    alpha: float,
    privacy: PrivacyParams,
    rep: ReplicateSpec,
    *,
    pool_config: PoolConfig | None = None,
    robust: RobustParams | None = None,
    sensitivity: Sensitivity | None = None,
) -> TestResult:
    """(epsilon, delta)-differentially private permutation test (dpMMD / dpHSIC).

    ``kernel`` is one kernel entry, or a KernelCollection, which takes a
    ``pool_config`` when it holds several.  Passing ``robust``
    additionally shifts the threshold by 2 r Delta; the level adjustment
    that would turn the composed test into a certified robust private test
    is left to the caller.
    """
    collection = kernel if isinstance(kernel, KernelCollection) else KernelCollection((kernel,))
    return run_test(
        data, collection, rep, alpha, combine=pool_config, privacy=privacy, robust=robust, sensitivity=sensitivity
    )


def robust_test(
    data,
    kernel,
    alpha: float,
    robust: RobustParams,
    rep: ReplicateSpec,
    *,
    pool_config: PoolConfig | None = None,
    privacy: PrivacyParams | None = None,
    sensitivity: Sensitivity | None = None,
) -> TestResult:
    """Corruption-robust permutation test (dcMMD / dcHSIC); ``kernel`` as for ``dp_test``."""
    collection = kernel if isinstance(kernel, KernelCollection) else KernelCollection((kernel,))
    return run_test(
        data, collection, rep, alpha, combine=pool_config, privacy=privacy, robust=robust, sensitivity=sensitivity
    )
