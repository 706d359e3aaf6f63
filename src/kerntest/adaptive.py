"""Kernel adaptivity: pooled statistics and aggregated multiple testing.

Pooling combines the per-kernel statistics into a single statistic
(mean, max, or the soft maximum "fuse") and calibrates that one number;
each replicate is pooled with the identical configuration, on statistics
computed from one shared permutation or sign vector.

Aggregation runs one test per kernel at a data-calibrated adjusted level
u* in [alpha/|K|, alpha]: the largest u for which the Monte-Carlo
probability (over the same replicate set that supplies the per-kernel
quantiles) that any kernel exceeds its u-level quantile stays at most
alpha.  Thresholds enter only through integer quantile counts, so each
test ranks its replicates and originals once against the sorted pools
(`_RankTable`), and the bisections for u* and for the p-value read
feasibility and decisions from that table instead of re-gathering
thresholds.  Since u* never drops below the Bonferroni level alpha/|K|,
every Bonferroni rejection is an aggregated rejection.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .engines import collection_replicates, framework_of
from .resampling import ReplicateSpec, TestResult, _alpha_count, test_decision
from .statistics import TwoSampleData
from .testing import _collection_descriptions, resolve_design

POOL_METHODS = ("mean", "max", "fuse")

# halvings of [alpha/|K|, alpha] in the search for the adjusted level u*
_BISECTION_ITERS = 20


@dataclasses.dataclass(frozen=True)
class KernelCollection:
    """Kernels to adapt over: specs for MMD/KSD, (kx, ky) pairs for HSIC.

    Weights are strictly positive and sum to at most one; they default
    to the uniform 1/|K|.
    """

    kernels: tuple
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        entries = tuple(self.kernels)
        if not entries:
            raise ValueError("kernel collection must be nonempty")
        object.__setattr__(self, "kernels", entries)
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if len(w) != len(entries):
                raise ValueError("one weight per kernel required")
            if any(v <= 0 for v in w):
                raise ValueError("weights must be strictly positive")
            if sum(w) > 1.0 + 1e-12:
                raise ValueError("weights must sum to at most one")
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.kernels)

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.size, 1.0 / self.size)
        return np.asarray(self.weights, dtype=float)


def harmonic_weights(count: int) -> tuple[float, ...]:
    """The 6/(l^2 pi^2) weight scheme; sums to below one for any count."""
    return tuple(6.0 / (ell**2 * math.pi**2) for ell in range(1, count + 1))


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """How to combine per-kernel statistics."""

    method: str = "fuse"
    nu: float | None = None
    normalized: bool = False
    sigma: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.method not in POOL_METHODS:
            raise ValueError(f"unknown pooling method {self.method!r}")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("fusing parameter nu must be positive")
        if self.sigma is not None and any(s <= 0 for s in self.sigma):
            raise ValueError("normalisation scales must be positive")


def _fuse_columns(values: np.ndarray, nu: float, weights: np.ndarray) -> np.ndarray:
    shift = nu * values.max(axis=0)
    return (shift + np.log((weights[:, None] * np.exp(nu * values - shift)).sum(axis=0))) / nu


def _pool_columns(values: np.ndarray, config: PoolConfig, weights: np.ndarray) -> np.ndarray:
    """Pool each column of a (K, B) matrix; K = 1 passes through unchanged."""
    if values.shape[0] == 1:
        return values[0]
    if config.method == "mean":
        return weights @ values / weights.sum()
    if config.method == "max":
        return values.max(axis=0)
    if config.nu is None:
        raise ValueError("fuse pooling requires nu")
    return _fuse_columns(values, config.nu, weights)


def pool(values, config: PoolConfig, weights=None) -> float:
    """Pool a vector of per-kernel values into one number.

    Normalisation (when configured) divides by the per-kernel sigma
    first.  Fuse is evaluated in shifted, overflow-safe form and defaults
    to uniform weights.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size == 0:
        raise ValueError("cannot pool an empty collection")
    if config.normalized:
        if config.sigma is None:
            raise ValueError("normalised pooling requires sigma values")
        vals = vals / np.asarray(config.sigma, dtype=float)
    w = np.full(vals.size, 1.0 / vals.size) if weights is None else np.asarray(weights, dtype=float)
    return float(_pool_columns(vals[:, None], config, w)[0])


def _default_nu(n: int, count: int) -> float:
    return float(max(n, math.log(count)))


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

    The pooled original and every pooled replicate use the identical
    configuration; with a single kernel the result is bit-identical to
    the single-kernel test.  Normalisation scales default to the
    empirical standard deviation of each kernel's replicate statistics
    (zero scales fall back to one).
    """
    framework = framework_of(data)
    design = resolve_design(data, rep.method, blocks, design_size)
    originals, reps = collection_replicates(
        data, list(collection.kernels), rep, statistic=statistic, design=design
    )
    config = _with_runtime_defaults(config, data, collection, reps)
    weights = collection.weight_vector()
    if config.normalized:
        sigma = np.asarray(config.sigma, dtype=float)
        originals = originals / sigma
        reps = reps / sigma[:, None]
    pooled_original = _pool_columns(originals[:, None], config, weights)[0]
    pooled_reps = _pool_columns(reps, config, weights)
    return test_decision(
        pooled_original,
        pooled_reps,
        alpha,
        framework=framework,
        method=rep.method,
        seed=rep.seed,
        kernels=_collection_descriptions(framework, collection.kernels),
        constraint=None,
    )


def _sample_size(data) -> int:
    """The sample size N of the adaptivity and sensitivity bounds: min(m, n), or n."""
    return min(data.m, data.n) if isinstance(data, TwoSampleData) else data.n


def _with_runtime_defaults(config: PoolConfig, data, collection: KernelCollection, reps: np.ndarray) -> PoolConfig:
    updates = {}
    if config.method == "fuse":
        floor = _default_nu(_sample_size(data), collection.size)
        if config.nu is None:
            updates["nu"] = floor
        elif config.nu < floor:
            warnings.warn(
                f"fusing parameter nu={config.nu} is below the recommended max(N, log|K|)={floor}",
                stacklevel=3,
            )
    if config.normalized and config.sigma is None:
        sigma = reps.std(axis=1)
        sigma = np.where(sigma > 0, sigma, 1.0)
        updates["sigma"] = tuple(float(s) for s in sigma)
    return dataclasses.replace(config, **updates) if updates else config


@dataclasses.dataclass(frozen=True)
class KernelOutcome:
    """Per-kernel summary inside an aggregated test."""

    kernels: tuple
    statistic: float
    threshold: float
    p_value: float
    reject: bool


@dataclasses.dataclass(frozen=True)
class AggregatedTestResult(TestResult):
    """Aggregated decision; `statistic` is the largest exceedance margin
    max_k (T_k - q_k(u*)), compared against a zero threshold."""

    adjusted_level: float = float("nan")
    per_kernel: tuple[KernelOutcome, ...] = ()

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["adjusted_level"] = self.adjusted_level
        out["per_kernel"] = [
            {
                "kernel": list(o.kernels),
                "statistic": o.statistic,
                "threshold": o.threshold,
                "p_value": o.p_value,
                "reject": o.reject,
            }
            for o in self.per_kernel
        ]
        return out


def _quantile_count(level: float, pool_size: int) -> int:
    """Pool values above the (1 - level)-quantile, capped at pool_size - 1.

    The cap makes a level whose count reaches the pool size (possible with
    non-uniform weights, where u * w_k * |K| can exceed one) read the pool
    minimum.
    """
    return min(_alpha_count(level, pool_size), pool_size - 1)


def _adjusted_thresholds(sorted_pools: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-kernel (1 - level)-quantiles of the pools {original} u replicates."""
    m = sorted_pools.shape[1]
    idx = np.array([m - 1 - _quantile_count(level, m) for level in levels])
    return sorted_pools[np.arange(sorted_pools.shape[0]), idx]


class _RankTable:
    """Integer exceedance counts of one test's pools, built once for both searches.

    For a kernel's sorted pool s of B + 1 values and a count
    c = _quantile_count(level, B + 1) <= B, a value v exceeds the
    threshold s[B - c] exactly when c >= a(v) = (B + 1) - #{s < v}.  The
    table holds a(v) for every replicate and every original.  Kernels with
    equal weights get equal counts at every u, so each weight group keeps
    only its smallest a per replicate (one group for uniform weights), and
    feasibility at u becomes a lookup of the exceedance count for the
    tuple of group counts.  The counts come from the same float arithmetic
    as `_adjusted_thresholds`, so every decision matches the threshold
    comparison exactly.
    """

    def __init__(self, originals: np.ndarray, replicates: np.ndarray, weights: np.ndarray):
        self.count = originals.size
        self.n_rep = replicates.shape[1]
        pools = np.column_stack([replicates, originals])
        self.sorted_pools = np.sort(pools, axis=1)
        by_kernel = self.n_rep + 1 - np.array(
            [np.searchsorted(s, v, side="left") for s, v in zip(self.sorted_pools, pools)]
        )
        group_weights, group = np.unique(weights, return_inverse=True)
        self.group_weights = tuple(float(w) for w in group_weights)
        first = np.array([by_kernel[group == g].min(axis=0) for g in range(len(self.group_weights))])
        self.replicate_first = first[:, : self.n_rep]
        self.original_first = tuple(int(a) for a in first[:, self.n_rep])
        self._exceedances: dict[tuple[int, ...], int] = {}

    def counts(self, u: float) -> tuple[int, ...]:
        """Quantile count of each weight group at adjusted level u."""
        return tuple(_quantile_count(u * w * self.count, self.n_rep + 1) for w in self.group_weights)

    def feasible(self, u: float, alpha: float) -> bool:
        """Whether at most an alpha share of replicates exceeds some u-level threshold."""
        counts = self.counts(u)
        hits = self._exceedances.get(counts)
        if hits is None:
            exceeds = self.replicate_first <= np.array(counts)[:, None]
            hits = self._exceedances[counts] = int(np.count_nonzero(exceeds.any(axis=0)))
        return hits / self.n_rep <= alpha

    def rejects(self, u: float) -> bool:
        """Whether some original statistic exceeds its u-level threshold."""
        return any(c >= a for c, a in zip(self.counts(u), self.original_first))

    def adjusted_level(self, alpha: float, iters: int) -> float:
        """Largest u in [alpha/|K|, alpha] keeping the any-kernel exceedance
        probability at most alpha, by bisection; clamped below at the
        Bonferroni level."""
        lo, hi = alpha / self.count, alpha
        if self.count == 1 or self.feasible(hi, alpha):
            return hi
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self.feasible(mid, alpha):
                lo = mid
            else:
                hi = mid
        return lo


def _adjusted_level(
    originals: np.ndarray,
    replicates: np.ndarray,
    alpha: float,
    weights: np.ndarray,
    iters: int,
) -> float:
    """Largest u in [alpha/|K|, alpha] keeping the any-kernel exceedance
    probability at most alpha; clamped below at the Bonferroni level."""
    return _RankTable(originals, replicates, weights).adjusted_level(alpha, iters)


def bonferroni_feasible(replicates: int, alpha: float, count: int) -> bool:
    """Whether the Bonferroni level alpha/|K| admits a quantile of B+1 pooled values."""
    return (replicates + 1) * alpha / count >= 1.0 - 1e-9


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
    quantile.  The reported p-value is the smallest level at which the
    aggregated test would reject, found by bisection over levels; it is
    at most alpha exactly when the test rejects.  Both searches read
    feasibility and decisions from a rank table built once per test, and
    the thresholds are gathered once, at u*.  With ``blocks`` or
    ``design_size`` (wild bootstrap only) each kernel's statistic is its
    block or incomplete design mean, as for the single-kernel test.
    """
    framework = framework_of(data)
    count = collection.size
    if not bonferroni_feasible(rep.count, alpha, count):
        raise ValueError(
            f"need (replicates+1) * alpha / |K| >= 1 for the Bonferroni level: "
            f"got {rep.count} replicates for alpha={alpha}, |K|={count}"
        )
    design = resolve_design(data, rep.method, blocks, design_size)
    originals, reps = collection_replicates(
        data, list(collection.kernels), rep, statistic=statistic, design=design
    )
    return _aggregate_decide(originals, reps, alpha, framework, rep, collection)


def _aggregate_decide(
    originals: np.ndarray,
    replicates: np.ndarray,
    alpha: float,
    framework: str,
    rep: ReplicateSpec,
    collection: KernelCollection,
) -> AggregatedTestResult:
    count = originals.size
    weights = collection.weight_vector()
    n_rep = replicates.shape[1]
    table = _RankTable(originals, replicates, weights)

    def decide(level: float) -> tuple[bool, float]:
        u = table.adjusted_level(level, _BISECTION_ITERS)
        return table.rejects(u), u

    reject, u_star = decide(alpha)
    lo, hi = (0.0, alpha) if reject else (alpha, 1.0)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        if decide(mid)[0]:
            hi = mid
        else:
            lo = mid
    p_value = hi if (reject or hi < 1.0) else 1.0
    thresholds = _adjusted_thresholds(table.sorted_pools, u_star * weights * count)
    margins = originals - thresholds
    per_kernel = []
    for k, entry in enumerate(collection.kernels):
        ge = 1 + int(np.count_nonzero(replicates[k] >= originals[k]))
        per_kernel.append(
            KernelOutcome(
                kernels=_collection_descriptions(framework, [entry]),
                statistic=float(originals[k]),
                threshold=float(thresholds[k]),
                p_value=ge / (n_rep + 1),
                reject=bool(originals[k] > thresholds[k]),
            )
        )
    return AggregatedTestResult(
        framework=framework,
        statistic=float(margins.max()),
        threshold=0.0,
        p_value=float(p_value),
        reject=reject,
        alpha=alpha,
        replicates=n_rep,
        method=rep.method,
        seed=rep.seed,
        kernels=_collection_descriptions(framework, collection.kernels),
        constraint=None,
        adjusted_level=float(u_star),
        per_kernel=tuple(per_kernel),
    )

