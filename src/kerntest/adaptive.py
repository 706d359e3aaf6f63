"""Kernel adaptivity: pooled statistics and aggregated multiple testing.

This module holds the kernel collection, the pooling configuration and
the two combine steps, ``_pooled`` and ``_aggregate_decide``, that
``testing.run_test`` applies to the (K, B + 1) replicate values;
``testing.pooled_test`` and ``testing.aggregated_test`` wrap it.

Pooling combines the per-kernel statistics into a single statistic
(mean, max, or the soft maximum "fuse") and calibrates that one number;
each replicate is pooled with the identical configuration, on statistics
computed from one shared permutation or sign vector.

Aggregation runs one test per kernel at a data-calibrated adjusted level
u* in [alpha/|K|, alpha]: the largest u for which the Monte-Carlo
probability (over the same replicate set that supplies the per-kernel
quantiles) that any kernel exceeds its u-level quantile stays at most
alpha.  Thresholds enter only through integer quantile counts, which
change only at finitely many breakpoint levels, so each test ranks its
replicates and originals once against the sorted pools (`_RankTable`)
and reads u* exactly as the largest feasible candidate level, and the
p-value in closed form as min(|K| e_o, max(e_o, H(e_o)/B), 1), where e_o
is the level at which the original first exceeds and H(e) counts the
replicates exceeding by level e; the |K| e_o term never binds, so the code
leaves it out (see `_RankTable.search`).  Since u* never drops below the
Bonferroni level alpha/|K|, every Bonferroni rejection is an aggregated
rejection.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .resampling import _INDEX_EPS, ReplicateSpec, TestResult
from .statistics import TwoSampleData

# No function here calls these: testing.run_test does.  They stay
# importable here because perfbench/spans.py TARGETS wraps them by name.
from .engines import collection_replicates, resolve_design  # noqa: F401
from .resampling import test_decision  # noqa: F401

POOL_METHODS = ("mean", "max", "fuse")


def _collection_descriptions(framework: str, entries) -> tuple:
    """One description per kernel spec; an x and a y description per HSIC pair."""
    if framework != "hsic":
        return tuple(spec.describe() for spec in entries)
    return tuple(
        {**spec.describe(), "component": component} for pair in entries for spec, component in zip(pair, "xy")
    )


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
        if self.nu is not None and self.method != "fuse":
            raise ValueError("the fusing parameter nu only applies to fuse pooling")
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


def _per_kernel(values, count: int, name: str) -> np.ndarray:
    """``values`` as a float vector of one entry per kernel; no broadcasting."""
    vec = np.asarray(values, dtype=float)
    if vec.shape != (count,):
        raise ValueError(f"{name} must give one value per kernel: got {vec.size} for {count} kernels")
    return vec


def pool(values, config: PoolConfig, weights=None) -> float:
    """Pool a vector of per-kernel values into one number.

    Normalisation (when configured) divides by the per-kernel sigma
    first.  Fuse is evaluated in shifted, overflow-safe form and defaults
    to uniform weights; ``sigma`` and ``weights`` give one per kernel.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size == 0:
        raise ValueError("cannot pool an empty collection")
    if config.normalized:
        if config.sigma is None:
            raise ValueError("normalised pooling requires sigma values")
        vals = vals / _per_kernel(config.sigma, vals.size, "sigma")
    w = np.full(vals.size, 1.0 / vals.size) if weights is None else _per_kernel(weights, vals.size, "weights")
    return float(_pool_columns(vals[:, None], config, w)[0])


def _default_nu(n: int, count: int) -> float:
    return float(max(n, math.log(count)))


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
            # the caller of a public test or of execute, which call run_test,
            # which calls _pooled, which calls this
            warnings.warn(
                f"fusing parameter nu={config.nu} is below the recommended max(N, log|K|)={floor}",
                stacklevel=5,
            )
    if config.normalized and config.sigma is None:
        sigma = reps.std(axis=1)
        sigma = np.where(sigma > 0, sigma, 1.0)
        updates["sigma"] = tuple(float(s) for s in sigma)
    return dataclasses.replace(config, **updates) if updates else config


def _pooled(values: np.ndarray, config: PoolConfig, data, collection: KernelCollection) -> np.ndarray:
    """The pooled (B + 1) statistics of the (K, B + 1) values (see ``testing.pooled_test``)."""
    config = _with_runtime_defaults(config, data, collection, values[:, 1:])
    if config.normalized:
        values = values / _per_kernel(config.sigma, collection.size, "sigma")[:, None]
    return _pool_columns(values, config, collection.weight_vector())


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


def _quantile_count(level, pool_size: int):
    """Pool values above the (1 - level)-quantile, capped at pool_size - 1.

    Elementwise `_alpha_count` for a level or an array of levels.  The cap
    makes a level whose count reaches the pool size (possible with
    non-uniform weights, where u * w_k * |K| can exceed one) read the pool
    minimum.
    """
    return np.minimum(np.floor(np.multiply(level, pool_size) + _INDEX_EPS), pool_size - 1).astype(int)


def _adjusted_thresholds(sorted_pools: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-kernel (1 - level)-quantiles of the pools {original} u replicates."""
    m = sorted_pools.shape[1]
    return sorted_pools[np.arange(sorted_pools.shape[0]), m - 1 - _quantile_count(levels, m)]


class _RankTable:
    """Integer exceedance ranks of one test's pools, read by the exact search.

    For a kernel's sorted pool s of B + 1 values and a count
    c = _quantile_count(level, B + 1) <= B, a value v exceeds the
    threshold s[B - c] exactly when c >= a(v) = (B + 1) - #{s < v}, the
    rank of v from the top.  Kernels with equal weights get equal counts
    at every u, so each weight group keeps only its smallest a per
    replicate and for the original (one group for uniform weights).
    """

    def __init__(self, values: np.ndarray, weights: np.ndarray):
        self.count, m = values.shape
        self.n_rep = m - 1
        self.sorted_pools = np.sort(values, axis=1)
        ranks = m - np.array([np.searchsorted(s, v, side="left") for s, v in zip(self.sorted_pools, values)])
        self.original_ranks = ranks[:, 0]
        self.group_weights, group = np.unique(weights, return_inverse=True)
        self.first = np.array([ranks[group == g].min(axis=0) for g in range(self.group_weights.size)])

    def search(self, alpha: float) -> tuple[float, bool, float]:
        """The adjusted level u*, the decision and the p-value at level alpha.

        Group g's count changes only at the breakpoints a / (w_g |K| (B+1)),
        so these, alpha/|K| and alpha are the candidate levels, and the
        counts are evaluated at each candidate with `_quantile_count`.  A
        replicate or the original enters (exceeds its threshold) at the
        first candidate where some group count reaches its rank, so H, the
        number of replicates in by a candidate, is a cumulative count.  u*
        is the largest candidate in [alpha/|K|, alpha] with H/B <= alpha
        (a prefix, as H only grows), or alpha/|K| when there is none, and
        the test rejects iff the original enters at or below u*.

        A level l rejects iff l/|K| reaches the original's entry level e_o,
        or e_o <= l and H(e_o)/B <= l, so the p-value, the smallest
        rejecting level, is min(|K| e_o, max(e_o, H(e_o)/B), 1).  The first
        term never binds: at most sum_k c_k <= |K| e_o (B+1) pool values
        exceed at e_o and the original is one of them, so
        H(e_o)/B <= (|K| e_o (B+1) - 1)/B <= |K| e_o while |K| e_o <= 1.
        It is left out because a rounded |K| e_o can sit one ulp above
        alpha when e_o = alpha/|K|; without it, p <= alpha exactly when the
        test rejects.
        """
        w = self.group_weights[:, None]
        m = self.n_rep + 1
        bounds = (alpha / self.count, alpha)
        levels = np.unique(np.append(np.arange(1, m) / (w * self.count * m), bounds))
        counts = _quantile_count(levels * w * self.count, m)
        entry = np.min([np.searchsorted(c, a) for c, a in zip(counts, self.first)], axis=0)
        hits = np.cumsum(np.bincount(entry[1:], minlength=levels.size + 1))
        lo, hi = np.searchsorted(levels, bounds)
        feasible = np.count_nonzero(hits[: levels.size] / self.n_rep <= alpha)
        star = min(max(feasible - 1, lo), hi)
        entry_o = entry[0]
        e_o = float(levels[entry_o]) if entry_o < levels.size else math.inf  # inf: exceeds at no level
        p_value = min(max(e_o, hits[entry_o] / self.n_rep), 1.0)
        return float(levels[star]), bool(entry_o <= star), float(p_value)


def bonferroni_feasible(replicates: int, alpha: float, count: int) -> bool:
    """Whether the Bonferroni level alpha/|K| admits a quantile of B+1 pooled values."""
    return (replicates + 1) * alpha / count >= 1.0 - 1e-9


def _aggregate_decide(
    values: np.ndarray,
    alpha: float,
    framework: str,
    rep: ReplicateSpec,
    collection: KernelCollection,
) -> AggregatedTestResult:
    """The aggregated decision on (K, B + 1) values, column 0 the original's."""
    originals = values[:, 0]
    weights = collection.weight_vector()
    table = _RankTable(values, weights)
    u_star, reject, p_value = table.search(alpha)
    thresholds = _adjusted_thresholds(table.sorted_pools, u_star * weights * table.count)
    margins = originals - thresholds
    kernel_p_values = table.original_ranks / values.shape[1]
    per_kernel = tuple(
        KernelOutcome(
            kernels=_collection_descriptions(framework, [entry]),
            statistic=float(originals[k]),
            threshold=float(thresholds[k]),
            p_value=float(kernel_p_values[k]),
            reject=bool(originals[k] > thresholds[k]),
        )
        for k, entry in enumerate(collection.kernels)
    )
    return AggregatedTestResult(
        framework=framework,
        statistic=float(margins.max()),
        threshold=0.0,
        p_value=p_value,
        reject=reject,
        alpha=alpha,
        replicates=table.n_rep,
        method=rep.method,
        seed=rep.seed,
        kernels=_collection_descriptions(framework, collection.kernels),
        constraint=None,
        adjusted_level=u_star,
        per_kernel=per_kernel,
    )

