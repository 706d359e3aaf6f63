"""Null simulation by permutations / wild bootstrap, and test decisions.

Replicate randomness is derived per replicate: replicate ``b`` of a run
with master seed ``s`` draws from ``default_rng(SeedSequence((s, tag, b)))``
where the tag separates permutation/sign draws from privatisation-noise
draws.  Replicates can therefore be evaluated in any order (or in
parallel) without changing results.

The decision rule: with pool = {original} u replicates of size M,

* threshold = the (M - floor(alpha * M))-th order statistic of the pool,
  i.e. its ceil((1 - alpha) M)-th smallest element;
* p-value  = (1 + #{replicates >= original}) / M;
* reject iff p <= alpha, equivalently iff original > threshold.

Equality of the two rules is kept exact by deciding on the integer count
#{pool >= original} <= floor(alpha * M).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .statistics import CoreMatrix, DesignSet, HsicCoreMatrix, incomplete_statistic

# stream tags for SeedSequence-derived generators
TAG_REPLICATE = 1
TAG_NOISE = 2
TAG_DATA = 3
TAG_CELL = 4

# guards floor/ceil of alpha * M against float representation error
_INDEX_EPS = 1e-9

METHODS = ("permutation", "wild_bootstrap")


@dataclasses.dataclass(frozen=True)
class ReplicateSpec:
    """How many null replicates to draw, by which method, from which seed."""

    count: int = 199
    method: str = "permutation"
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("replicate count must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """Deterministic generator for one replicate / purpose."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(tag), int(index))))


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n independent +-1 signs."""
    return 2.0 * rng.integers(0, 2, size=n).astype(float) - 1.0


def sample_two_sample_permutation(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform permutation of the merged sample indices 0 .. m+n-1."""
    if m + n < 2:
        raise ValueError("need at least 2 points to permute")
    return rng.permutation(m + n)


def sample_paired_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform permutation of 0 .. n-1, applied to Y components only."""
    if n < 2:
        raise ValueError("need at least 2 pairs to permute")
    return rng.permutation(n)


def wild_bootstrap_statistic(core: CoreMatrix, design: DesignSet, signs) -> float:
    """(1/|D|) sum over (i,j) in D of eps_i eps_j H[i, j]."""
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (core.n,):
        raise ValueError(f"sign vector of length {signs.size} does not match core size {core.n}")
    design.validate_for(core)
    vals = core.h[design.idx_i, design.idx_j]
    e = signs[design.idx_i] * signs[design.idx_j]
    return float((vals * e).sum() / design.size)


def pair_swap_signs(n: int, swapped) -> np.ndarray:
    """Sign vector with -1 exactly at the swapped pair indices."""
    signs = np.ones(n)
    signs[np.asarray(swapped, dtype=np.intp)] = -1.0
    return signs


def swap_permuted_core(core: CoreMatrix, signs) -> CoreMatrix:
    """Core matrix after swapping the pairs with sign -1.

    For the MMD core (and the half-split HSIC core) swapping pair i
    negates row/column i exactly, so the permuted core is the
    sign-conjugated matrix; the conjugation is exact in floating point.
    """
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (core.n,):
        raise ValueError("sign vector length does not match core size")
    if core.framework == "ksd":
        raise ValueError("goodness-of-fit data admits no null-simulating permutation")
    if isinstance(core, HsicCoreMatrix):
        raise ValueError("pair swaps apply to the half-split HSIC core, not the doubly-centered one")
    flipped = (signs[:, None] * signs[None, :]) * core.h
    return dataclasses.replace(core, h=flipped)


def permuted_statistic(core: CoreMatrix, permutation, design: DesignSet | None = None) -> float:
    """Design-mean statistic of the core after a null-respecting permutation.

    * MMD core / half-split HSIC core: ``permutation`` is the array of
      pair indices to swap (possibly empty).
    * Doubly-centered HSIC core: ``permutation`` is a permutation of
      range(N) applied to the Y component; the second factor is
      conjugated by it.
    """
    design = design if design is not None else DesignSet.full_offdiag(core.n)
    if isinstance(core, HsicCoreMatrix):
        perm = np.asarray(permutation, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(core.n)):
            raise ValueError("not a permutation of range(N)")
        h = core.k_centered * core.l_centered[np.ix_(perm, perm)]
        permuted = CoreMatrix(h=h, kernel_bound=core.kernel_bound, framework="hsic")
        return incomplete_statistic(permuted, design)
    signs = pair_swap_signs(core.n, permutation)
    return incomplete_statistic(swap_permuted_core(core, signs), design)


@dataclasses.dataclass(frozen=True)
class TestResult:
    """Outcome of one calibrated test."""

    framework: str
    statistic: float
    threshold: float
    p_value: float
    reject: bool
    alpha: float
    replicates: int
    method: str
    seed: int
    kernels: tuple = ()
    constraint: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "framework": self.framework,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "replicates": self.replicates,
            "method": self.method,
            "seed": self.seed,
            "kernel": list(self.kernels),
        }
        if self.constraint is not None:
            # xi = inf (no privacy noise) has no strict-JSON number: emitted as null
            out["constraint"] = {
                k: None if k == "xi" and math.isinf(v) else v for k, v in self.constraint.items()
            }
        return out


def _alpha_count(alpha: float, pool_size: int) -> int:
    return int(math.floor(alpha * pool_size + _INDEX_EPS))


def threshold_index(alpha: float, pool_size: int) -> int:
    """0-based index of the empirical (1-alpha)-quantile in the sorted pool."""
    return pool_size - 1 - _alpha_count(alpha, pool_size)


def test_decision(
    original: float,
    replicates,
    alpha: float,
    *,
    threshold_shift: float = 0.0,
    framework: str = "unspecified",
    method: str = "unspecified",
    seed: int = 0,
    kernels: tuple = (),
    constraint: dict | None = None,
) -> TestResult:
    """Quantile / p-value decision over the pool {original} u replicates.

    ``threshold_shift`` adds a constant to the empirical quantile (used by
    corruption-robust tests); the p-value counts replicates to the right
    of original - shift so that the two rejection rules stay equivalent.
    """
    replicates = np.asarray(replicates, dtype=float)
    if replicates.ndim != 1 or replicates.size == 0:
        raise ValueError("replicates must be a nonempty 1-d array")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    pool = np.sort(np.concatenate([[original], replicates]))
    m = pool.size
    quantile = float(pool[threshold_index(alpha, m)])
    ge = 1 + int(np.count_nonzero(replicates >= original - threshold_shift))
    p_value = ge / m
    reject = ge <= _alpha_count(alpha, m)
    return TestResult(
        framework=framework,
        statistic=float(original),
        threshold=quantile + threshold_shift,
        p_value=p_value,
        reject=reject,
        alpha=alpha,
        replicates=replicates.size,
        method=method,
        seed=seed,
        kernels=tuple(kernels),
        constraint=constraint,
    )


def min_replicates(alpha: float, beta: float) -> int:
    """ceil(6 log(2/beta) / alpha), the replicate count sufficient for the
    power guarantees at errors (alpha, beta)."""
    if not (0.0 < alpha < 1.0) or not (0.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie in (0, 1)")
    return int(math.ceil(6.0 * math.log(2.0 / beta) / alpha))
