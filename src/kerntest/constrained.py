"""Differentially private and corruption-robust MMD / HSIC tests.

This module holds their parameters, the sensitivity bounds and the
constrain step, ``_constrain``, that ``testing.run_test`` applies to the
(pooled) statistics; ``testing.dp_test`` and ``testing.robust_test`` wrap
it.  Both variants run the permutation test on the square-rooted
V-statistic, whose global sensitivity under single-entry replacement
scales like 1/N:

* privacy: independent Laplace noise of scale 2 * Delta / xi, with
  xi = epsilon + log(1/(1 - delta)), is added to the original statistic
  and to every permuted statistic.  The factor 2 does not grow with the
  replicate count.  epsilon = inf disables the noise and reproduces the
  standard permutation test bit-for-bit at the same seed.
* robustness to r corrupted samples: the permutation threshold is
  shifted up by 2 * r * Delta; r = 0 reproduces the standard test.

The closed-form sensitivity constants are conservative,

    Delta_MMD  = 2 sqrt(2 K_h) / min(m, n)      (K_h = 4 K)
    Delta_HSIC = 2 sqrt(K_h) / N                (K_h = 16 K_x K_y)

and are certified in the test suite by brute-force neighbour
enumeration; callers holding tighter bounds may override Delta.

Pooling across kernels (mean, max or fuse) never inflates the
sensitivity, so pooled statistics reuse the same Delta.  Neither
procedure extends to the KSD: goodness-of-fit testing is not a test of
exchangeability, so there is no permutation structure to privatise or
robustify.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .adaptive import KernelCollection, _sample_size
from .resampling import TAG_NOISE, stream
from .statistics import core_bound

# No function here calls these: testing.run_test reads the replicates, pools
# and decides.  They stay importable here because perfbench/spans.py TARGETS
# wraps them by name.
from .adaptive import _collection_descriptions, _pool_columns, _with_runtime_defaults  # noqa: F401
from .engines import collection_replicates  # noqa: F401
from .resampling import test_decision  # noqa: F401

MMD_SENSITIVITY_CONSTANT = 2.0
HSIC_SENSITIVITY_CONSTANT = 2.0


@dataclasses.dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) differential-privacy budget; epsilon = inf disables noise."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive (inf allowed)")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")

    @property
    def xi(self) -> float:
        """epsilon + log(1 / (1 - delta)); the single knob the noise scale uses."""
        if math.isinf(self.epsilon):
            return math.inf
        return self.epsilon + math.log(1.0 / (1.0 - self.delta))


@dataclasses.dataclass(frozen=True)
class RobustParams:
    """Tolerated number of adversarially corrupted samples."""

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be nonnegative")


@dataclasses.dataclass(frozen=True)
class Sensitivity:
    """Global sensitivity of the test statistic under one-entry replacement."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("sensitivity must be positive")


def laplace_inverse_cdf(p: float | np.ndarray) -> float | np.ndarray:
    """Quantile of the unit-scale Laplace distribution, elementwise.

    F^{-1}(p) = -sign(p - 0.5) * log(1 - 2 |p - 0.5|) for p in (0, 1).
    A scalar gives a float, an array an array of its shape.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    centered = p - 0.5
    q = -np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
    return float(q) if q.ndim == 0 else q


def global_sensitivity(
    framework: str,
    kernel_bound: float,
    m: int,
    n: int | None = None,
    constant: float | None = None,
) -> Sensitivity:
    """Closed-form sensitivity bound for the square-rooted V-statistic.

    ``kernel_bound`` is the core bound K_h.  Pooled statistics share the
    same bound.  ``constant`` overrides the conservative default.
    """
    if kernel_bound <= 0:
        raise ValueError("kernel bound must be positive")
    if framework == "mmd":
        c = MMD_SENSITIVITY_CONSTANT if constant is None else constant
        return Sensitivity(c * math.sqrt(2.0 * kernel_bound) / min(m, n if n is not None else m))
    if framework == "hsic":
        c = HSIC_SENSITIVITY_CONSTANT if constant is None else constant
        return Sensitivity(c * math.sqrt(kernel_bound) / m)
    raise ValueError("private/robust tests exist only for the MMD and HSIC frameworks")


def _noise_vector(seed: int, count: int, scale: float) -> np.ndarray:
    """Laplace draws by inverse CDF, one per replicate stream; index 0 is the original's.

    Stream b's uniform is its ``rng.random()``, read from its first raw
    PCG64 output w as (w >> 11) * 2**-53; a uniform of 0 becomes 2**-53.
    """
    words = np.fromiter(
        (rng.bit_generator.random_raw() for rng in stream(seed, TAG_NOISE, range(count))),
        dtype=np.uint64,
        count=count,
    )
    u = (words >> np.uint64(11)) * 2.0**-53
    u[u == 0.0] = 2.0**-53
    return scale * laplace_inverse_cdf(u)


def _constrain(
    stats: np.ndarray,
    framework: str,
    data,
    collection: KernelCollection,
    seed: int,
    privacy: PrivacyParams | None,
    robust: RobustParams | None,
    sensitivity: Sensitivity | None,
) -> tuple[np.ndarray, float, dict]:
    """The noised (B + 1) statistics, index 0 the original's, the threshold
    shift and the result's constraint record of a private or robust test."""
    if robust is not None:
        size = _sample_size(data)
        if robust.r > size:
            raise ValueError(f"r={robust.r} exceeds the sample size {size}")
    if sensitivity is None:
        bound = max(core_bound(entry, data) for entry in collection.kernels)
        sizes = (data.m, data.n) if framework == "mmd" else (data.n,)
        sensitivity = global_sensitivity(framework, bound, *sizes)
    delta_stat = sensitivity.value

    xi = privacy.xi if privacy is not None else math.inf
    noise_scale = 0.0 if math.isinf(xi) else 2.0 * delta_stat / xi
    if noise_scale > 0.0:
        stats = stats + _noise_vector(seed, stats.size, noise_scale)

    shift = 2.0 * robust.r * delta_stat if robust is not None else 0.0
    meta = {
        "xi": xi,
        "r": robust.r if robust is not None else 0,
        "delta_sensitivity": delta_stat,
        "noise_scale": noise_scale,
    }
    return stats, shift, meta
