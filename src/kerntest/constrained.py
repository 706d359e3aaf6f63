"""Differentially private and corruption-robust MMD / HSIC tests.

Both variants run the permutation test on the square-rooted V-statistic,
whose global sensitivity under single-entry replacement scales like 1/N:

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

from .adaptive import KernelCollection, PoolConfig, _pool_columns, _sample_size, _with_runtime_defaults
from .engines import collection_replicates, framework_of
from .resampling import ReplicateSpec, TAG_NOISE, TestResult, stream, test_decision
from .statistics import core_bound
from .testing import _collection_descriptions

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
    derivation: str = "closed_form"

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


def _constrained_test(
    data,
    kernel,
    alpha: float,
    rep: ReplicateSpec,
    *,
    privacy: PrivacyParams | None = None,
    robust: RobustParams | None = None,
    pool_config: PoolConfig | None = None,
    sensitivity: Sensitivity | None = None,
) -> TestResult:
    framework = framework_of(data)
    if framework == "ksd":
        raise ValueError(
            "private and robust KSD tests are not available: goodness-of-fit "
            "testing cannot be framed as testing exchangeability"
        )
    if rep.method != "permutation":
        raise ValueError("private/robust tests are permutation-based")
    if isinstance(kernel, KernelCollection):
        if pool_config is None:
            raise ValueError("a kernel collection requires a pooling configuration")
        if pool_config.normalized:
            raise ValueError("normalised pooling is data-dependent and not supported under constraints")
        collection = kernel
    else:
        collection = KernelCollection((kernel,))
    if robust is not None:
        size = _sample_size(data)
        if robust.r > size:
            raise ValueError(f"r={robust.r} exceeds the sample size {size}")

    originals, reps = collection_replicates(data, list(collection.kernels), rep, statistic="sqrt_v")
    if collection.size > 1:
        cfg = _with_runtime_defaults(pool_config, data, collection, reps)
        weights = collection.weight_vector()
        original = float(_pool_columns(originals[:, None], cfg, weights)[0])
        replicates = _pool_columns(reps, cfg, weights)
    else:
        original = float(originals[0])
        replicates = reps[0]

    bound = max(core_bound(entry, data) for entry in collection.kernels)
    if sensitivity is None:
        if framework == "mmd":
            sensitivity = global_sensitivity("mmd", bound, data.m, data.n)
        else:
            sensitivity = global_sensitivity("hsic", bound, data.n)
    delta_stat = sensitivity.value

    xi = privacy.xi if privacy is not None else math.inf
    noise_scale = 0.0 if math.isinf(xi) else 2.0 * delta_stat / xi
    if noise_scale > 0.0:
        noise = _noise_vector(rep.seed, rep.count + 1, noise_scale)
        original = original + noise[0]
        replicates = replicates + noise[1:]

    shift = 2.0 * robust.r * delta_stat if robust is not None else 0.0
    meta = {
        "xi": xi,
        "r": robust.r if robust is not None else 0,
        "delta_sensitivity": delta_stat,
        "noise_scale": noise_scale,
    }
    return test_decision(
        original,
        replicates,
        alpha,
        threshold_shift=shift,
        framework=framework,
        method=rep.method,
        seed=rep.seed,
        kernels=_collection_descriptions(framework, collection.kernels),
        constraint=meta,
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

    Passing ``robust`` additionally shifts the threshold by 2 r Delta; the
    level adjustment that would turn the composed test into a certified
    robust private test is left to the caller.
    """
    return _constrained_test(
        data, kernel, alpha, rep,
        privacy=privacy, robust=robust, pool_config=pool_config, sensitivity=sensitivity,
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
    """Corruption-robust permutation test (dcMMD / dcHSIC)."""
    return _constrained_test(
        data, kernel, alpha, rep,
        privacy=privacy, robust=robust, pool_config=pool_config, sensitivity=sensitivity,
    )
