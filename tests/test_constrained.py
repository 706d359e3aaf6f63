import math

import numpy as np
import pytest

from kerntest import constrained
from kerntest.adaptive import POOL_METHODS, KernelCollection, PoolConfig, pool
from kerntest.constrained import (
    PrivacyParams,
    RobustParams,
    Sensitivity,
    dp_test,
    global_sensitivity,
    laplace_inverse_cdf,
    robust_test,
)
from kerntest.kernels import gaussian_kernel, gram_matrix
from kerntest.resampling import TAG_NOISE, TAG_REPLICATE, ReplicateSpec, sample_two_sample_permutation, stream
from kerntest.statistics import ModelSampleData, PairedData, TwoSampleData
from kerntest.testing import two_sample_test
from oracles import two_sample_v_statistic

GAUSS = gaussian_kernel(1.0)


# --- Laplace quantile --------------------------------------------------------


def test_laplace_inverse_cdf_values():
    assert laplace_inverse_cdf(0.5) == 0.0
    assert laplace_inverse_cdf(0.75) == pytest.approx(math.log(2.0), rel=1e-14)
    for p in (0.125, 0.25, 0.75):  # 1 - p exactly representable: bitwise antisymmetry
        assert laplace_inverse_cdf(p) == -laplace_inverse_cdf(1.0 - p)
    for p in (0.1, 0.3, 0.9):  # otherwise up to input rounding
        assert laplace_inverse_cdf(p) == pytest.approx(-laplace_inverse_cdf(1.0 - p), rel=1e-12)
    with pytest.raises(ValueError):
        laplace_inverse_cdf(0.0)
    with pytest.raises(ValueError):
        laplace_inverse_cdf(1.0)
    with pytest.raises(ValueError):
        laplace_inverse_cdf(np.array([0.5, 1.0]))


def test_laplace_inverse_cdf_on_arrays_equals_the_scalar_map_bit_for_bit():
    # every uniform rng.random() can return, in bulk and at the ends
    ulp = 2.0**-53
    steps = np.arange(1, 2001) * ulp
    u = np.concatenate([np.random.default_rng(9).random(100_000), [ulp, 0.5, 1.0 - ulp], steps, 1.0 - steps])
    q = laplace_inverse_cdf(u)
    assert q.shape == u.shape

    def scalar(p):
        centered = p - 0.5
        return float(-np.sign(centered) * np.log1p(-2.0 * abs(centered)))

    reference = np.array([scalar(p) for p in u.tolist()])
    assert np.array_equal(q.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 2**32, 2**64, 2**100])
@pytest.mark.parametrize("count", [1, 2, 500])
def test_noise_vector_matches_scalar_draws(seed, count):
    scale = 0.37
    want = []
    for b in range(count):
        u = np.random.default_rng(np.random.SeedSequence((seed, TAG_NOISE, b))).random()
        want.append(scale * laplace_inverse_cdf(u if u > 0.0 else 2.0**-53))
    got = constrained._noise_vector(seed, count, scale)
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_privacy_params_xi():
    assert PrivacyParams(1.0, 0.0).xi == 1.0
    assert PrivacyParams(0.5, 0.1).xi == pytest.approx(0.5 + math.log(1.0 / 0.9), rel=1e-12)
    assert math.isinf(PrivacyParams(math.inf, 0.0).xi)
    with pytest.raises(ValueError):
        PrivacyParams(0.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0)


# --- sensitivity ----------------------------------------------------------------


def test_sensitivity_halves_when_n_doubles():
    a = global_sensitivity("mmd", 4.0, 10, 10).value
    b = global_sensitivity("mmd", 4.0, 20, 20).value
    assert a == pytest.approx(2 * b)
    c = global_sensitivity("hsic", 16.0, 8).value
    d = global_sensitivity("hsic", 16.0, 16).value
    assert c == pytest.approx(2 * d)
    with pytest.raises(ValueError):
        global_sensitivity("ksd", 1.0, 10)


def test_sensitivity_scaling_constant():
    # Delta * N / sqrt(K_h) stays at the fixed documented constant
    for n in (5, 20, 80):
        mmd = global_sensitivity("mmd", 4.0, n, n)
        assert mmd.value * n / math.sqrt(4.0) == pytest.approx(2.0 * math.sqrt(2.0))
        hsic = global_sensitivity("hsic", 16.0, n)
        assert hsic.value * n / math.sqrt(16.0) == pytest.approx(2.0)


def _mmd_sqrt_v(x, y, spec):
    return math.sqrt(
        max(
            two_sample_v_statistic(
                gram_matrix(spec, x, x), gram_matrix(spec, y, y), gram_matrix(spec, x, y)
            ),
            0.0,
        )
    )


def _hsic_sqrt_v(x, y, kx, ky):
    from kerntest.statistics import core_matrix_hsic, v_statistic

    core = core_matrix_hsic(kx, ky, PairedData.from_parts(x, y))
    return math.sqrt(max(v_statistic(core), 0.0))


def test_mmd_sensitivity_certification():
    rng = np.random.default_rng(0)
    delta = global_sensitivity("mmd", 4.0, 8, 8).value
    for _ in range(300):
        x, y = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
        z = np.vstack([x, y])
        z2 = z.copy()
        z2[rng.integers(16)] = rng.normal(size=2) * 3.0  # replace one entry
        perm = rng.permutation(16)
        zp, z2p = z[perm], z2[perm]
        a = _mmd_sqrt_v(zp[:8], zp[8:], GAUSS)
        b = _mmd_sqrt_v(z2p[:8], z2p[8:], GAUSS)
        assert abs(a - b) <= delta


def test_hsic_sensitivity_certification():
    rng = np.random.default_rng(1)
    delta = global_sensitivity("hsic", 16.0, 8).value
    for _ in range(300):
        x, y = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        x2, y2 = x.copy(), y.copy()
        i = rng.integers(8)
        x2[i], y2[i] = rng.normal() * 3.0, rng.normal() * 3.0  # replace one pair
        perm = rng.permutation(8)
        a = _hsic_sqrt_v(x, y[perm], GAUSS, GAUSS)
        b = _hsic_sqrt_v(x2, y2[perm], GAUSS, GAUSS)
        assert abs(a - b) <= delta


def test_pooled_sensitivity_not_inflated():
    rng = np.random.default_rng(2)
    specs = [gaussian_kernel(b) for b in (0.6, 1.0, 1.8)]
    delta = global_sensitivity("mmd", 4.0, 6, 6).value
    for method in ("mean", "max", "fuse"):
        config = PoolConfig(method=method, nu=12.0 if method == "fuse" else None)
        for _ in range(100):
            x, y = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
            z = np.vstack([x, y])
            z2 = z.copy()
            z2[rng.integers(12)] = rng.normal() * 3.0
            perm = rng.permutation(12)
            zp, z2p = z[perm], z2[perm]
            a = pool([_mmd_sqrt_v(zp[:6], zp[6:], s) for s in specs], config)
            b = pool([_mmd_sqrt_v(z2p[:6], z2p[6:], s) for s in specs], config)
            assert abs(a - b) <= delta


# --- dp test ----------------------------------------------------------------------


def _null_two_sample(seed, n=15):
    rng = np.random.default_rng(seed)
    return TwoSampleData(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))


def test_dp_infinite_epsilon_reproduces_standard_test():
    data = _null_two_sample(3)
    rep = ReplicateSpec(count=99, method="permutation", seed=21)
    private = dp_test(data, GAUSS, 0.05, PrivacyParams(math.inf), rep)
    standard = two_sample_test(data, None, GAUSS, replicates=99, seed=21, statistic="sqrt_v")
    assert private.statistic == standard.statistic
    assert private.threshold == standard.threshold
    assert private.p_value == standard.p_value
    assert private.reject == standard.reject
    assert private.constraint["noise_scale"] == 0.0


def test_dp_noise_scale_formula_and_replicate_independence():
    data = _null_two_sample(4)
    delta = global_sensitivity("mmd", 4.0, 15, 15).value
    privacy = PrivacyParams(0.5, 0.1)
    scales = []
    for count in (10, 100):
        rep = ReplicateSpec(count=count, method="permutation", seed=1)
        result = dp_test(data, GAUSS, 0.05, privacy, rep)
        scales.append(result.constraint["noise_scale"])
        assert result.constraint["xi"] == pytest.approx(privacy.xi)
        assert result.constraint["delta_sensitivity"] == pytest.approx(delta)
    assert scales[0] == scales[1] == pytest.approx(2.0 * delta / privacy.xi)


def test_dp_rejects_ksd_framework():
    rng = np.random.default_rng(5)
    data = ModelSampleData(rng.normal(size=(10, 1)), -rng.normal(size=(10, 1)))
    with pytest.raises(ValueError, match="exchangeability"):
        dp_test(data, GAUSS, 0.05, PrivacyParams(1.0), ReplicateSpec(count=19, seed=0))


def test_dp_null_level():
    alpha = 0.05
    trials = 400
    rejects = {0.5: 0, 2.0: 0}
    for xi in rejects:
        privacy = PrivacyParams(xi)
        for trial in range(trials):
            data = _null_two_sample(9000 + trial)
            rep = ReplicateSpec(count=99, method="permutation", seed=trial)
            rejects[xi] += dp_test(data, GAUSS, alpha, privacy, rep).reject
    band = alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    for xi, count in rejects.items():
        assert count / trials <= band


def test_dp_power_nondecreasing_in_xi():
    alpha = 0.05
    trials = 200
    rates = []
    for xi in (0.25, 1.0, 4.0, math.inf):
        rejects = 0
        for trial in range(trials):
            rng = np.random.default_rng((77, trial))
            data = TwoSampleData(rng.normal(size=(25, 1)), rng.normal(size=(25, 1)) + 1.2)
            rep = ReplicateSpec(count=99, method="permutation", seed=trial)
            rejects += dp_test(data, GAUSS, alpha, PrivacyParams(xi), rep).reject
        rates.append(rejects / trials)
    noise = 2 * math.sqrt(0.25 / trials) * math.sqrt(2)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - noise


# --- robust test -------------------------------------------------------------------


def test_robust_zero_r_reproduces_standard_test():
    data = _null_two_sample(6)
    rep = ReplicateSpec(count=99, method="permutation", seed=8)
    robust = robust_test(data, GAUSS, 0.05, RobustParams(0), rep)
    standard = two_sample_test(data, None, GAUSS, replicates=99, seed=8, statistic="sqrt_v")
    assert robust.statistic == standard.statistic
    assert robust.threshold == standard.threshold
    assert robust.p_value == standard.p_value
    assert robust.reject == standard.reject


def test_robust_threshold_shift_value():
    data = _null_two_sample(7)
    rep = ReplicateSpec(count=99, method="permutation", seed=8)
    base = robust_test(data, GAUSS, 0.05, RobustParams(0), rep)
    delta = global_sensitivity("mmd", 4.0, 15, 15).value
    for r in (1, 3):
        shifted = robust_test(data, GAUSS, 0.05, RobustParams(r), rep)
        assert shifted.threshold == pytest.approx(base.threshold + 2 * r * delta, rel=1e-12)


def test_robust_full_corruption_never_rejects():
    # r = N shifts the threshold beyond the whole statistic range 2 sqrt(K)
    rng = np.random.default_rng(9)
    n = 12
    x = rng.normal(size=(n, 1))
    y = rng.normal(size=(n, 1)) + 50.0  # extreme alternative
    data = TwoSampleData(x, y)
    delta = global_sensitivity("mmd", 4.0, n, n).value
    assert 2 * n * delta >= 2.0  # exceeds the sqrt-V range for K = 1
    rep = ReplicateSpec(count=99, method="permutation", seed=3)
    assert robust_test(data, GAUSS, 0.05, RobustParams(0), rep).reject
    assert not robust_test(data, GAUSS, 0.05, RobustParams(n), rep).reject


def test_robust_r_exceeding_sample_size():
    data = _null_two_sample(10, n=6)
    with pytest.raises(ValueError, match="exceeds"):
        robust_test(data, GAUSS, 0.05, RobustParams(7), ReplicateSpec(count=19, seed=0))
    with pytest.raises(ValueError):
        RobustParams(-1)


def test_robust_rejection_monotone_in_r():
    # same seed: larger r only raises the threshold, decisions shrink monotonically
    for trial in range(50):
        rng = np.random.default_rng((55, trial))
        data = TwoSampleData(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)) + 1.0)
        rep = ReplicateSpec(count=99, method="permutation", seed=trial)
        previous = True
        for r in (0, 1, 2, 4, 8):
            reject = robust_test(data, GAUSS, 0.05, RobustParams(r), rep).reject
            assert previous or not reject
            previous = reject


def test_robust_level_under_adversarial_corruption():
    alpha = 0.05
    trials = 300
    n = 20
    for r in (2, 8):
        rejects = 0
        for trial in range(trials):
            rng = np.random.default_rng((99, r, trial))
            x = rng.normal(size=(n, 1))
            y = rng.normal(size=(n, 1))
            y[:r] = 25.0  # adversarial single cluster, pushed far to inflate the statistic
            data = TwoSampleData(x, y)
            rep = ReplicateSpec(count=99, method="permutation", seed=trial)
            rejects += robust_test(data, GAUSS, alpha, RobustParams(r), rep).reject
        assert rejects / trials <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)


def test_constrained_pooled_and_hsic_paths():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, 1))
    data = PairedData.from_parts(x, rng.normal(size=(16, 1)))
    rep = ReplicateSpec(count=99, method="permutation", seed=2)
    result = robust_test(data, (GAUSS, GAUSS), 0.05, RobustParams(2), rep)
    assert result.framework == "hsic"
    collection = KernelCollection((gaussian_kernel(0.5), gaussian_kernel(1.5)))
    pooled = dp_test(
        _null_two_sample(12), collection, 0.05, PrivacyParams(2.0),
        ReplicateSpec(count=99, seed=4), pool_config=PoolConfig(method="fuse"),
    )
    assert pooled.constraint["noise_scale"] > 0
    with pytest.raises(ValueError, match="pooling"):
        dp_test(_null_two_sample(13), collection, 0.05, PrivacyParams(2.0), rep)


@pytest.mark.parametrize("method", POOL_METHODS)
@pytest.mark.parametrize("constraint", ["dp", "robust"])
def test_constrained_pooled_test_counts_replicates_tied_with_the_original(constraint, method, recorded):
    # m = n = 2 has 6 labellings, so about a sixth of the replicates keep the
    # original's.  Over ten kernels, an original pooled apart from its
    # replicates is rounded differently (the mean's product, the fuse's sum)
    rng = np.random.default_rng(26)
    data = TwoSampleData(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in np.geomspace(0.5, 2.0, 10)))
    rep = ReplicateSpec(count=199, seed=26)
    draws = stream(rep.seed, TAG_REPLICATE, range(rep.count))
    kept = np.array([set(sample_two_sample_permutation(g, 2, 2)[:2]) == {0, 1} for g in draws])
    calls = recorded(constrained, "test_decision")
    config = PoolConfig(method)
    if constraint == "dp":
        result = dp_test(data, collection, 0.05, PrivacyParams(math.inf), rep, pool_config=config)
    else:
        result = robust_test(data, collection, 0.05, RobustParams(0), rep, pool_config=config)
    (((original, replicates, *_), _),) = calls
    assert kept.sum() > 20
    np.testing.assert_array_equal(replicates[kept], original)
    assert result.p_value == (1 + np.count_nonzero(replicates >= original)) / (rep.count + 1)


def test_constrained_requires_permutation_method():
    data = _null_two_sample(14)
    with pytest.raises(ValueError, match="permutation"):
        dp_test(data, GAUSS, 0.05, PrivacyParams(1.0), ReplicateSpec(count=19, method="wild_bootstrap", seed=0))


def test_sensitivity_override():
    data = _null_two_sample(15)
    rep = ReplicateSpec(count=19, method="permutation", seed=0)
    result = robust_test(
        data, GAUSS, 0.05, RobustParams(1), rep, sensitivity=Sensitivity(0.01)
    )
    assert result.constraint["delta_sensitivity"] == 0.01
