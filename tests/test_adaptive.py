import itertools
import json
import math

import numpy as np
import pytest

from kerntest import engines, testing
from kerntest.adaptive import (
    POOL_METHODS,
    KernelCollection,
    PoolConfig,
    _RankTable,
    _adjusted_thresholds,
    _aggregate_decide,
    _quantile_count,
    harmonic_weights,
    pool,
)
from kerntest.harness import run as harness_run
from kerntest.harness.cli import main
from kerntest.harness.generators import builtin_generator
from kerntest.kernels import (
    bandwidth_grid,
    gaussian_kernel,
    gram_matrix,
    imq_kernel,
    laplace_kernel,
    standard_gaussian_score,
)
from kerntest.resampling import ReplicateSpec
from kerntest.statistics import (
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    block_statistic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
    incomplete_statistic,
    v_statistic,
)
from kerntest.testing import aggregated_test, pooled_test, two_sample_test

GAUSS = gaussian_kernel(1.0)


# --- pool -------------------------------------------------------------------


@pytest.mark.parametrize("method", ["mean", "max", "fuse"])
def test_pool_single_value_passthrough(method):
    config = PoolConfig(method=method, nu=3.0 if method == "fuse" else None)
    assert pool([0.7314159], config) == 0.7314159


def test_pool_fuse_logsumexp_value():
    config = PoolConfig(method="fuse", nu=1.0)
    assert pool([0.0, 1.0], config) == pytest.approx(math.log((1.0 + math.e) / 2.0), abs=1e-12)


def test_pool_mean_and_max():
    vals = [0.2, -0.1, 0.7]
    assert pool(vals, PoolConfig(method="mean")) == pytest.approx(np.mean(vals))
    assert pool(vals, PoolConfig(method="max")) == 0.7
    weighted = pool([1.0, 3.0], PoolConfig(method="mean"), weights=[0.75, 0.25])
    assert weighted == pytest.approx(1.5)


def test_pool_validation():
    with pytest.raises(ValueError):
        pool([], PoolConfig(method="mean"))
    with pytest.raises(ValueError):
        PoolConfig(method="fuse", nu=-1.0)
    with pytest.raises(ValueError, match="only applies to fuse"):
        PoolConfig(method="mean", nu=2.0)  # would be ignored
    with pytest.raises(ValueError):
        pool([1.0, 2.0], PoolConfig(method="fuse"))  # nu unset
    with pytest.raises(ValueError):
        PoolConfig(method="softmax")


def test_fuse_bracket_and_limit():
    rng = np.random.default_rng(0)
    for _ in range(500):
        k = int(rng.integers(2, 12))
        vals = rng.normal(size=k)
        nu = float(rng.uniform(0.5, 50.0))
        fused = pool(vals, PoolConfig(method="fuse", nu=nu))
        assert vals.max() - math.log(k) / nu <= fused + 1e-12
        assert fused <= vals.max() + 1e-12
    vals = rng.normal(size=8)
    fused = pool(vals, PoolConfig(method="fuse", nu=1e6))
    assert abs(fused - vals.max()) <= 1e-4


def test_fuse_monotone_in_nu():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=6)
    previous = -np.inf
    for nu in (0.5, 1.0, 2.0, 8.0, 32.0, 1e3):
        fused = pool(vals, PoolConfig(method="fuse", nu=nu))
        assert fused >= previous - 1e-12
        previous = fused


@pytest.mark.parametrize("method", ["mean", "max", "fuse"])
def test_pool_monotone_in_inputs(method):
    rng = np.random.default_rng(2)
    config = PoolConfig(method=method, nu=2.0 if method == "fuse" else None)
    for _ in range(200):
        vals = rng.normal(size=5)
        bumped = vals.copy()
        i = int(rng.integers(5))
        bumped[i] += abs(rng.normal())
        assert pool(bumped, config) >= pool(vals, config) - 1e-12


def test_pool_normalized_divides_by_sigma():
    config = PoolConfig(method="max", normalized=True, sigma=(2.0, 4.0))
    assert pool([2.0, 2.0], config) == 1.0


def test_pool_rejects_a_sigma_of_the_wrong_length():
    # a one-element sigma used to be broadcast over every kernel
    with pytest.raises(ValueError, match="sigma must give one value per kernel"):
        pool([1.0, 2.0, 3.0], PoolConfig(method="max", normalized=True, sigma=(2.0,)))


def test_pool_rejects_fuse_weights_of_the_wrong_length():
    with pytest.raises(ValueError, match="weights must give one value per kernel"):
        pool([1.0, 2.0, 3.0], PoolConfig(method="fuse", nu=1.0), weights=[1.0])


def test_pooled_test_rejects_a_sigma_of_the_wrong_length():
    data = _two_sample(6)
    rep = ReplicateSpec(count=19, method="permutation", seed=2)
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in (0.5, 1.0, 2.0)))
    config = PoolConfig(method="mean", normalized=True, sigma=(2.0,))
    with pytest.raises(ValueError, match="sigma must give one value per kernel: got 1 for 3"):
        pooled_test(data, collection, config, rep, 0.05)


def test_harmonic_weights_sum_below_one():
    for count in (1, 3, 10, 50):
        w = harmonic_weights(count)
        assert all(v > 0 for v in w)
        assert sum(w) <= 1.0


def test_collection_validation():
    with pytest.raises(ValueError):
        KernelCollection(())
    with pytest.raises(ValueError):
        KernelCollection((GAUSS,), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        KernelCollection((GAUSS, GAUSS), weights=(0.9, 0.2))
    with pytest.raises(ValueError):
        KernelCollection((GAUSS,), weights=(-0.1,))


# --- pooled test ---------------------------------------------------------------


def _two_sample(seed, n=14, shift=0.0):
    rng = np.random.default_rng(seed)
    return TwoSampleData(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) + shift)


def test_pooled_single_kernel_bit_identical():
    data = _two_sample(3)
    rep = ReplicateSpec(count=99, method="permutation", seed=11)
    single = two_sample_test(data, None, GAUSS, replicates=99, seed=11)
    for method in ("mean", "max", "fuse"):
        config = PoolConfig(method=method, nu=100.0 if method == "fuse" else None)
        pooled = pooled_test(data, KernelCollection((GAUSS,)), config, rep, 0.05)
        assert pooled.statistic == single.statistic
        assert pooled.threshold == single.threshold
        assert pooled.p_value == single.p_value
        assert pooled.reject == single.reject


def test_pooled_wild_single_kernel_bit_identical():
    data = _two_sample(4)
    rep = ReplicateSpec(count=99, method="wild_bootstrap", seed=7)
    single = two_sample_test(data, None, GAUSS, replicates=99, seed=7, method="wild_bootstrap")
    pooled = pooled_test(data, KernelCollection((GAUSS,)), PoolConfig(method="mean"), rep, 0.05)
    assert (pooled.statistic, pooled.threshold, pooled.p_value) == (
        single.statistic,
        single.threshold,
        single.p_value,
    )


def test_mean_pooling_matches_averaged_kernel():
    # linearity: the mean of V-statistics equals the V-statistic of the averaged core
    from kerntest.statistics import core_matrix_mmd

    data = _two_sample(5, shift=0.4)
    specs = [gaussian_kernel(b) for b in (0.5, 1.0, 2.0)]
    cores = [core_matrix_mmd(s, data) for s in specs]
    pooled_value = pool([v_statistic(c) for c in cores], PoolConfig(method="mean"))
    assert pooled_value == pytest.approx(v_statistic(sum(cores) / 3.0), rel=1e-10)


def test_pooled_test_runs_normalized_fuse():
    data = _two_sample(6, shift=0.8)
    rep = ReplicateSpec(count=99, method="permutation", seed=2)
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in (0.5, 1.0, 2.0)))
    result = pooled_test(data, collection, PoolConfig(method="fuse", normalized=True), rep, 0.05)
    assert result.framework == "mmd"
    assert 0.0 < result.p_value <= 1.0
    assert result.reject == (result.p_value <= 0.05)


def test_pooled_fuse_nu_warning():
    data = _two_sample(7)
    rep = ReplicateSpec(count=19, method="permutation", seed=2)
    collection = KernelCollection((gaussian_kernel(0.5), gaussian_kernel(1.5)))
    with pytest.warns(UserWarning, match="nu"):
        pooled_test(data, collection, PoolConfig(method="fuse", nu=1.0), rep, 0.05)


def test_pooled_hsic_shared_replicate_draws():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 1))
    data = PairedData.from_parts(x, 0.9 * x + 0.1 * rng.normal(size=(16, 1)))
    collection = KernelCollection(
        tuple((gaussian_kernel(a), gaussian_kernel(b)) for a in (0.7, 1.4) for b in (0.7, 1.4))
    )
    rep = ReplicateSpec(count=99, method="permutation", seed=5)
    result = pooled_test(data, collection, PoolConfig(method="max"), rep, 0.05)
    assert result.framework == "hsic"
    assert result.reject


def _tied_hsic_wild_case(kernels):
    """HSIC wild bootstrap over 16 pairs in 4 blocks: the core has 8 rows, so a
    replicate whose signs are constant within every block of 2 (1 in 16) ties
    with the original.  Returns the (B,) mask of those replicates too."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(16, 1))
    data = PairedData.from_parts(x, 0.3 * x + rng.normal(size=(16, 1)))
    bandwidths = np.geomspace(0.5, 2.0, kernels)
    collection = KernelCollection(tuple((gaussian_kernel(b), gaussian_kernel(b)) for b in bandwidths))
    rep = ReplicateSpec(count=199, method="wild_bootstrap", seed=14)
    signs = engines._sign_matrix(rep.seed, rep.count, 8)[1:].reshape(rep.count, 4, 2)
    return data, collection, rep, (signs[:, :, 0] == signs[:, :, 1]).all(axis=1)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("method", POOL_METHODS)
def test_pooled_test_counts_replicates_tied_with_the_original(method, normalized, recorded):
    # over ten kernels, an original pooled apart from its replicates is
    # rounded differently (the mean's product, the fuse's sum)
    data, collection, rep, tied = _tied_hsic_wild_case(10)
    calls = recorded(testing, "test_decision")
    result = pooled_test(data, collection, PoolConfig(method, normalized=normalized), rep, blocks=4)
    (((original, replicates, *_), _),) = calls
    assert tied.sum() >= 10
    np.testing.assert_array_equal(replicates[tied], original)
    assert result.p_value == (1 + np.count_nonzero(replicates >= original)) / (rep.count + 1)


# --- aggregated test -------------------------------------------------------------


def test_aggregated_single_kernel_equals_single_test():
    data = _two_sample(9)
    rep = ReplicateSpec(count=99, method="permutation", seed=13)
    single = two_sample_test(data, None, GAUSS, replicates=99, seed=13)
    agg = aggregated_test(data, KernelCollection((GAUSS,)), rep, 0.05)
    assert agg.adjusted_level == 0.05
    assert agg.reject == single.reject
    assert agg.per_kernel[0].p_value == single.p_value
    assert agg.per_kernel[0].statistic == single.statistic


def test_aggregated_test_counts_replicates_tied_with_the_original(recorded):
    data, collection, rep, tied = _tied_hsic_wild_case(3)
    calls = recorded(testing, "collection_replicates")
    result = aggregated_test(data, collection, rep, 0.05, blocks=4)
    ((_, vals),) = calls
    assert tied.sum() >= 10
    for k, outcome in enumerate(result.per_kernel):
        np.testing.assert_array_equal(vals[k, 1:][tied], vals[k, 0])
        assert outcome.p_value == np.count_nonzero(vals[k] >= vals[k, 0]) / (rep.count + 1)
    # a tied replicate exceeds wherever the original does: H(e_o) counts it
    assert result.p_value >= tied.sum() / rep.count


def test_aggregated_requires_enough_replicates():
    data = _two_sample(10)
    collection = KernelCollection((gaussian_kernel(0.5), gaussian_kernel(1.0), gaussian_kernel(2.0)))
    with pytest.raises(ValueError, match="replicates"):
        aggregated_test(data, collection, ReplicateSpec(count=19, seed=0), 0.05)


def test_aggregated_level_range_and_dominance():
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in (0.4, 0.9, 2.1)))
    alpha = 0.05
    dominated = 0
    for trial in range(120):
        data = _two_sample(100 + trial, n=12, shift=0.6 if trial % 2 else 0.0)
        rep = ReplicateSpec(count=99, method="permutation", seed=trial)
        agg = aggregated_test(data, collection, rep, alpha)
        assert alpha / 3 - 1e-12 <= agg.adjusted_level <= alpha + 1e-12
        assert agg.reject == (agg.statistic > agg.threshold)
        assert agg.reject == (agg.p_value <= alpha)
        # Bonferroni: fixed adjusted level alpha/|K| on the same replicate draws
        from kerntest.engines import collection_replicates

        vals = collection_replicates(data, list(collection.kernels), rep, statistic="sqrt_v")
        pools = np.sort(vals, axis=1)
        bonferroni_thr = _adjusted_thresholds(pools, np.full(3, alpha / 3))
        bonferroni_reject = bool((vals[:, 0] > bonferroni_thr).any())
        if bonferroni_reject:
            dominated += 1
            assert agg.reject  # aggregation never loses a Bonferroni rejection
    assert dominated > 0  # the check above actually exercised rejections


def _exhaustive_statistics(x, y, specs):
    """sqrt-V MMD statistics for every permutation of the merged 6-point sample."""
    z = np.vstack([x, y])
    m = x.shape[0]
    grams = [gram_matrix(s, z, z) for s in specs]
    stats = np.empty((len(specs), 720))
    for t, perm in enumerate(itertools.permutations(range(6))):
        mask = np.zeros(6)
        mask[list(perm[:m])] = 1.0
        for k, gram in enumerate(grams):
            gm = mask @ gram
            s_xx = float(gm @ mask)
            s_xy = float(gm @ (1.0 - mask))
            s_yy = gram.sum() - s_xx - 2 * s_xy
            v = s_xx / m**2 + s_yy / (6 - m) ** 2 - 2 * s_xy / (m * (6 - m))
            stats[k, t] = math.sqrt(max(v, 0.0))
    return stats


def test_aggregated_exhaustive_type_one_error():
    # m + n = 6, |K| = 2, every permutation enumerated: empirical level <= alpha
    rng = np.random.default_rng(123)
    specs = [gaussian_kernel(0.7), laplace_kernel(1.3)]
    for alpha in (0.05, 0.2):
        for _ in range(3):
            x, y = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
            stats = _exhaustive_statistics(x, y, specs)
            weights = np.full(2, 0.5)
            rejections = 0
            for t in range(720):
                originals = stats[:, t]
                u, _, _ = _RankTable(np.column_stack([originals, stats]), weights).search(alpha)
                pools = np.sort(np.column_stack([stats, originals]), axis=1)
                thr = _adjusted_thresholds(pools, u * weights * 2)
                rejections += bool((originals > thr).any())
            assert rejections / 720 <= alpha + 1e-12


def _reference_aggregate(originals, replicates, alpha, weights):
    """The bisection search: sort the pools, read each kernel's
    (1 - level)-quantile at every probed level and average the
    any-kernel exceedance, inside a 16-step p-value bisection around a
    20-step u* bisection.  A quantile count above B reads the pool minimum."""
    count, n_rep = replicates.shape
    pools = np.sort(np.column_stack([replicates, originals]), axis=1)

    def thresholds(u):
        counts = [int(math.floor(level * (n_rep + 1) + 1e-9)) for level in u * weights * count]
        return pools[np.arange(count), [n_rep - min(c, n_rep) for c in counts]]

    def adjusted(level):
        def feasible(u):
            return float((replicates > thresholds(u)[:, None]).any(axis=0).mean()) <= level

        lo, hi = level / count, level
        if count == 1 or feasible(hi):
            return hi
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def decide(level):
        u = adjusted(level)
        return bool((originals > thresholds(u)).any()), u

    reject, u_star = decide(alpha)
    lo, hi = (0.0, alpha) if reject else (alpha, 1.0)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        if decide(mid)[0]:
            hi = mid
        else:
            lo = mid
    p_value = hi if (reject or hi < 1.0) else 1.0
    thr = thresholds(u_star)
    return {
        "reject": reject,
        "p_value": p_value,
        "adjusted_level": u_star,
        "statistic": float((originals - thr).max()),
        "thresholds": [float(t) for t in thr],
    }


def _candidate_scan(originals, replicates, alpha, weights):
    """Brute force over every candidate level: alpha/|K|, alpha and each
    breakpoint a / (w_k |K| (B+1)) of the quantile counts.  Every level
    gathers its thresholds from the sorted pools with `_quantile_count`;
    u* is the largest feasible level in [alpha/|K|, alpha] (else alpha/|K|),
    and the p-value is min(|K| e_o, max(e_o, H(e_o)/B), 1) for the lowest
    level e_o at which the original exceeds."""
    count, n_rep = replicates.shape
    m = n_rep + 1
    pools = np.sort(np.column_stack([replicates, originals]), axis=1)
    levels = np.array(sorted({alpha / count, alpha} | {a / (w * count * m) for w in weights for a in range(1, m)}))
    thr = pools[np.arange(count), n_rep - _quantile_count(levels[:, None] * weights * count, m)]
    hits = (replicates[None] > thr[:, :, None]).any(axis=1).sum(axis=1)
    enters = (originals > thr).any(axis=1)
    in_range = (levels >= alpha / count) & (levels <= alpha)
    feasible = np.flatnonzero(in_range & (hits / n_rep <= alpha))
    star = feasible.max() if feasible.size else int(np.flatnonzero(levels == alpha / count)[0])
    p_value = 1.0
    if enters.any():
        first = int(np.argmax(enters))
        e_o = float(levels[first])
        p_value = float(min(count * e_o, max(e_o, hits[first] / n_rep), 1.0))
    return {
        "reject": bool(enters[star]),
        "p_value": p_value,
        "adjusted_level": float(levels[star]),
        "statistic": float((originals - thr[star]).max()),
        "thresholds": [float(t) for t in thr[star]],
    }


def _aggregate_cases(seed, total):
    """Random aggregation inputs: |K| 1..5, B {19, 99, 100, 199}, alpha
    {.05, .1, .2}, normal and tied statistics, uniform, non-uniform below
    the cap and harmonic weights."""
    rng = np.random.default_rng(seed)
    cases = 0
    while cases < total:
        count = int(rng.integers(1, 6))
        n_rep = int(rng.choice([19, 99, 100, 199]))  # alpha * 100 is a count: E / B == alpha occurs
        alpha = float(rng.choice([0.05, 0.1, 0.2]))
        if (n_rep + 1) * alpha / count < 1:
            continue
        if cases % 2:
            stats = rng.integers(0, 5, size=(count, n_rep + 1)).astype(float)  # ties
        else:
            stats = rng.normal(size=(count, n_rep + 1)) + rng.normal(size=(count, 1))
        stats[:, -1] += rng.choice([0.0, 1.0, 2.5])
        originals, replicates = stats[:, -1].copy(), stats[:, :-1].copy()
        if cases % 4 == 0:
            weights = None
        elif cases % 4 == 3:  # u * w_1 * |K| > 1 for u > 1 / (0.61 |K|): capped counts
            weights = harmonic_weights(count)
        else:  # non-uniform, some weights shared, each w_k * |K| <= 1
            w = rng.uniform(0.4, 1.0, size=count) / count
            w[: count // 2] = w[0]
            weights = tuple(w)
        yield originals, replicates, alpha, KernelCollection(tuple(GAUSS for _ in range(count)), weights)
        cases += 1


def _counts(u, weights, n_rep):
    return tuple(_quantile_count(u * weights * weights.size, n_rep + 1).tolist())


def test_aggregate_decide_matches_reference_search():
    rep = ReplicateSpec(count=1, method="permutation", seed=0)
    keys = ("reject", "p_value", "adjusted_level", "statistic")
    for originals, replicates, alpha, collection in _aggregate_cases(8, 2000):
        weights = collection.weight_vector()
        values = np.column_stack([originals, replicates])
        got = _aggregate_decide(values, alpha, "mmd", rep, collection).to_json_dict()
        thresholds = [o["threshold"] for o in got["per_kernel"]]
        assert got["reject"] == (got["p_value"] <= alpha) == (got["statistic"] > 0)
        scan = _candidate_scan(originals, replicates, alpha, weights)
        assert {key: got[key] for key in keys} == {key: scan[key] for key in keys}
        assert thresholds == scan["thresholds"]
        # the bisection lands on the same counts and decision, its p-value
        # within its resolution
        bisection = _reference_aggregate(originals, replicates, alpha, weights)
        assert (got["reject"], got["statistic"], thresholds) == (
            bisection["reject"], bisection["statistic"], bisection["thresholds"]
        )
        n_rep = replicates.shape[1]
        assert _counts(got["adjusted_level"], weights, n_rep) == _counts(bisection["adjusted_level"], weights, n_rep)
        resolution = (alpha if got["reject"] else 1.0 - alpha) / 2**16
        assert abs(got["p_value"] - bisection["p_value"]) <= resolution


def test_aggregate_decide_coincident_breakpoints():
    # harmonic weights: w_1 = 4 w_2, so count 4 of kernel 1 and count 1 of
    # kernel 2 share the breakpoint u = 0.1644934 (counts (4, 1), infeasible).
    # A u* bisection that runs 30 or more steps stops in the 1e-10 window
    # below it where only kernel 2's count has moved, reads counts (3, 1)
    # and rejects; every candidate level reads (3, 0) at u* and no rejection
    originals, replicates, alpha, collection = list(_aggregate_cases(8, 1280))[1279]
    assert (originals.size, replicates.shape[1], alpha) == (2, 19, 0.2)
    assert collection.weights == harmonic_weights(2)
    rep = ReplicateSpec(count=1, method="permutation", seed=0)
    result = _aggregate_decide(np.column_stack([originals, replicates]), alpha, "mmd", rep, collection)
    assert not result.reject
    assert result.p_value == 4 / 19
    assert _counts(result.adjusted_level, collection.weight_vector(), 19) == (3, 0)


def test_aggregated_weight_above_cap_reads_pool_minimum():
    # harmonic weights give u * w_1 * |K| > 1 inside the p-value search: the
    # quantile count is capped at B instead of wrapping to a negative index
    alpha = 0.05
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 0.3
        collection = KernelCollection(
            tuple(gaussian_kernel(b) for b in bandwidth_grid(np.vstack([x, y]), 5)),
            weights=harmonic_weights(5),
        )
        rep = ReplicateSpec(count=199, method="permutation", seed=seed)
        agg = aggregated_test(TwoSampleData(x, y), collection, rep, alpha)
        assert 0.0 < agg.p_value <= 1.0
        assert agg.reject == (agg.p_value <= alpha)
    pools = np.arange(12.0).reshape(2, 6)
    assert _adjusted_thresholds(pools, np.array([0.99, 1.7])).tolist() == [0.0, 6.0]


def test_golden_aggregated_execute():
    # p-value, u* and decision pinned from the exact search; they depend on
    # the statistics only through their ranks: p = H(e_o)/B with H = 2, 3, 58
    # exceeding replicates out of B = 199, u* a breakpoint (count 4 or 3 of
    # 200) or the Bonferroni level alpha/9
    mmd = {"m": 20, "n": 20, "dim": 2, "shift": 0.5}
    cases = [
        ({"framework": "mmd", "bandwidth": "grid:10"}, "gaussian_mean_shift", mmd, 5,
         (0.010050251256281407, 0.02, True)),
        ({"framework": "mmd", "bandwidth": "grid:10", "method": "wild_bootstrap"}, "gaussian_mean_shift",
         mmd, 5, (0.01507537688442211, 0.015, True)),
        ({"framework": "hsic", "bandwidth": "grid:3"}, "correlated_gaussian_pairs",
         {"n": 20, "dim": 1, "rho": 0.4}, 4, (0.2914572864321608, 0.005555555555555556, False)),
    ]
    for flags, name, params, data_seed, expected in cases:
        setup = harness_run.TestSetup(replicates=199, seed=7, adapt="agg", **flags)
        result = harness_run.execute(setup, builtin_generator(name, params, data_seed))
        assert (result.p_value, result.adjusted_level, result.reject) == expected


def test_adaptive_null_level():
    alpha = 0.05
    trials = 200
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in (0.5, 1.0, 2.0)))
    pooled_rejects = 0
    agg_rejects = 0
    for trial in range(trials):
        data = _two_sample(5000 + trial, n=12)
        rep = ReplicateSpec(count=99, method="permutation", seed=trial)
        pooled_rejects += pooled_test(
            data, collection, PoolConfig(method="fuse"), rep, alpha
        ).reject
        agg_rejects += aggregated_test(data, collection, rep, alpha).reject
    band = alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    assert pooled_rejects / trials <= band
    assert agg_rejects / trials <= band


# --- aggregation over block and incomplete designs ----------------------------------


def _design_case(framework):
    """A dataset, a kernel collection over it, and each entry's wild core."""
    rng = np.random.default_rng(40)
    if framework == "mmd":
        data = TwoSampleData(rng.normal(size=(16, 2)), rng.normal(size=(16, 2)) + 0.3)
        entries = [gaussian_kernel(b) for b in (0.5, 1.0, 2.0)]
        return data, entries, lambda spec: core_matrix_mmd(spec, data)
    if framework == "hsic":
        x = rng.normal(size=(32, 1))
        data = PairedData.from_parts(x, 0.5 * x + rng.normal(size=(32, 1)))
        entries = [(gaussian_kernel(a), gaussian_kernel(b)) for a, b in ((0.5, 1.0), (1.0, 2.0))]
        return data, entries, lambda pair: core_matrix_hsic_wild(*pair, data)
    data = ModelSampleData.from_score_field(rng.normal(size=(16, 2)) + 0.2, standard_gaussian_score())
    entries = [imq_kernel(b) for b in (0.5, 1.0, 2.0)]
    return data, entries, lambda spec: core_matrix_ksd(spec, data)


@pytest.mark.parametrize("framework", ["mmd", "hsic", "ksd"])
@pytest.mark.parametrize("design", [{"blocks": 4}, {"design_size": 30}])
def test_aggregated_statistics_are_design_means(framework, design):
    data, entries, core_of = _design_case(framework)
    rep = ReplicateSpec(count=99, method="wild_bootstrap", seed=3)
    agg = aggregated_test(data, KernelCollection(tuple(entries)), rep, 0.05, **design)
    assert len(agg.per_kernel) == len(entries)
    for outcome, entry in zip(agg.per_kernel, entries):
        core = core_of(entry)
        if "blocks" in design:
            expected = block_statistic(core, 4)
        else:
            expected = incomplete_statistic(core, DesignSet.incomplete(core.shape[0], 30))
        assert outcome.statistic == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_aggregated_block_design_null_level():
    alpha = 0.05
    trials = 200
    rejects = 0
    for trial in range(trials):
        setup = harness_run.TestSetup(
            framework="mmd", bandwidth="grid:3", adapt="agg", method="wild_bootstrap",
            blocks=2, replicates=99, seed=trial,
        )
        rejects += harness_run.execute(setup, _two_sample(9000 + trial, n=12)).reject
    assert rejects / trials <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)


def test_cli_aggregation_honours_blocks(tmp_path, capsys):
    rng = np.random.default_rng(41)
    paths = []
    for name, shift in (("x", 0.0), ("y", 0.4)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(",".join(map(str, r)) for r in rng.normal(size=(16, 2)) + shift) + "\n")
        paths.append(str(path))
    base = ["test", "two-sample", "--x", paths[0], "--y", paths[1], "--bandwidth", "grid:3",
            "--adapt", "agg", "--method", "wild", "--replicates", "99", "--seed", "4"]
    outputs = []
    for extra in ([], ["--blocks", "4"]):
        assert main(base + extra) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("timing_ms")
        outputs.append(payload)
    complete, blocked = outputs
    assert complete != blocked
    for a, b in zip(complete["per_kernel"], blocked["per_kernel"]):
        assert a["statistic"] != b["statistic"]
