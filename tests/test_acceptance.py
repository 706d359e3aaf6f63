"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Monte-Carlo criteria are seeded and deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from kerntest.adaptive import KernelCollection, PoolConfig, _RankTable, _adjusted_thresholds, pool
from kerntest.constrained import PrivacyParams, RobustParams, global_sensitivity
from kerntest.engines import collection_replicates
from kerntest.harness.config import ExperimentConfig
from kerntest.harness.experiments import run_experiment
from kerntest.kernels import (
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
    core_bound,
    core_matrix_hsic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
    incomplete_statistic,
    u_statistic,
    v_statistic,
)
from kerntest.testing import aggregated_test, dp_test, robust_test, two_sample_test
from oracles import (
    cross_derivative_matrix,
    eval_kernel,
    grad1_matrix,
    permuted_statistic,
    two_sample_v_statistic,
    wild_bootstrap_statistic,
)

GAUSS = gaussian_kernel(1.0)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Exact level under the null for all three frameworks.
# ---------------------------------------------------------------------------


def test_criterion_01_exact_level():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="calibrate", framework="mmd", sample_sizes=(20,), trials=5000,
        replicates=99, dimension=2, seed=1,
    )
    mmd_rate = run_experiment(cfg)["cells"][0]["rejection_rate"]
    mmd_seconds = time.perf_counter() - start
    cfg = ExperimentConfig(
        experiment="calibrate", framework="hsic", sample_sizes=(20,), trials=5000,
        replicates=99, seed=1,
    )
    hsic_rate = run_experiment(cfg)["cells"][0]["rejection_rate"]
    cfg = ExperimentConfig(
        experiment="calibrate", framework="ksd", sample_sizes=(200,), trials=5000,
        replicates=99, kernel="imq", seed=1,
    )
    ksd_rate = run_experiment(cfg)["cells"][0]["rejection_rate"]
    ok = (
        0.041 <= mmd_rate <= 0.059
        and 0.041 <= hsic_rate <= 0.059
        and 0.03 <= ksd_rate <= 0.08
        and mmd_seconds < 120.0
    )
    _report(
        "criterion 1 (exact level)",
        ok,
        f"mmd={mmd_rate:.4f} in [0.041,0.059] ({mmd_seconds:.0f}s), "
        f"hsic={hsic_rate:.4f} in [0.041,0.059], ksd={ksd_rate:.4f} in [0.03,0.08]",
    )


# ---------------------------------------------------------------------------
# 2. Wild bootstrap = swap permutations, bit-exact.
# ---------------------------------------------------------------------------


def test_criterion_02_bootstrap_equivalence():
    rng = np.random.default_rng(20)
    n = 8
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) + 0.3
    mmd_core = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    design = DesignSet.full_offdiag(n)
    mmd_mismatch = 0
    for bits in itertools.product([1.0, -1.0], repeat=n):
        signs = np.array(bits)
        swapped = np.nonzero(signs < 0)[0]
        if wild_bootstrap_statistic(mmd_core, design, signs) != permuted_statistic(
            mmd_core, swapped, design
        ):
            mmd_mismatch += 1
    data = PairedData.from_parts(rng.normal(size=(n, 2)), rng.normal(size=(n, 1)))
    hsic_core = core_matrix_hsic_wild(GAUSS, gaussian_kernel(0.8), data)
    half_design = DesignSet.full_offdiag(n // 2)
    hsic_mismatch = 0
    for bits in itertools.product([1.0, -1.0], repeat=n // 2):
        signs = np.array(bits)
        swapped = np.nonzero(signs < 0)[0]  # swap pair i with i + N/2
        if wild_bootstrap_statistic(hsic_core, half_design, signs) != permuted_statistic(
            hsic_core, swapped, half_design
        ):
            hsic_mismatch += 1
    ok = mmd_mismatch == 0 and hsic_mismatch == 0
    _report(
        "criterion 2 (bootstrap equivalence)",
        ok,
        f"mmd mismatches {mmd_mismatch}/256, hsic mismatches {hsic_mismatch}/16 (zero tolerance)",
    )


# ---------------------------------------------------------------------------
# 3. U >= V - 2 K_h / N across frameworks.
# ---------------------------------------------------------------------------


def test_criterion_03_u_v_inequality():
    rng = np.random.default_rng(30)
    violations = 0
    checks = 0
    for _ in range(1000):
        n = int(rng.integers(3, 31))
        x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 2.0))
        two, paired = TwoSampleData(x, y), PairedData.from_parts(x, y)
        model, stein = ModelSampleData.from_score_field(x, standard_gaussian_score()), imq_kernel(1.0)
        cores = [
            (core_matrix_mmd(GAUSS, two), core_bound(GAUSS, two)),
            (core_matrix_hsic(GAUSS, GAUSS, paired), core_bound((GAUSS, GAUSS), paired)),
            (core_matrix_ksd(stein, model), core_bound(stein, model)),
        ]
        for core, bound in cores:
            checks += 1
            if u_statistic(core) < v_statistic(core) - 2.0 * bound / n:
                violations += 1
    _report(
        "criterion 3 (U/V inequality)",
        violations == 0,
        f"{violations} violations in {checks} instances (zero tolerance)",
    )


# ---------------------------------------------------------------------------
# 4. Block statistic identities, bit-for-bit.
# ---------------------------------------------------------------------------


def test_criterion_04_block_identity():
    rng = np.random.default_rng(40)
    bit_mismatch = 0
    design_mismatch = 0
    for _ in range(100):
        n = int(rng.integers(4, 40))
        h = rng.uniform(-1, 1, size=(n, n))
        core = 0.5 * (h + h.T)
        if block_statistic(core, 1) != u_statistic(core):
            bit_mismatch += 1
        for blocks in (2, n // 2):
            if n // blocks < 2:
                continue
            if block_statistic(core, blocks) != incomplete_statistic(core, DesignSet.block(n, blocks)):
                design_mismatch += 1
    ok = bit_mismatch == 0 and design_mismatch == 0
    _report(
        "criterion 4 (block identity)",
        ok,
        f"B=1 vs U bit mismatches {bit_mismatch}/100, block-vs-design mismatches {design_mismatch}",
    )


# ---------------------------------------------------------------------------
# 5. Fuse bracket and large-nu limit.
# ---------------------------------------------------------------------------


def test_criterion_05_fuse_bracket():
    rng = np.random.default_rng(50)
    bracket_fail = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 10))
        vals = rng.normal(size=k) * float(rng.uniform(0.1, 5.0))
        nu = float(rng.uniform(0.2, 100.0))
        fused = pool(vals, PoolConfig(method="fuse", nu=nu))
        if not (vals.max() - math.log(k) / nu - 1e-12 <= fused <= vals.max() + 1e-12):
            bracket_fail += 1
    vals = rng.normal(size=10)
    limit_gap = abs(pool(vals, PoolConfig(method="fuse", nu=1e6)) - vals.max())
    ok = bracket_fail == 0 and limit_gap <= 1e-4
    _report(
        "criterion 5 (fuse bracket)",
        ok,
        f"bracket failures {bracket_fail}/10000, |fuse(nu=1e6) - max| = {limit_gap:.2e} <= 1e-4",
    )


# ---------------------------------------------------------------------------
# 6. Aggregation: adjusted-level range, Bonferroni dominance, exhaustive level.
# ---------------------------------------------------------------------------


def test_criterion_06_aggregation():
    alpha = 0.05
    collection = KernelCollection(tuple(gaussian_kernel(b) for b in (0.4, 0.9, 2.1)))
    range_fail = 0
    dominance_fail = 0
    bonferroni_rejections = 0
    for trial in range(500):
        rng = np.random.default_rng((600, trial))
        shift = 0.7 if trial % 2 else 0.0
        data = TwoSampleData(rng.normal(size=(12, 2)), rng.normal(size=(12, 2)) + shift)
        rep = ReplicateSpec(count=99, method="permutation", seed=trial)
        agg = aggregated_test(data, collection, rep, alpha)
        if not (alpha / 3 - 1e-12 <= agg.adjusted_level <= alpha + 1e-12):
            range_fail += 1
        vals = collection_replicates(data, list(collection.kernels), rep, statistic="sqrt_v")
        pools = np.sort(vals, axis=1)
        bonferroni = bool((vals[:, 0] > _adjusted_thresholds(pools, np.full(3, alpha / 3))).any())
        if bonferroni:
            bonferroni_rejections += 1
            if not agg.reject:
                dominance_fail += 1
    # exhaustive micro-case: m + n = 6, two kernels, all 720 permutations
    rng = np.random.default_rng(61)
    specs = [gaussian_kernel(0.7), laplace_kernel(1.3)]
    worst_level = 0.0
    for _ in range(3):
        x, y = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
        z = np.vstack([x, y])
        grams = [gram_matrix(s, z, z) for s in specs]
        stats = np.empty((2, 720))
        for t, perm in enumerate(itertools.permutations(range(6))):
            mask = np.zeros(6)
            mask[list(perm[:3])] = 1.0
            for k, gram in enumerate(grams):
                gm = mask @ gram
                s_xx = float(gm @ mask)
                s_xy = float(gm @ (1.0 - mask))
                s_yy = gram.sum() - s_xx - 2 * s_xy
                v = s_xx / 9 + s_yy / 9 - 2 * s_xy / 9
                stats[k, t] = math.sqrt(max(v, 0.0))
        weights = np.full(2, 0.5)
        rejections = 0
        for t in range(720):
            originals = stats[:, t]
            u, _, _ = _RankTable(np.column_stack([originals, stats]), weights).search(alpha)
            pools = np.sort(np.column_stack([stats, originals]), axis=1)
            thr = _adjusted_thresholds(pools, u * weights * 2)
            rejections += bool((originals > thr).any())
        worst_level = max(worst_level, rejections / 720)
    ok = range_fail == 0 and dominance_fail == 0 and worst_level <= alpha and bonferroni_rejections > 0
    _report(
        "criterion 6 (aggregation)",
        ok,
        f"u* range failures {range_fail}/500, dominance failures {dominance_fail} "
        f"(of {bonferroni_rejections} Bonferroni rejections), exhaustive type I {worst_level:.4f} <= {alpha}",
    )


# ---------------------------------------------------------------------------
# 7. Sensitivity certification by brute-force neighbour enumeration.
# ---------------------------------------------------------------------------


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
    core = core_matrix_hsic(kx, ky, PairedData.from_parts(x, y))
    return math.sqrt(max(v_statistic(core), 0.0))


def test_criterion_07_sensitivity_certification():
    rng = np.random.default_rng(70)
    n = 6
    mmd_delta = global_sensitivity("mmd", 4.0, n, n).value
    hsic_delta = global_sensitivity("hsic", 16.0, n).value
    specs = [gaussian_kernel(b) for b in (0.6, 1.0, 1.8)]
    pool_configs = [
        PoolConfig(method="mean"),
        PoolConfig(method="max"),
        PoolConfig(method="fuse", nu=float(n)),
    ]
    mmd_fail = hsic_fail = pooled_fail = 0
    for _ in range(1000):
        x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        z = np.vstack([x, y])
        z2 = z.copy()
        z2[rng.integers(2 * n)] = rng.normal(size=2) * 3.0
        perm = rng.permutation(2 * n)
        zp, z2p = z[perm], z2[perm]
        a = _mmd_sqrt_v(zp[:n], zp[n:], GAUSS)
        b = _mmd_sqrt_v(z2p[:n], z2p[n:], GAUSS)
        if abs(a - b) > mmd_delta:
            mmd_fail += 1
        pooled_a = [_mmd_sqrt_v(zp[:n], zp[n:], s) for s in specs]
        pooled_b = [_mmd_sqrt_v(z2p[:n], z2p[n:], s) for s in specs]
        for config in pool_configs:
            if abs(pool(pooled_a, config) - pool(pooled_b, config)) > mmd_delta:
                pooled_fail += 1
    for _ in range(1000):
        x, y = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        x2, y2 = x.copy(), y.copy()
        i = rng.integers(n)
        x2[i], y2[i] = rng.normal() * 3.0, rng.normal() * 3.0
        perm = rng.permutation(n)
        if abs(_hsic_sqrt_v(x, y[perm], GAUSS, GAUSS) - _hsic_sqrt_v(x2, y2[perm], GAUSS, GAUSS)) > hsic_delta:
            hsic_fail += 1
    ok = mmd_fail == 0 and hsic_fail == 0 and pooled_fail == 0
    _report(
        "criterion 7 (sensitivity certification)",
        ok,
        f"mmd exceedances {mmd_fail}/1000, hsic {hsic_fail}/1000, pooled {pooled_fail}/3000",
    )


# ---------------------------------------------------------------------------
# 8. Differential privacy: degeneration, level, and the factor-2 noise scale.
# ---------------------------------------------------------------------------


def test_criterion_08_dp():
    rng = np.random.default_rng(80)
    data = TwoSampleData(rng.normal(size=(15, 2)), rng.normal(size=(15, 2)))
    rep = ReplicateSpec(count=99, method="permutation", seed=4)
    private = dp_test(data, GAUSS, 0.05, PrivacyParams(math.inf), rep)
    standard = two_sample_test(data, None, GAUSS, replicates=99, seed=4, statistic="sqrt_v")
    degenerates = (
        private.statistic == standard.statistic
        and private.threshold == standard.threshold
        and private.p_value == standard.p_value
        and private.reject == standard.reject
    )
    delta = global_sensitivity("mmd", 4.0, 15, 15).value
    scales = set()
    for count in (25, 99, 399):
        result = dp_test(data, GAUSS, 0.05, PrivacyParams(0.5), ReplicateSpec(count=count, seed=1))
        scales.add(result.constraint["noise_scale"])
    scale_ok = len(scales) == 1 and scales.pop() == pytest.approx(2.0 * delta / 0.5)
    alpha = 0.05
    trials = 2000
    level_ok = True
    rates = {}
    for xi in (0.5, 2.0):
        rejects = 0
        for trial in range(trials):
            g = np.random.default_rng((800, trial))
            null = TwoSampleData(g.normal(size=(15, 2)), g.normal(size=(15, 2)))
            rejects += dp_test(
                null, GAUSS, alpha, PrivacyParams(xi), ReplicateSpec(count=99, seed=trial)
            ).reject
        rates[xi] = rejects / trials
        level_ok &= rates[xi] <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    ok = degenerates and scale_ok and level_ok
    _report(
        "criterion 8 (differential privacy)",
        ok,
        f"eps=inf degenerates={degenerates}, noise scale 2*Delta/xi constant in B={scale_ok}, "
        f"null rates xi=0.5: {rates[0.5]:.4f}, xi=2: {rates[2.0]:.4f} (cap {alpha + 3 * math.sqrt(alpha * 0.95 / trials):.4f})",
    )


# ---------------------------------------------------------------------------
# 9. Robustness: level under adversarial corruption, r = 0 degeneration.
# ---------------------------------------------------------------------------


def test_criterion_09_robust():
    rng = np.random.default_rng(90)
    data = TwoSampleData(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)))
    rep = ReplicateSpec(count=99, method="permutation", seed=6)
    shifted = robust_test(data, GAUSS, 0.05, RobustParams(0), rep)
    standard = two_sample_test(data, None, GAUSS, replicates=99, seed=6, statistic="sqrt_v")
    degenerates = (
        shifted.statistic == standard.statistic
        and shifted.threshold == standard.threshold
        and shifted.p_value == standard.p_value
        and shifted.reject == standard.reject
    )
    alpha = 0.05
    trials = 2000
    n = 20
    level_ok = True
    rates = {}
    for r in (2, 8):
        rejects = 0
        for trial in range(trials):
            g = np.random.default_rng((900, r, trial))
            x = g.normal(size=(n, 1))
            y = g.normal(size=(n, 1))
            y[:r] = 25.0  # adversarial cluster maximising the statistic
            rejects += robust_test(
                TwoSampleData(x, y), GAUSS, alpha, RobustParams(r), ReplicateSpec(count=99, seed=trial)
            ).reject
        rates[r] = rejects / trials
        level_ok &= rates[r] <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    ok = degenerates and level_ok
    _report(
        "criterion 9 (robustness)",
        ok,
        f"r=0 degenerates={degenerates}, corrupted null rates r=2: {rates[2]:.4f}, r=8: {rates[8]:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. Separation-rate scaling: log-log slope near -1/2.
# ---------------------------------------------------------------------------


def test_criterion_10_rate_scaling():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="rate_scaling", framework="mmd", sample_sizes=(32, 64, 128, 256, 512),
        trials=100, replicates=99, method="wild", seed=3, bisection_steps=8, shift_bracket=4.0,
    )
    mmd_slope = run_experiment(cfg)["slope"]["estimate"]
    cfg = ExperimentConfig(
        experiment="rate_scaling", framework="hsic", sample_sizes=(32, 64, 128, 256, 512),
        trials=100, replicates=99, method="wild", seed=3, bisection_steps=8, shift_bracket=0.9,
    )
    hsic_slope = run_experiment(cfg)["slope"]["estimate"]
    elapsed = time.perf_counter() - start
    ok = -0.65 <= mmd_slope <= -0.35 and -0.65 <= hsic_slope <= -0.35 and elapsed < 600.0
    _report(
        "criterion 10 (rate scaling)",
        ok,
        f"mmd slope {mmd_slope:.3f}, hsic slope {hsic_slope:.3f} in [-0.65, -0.35] ({elapsed:.0f}s < 600s)",
    )


# ---------------------------------------------------------------------------
# 11. Efficiency: power nonincreasing in the block count.
# ---------------------------------------------------------------------------


def test_criterion_11_efficiency_degradation():
    trials = 250
    cfg = ExperimentConfig(
        experiment="constraint_sweep", framework="mmd", sample_sizes=(256,), trials=trials,
        replicates=99, method="wild", shift=0.3, blocks=(1, 4, 16, 64), seed=11,
    )
    cells = run_experiment(cfg)["cells"]
    powers = [c["rejection_rate"] for c in sorted(cells, key=lambda c: c["blocks"])]
    ok = True
    for lo_power, hi_power in zip(powers, powers[1:]):
        noise = 2.0 * math.sqrt(
            lo_power * (1 - lo_power) / trials + hi_power * (1 - hi_power) / trials
        )
        ok &= hi_power <= lo_power + noise
    _report(
        "criterion 11 (efficiency degradation)",
        ok,
        "power over B=(1,4,16,64): " + ", ".join(f"{p:.3f}" for p in powers) + " (nonincreasing within 2 sigma)",
    )


# ---------------------------------------------------------------------------
# 12. Stein identity for the KSD U-statistic.
# ---------------------------------------------------------------------------


def test_criterion_12_stein_identity():
    rng = np.random.default_rng(120)
    values = []
    for _ in range(200):
        x = rng.normal(size=(100, 1))
        core = core_matrix_ksd(GAUSS, ModelSampleData.from_score_field(x, standard_gaussian_score()))
        values.append(u_statistic(core))
    values = np.array(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    ok = abs(values.mean()) <= 3 * se
    _report(
        "criterion 12 (Stein identity)",
        ok,
        f"mean U = {values.mean():.2e}, |mean| / SE = {abs(values.mean()) / se:.2f} <= 3",
    )


# ---------------------------------------------------------------------------
# 13. Analytic derivatives against central finite differences.
# ---------------------------------------------------------------------------


def test_criterion_13_derivative_oracle():
    rng = np.random.default_rng(130)
    step = 1e-5
    worst = 0.0
    failures = 0
    # the families with a Stein kernel; the Laplace kernel has no derivative to check
    for spec in (gaussian_kernel(0.9), imq_kernel(0.8, exponent=0.6)):
        for _ in range(100):
            x, y = rng.normal(size=3), rng.normal(size=3)
            analytic_g = grad1_matrix(spec, x[None], y[None])[0, 0]
            analytic_c = cross_derivative_matrix(spec, x[None], y[None])[0, 0]
            fd_g = np.empty(3)
            fd_c = 0.0
            for i in range(3):
                e = np.zeros(3)
                e[i] = step
                fd_g[i] = (eval_kernel(spec, x + e, y) - eval_kernel(spec, x - e, y)) / (2 * step)
                fd_c += (
                    eval_kernel(spec, x + e, y + e)
                    - eval_kernel(spec, x + e, y - e)
                    - eval_kernel(spec, x - e, y + e)
                    + eval_kernel(spec, x - e, y - e)
                ) / (4 * step**2)
            # atol floor covers the stencil's own roundoff (~1e-6 at step 1e-5)
            for a, f in list(zip(analytic_g, fd_g)) + [(analytic_c, fd_c)]:
                gap = abs(a - f)
                tol = 1e-4 * abs(f) + 2e-6
                worst = max(worst, gap / (abs(f) + 2e-2))
                if gap > tol:
                    failures += 1
    ok = failures == 0
    _report(
        "criterion 13 (derivative oracle)",
        ok,
        f"failures {failures}/800 comparisons at rel tol 1e-4 (worst scaled gap {worst:.2e})",
    )
