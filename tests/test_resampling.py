import itertools
import math

import numpy as np
import pytest

from kerntest import constrained, engines, statistics, testing
from kerntest import kernels as kernels_module
from kerntest.engines import collection_replicates
from kerntest.harness import run as harness_run
from kerntest.harness.generators import builtin_generator
from kerntest.kernels import gaussian_kernel, imq_kernel, laplace_kernel, standard_gaussian_score
from kerntest.resampling import (
    TAG_CELL,
    TAG_DATA,
    TAG_NOISE,
    TAG_REPLICATE,
    ReplicateSpec,
    min_replicates,
    rademacher,
    sample_paired_permutation,
    sample_two_sample_permutation,
    stream,
    test_decision as decide,
)
from kerntest.statistics import (
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    core_matrix_hsic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
    incomplete_statistic,
    ksd_core_rows,
    u_statistic,
)
from kerntest.testing import independence_test, two_sample_test
from oracles import (
    held_rows,
    hsic_centered_grams,
    hsic_permuted_statistic,
    pair_swap_signs,
    permuted_statistic,
    wild_bootstrap_statistic,
)

GAUSS = gaussian_kernel(1.0)


def _random_core(rng, n):
    h = rng.uniform(-1, 1, size=(n, n))
    return 0.5 * (h + h.T)


# --- permutation sampling ----------------------------------------------------


def test_two_sample_permutation_m1_n1_enumerable():
    seen = set()
    for b in range(200):
        perm = sample_two_sample_permutation(stream(0, TAG_REPLICATE, b), 1, 1)
        seen.add(tuple(perm))
    assert seen == {(0, 1), (1, 0)}


def test_two_sample_permutation_uniform_chi_square():
    counts: dict = {}
    draws = 100_000
    for b in range(draws):
        perm = sample_two_sample_permutation(stream(42, TAG_REPLICATE, b), 2, 2)
        key = tuple(perm)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    p = 1.0 / 24.0
    se = math.sqrt(p * (1 - p) / draws)
    for count in counts.values():
        assert abs(count / draws - p) <= 4 * se


def test_paired_permutation_n2_enumerable():
    seen = {tuple(sample_paired_permutation(stream(1, TAG_REPLICATE, b), 2)) for b in range(100)}
    assert seen == {(0, 1), (1, 0)}


def test_rademacher_values():
    signs = rademacher(stream(0, TAG_REPLICATE, 0), 1000)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert abs(signs.mean()) < 0.15


# --- wild bootstrap statistic ---------------------------------------------------


def test_wild_all_plus_equals_incomplete_exactly():
    rng = np.random.default_rng(2)
    core = _random_core(rng, 7)
    design = DesignSet.block(7, 2)
    ones = np.ones(7)
    assert wild_bootstrap_statistic(core, design, ones) == incomplete_statistic(core, design)


def test_wild_global_sign_flip_invariant():
    rng = np.random.default_rng(3)
    core = _random_core(rng, 6)
    design = DesignSet.full_offdiag(6)
    signs = rademacher(stream(5, TAG_REPLICATE, 0), 6)
    assert wild_bootstrap_statistic(core, design, signs) == wild_bootstrap_statistic(
        core, design, -signs
    )


def test_wild_three_point_hand_sum():
    h = np.array([[0.0, 1.0, -2.0], [1.0, 0.0, 0.5], [-2.0, 0.5, 0.0]])
    signs = np.array([1.0, -1.0, 1.0])
    # pairs (i != j): eps_i eps_j H[i, j]
    expected = (-1.0 - 2.0 - 1.0 - 0.5 - 2.0 - 0.5) / 6.0
    got = wild_bootstrap_statistic(h, DesignSet.full_offdiag(3), signs)
    assert got == pytest.approx(expected, rel=1e-15)


def test_wild_sign_length_mismatch():
    rng = np.random.default_rng(4)
    core = _random_core(rng, 5)
    with pytest.raises(ValueError):
        wild_bootstrap_statistic(core, DesignSet.full_offdiag(5), np.ones(4))


@pytest.mark.parametrize("blocks", [1, 3])
def test_wild_engine_block_branch_matches_pair_gather(blocks):
    rng = np.random.default_rng(11)
    n = 10
    data = TwoSampleData(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    specs = [gaussian_kernel(0.7), gaussian_kernel(1.5)]
    rep = ReplicateSpec(count=49, method="wild_bootstrap", seed=2)
    block = DesignSet.block(n, blocks)
    pairs = DesignSet(block.idx_i, block.idx_j)
    assert block.block_count == blocks and pairs.block_count is None
    quadratic = collection_replicates(data, specs, rep, design=block)
    gathered = collection_replicates(data, specs, rep, design=pairs)
    for a, b in zip(quadratic, gathered):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    complete = collection_replicates(data, specs, rep)
    full = collection_replicates(data, specs, rep, design=DesignSet.full_offdiag(n))
    for a, b in zip(complete, full):
        assert np.array_equal(a, b)


def test_wild_single_test_rejects_statistic_kind():
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    with pytest.raises(ValueError, match="statistic kind"):
        two_sample_test(x, y, GAUSS, replicates=19, method="wild_bootstrap", statistic="u")


# --- permuted statistic and the bootstrap equivalences ---------------------------


def test_identity_permutation_reproduces_original():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    assert permuted_statistic(core, []) == u_statistic(core)
    paired = PairedData.from_parts(x, y)
    hsic = core_matrix_hsic(GAUSS, GAUSS, paired)
    assert hsic_permuted_statistic(*hsic_centered_grams(GAUSS, GAUSS, paired), np.arange(6)) == u_statistic(hsic)


def test_mmd_swap_equivalence_bit_exact():
    rng = np.random.default_rng(6)
    n = 8
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    design = DesignSet.full_offdiag(n)
    for bits in itertools.product([1.0, -1.0], repeat=n):
        signs = np.array(bits)
        swapped = np.nonzero(signs < 0)[0]
        assert wild_bootstrap_statistic(core, design, signs) == permuted_statistic(
            core, swapped, design
        )


def test_hsic_swap_equivalence_bit_exact():
    rng = np.random.default_rng(7)
    n = 8
    data = PairedData.from_parts(rng.normal(size=(n, 1)), rng.normal(size=(n, 2)))
    core = core_matrix_hsic_wild(GAUSS, GAUSS, data)
    design = DesignSet.full_offdiag(n // 2)
    for bits in itertools.product([1.0, -1.0], repeat=n // 2):
        signs = np.array(bits)
        swapped = np.nonzero(signs < 0)[0]
        assert wild_bootstrap_statistic(core, design, signs) == permuted_statistic(
            core, swapped, design
        )


def test_swap_equivalence_matches_data_recomputation():
    # the sign-flip identity agrees with rebuilding the core from swapped data
    rng = np.random.default_rng(8)
    n = 6
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    for bits in itertools.product([True, False], repeat=n):
        swap = np.array(bits)
        x2, y2 = x.copy(), y.copy()
        x2[swap], y2[swap] = y[swap], x[swap]
        rebuilt = core_matrix_mmd(GAUSS, TwoSampleData(x2, y2))
        signs = pair_swap_signs(n, np.nonzero(swap)[0])
        np.testing.assert_allclose(rebuilt, np.outer(signs, signs) * core, atol=1e-12)


def test_joint_pair_relabeling_invariance():
    # reordering the pairs (X and Y rows together) leaves the statistic unchanged
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(9, 2)), rng.normal(size=(9, 1))
    base = u_statistic(core_matrix_hsic(GAUSS, GAUSS, PairedData.from_parts(x, y)))
    for _ in range(5):
        order = rng.permutation(9)
        relabeled = u_statistic(
            core_matrix_hsic(GAUSS, GAUSS, PairedData.from_parts(x[order], y[order]))
        )
        assert relabeled == pytest.approx(base, rel=1e-12)


def test_hsic_permuted_statistic_matches_recomputation():
    rng = np.random.default_rng(9)
    n = 7
    data = PairedData.from_parts(rng.normal(size=(n, 2)), rng.normal(size=(n, 1)))
    kc, lc = hsic_centered_grams(GAUSS, GAUSS, data)
    for b in range(5):
        perm = sample_paired_permutation(stream(3, TAG_REPLICATE, b), n)
        permuted_data = PairedData.from_parts(data.x_part, data.y_part[perm])
        rebuilt = core_matrix_hsic(GAUSS, GAUSS, permuted_data)
        assert hsic_permuted_statistic(kc, lc, perm) == pytest.approx(u_statistic(rebuilt), rel=1e-10)


# --- decisions -------------------------------------------------------------------


def test_decision_original_largest():
    replicates = np.linspace(0.0, 1.0, 19)
    result = decide(2.0, replicates, 0.05)
    assert result.p_value == pytest.approx(1.0 / 20.0)
    assert result.reject
    assert result.statistic > result.threshold


def test_decision_all_tied():
    result = decide(1.0, np.ones(99), 0.05)
    assert result.p_value == 1.0
    assert not result.reject


def test_decision_original_smallest():
    result = decide(-1.0, np.linspace(0.0, 1.0, 99), 0.05)
    assert result.p_value == 1.0
    assert not result.reject


def test_decision_validation():
    with pytest.raises(ValueError):
        decide(0.0, np.array([]), 0.05)
    with pytest.raises(ValueError):
        decide(0.0, np.zeros(5), 1.5)


def test_decision_rules_agree_on_random_pools():
    rng = np.random.default_rng(10)
    for _ in range(500):
        b = int(rng.integers(5, 200))
        replicates = rng.normal(size=b)
        original = float(rng.normal())
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25, 1.0 / 3.0]))
        res = decide(original, replicates, alpha)
        assert res.reject == (res.statistic > res.threshold)
        assert res.reject == (res.p_value <= alpha + 1e-12)
        assert res.p_value >= 1.0 / (b + 1)


def test_decision_integer_quantile_boundary():
    # (1 - alpha)(B + 1) integral: threshold index must not drift from float error
    replicates = np.arange(1.0, 60.0)  # B = 59, pool size 60, alpha = 0.05 -> index 57
    res = decide(0.5, replicates, 0.05)
    pool = np.sort(np.concatenate([[0.5], replicates]))
    assert res.threshold == pool[56]  # 57th order statistic


def test_decision_rules_agree_at_levels_next_to_a_p_value():
    # alpha just below k / M once rejected at p = k / M, and alpha within
    # 1e-9 / M of 1 read the pool's maximum as the threshold
    for size in (20, 100, 200, 500, 1000):
        cases = [(0.0, np.ones(size - 1), alpha) for alpha in (1 - 1e-12, np.nextafter(1.0, 0.0))]
        for k in range(1, size):
            above, level = np.r_[np.ones(k - 1), np.zeros(size - k)], k / size  # p = k / M
            cases += [(0.5, above, alpha) for alpha in (level, np.nextafter(level, 0.0), level * (1 - 1e-12))]
        for original, replicates, alpha in cases:
            res = decide(original, replicates, alpha)
            assert res.reject == (res.p_value <= alpha) == (res.statistic > res.threshold)


def test_min_replicates_values():
    assert min_replicates(0.05, 0.05) == 443
    assert min_replicates(0.5, 0.999999999) == 9
    assert min_replicates(0.5, 2.0 * math.exp(-1.0)) == 12
    with pytest.raises(ValueError):
        min_replicates(0.0, 0.5)


# --- determinism and exact validity ----------------------------------------------


def test_full_determinism():
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    a = two_sample_test(x, y, GAUSS, replicates=49, seed=5)
    b = two_sample_test(x, y, GAUSS, replicates=49, seed=5)
    assert a == b
    data = PairedData.from_parts(x, y)
    c = independence_test(data, GAUSS, GAUSS, replicates=49, seed=5, method="wild_bootstrap")
    d = independence_test(data, GAUSS, GAUSS, replicates=49, seed=5, method="wild_bootstrap")
    assert c == d


def _exhaustive_permutation_pvalues(x, y):
    """p-values of the U-statistic permutation test with the full S_6 group."""
    data = TwoSampleData(x, y)
    z = np.vstack([x, y])
    from kerntest.kernels import gram_matrix

    gram = gram_matrix(GAUSS, z, z)
    m = x.shape[0]
    stats = []
    for perm in itertools.permutations(range(6)):
        mask = np.zeros(6)
        mask[list(perm[:m])] = 1.0
        gm = mask @ gram
        s_xx = float(gm @ mask)
        s_xy = float(gm @ (1.0 - mask))
        s_yy = gram.sum() - s_xx - 2 * s_xy
        diag = np.diagonal(gram)
        d_x = float(mask @ diag)
        d_y = diag.sum() - d_x
        n = 6 - m
        stats.append(
            (s_xx - d_x) / (m * (m - 1)) + (s_yy - d_y) / (n * (n - 1)) - 2 * s_xy / (m * n)
        )
    stats = np.array(stats)
    total = stats.size
    pvals = np.array([(1 + np.count_nonzero(stats >= s)) / (total + 1) for s in stats])
    return pvals


def test_p_value_validity_exhaustive():
    # under exchangeability, P(p <= alpha) <= alpha on the grid {k/(B+1)}
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
    pvals = _exhaustive_permutation_pvalues(x, y)
    total = pvals.size
    for k in range(1, total + 2):
        alpha = k / (total + 1)
        assert np.count_nonzero(pvals <= alpha) / total <= alpha + 1e-12


# --- batched replicate streams -----------------------------------------------


def _reference_stream(seed, tag, index):
    """One default_rng per replicate index: the per-replicate contract itself."""
    if isinstance(index, range):
        return (np.random.default_rng(np.random.SeedSequence((seed, tag, b))) for b in index)
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100])
@pytest.mark.parametrize("indices", [range(0, 12), range(1000, 1009)])
def test_batch_stream_bit_identical_to_seed_sequence(seed, indices):
    for tag in (TAG_REPLICATE, TAG_NOISE, TAG_DATA, TAG_CELL):
        batch = stream(seed, tag, indices)
        for b in indices:
            rng = next(batch)
            ref = np.random.default_rng(np.random.SeedSequence((seed, tag, b)))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.integers(0, 2, size=5), ref.integers(0, 2, size=5))
            assert rng.random() == ref.random()
        assert next(batch, None) is None


def test_batch_streams_interleave_independently():
    batches = [stream(3, TAG_REPLICATE, range(20)), stream(2**70, TAG_NOISE, range(5, 25))]
    interleaved = [[], []]
    for pair in zip(*batches):
        for k, rng in enumerate(pair):
            interleaved[k].append(rng.permutation(6).tolist())
    sequential = [
        [rng.permutation(6).tolist() for rng in stream(3, TAG_REPLICATE, range(20))],
        [rng.permutation(6).tolist() for rng in stream(2**70, TAG_NOISE, range(5, 25))],
    ]
    assert interleaved == sequential


def test_batch_stream_rejects_negative_and_wide_indices():
    with pytest.raises(ValueError):
        stream(-1, TAG_REPLICATE, range(3))
    with pytest.raises(ValueError):
        stream(0, TAG_REPLICATE, range(-1, 3))
    with pytest.raises(ValueError):
        stream(0, TAG_REPLICATE, range(2**32 - 1, 2**32 + 1))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("statistic", ["u", "v", "sqrt_v"])
def test_mmd_permutation_replicates_with_the_original_labelling_tie_exactly(dim, statistic):
    # m = n = 2 has 6 labellings: about a sixth of the replicates keep the
    # original's, and each must count as reaching it
    rng = np.random.default_rng(4)
    two = TwoSampleData(rng.normal(size=(2, dim)), rng.normal(size=(2, dim)))
    rep = ReplicateSpec(count=199, seed=5)
    vals = engines.mmd_permutation_replicates(two, [gaussian_kernel(1.3)], rep, statistic)
    original, replicates = vals[:, 0], vals[:, 1:]
    kept = [
        set(sample_two_sample_permutation(rng, 2, 2)[:2]) == {0, 1}
        for rng in stream(rep.seed, TAG_REPLICATE, range(rep.count))
    ]
    assert sum(kept) > 10
    np.testing.assert_array_equal(replicates[0][kept], original[0])


def test_mmd_permutation_statistic_of_identical_samples_is_zero():
    x = np.random.default_rng(6).normal(size=(12, 2))
    vals = engines.mmd_permutation_replicates(
        TwoSampleData(x, x), [gaussian_kernel(1.1)], ReplicateSpec(count=19, seed=1), "v"
    )
    assert vals[0, 0] == 0.0


def _full_gram_mmd_replicates(data, specs, rep, statistic):
    """The MMD permutation engine with the whole gram held: one product
    with the masks and the original's sums read from the gram's blocks."""
    m, n = data.m, data.n
    masks = np.zeros((rep.count + 1, m + n))
    masks[0, :m] = 1.0
    for row, rng in zip(masks[1:], stream(rep.seed, TAG_REPLICATE, range(rep.count))):
        row[sample_two_sample_permutation(rng, m, n)[:m]] = 1.0
    same = (masks == masks[0]).all(axis=1)
    vals = []
    for spec in specs:
        gram = data.distances.gram(spec)
        gm = masks @ gram
        s_xx = (gm * masks).sum(axis=1)
        s_xy = (gm - gm * masks).sum(axis=1)
        s_yy = gram.sum() - s_xx - 2.0 * s_xy
        s_xx[same], s_xy[same], s_yy[same] = gram[:m, :m].sum(), gram[:m, m:].sum(), gram[m:, m:].sum()
        if statistic == "u":
            d_x = masks @ np.diagonal(gram)
            d_y = np.diagonal(gram).sum() - d_x
            vals.append((s_xx - d_x) / (m * (m - 1)) + (s_yy - d_y) / (n * (n - 1)) - 2.0 * s_xy / (m * n))
        else:
            v = s_xx / (m * m) + s_yy / (n * n) - 2.0 * s_xy / (m * n)
            vals.append(np.sqrt(np.maximum(v, 0.0)) if statistic == "sqrt_v" else v)
    return np.array(vals)


def _mmd_case(m, n, kernels, dim=3):
    rng = np.random.default_rng(m + n)
    data = TwoSampleData(rng.normal(size=(m, dim)), rng.normal(size=(n, dim)) + 0.3)
    specs = [gaussian_kernel(1.0 + 0.7 * k) for k in range(kernels)]
    return data, specs


@pytest.mark.parametrize(
    "m, n, height",
    [(17, 23, None), (17, 23, 7), (100, 156, None), (130, 127, None), (500, 530, None)],
)
@pytest.mark.parametrize("statistic", engines.STATISTIC_KINDS)
@pytest.mark.parametrize("kernels", [1, 3])
def test_mmd_permutation_gram_blocks_match_the_whole_gram(m, n, height, statistic, kernels, monkeypatch):
    if height is not None:
        monkeypatch.setattr(engines, "_GATHER_CHUNK_ELEMENTS", height * (m + n))
        monkeypatch.setattr(engines, "_GRAM_BLOCK_MIN_ROWS", 1)
    blocks = engines._gram_row_blocks(m, n)
    # N <= 256 is one block unless the block size is patched; otherwise X
    # and Y are tiled apart and some block is cut short
    assert (len(blocks) == 1) == (m + n <= 256 and height is None)
    if len(blocks) > 1:
        assert m in {a for a, _ in blocks} and len({b - a for a, b in blocks}) > 1
    data, specs = _mmd_case(m, n, kernels)
    rep = ReplicateSpec(count=29, seed=9)
    got = engines.mmd_permutation_replicates(data, specs, rep, statistic)
    want = _full_gram_mmd_replicates(data, specs, rep, statistic)
    for g, w in zip(got, want, strict=True):
        if len(blocks) == 1:
            np.testing.assert_array_equal(g, w)
        else:
            # u values are differences of terms of order one, the kernel bound:
            # near zero only an absolute tolerance is meaningful
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 5])
def test_mmd_permutation_statistic_of_identical_samples_is_zero_in_blocks(dim):
    x = np.random.default_rng(7).normal(size=(300, dim))
    assert len(engines._gram_row_blocks(300, 300)) > 2
    specs = [gaussian_kernel(1.1), imq_kernel(0.9), laplace_kernel(1.7)]
    for statistic in ("v", "sqrt_v"):
        vals = engines.mmd_permutation_replicates(
            TwoSampleData(x, x), specs, ReplicateSpec(count=9, seed=1), statistic
        )
        assert np.all(vals[:, 0] == 0.0)


@pytest.mark.parametrize("statistic", engines.STATISTIC_KINDS)
def test_mmd_permutation_replicates_with_the_original_labelling_tie_exactly_in_blocks(statistic, monkeypatch):
    # at N > 256 a drawn labelling almost never keeps the original's, so
    # every third replicate is made to shuffle within the two groups only
    m, n = 300, 340
    assert len(engines._gram_row_blocks(m, n)) > 2
    calls = []

    def sample(rng, m, n):
        perm = sample_two_sample_permutation(rng, m, n)
        calls.append(len(calls) % 3 == 0)
        if calls[-1]:
            perm = np.concatenate([rng.permutation(m), m + rng.permutation(n)])
        return perm

    monkeypatch.setattr(engines, "sample_two_sample_permutation", sample)
    data, specs = _mmd_case(m, n, 2)
    vals = engines.mmd_permutation_replicates(data, specs, ReplicateSpec(count=30, seed=2), statistic)
    original, replicates = vals[:, 0], vals[:, 1:]
    kept = np.array(calls)
    assert kept.sum() == 10
    for k in range(len(specs)):
        np.testing.assert_array_equal(replicates[k][kept], original[k])
        assert np.all(replicates[k][~kept] != original[k])


@pytest.mark.parametrize("count", [1, 99])
def test_engines_match_per_replicate_generators(count, monkeypatch):
    rng = np.random.default_rng(21)
    two = TwoSampleData(rng.normal(size=(7, 2)), rng.normal(size=(11, 2)))
    paired = PairedData.from_parts(rng.normal(size=(9, 1)), rng.normal(size=(9, 2)))
    cores = [held_rows(_random_core(rng, 10)), held_rows(_random_core(rng, 10))]
    rep = ReplicateSpec(count=count, seed=2**40 + 3)
    wild = ReplicateSpec(count=count, method="wild_bootstrap", seed=8)
    specs = [gaussian_kernel(0.8), gaussian_kernel(2.0)]

    def run():
        return [
            *engines.mmd_permutation_replicates(two, specs, rep, "u"),
            *engines.hsic_permutation_replicates(paired, [(s, s) for s in specs], rep),
            engines._sign_matrix(wild.seed, count, 10),
            *engines.wild_replicates(cores, DesignSet.block(10, 2), wild),
            constrained._noise_vector(rep.seed, count + 1, 0.3),
        ]

    batched = run()
    requested = []

    def reference_stream(seed, tag, index):
        requested.append((seed, tag, index))
        return _reference_stream(seed, tag, index)

    monkeypatch.setattr(engines, "stream", reference_stream)
    monkeypatch.setattr(constrained, "stream", reference_stream)
    reference = run()
    for got, want in zip(batched, reference, strict=True):
        assert np.array_equal(got, want)
    # replicate b (row b + 1) draws from index b; noise index 0 is the original's
    permutations = [(rep.seed, TAG_REPLICATE, range(count))] * 2
    signs = [(wild.seed, TAG_REPLICATE, range(count))] * 2
    assert requested == permutations + signs + [(rep.seed, TAG_NOISE, range(count + 1))]


@pytest.mark.parametrize("seed", [0, 2**32, 2**64, 2**100])
@pytest.mark.parametrize("count", [1, 499])
def test_sign_matrix_rows_are_rademacher_draws(seed, count):
    for n in (1, 2, 3, 201, 1024):
        signs = engines._sign_matrix(seed, count, n)
        assert signs.shape == (count + 1, n)
        assert np.all(signs[0] == 1.0)
        for b in range(count):
            rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_REPLICATE, b)))
            assert np.array_equal(signs[b + 1], rademacher(rng, n))


@pytest.mark.parametrize("n", [1, 201, 1024])
def test_sign_matrix_values_do_not_depend_on_the_word_chunk(n, monkeypatch):
    # the raw words of a chunk of replicates are converted in one pass: one
    # replicate per chunk, a few with a shorter last chunk, or all at once
    want = engines._sign_matrix(5, 37, n)
    for words in (1, 3 * ((n + 1) // 2), 2**20):
        monkeypatch.setattr(engines, "_SIGN_CHUNK_WORDS", words)
        np.testing.assert_array_equal(engines._sign_matrix(5, 37, n), want)


def test_sign_matrix_allocates_its_result_and_little_more(traced_peak):
    count, n = 499, 2048
    peak = traced_peak(lambda: engines._sign_matrix(3, count, n))
    # the B generator states take a few hundred bytes each and one
    # replicate's raw words 4n bytes: a (B, n) temporary of any dtype breaks this
    assert peak <= (count + 1) * n * 8 + 512 * count + 64 * n + 2**16


def test_mmd_permutation_replicates_allocate_masks_products_and_little_more(traced_peak):
    count, m = 499, 100
    rng = np.random.default_rng(8)
    two = TwoSampleData(rng.normal(size=(m, 3)), rng.normal(size=(m, 3)))
    two.distances.squared  # cached before tracing: it is the dataset's, not the engine's
    rep = ReplicateSpec(count=count, seed=4)
    peak = traced_peak(lambda: engines.mmd_permutation_replicates(two, [gaussian_kernel(1.0)], rep, "u"))
    rows, total = count + 1, 2 * m
    # masks and masks @ gram, the gram, one block of masked products, the
    # (rows, N) comparison with the original's mask as bools, the B generator
    # states and O(rows + N) vectors: one more (rows, N) float or index array breaks this
    allowed = 2 * rows * total * 8 + total * total * 8 + engines._GATHER_CHUNK_ELEMENTS * 8
    allowed += rows * total + 512 * count + 64 * (rows + total) + 2**16
    assert peak <= allowed


def test_a_block_design_costs_the_wild_engine_no_index_pairs(traced_peak):
    # block(512, 2) has 2 * 256 * 255 pairs, 2 MiB of indices, which the
    # engine never reads: it sums per-block quadratic forms
    rng = np.random.default_rng(10)
    two = TwoSampleData(rng.normal(size=(512, 3)), rng.normal(size=(512, 3)))
    specs, rep = [gaussian_kernel(1.0)], ReplicateSpec(count=199, method="wild_bootstrap", seed=4)
    complete = traced_peak(lambda: collection_replicates(two, specs, rep))
    blocks = traced_peak(lambda: collection_replicates(two, specs, rep, design=DesignSet.block(512, 2)))
    assert blocks <= complete


def test_mmd_permutation_replicates_hold_no_gram_at_n_1024(traced_peak):
    count, m = 199, 512
    rng = np.random.default_rng(9)
    two = TwoSampleData(rng.normal(size=(m, 3)), rng.normal(size=(m, 3)))
    two.distances.squared  # cached before tracing: it is the dataset's, not the engine's
    rep = ReplicateSpec(count=count, seed=4)
    peak = traced_peak(lambda: engines.mmd_permutation_replicates(two, [gaussian_kernel(1.0)], rep, "u"))
    rows, total = count + 1, 2 * m
    height = max(engines._GRAM_BLOCK_MIN_ROWS, engines._GATHER_CHUNK_ELEMENTS // total)
    # the masks, one tile of the gram and its (rows, height) product with the
    # masks, one block of masked products, the (rows, N) comparison with the
    # original's mask as bools, the B generator states and O(rows + N)
    # vectors: the (N, N) gram, 8 MiB, a (rows, N) float array, 1.5 MiB, or
    # a second tile breaks this
    allowed = rows * total * 8 + height * m * 8 + 2 * rows * height * 8
    allowed += rows * total + 512 * count + 64 * (rows + total) + 2**16
    assert peak <= allowed


def _hsic_case(n, kernels):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    data = PairedData.from_parts(x, 0.5 * x[:, :1] + rng.normal(size=(n, 1)))
    pairs = [(gaussian_kernel(0.6 + 0.5 * k), gaussian_kernel(0.8 + 0.4 * k)) for k in range(kernels)]
    return data, pairs


def _hsic_permutations(rep, n):
    perms = [np.arange(n)]
    perms += [sample_paired_permutation(rng, n) for rng in stream(rep.seed, TAG_REPLICATE, range(rep.count))]
    return perms


def _full_gather_replicates(data, pairs, rep, statistic):
    """The engine as it was before row blocking: both centred grams stacked
    over kernels and gathered whole, (K, chunk, n, n) at a time."""
    n = data.n
    grams = [hsic_centered_grams(kx, ky, data) for kx, ky in pairs]
    kc = np.stack([k for k, _ in grams])
    lc = np.stack([l for _, l in grams])
    k_diag = np.einsum("kii->ki", kc).copy()
    l_diag = np.einsum("kii->ki", lc).copy()
    perms = np.array(_hsic_permutations(rep, n))
    inverses = np.argsort(perms, axis=1)
    vals = np.empty((len(pairs), rep.count + 1))
    chunk = max(1, (1 << 16) // (n * n * len(pairs)))
    for lo in range(0, rep.count + 1, chunk):
        hi = min(lo + chunk, rep.count + 1)
        p = perms[lo:hi]
        kq = np.take(kc, inverses[lo:hi], axis=2)
        lp = np.take(lc, p, axis=1)
        total = np.einsum("kicj,kcij->kc", kq, lp)
        if statistic == "u":
            trace = (k_diag[:, None, :] * l_diag[:, p]).sum(axis=2)
            vals[:, lo:hi] = (total - trace) / (n * (n - 1))
        else:
            v = total / (n * n)
            vals[:, lo:hi] = np.sqrt(np.maximum(v, 0.0)) if statistic == "sqrt_v" else v
    return vals


@pytest.mark.parametrize("kernels", [1, 3])
@pytest.mark.parametrize("n", [20, 181, 182, 300, 513])
def test_hsic_permutation_engine_matches_full_matrix_statistics(n, kernels):
    # up to n = 181 the upper triangle is one block of rows; from 182 on it
    # has several, and at 182, 300 and 513 they do not divide n.  Up to
    # n = 45 (and in the last block at 182 and 513) a chunk of replicates is
    # gathered at once, else one replicate at a time.
    data, pairs = _hsic_case(n, kernels)
    rep = ReplicateSpec(count=19, seed=5)
    perms = _hsic_permutations(rep, n)
    # (K, B + 1) values per statistic kind, the original first
    got = {kind: engines.hsic_permutation_replicates(data, pairs, rep, kind) for kind in engines.STATISTIC_KINDS}
    full = {kind: _full_gather_replicates(data, pairs, rep, kind) for kind in engines.STATISTIC_KINDS}
    for k, (kx, ky) in enumerate(pairs):
        kc, lc = hsic_centered_grams(kx, ky, data)
        sums = [np.einsum("ij,ij->", kc, lc[np.ix_(p, p)]) for p in perms]
        want = {
            "u": [hsic_permuted_statistic(kc, lc, p) for p in perms],
            "v": np.divide(sums, n * n),
            "sqrt_v": np.sqrt(np.divide(sums, n * n)),
        }
        for kind in engines.STATISTIC_KINDS:
            # the engine sums the triangle in another order than either
            # reference: a u value near 0 (at n = 513 one is -2.8e-7 in a
            # row reaching 4e-3) keeps only the row's absolute accuracy
            atol = 1e-12 * np.abs(want[kind]).max()
            np.testing.assert_allclose(got[kind][k], want[kind], rtol=1e-12, atol=atol)
            np.testing.assert_allclose(got[kind][k], full[kind][k], rtol=1e-12, atol=atol)


@pytest.mark.parametrize("statistic", engines.STATISTIC_KINDS)
@pytest.mark.parametrize("n", [20, 181])
def test_hsic_permutation_engine_single_kernel_values_are_unchanged(n, statistic):
    # the triangle engine sums in another order than the full gather, so its
    # values move in the last digits; the order of the B + 1 values, which is
    # all a p-value reads, is exactly the full gather's
    data, pairs = _hsic_case(n, 1)
    rep = ReplicateSpec(count=99, seed=6)
    got = engines.hsic_permutation_replicates(data, pairs, rep, statistic)
    for g, w in zip(got, _full_gather_replicates(data, pairs, rep, statistic), strict=True):
        np.testing.assert_array_equal(np.argsort(g, kind="stable"), np.argsort(w, kind="stable"))
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def test_hsic_permutation_engine_values_do_not_depend_on_the_gather_budget(monkeypatch):
    data, pairs = _hsic_case(300, 2)
    rep = ReplicateSpec(count=24, seed=7)
    want = engines.hsic_permutation_replicates(data, pairs, rep, "u")
    for budget in (2, 2**10, 2**22):  # one row of one replicate, a few rows, every row of 23 replicates
        monkeypatch.setattr(engines, "_GATHER_CHUNK_ELEMENTS", budget)
        got = engines.hsic_permutation_replicates(data, pairs, rep, "u")
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n", [20, 45])
def test_hsic_permutation_engine_values_do_not_depend_on_the_replicate_chunk(n):
    # a small tile is gathered for a chunk of replicates at once (81 at
    # n = 20, 16 at n = 45): with B + 1 one more than a chunk, the last
    # replicate is a chunk of its own and gets the value it has in a larger one
    data, pairs = _hsic_case(n, 2)
    chunk = engines._TRIANGLE_ELEMENTS // (n * n)
    for statistic in engines.STATISTIC_KINDS:
        alone = engines.hsic_permutation_replicates(data, pairs, ReplicateSpec(count=chunk, seed=8), statistic)
        within = engines.hsic_permutation_replicates(data, pairs, ReplicateSpec(count=2 * chunk, seed=8), statistic)
        np.testing.assert_array_equal(alone, within[:, : chunk + 1])


@pytest.mark.parametrize("statistic", engines.STATISTIC_KINDS)
@pytest.mark.parametrize("n", [20, 300])
def test_hsic_permutation_replicates_with_the_identity_tie_exactly(n, statistic, monkeypatch):
    # every third draw is made the identity, the original's own pairing; at
    # n = 300 a gather block holds fewer rows than n
    calls = []

    def sample(rng, n):
        perm = sample_paired_permutation(rng, n)
        calls.append(len(calls) % 3 == 0)
        return np.arange(n) if calls[-1] else perm

    monkeypatch.setattr(engines, "sample_paired_permutation", sample)
    data, pairs = _hsic_case(n, 2)
    count = 30
    rep = ReplicateSpec(count=count, seed=3)
    vals = engines.hsic_permutation_replicates(data, pairs, rep, statistic)
    original, replicates = vals[:, 0], vals[:, 1:]
    kept = np.array(calls)
    assert kept.sum() == 10
    for k in range(len(pairs)):
        np.testing.assert_array_equal(replicates[k][kept], original[k])
        assert np.all(replicates[k][~kept] != original[k])
        # the decision counts every tie as a replicate at least the original
        exceeding = kept.sum() + np.count_nonzero(replicates[k][~kept] > original[k])
        assert decide(original[k], replicates[k], 0.05).p_value == (1 + exceeding) / (count + 1)


def _forced_tie_signs(monkeypatch, blocks):
    """Make every third replicate's signs, and the last two replicates',
    constant within each of ``blocks`` blocks, so that their products
    eps_i eps_j equal the original's on every pair of a block design (or of
    any design, with one block).  Returns the (B,) mask of those replicates,
    filled in when the signs are drawn."""
    real = engines._sign_matrix
    tied = []

    def signs(seed, count, n):
        out = real(seed, count, n)
        size = n // blocks
        rng = np.random.default_rng(seed)
        tied[:] = [b % 3 == 1 or b > count - 2 for b in range(1, count + 1)]
        for b in np.flatnonzero(tied) + 1:
            for a in range(0, blocks * size, size):
                out[b, a : a + size] = rng.choice([-1.0, 1.0])
        return out

    monkeypatch.setattr(engines, "_sign_matrix", signs)
    return tied


@pytest.mark.parametrize(
    "n, data_seed, bandwidth, design",
    [(17, 1, 0.7, {}), (34, 3, 1.3, {"blocks": 2}), (17, 0, 0.7, {"design_size": 40})],
)
def test_wild_single_test_counts_replicates_tied_with_the_original(
    n, data_seed, bandwidth, design, monkeypatch, recorded
):
    # B + 1 = 31 sign rows: with these data, BLAS rounds the last rows of the
    # sign products, past its last full panel of rows, apart from row 0
    tied = _forced_tie_signs(monkeypatch, design.get("blocks", 1))
    calls = recorded(testing, "collection_replicates")
    rng = np.random.default_rng(data_seed)
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    count = 30
    result = two_sample_test(
        x, y, gaussian_kernel(bandwidth), replicates=count, method="wild_bootstrap", seed=3, **design
    )
    ((_, vals),) = calls
    original, replicates = vals[0, 0], vals[0, 1:]
    assert sum(tied) == 12
    np.testing.assert_array_equal(replicates[tied], original)
    assert result.statistic == original
    assert result.p_value == (1 + np.count_nonzero(replicates >= original)) / (count + 1)


@pytest.mark.parametrize("statistic", ["u", "sqrt_v"])
def test_hsic_permutation_replicates_gather_blocks_not_matrices(statistic, traced_peak):
    count, n = 199, 512
    data, pairs = _hsic_case(n, 1)
    data.x_distances.squared, data.y_distances.squared  # cached before tracing: they are the dataset's
    rep = ReplicateSpec(count=count, seed=4)
    peak = traced_peak(lambda: engines.hsic_permutation_replicates(data, pairs, rep, statistic))
    rows = count + 1
    # the centred Y gram, the perms as intp, a tile of the X gram and one
    # replicate's row and column takes (or a chunk of the u trace), the B
    # generator states and O(rows + n) vectors: a second gram, 2 MiB, or a
    # (rows, n) float array, 0.8 MB, breaks this
    allowed = n * n * 8 + rows * n * 8 + 3 * engines._TRIANGLE_ELEMENTS * 8
    assert peak <= allowed + 512 * count + 64 * (rows + n) + 2**16


def test_hsic_permutation_replicates_hold_one_gram_at_n_1024(traced_peak):
    count, n = 199, 1024
    data, pairs = _hsic_case(n, 1)
    data.x_distances.squared, data.y_distances.squared  # cached before tracing: they are the dataset's
    rep = ReplicateSpec(count=count, seed=4)
    peak = traced_peak(lambda: engines.hsic_permutation_replicates(data, pairs, rep, "v"))
    rows = count + 1
    # the centred Y gram, centred in place a block of rows at a time, the
    # perms as intp, a tile of the X gram and one replicate's row and column
    # takes, the B generator states and O(rows + n) vectors: a second gram,
    # 8 MiB, or a (rows, n) float array, 1.6 MB, breaks this
    allowed = n * n * 8 + rows * n * 8 + 3 * engines._TRIANGLE_ELEMENTS * 8 + statistics._CORE_BLOCK_ELEMENTS * 8
    assert peak <= allowed + 512 * count + 64 * (rows + n) + 2**16


@pytest.mark.parametrize("framework", ["mmd", "hsic"])
def test_wild_engine_holds_no_core_at_n_1024(framework, traced_peak):
    count, m = 199, 512
    rng = np.random.default_rng(10)
    if framework == "mmd":
        data, entries = TwoSampleData(rng.normal(size=(m, 3)), rng.normal(size=(m, 3))), [GAUSS]
        data.distances.squared  # cached before tracing: it is the dataset's, not the engine's
    else:
        data = PairedData.from_parts(rng.normal(size=(2 * m, 2)), rng.normal(size=(2 * m, 1)))
        entries = [(GAUSS, GAUSS)]
        data.x_distances.squared, data.y_distances.squared
    rep = ReplicateSpec(count=count, method="wild_bootstrap", seed=4)
    peak = traced_peak(lambda: collection_replicates(data, entries, rep))
    rows, height = count + 1, statistics._CORE_BLOCK_ELEMENTS // m
    assert height < m
    # the signs, a block of core rows and the tiles it is made from (two for
    # MMD; HSIC holds the X block while the Y block's two are made), the
    # block's (rows, height) product with the signs, the B generator states
    # and O(rows + m) vectors: the (m, m) core, 2 MiB, breaks this
    allowed = rows * m * 8 + 3 * statistics._CORE_BLOCK_ELEMENTS * 8 + rows * height * 8
    assert peak <= allowed + 512 * count + 64 * (rows + m) + 2**16


def test_ksd_wild_engine_holds_no_stein_matrix_at_n_1024(traced_peak):
    count, n, dim = 199, 1024, 50
    rng = np.random.default_rng(10)
    data = ModelSampleData.from_score_field(rng.normal(size=(n, dim)), standard_gaussian_score())
    data.distances.squared  # cached before tracing: it is the dataset's, not the engine's
    rep = ReplicateSpec(count=count, method="wild_bootstrap", seed=4)
    peak = traced_peak(lambda: collection_replicates(data, [imq_kernel(7.0)], rep))
    rows, height = count + 1, ksd_core_rows(imq_kernel(7.0), data).height
    step = kernels_module._ROW_BLOCK_ELEMENTS // n
    assert height < n
    # the signs, a block of Stein rows and its (rows, height) product with the
    # signs, the builder's (n, d) factors A, T and -2 T' and four (step, n)
    # temporaries of one sub-block, the B generator states and O(rows + n)
    # vectors: the (n, n) Stein matrix, 8 MiB, breaks this
    allowed = rows * n * 8 + height * n * 8 + rows * height * 8 + 3 * n * dim * 8 + 4 * step * n * 8
    assert peak <= allowed + 512 * count + 64 * (rows + n) + 2**16


def _ksd_held_and_streamed(data, specs, rep, design, monkeypatch):
    """The wild replicates of the held, averaged Stein matrices and of the
    streamed, unaveraged ones."""
    streamed = collection_replicates(data, specs, rep, design=design)
    with monkeypatch.context() as patch:
        patch.setattr(engines, "ksd_core_rows", lambda spec, data: held_rows(core_matrix_ksd(spec, data)))
        held = collection_replicates(data, specs, rep, design=design)
    return held, streamed


def _ksd_designs(n):
    full = DesignSet.full_offdiag(n)
    shuffled = np.random.default_rng(15).permutation(full.size)[:3000]
    return {
        "none": None,
        "blocks": DesignSet.block(n, 4),
        "design_size": DesignSet.incomplete(n, 5000),
        "shuffled": DesignSet(full.idx_i[shuffled], full.idx_j[shuffled]),
    }


@pytest.mark.parametrize("design", ["none", "blocks", "design_size", "shuffled"])
def test_streamed_ksd_wild_agrees_with_the_held_stein_matrix(design, monkeypatch):
    # n = 300: blocks of 37 rows; the incomplete design's pairs (i, i + r)
    # read only H[i, j], i < j, which is the Stein kernel only after averaging
    n = 300
    rng = np.random.default_rng(16)
    specs = [imq_kernel(2.0), gaussian_kernel(1.5)]
    for shift in (0.0, 0.3):
        data = ModelSampleData.from_score_field(rng.normal(size=(n, 3)) + shift, standard_gaussian_score())
        assert ksd_core_rows(specs[0], data).height < n // 4
        for seed in range(3):
            rep = ReplicateSpec(count=199, method="wild_bootstrap", seed=seed)
            held, streamed = _ksd_held_and_streamed(data, specs, rep, _ksd_designs(n)[design], monkeypatch)
            for h, s in zip(held, streamed):
                a, b = decide(h[0], h[1:], 0.05), decide(s[0], s[1:], 0.05)
                assert (a.p_value, a.reject) == (b.p_value, b.reject)
                np.testing.assert_allclose(s[0], h[0], rtol=1e-12)
                np.testing.assert_allclose(b.threshold, a.threshold, rtol=1e-12)
                np.testing.assert_allclose(s, h, rtol=0, atol=1e-12 * np.abs(h).max())


def test_pair_gather_averages_a_core_with_its_transpose():
    # an unsymmetric core read through the pair gather gives the statistics of
    # its symmetric part, whatever the row blocks
    rng = np.random.default_rng(18)
    n = 23
    h = rng.uniform(-1, 1, size=(n, n))
    sym = held_rows(0.5 * (h + h.T))
    design = DesignSet(*np.nonzero(~np.eye(n, dtype=bool)))
    shuffled = np.random.default_rng(19).permutation(design.size)[:200]
    rep = ReplicateSpec(count=49, method="wild_bootstrap", seed=6)
    for pairs in (design, DesignSet(design.idx_i[shuffled], design.idx_j[shuffled])):
        expected = engines.wild_replicates([sym], pairs, rep)
        for height in (1, 5, n):
            rows = statistics.CoreRows(n, height, lambda r, c: h[r, c].copy())
            np.testing.assert_allclose(engines.wild_replicates([rows], pairs, rep), expected, rtol=1e-14, atol=1e-15)


def _whole_core_wild(hs, design, rep):
    """Wild replicates by the arithmetic on whole cores: ``signs @ h`` per
    block, untransposed, or the design's gathered values times the sign
    products; tied sign rows take the original's values."""
    n = hs[0].shape[0]
    signs = engines._sign_matrix(rep.seed, rep.count, n)
    blocks = 1 if design is None else design.block_count
    if blocks is None:
        e = signs[:, design.idx_i] * signs[:, design.idx_j]
        vals, tied = np.stack([h[design.idx_i, design.idx_j] for h in hs]) @ e.T / design.size, e.min(axis=1) > 0
    else:
        size = n // blocks
        slices = [slice(b * size, (b + 1) * size) for b in range(blocks)]
        vals = np.empty((len(hs), rep.count + 1))
        for k, h in enumerate(hs):
            acc = np.zeros(rep.count + 1)
            for sl in slices:
                q = signs[:, sl] @ h[sl, sl]
                q *= signs[:, sl]
                acc += q.sum(axis=1) - np.trace(h[sl, sl])
            vals[k] = acc / (blocks * size * (size - 1))
        tied = np.all([np.abs(signs[:, sl].sum(axis=1)) == size for sl in slices], axis=0)
    vals[:, tied] = vals[:, :1]
    return vals


def _wild_cases():
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 0.3
    specs = [gaussian_kernel(0.8), imq_kernel(1.2)]
    two, paired = TwoSampleData(x, y), PairedData.from_parts(x, 0.5 * x + y)
    mmd = [core_matrix_mmd(s, two) for s in specs]
    hsic = [core_matrix_hsic_wild(s, s, paired) for s in specs]
    for n, data, entries, hs in ((40, two, specs, mmd), (20, paired, [(s, s) for s in specs], hsic)):
        for design in (None, DesignSet.block(n, 3), DesignSet.incomplete(n, 150)):
            yield data, entries, hs, design


@pytest.mark.parametrize("case", range(6))
def test_streamed_wild_in_one_block_is_the_whole_core_arithmetic(case):
    data, entries, hs, design = list(_wild_cases())[case]
    rep = ReplicateSpec(count=99, method="wild_bootstrap", seed=5)
    got = collection_replicates(data, entries, rep, design=design)
    assert np.array_equal(got, _whole_core_wild(hs, design, rep))


@pytest.mark.parametrize("design", [{}, {"blocks": 3}, {"design_size": 200}])
@pytest.mark.parametrize("budget", [100, 300])
def test_streamed_wild_in_row_blocks_keeps_every_decision(budget, design, monkeypatch):
    # m = 48 and 48 pairs: cores of 48 and 24 rows, read whole and then in
    # blocks of budget // 48 and budget // 24 rows
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=(48, 3)), rng.normal(size=(48, 3))
    paired = PairedData.from_parts(x, 0.2 * x + rng.normal(size=(48, 3)))
    wild = {"replicates": 199, "method": "wild_bootstrap", **design}
    runs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(statistics, "_CORE_BLOCK_ELEMENTS", budget)
        runs.append(
            [two_sample_test(x, y + shift, gaussian_kernel(bw), seed=s, **wild)
             for shift in (0.0, 0.4) for bw in (0.7, 1.5) for s in range(3)]
            + [independence_test(paired, gaussian_kernel(bw), GAUSS, seed=s, **wild)
               for bw in (0.7, 1.5) for s in range(3)]
        )
    for whole, blocked in zip(*runs, strict=True):
        assert (whole.p_value, whole.reject) == (blocked.p_value, blocked.reject)
        np.testing.assert_allclose(blocked.statistic, whole.statistic, rtol=1e-12)
        np.testing.assert_allclose(blocked.threshold, whole.threshold, rtol=1e-12)


def test_golden_draws_and_p_values():
    # Integer draws and p-value counts pinned from the per-replicate streams;
    # any change to the replicate draws changes them.
    perms = [[9, 0, 8, 6, 7, 1, 3, 4, 2, 5], [7, 2, 1, 0, 6, 9, 8, 4, 3, 5], [4, 1, 7, 2, 5, 3, 6, 8, 9, 0]]
    signs = [[1, 1, 1, -1, -1, -1, -1, -1], [-1, 1, -1, 1, 1, -1, -1, 1]]
    for rngs in ([stream(7, TAG_REPLICATE, b) for b in range(3)], stream(7, TAG_REPLICATE, range(3))):
        assert [sample_two_sample_permutation(g, 5, 5).tolist() for g in rngs] == perms
    assert [rademacher(g, 8).astype(int).tolist() for g in stream(7, TAG_REPLICATE, range(2))] == signs
    mmd = {"m": 15, "n": 12, "dim": 2}
    cases = [
        ({"framework": "mmd"}, "gaussian_mean_shift", {**mmd, "shift": 0.4}, 54),
        ({"framework": "hsic"}, "correlated_gaussian_pairs", {"n": 16, "dim": 1, "rho": 0.3}, 11),
        ({"framework": "ksd"}, "gaussian_model_sample", {"n": 20, "dim": 2, "shift": 0.3}, 72),
        ({"framework": "mmd", "bandwidth": "grid:3", "adapt": "pool:fuse", "dp_epsilon": 1.0},
         "gaussian_mean_shift", {**mmd, "shift": 1.0}, 73),
    ]
    for flags, name, params, count in cases:
        setup = harness_run.TestSetup(replicates=99, seed=7, **flags)
        result = harness_run.execute(setup, builtin_generator(name, params, 3))
        assert result.p_value == count / 100
