import math

import numpy as np
import pytest

from kerntest import statistics
from kerntest.kernels import gaussian_kernel, imq_kernel, laplace_kernel, standard_gaussian_score
from kerntest.statistics import (
    CoreMatrix,
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    block_statistic,
    core_matrix_hsic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
    incomplete_statistic,
    u_statistic,
    v_statistic,
)
from kerntest.kernels import gram_matrix
from oracles import empirical_model_moments, eval_kernel, one_sample_mmd, two_sample_v_statistic

GAUSS = gaussian_kernel(1.0)


def _random_core(rng, n, bound=1.0):
    h = rng.uniform(-bound, bound, size=(n, n))
    h = 0.5 * (h + h.T)
    return CoreMatrix(h=h, kernel_bound=bound, framework="mmd")


# --- dataset validation ------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        TwoSampleData(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        TwoSampleData(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        PairedData(np.zeros((5, 3)), split=3)
    with pytest.raises(ValueError):
        PairedData(np.zeros((5, 3)), split=0)
    with pytest.raises(ValueError):
        TwoSampleData(np.full((3, 1), np.nan), np.zeros((3, 1)))
    data = PairedData(np.arange(12.0).reshape(4, 3), split=1)
    assert data.x_part.shape == (4, 1) and data.y_part.shape == (4, 2)


# --- MMD core -----------------------------------------------------------------


def test_mmd_core_zero_for_identical_pairs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2))
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, x.copy()))
    assert np.all(core.h == 0.0)
    assert core.kernel_bound == 4.0


def test_mmd_core_four_term_expansion():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    for i in range(2):
        for j in range(2):
            expected = (
                eval_kernel(GAUSS, x[i], x[j])
                - eval_kernel(GAUSS, x[j], y[i])
                - eval_kernel(GAUSS, x[i], y[j])
                + eval_kernel(GAUSS, y[i], y[j])
            )
            assert core.h[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-15)
    assert np.array_equal(core.h, core.h.T)


def test_mmd_core_pair_swap_antisymmetry():
    # swapping (X_i, Y_i) negates row and column i
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    base = core_matrix_mmd(GAUSS, TwoSampleData(x, y)).h
    for i in range(5):
        x2, y2 = x.copy(), y.copy()
        x2[i], y2[i] = y[i], x[i]
        swapped = core_matrix_mmd(GAUSS, TwoSampleData(x2, y2)).h
        signs = np.ones(5)
        signs[i] = -1.0
        np.testing.assert_allclose(swapped, np.outer(signs, signs) * base, atol=1e-14)


def test_mmd_core_rejects_unequal_sizes():
    with pytest.raises(ValueError, match="permutation"):
        core_matrix_mmd(GAUSS, TwoSampleData(np.zeros((3, 1)), np.zeros((4, 1))))


# --- HSIC cores -----------------------------------------------------------------


def test_hsic_core_zero_for_constant_y():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    y = np.ones((5, 1))
    core = core_matrix_hsic(GAUSS, GAUSS, PairedData.from_parts(x, y))
    assert np.all(core.h == 0.0)
    assert core.kernel_bound == 16.0


def test_hsic_core_matches_hand_centering():
    rng = np.random.default_rng(4)
    data = PairedData.from_parts(rng.normal(size=(3, 1)), rng.normal(size=(3, 2)))
    k = gram_matrix(GAUSS, data.x_part, data.x_part)
    l = gram_matrix(GAUSS, data.y_part, data.y_part)

    def centered(g, i, j):
        return g[i, j] - g[i, :].mean() - g[:, j].mean() + g.mean()

    core = core_matrix_hsic(GAUSS, GAUSS, data)
    for i in range(3):
        for j in range(3):
            assert core.h[i, j] == pytest.approx(centered(k, i, j) * centered(l, i, j), rel=1e-12, abs=1e-15)


def test_hsic_core_trace_identity():
    # sum_ij H[i, j] equals trace(K C L C) computed with explicit centering matrices
    rng = np.random.default_rng(5)
    data = PairedData.from_parts(rng.normal(size=(8, 2)), rng.normal(size=(8, 1)))
    core = core_matrix_hsic(GAUSS, GAUSS, data)
    n = 8
    c = np.eye(n) - np.ones((n, n)) / n
    k = gram_matrix(GAUSS, data.x_part, data.x_part)
    l = gram_matrix(GAUSS, data.y_part, data.y_part)
    assert core.h.sum() == pytest.approx(np.trace(k @ c @ l @ c), rel=1e-10)


def test_hsic_centering_absorbs_constants():
    from kerntest.statistics import _double_center

    rng = np.random.default_rng(6)
    g = rng.uniform(size=(6, 6))
    g = 0.5 * (g + g.T)
    np.testing.assert_allclose(_double_center(g + 0.7), _double_center(g), atol=1e-12)


def test_hsic_wild_core_requires_even_n():
    rng = np.random.default_rng(7)
    data = PairedData.from_parts(rng.normal(size=(5, 1)), rng.normal(size=(5, 1)))
    with pytest.raises(ValueError, match="even"):
        core_matrix_hsic_wild(GAUSS, GAUSS, data)


def test_hsic_wild_core_is_product_of_half_cores():
    rng = np.random.default_rng(8)
    data = PairedData.from_parts(rng.normal(size=(6, 2)), rng.normal(size=(6, 1)))
    core = core_matrix_hsic_wild(GAUSS, GAUSS, data)
    x, y = data.x_part, data.y_part
    for i in range(3):
        for j in range(3):
            hx = (
                eval_kernel(GAUSS, x[i], x[j])
                - eval_kernel(GAUSS, x[i], x[3 + j])
                - eval_kernel(GAUSS, x[3 + i], x[j])
                + eval_kernel(GAUSS, x[3 + i], x[3 + j])
            )
            hy = (
                eval_kernel(GAUSS, y[i], y[j])
                - eval_kernel(GAUSS, y[i], y[3 + j])
                - eval_kernel(GAUSS, y[3 + i], y[j])
                + eval_kernel(GAUSS, y[3 + i], y[3 + j])
            )
            assert core.h[i, j] == pytest.approx(hx * hy, rel=1e-12, abs=1e-15)


# --- KSD core -------------------------------------------------------------------


def test_ksd_core_requires_scores():
    # a KSD dataset always carries its scores, so every KSD core has them
    with pytest.raises(TypeError, match="scores"):
        ModelSampleData(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="scores"):
        ModelSampleData(np.zeros((4, 1)), None)


def test_ksd_core_hand_expansion_1d():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 1))
    data = ModelSampleData.from_score_field(x, standard_gaussian_score())
    core = core_matrix_ksd(GAUSS, data)
    for i in range(2):
        for j in range(2):
            a, b = x[i, 0], x[j, 0]
            k = math.exp(-0.5 * (a - b) ** 2)
            dk_dx = -(a - b) * k
            dk_dy = (a - b) * k
            d2k = (1.0 - (a - b) ** 2) * k
            expected = k * (-a) * (-b) + dk_dx * (-b) + dk_dy * (-a) + d2k
            assert core.h[i, j] == pytest.approx(expected, rel=1e-12)
    assert np.abs(core.h).max() <= core.kernel_bound


def test_ksd_stein_identity_u_statistic():
    # degenerate U-statistic over 10^4 model samples; SE from the entry variance
    rng = np.random.default_rng(10)
    n = 10_000
    x = rng.normal(size=(n, 1))
    spec = gaussian_kernel(1.0)
    total = 0.0
    sq_total = 0.0
    chunk = 500
    for lo in range(0, n, chunk):
        rows = slice(lo, min(lo + chunk, n))
        diff = x[rows, 0][:, None] - x[:, 0][None, :]
        k = np.exp(-0.5 * diff**2)
        h = k * (x[rows, 0][:, None] * x[:, 0][None, :]) + (-diff * k) * (-x[:, 0][None, :]) + (
            diff * k
        ) * (-x[rows, 0][:, None]) + (1.0 - diff**2) * k
        # zero the diagonal block entries
        idx = np.arange(lo, min(lo + chunk, n))
        h[np.arange(idx.size), idx] = 0.0
        total += h.sum()
        sq_total += (h**2).sum()
    pairs = n * (n - 1)
    u = total / pairs
    var = sq_total / pairs - u**2
    se = math.sqrt(2.0 * var / pairs)
    assert abs(u) <= 3 * se


# --- statistics over designs -----------------------------------------------------


def test_v_and_u_statistic_small_cases():
    zero = CoreMatrix(h=np.zeros((3, 3)), kernel_bound=1.0, framework="mmd")
    assert v_statistic(zero) == 0.0
    assert u_statistic(zero) == 0.0
    a, b, c = 0.3, -0.2, 1.4
    core = CoreMatrix(h=np.array([[a, b], [b, c]]), kernel_bound=2.0, framework="mmd")
    assert v_statistic(core) == pytest.approx((a + 2 * b + c) / 4.0)
    assert u_statistic(core) == b


def test_v_statistic_zero_for_identical_pairs():
    x = np.arange(8.0).reshape(4, 2)
    core = core_matrix_mmd(GAUSS, TwoSampleData(x, x.copy()))
    assert v_statistic(core) == 0.0


def test_u_v_inequality_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        core = _random_core(rng, n, bound=float(rng.uniform(0.5, 3.0)))
        bound = np.abs(core.h).max()
        assert u_statistic(core) >= v_statistic(core) - 2.0 * bound / n


def test_incomplete_statistic_examples():
    rng = np.random.default_rng(12)
    core = _random_core(rng, 6)
    full = DesignSet.full_offdiag(6)
    assert incomplete_statistic(core, full) == u_statistic(core)
    single = DesignSet(np.array([0]), np.array([1]))
    assert incomplete_statistic(core, single) == core.h[0, 1]
    with pytest.raises(ValueError):
        incomplete_statistic(core, DesignSet(np.array([0]), np.array([7])))
    with pytest.raises(ValueError):
        DesignSet(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        incomplete_statistic(core, DesignSet(np.array([2]), np.array([2])))


def test_block_statistic_identities():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        core = _random_core(rng, n)
        assert block_statistic(core, 1) == u_statistic(core)  # bit-for-bit
    core = _random_core(rng, 4)
    h = core.h
    expected = (h[0, 1] + h[1, 0] + h[2, 3] + h[3, 2]) / 4.0
    assert block_statistic(core, 2) == pytest.approx(expected, rel=1e-15)
    # B = floor(N/2): mean of consecutive off-diagonal pairs
    core = _random_core(rng, 9)
    pairs = [core.h[2 * b, 2 * b + 1] for b in range(4)]
    assert block_statistic(core, 4) == pytest.approx(np.mean(pairs), rel=1e-13)
    with pytest.raises(ValueError):
        block_statistic(core, 5)  # block size 1


def test_block_matches_incomplete_block_design():
    rng = np.random.default_rng(14)
    core = _random_core(rng, 17)
    for blocks in (1, 2, 3, 8):
        design = DesignSet.block(17, blocks)
        assert block_statistic(core, blocks) == incomplete_statistic(core, design)


def test_superdiagonal_design():
    design = DesignSet.incomplete(5, 6)
    assert design.size == 6
    assert design.idx_i.tolist() == [0, 1, 2, 3, 0, 1]
    assert design.idx_j.tolist() == [1, 2, 3, 4, 2, 3]
    with pytest.raises(ValueError):
        DesignSet.incomplete(4, 13)


def test_superdiagonal_design_stops_at_the_upper_pairs():
    design = DesignSet.incomplete(4, 6)
    assert list(zip(design.idx_i.tolist(), design.idx_j.tolist())) == [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]
    with pytest.raises(ValueError, match="exceeds the 6 pairs"):
        DesignSet.incomplete(4, 7)


# --- one-sample MMD ---------------------------------------------------------------


def test_one_sample_mmd_self_moments_vanish():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(7, 2))
    embed, double = empirical_model_moments(GAUSS, x)
    assert one_sample_mmd(GAUSS, x, embed, double) == pytest.approx(0.0, abs=1e-13)


def test_one_sample_mmd_matches_two_sample_v_statistic():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 2))
    model_pts = rng.normal(size=(2, 2))
    embed, double = empirical_model_moments(GAUSS, model_pts)
    plug_in = one_sample_mmd(GAUSS, x, embed, double)
    v = two_sample_v_statistic(
        gram_matrix(GAUSS, x, x),
        gram_matrix(GAUSS, model_pts, model_pts),
        gram_matrix(GAUSS, x, model_pts),
    )
    assert plug_in == pytest.approx(v, rel=1e-12)


def test_one_sample_mmd_single_point():
    c = 0.37
    value = one_sample_mmd(GAUSS, np.array([[0.0]]), lambda pts: np.full(pts.shape[0], c), c)
    assert value == pytest.approx(1.0 - 2 * c + c, rel=1e-15)


# --- framework core invariants ------------------------------------------------------


def _framework_cores(rng, n):
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    yield core_matrix_mmd(GAUSS, TwoSampleData(x, y))
    yield core_matrix_hsic(GAUSS, GAUSS, PairedData.from_parts(x, y))
    data = ModelSampleData.from_score_field(x, standard_gaussian_score())
    yield core_matrix_ksd(imq_kernel(1.0), data)


def test_u_v_inequality_per_framework():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 15))
        for core in _framework_cores(rng, n):
            assert np.abs(core.h).max() <= core.kernel_bound * (1 + 1e-12)
            assert u_statistic(core) >= v_statistic(core) - 2.0 * core.kernel_bound / n
            assert v_statistic(core) >= -1e-12  # nonnegative for all three cores


def test_core_psd_mmd_ksd():
    rng = np.random.default_rng(18)
    for n in (5, 12, 20):
        x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        mmd = core_matrix_mmd(GAUSS, TwoSampleData(x, y))
        assert np.linalg.eigvalsh(mmd.h).min() >= -1e-8 * mmd.kernel_bound
        ksd = core_matrix_ksd(GAUSS, ModelSampleData.from_score_field(x, standard_gaussian_score()))
        assert np.linalg.eigvalsh(ksd.h).min() >= -1e-8 * ksd.kernel_bound


@pytest.mark.parametrize("spec", [gaussian_kernel(1.3), imq_kernel(0.8), laplace_kernel(2.0, normalized=True)])
def test_wild_cores_are_blocks_of_the_cached_grams(spec):
    # the MMD wild core reads blocks of the merged sample's gram, the HSIC
    # wild core blocks of each component's; both equal gram_matrix's blocks
    rng = np.random.default_rng(52)
    x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3)) + 0.5

    def pair_core(points, half):
        g = gram_matrix(spec, points, points)
        kab = g[:half, half:]
        return g[:half, :half] - (kab + kab.T) + g[half:, half:]

    mmd = core_matrix_mmd(spec, TwoSampleData(x, y))
    assert np.array_equal(mmd.h, pair_core(np.vstack([x, y]), 8))
    hsic = core_matrix_hsic_wild(spec, spec, PairedData.from_parts(x, y))
    assert np.array_equal(hsic.h, pair_core(x, 4) * pair_core(y, 4))


@pytest.mark.parametrize("spec", [gaussian_kernel(1.3), laplace_kernel(2.0, normalized=True)])
def test_wild_cores_written_in_row_blocks_equal_the_whole_gram_formula(spec):
    # several blocks of rows, the last one cut short, for both cores
    rng = np.random.default_rng(53)
    x, y = rng.normal(size=(600, 3)), rng.normal(size=(600, 3)) + 0.5
    for half in (600, 300):
        rows = statistics._CORE_BLOCK_ELEMENTS // half
        assert 1 < rows < half and half % rows

    def pair_core(points, half):
        g = gram_matrix(spec, points, points)
        kab = g[:half, half:]
        return g[:half, :half] - (kab + kab.T) + g[half:, half:]

    mmd = core_matrix_mmd(spec, TwoSampleData(x, y))
    assert np.array_equal(mmd.h, pair_core(np.vstack([x, y]), 600))
    assert np.array_equal(mmd.h, mmd.h.T)
    hsic = core_matrix_hsic_wild(spec, spec, PairedData.from_parts(x, y))
    assert np.array_equal(hsic.h, pair_core(x, 300) * pair_core(y, 300))
    assert np.array_equal(hsic.h, hsic.h.T)


def test_mmd_wild_core_holds_its_output_and_a_few_row_blocks(traced_peak):
    m = 512
    rng = np.random.default_rng(54)
    data = TwoSampleData(rng.normal(size=(m, 3)), rng.normal(size=(m, 3)))
    data.distances.squared  # cached before tracing: it is the dataset's, not the core's
    peak = traced_peak(lambda: core_matrix_mmd(GAUSS, data))
    # the (m, m) output and the two gram tiles a block of its rows is made
    # from (the same bytes as the four half-size blocks allowed before); any
    # second (m, m) array, 2 MiB, breaks this
    assert peak <= m * m * 8 + 2 * statistics._CORE_BLOCK_ELEMENTS * 8 + 2**16


@pytest.mark.parametrize("height", [None, 7])
def test_wild_cores_stack_their_row_sources(height, monkeypatch):
    # the held cores are their streamed sources' row blocks stacked, bit for
    # bit, in one block and in blocks of 7 rows, the last cut short.  (An
    # anisotropic bandwidth has no cache: each block makes its own scaled
    # distance pass, whose rounding depends on the block.)
    rng = np.random.default_rng(55)
    x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 0.5
    two, paired = TwoSampleData(x, y), PairedData.from_parts(x, y)
    for spec in (gaussian_kernel(1.3), laplace_kernel(2.0, normalized=True), imq_kernel(0.9)):
        hsic_rows = lambda: statistics.hsic_wild_core_rows(spec, spec, paired)  # noqa: E731
        for half, held, source in (
            (40, core_matrix_mmd(spec, two), lambda: statistics.mmd_core_rows(spec, two)),
            (20, core_matrix_hsic_wild(spec, spec, paired), hsic_rows),
        ):
            if height is not None:
                monkeypatch.setattr(statistics, "_CORE_BLOCK_ELEMENTS", height * half)
            rows = source()
            assert rows.n == half and (rows.height == height if height else rows.height >= half)
            blocks = [rows.block(slice(a, min(a + rows.height, half)), slice(0, half))
                      for a in range(0, half, rows.height)]
            assert np.array_equal(held.h, np.vstack(blocks))
            # any block is the matrix's own
            assert np.array_equal(rows.block(slice(3, 11), slice(5, 17)), held.h[3:11, 5:17])


def test_double_centring_in_place_matches_the_whole_matrix_formula():
    # several row blocks of the in-place centring, against the formula on
    # the whole matrix: G - (r_i + r_j) + mean(G) with r the column means
    n = 300
    assert 1 < statistics._CORE_BLOCK_ELEMENTS // n < n
    rng = np.random.default_rng(56)
    g = gram_matrix(GAUSS, rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
    g = 0.5 * (g + g.T)
    row = g.mean(axis=0)
    want = row[:, None] + row[None, :]
    np.subtract(g, want, out=want)
    want += g.mean()
    got = statistics._double_center(g)
    assert got is g and np.array_equal(got, want) and np.array_equal(got, got.T)
