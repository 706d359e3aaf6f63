import math

import numpy as np
import pytest

from kerntest import kernels as kernels_module
from kerntest.kernels import (
    FAMILIES,
    STEIN_FAMILIES,
    KernelSpec,
    PointDistances,
    bandwidth_grid,
    derivative_bounds,
    gaussian_kernel,
    gram_matrix,
    imq_kernel,
    kernel_bound,
    laplace_kernel,
    median_heuristic,
    standard_gaussian_score,
    stein_blocks,
    stein_kernel_bound,
    stein_matrix,
    student_t_score,
)
from kerntest.statistics import ModelSampleData, core_matrix_ksd
from kerntest.testing import goodness_of_fit_test
from oracles import cross_derivative_matrix, eval_kernel, grad1_matrix, grad2_matrix, stein_kernel

ALL_SPECS = [
    gaussian_kernel(0.8),
    laplace_kernel(1.3),
    imq_kernel(1.1, exponent=0.75),
    gaussian_kernel((0.5, 2.0)),
    gaussian_kernel(0.9, normalized=True),
]


def test_bounded_gaussian_at_coincident_points():
    assert eval_kernel(gaussian_kernel(1.0), (0.0, 0.0), (0.0, 0.0)) == 1.0


def test_bounded_gaussian_half_value():
    # exp(-(x-y)^2 / (2 lambda^2)) with |x-y| = sqrt(2 ln 2)
    y = math.sqrt(2.0 * math.log(2.0))
    assert eval_kernel(gaussian_kernel(1.0), [0.0], [y]) == pytest.approx(0.5, abs=1e-15)


def test_imq_diagonal_is_one():
    assert eval_kernel(imq_kernel(1.0, exponent=0.75), [0.3, -1.0], [0.3, -1.0]) == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("imq", 1.0)  # missing exponent
    with pytest.raises(ValueError):
        KernelSpec("imq", 1.0, imq_exponent=0.5)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 1.0, imq_exponent=0.7)
    with pytest.raises(ValueError):
        KernelSpec("cauchy", 1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        eval_kernel(gaussian_kernel(1.0), [0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        gram_matrix(gaussian_kernel(1.0), np.zeros((3, 2)), np.zeros((3, 3)))


def test_density_form_bound():
    spec = gaussian_kernel(2.0, normalized=True)
    assert kernel_bound(spec, 1) == pytest.approx((2 * math.pi) ** -0.5 / 2.0)
    assert eval_kernel(spec, [0.0], [0.0]) == pytest.approx(kernel_bound(spec, 1))
    assert kernel_bound(laplace_kernel(1.0, normalized=True), 2) == pytest.approx(0.25)
    assert kernel_bound(imq_kernel(2.0, normalized=True), 1) == pytest.approx(0.5)


def test_gram_single_and_duplicate_points():
    spec = laplace_kernel(0.7)
    one = gram_matrix(spec, [[1.0, 2.0]], [[1.0, 2.0]])
    assert one.shape == (1, 1) and one[0, 0] == kernel_bound(spec, 2)
    two = gram_matrix(spec, [[1.0], [1.0]], [[1.0], [1.0]])
    assert np.all(two == kernel_bound(spec, 1))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gram_matches_elementwise_eval(spec):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    g = gram_matrix(spec, a, b)
    for i in range(5):
        for j in range(5):
            assert g[i, j] == pytest.approx(eval_kernel(spec, a[i], b[j]), rel=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_symmetry_and_bounds(spec):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 2)) * 2.0
    bound = kernel_bound(spec, 2)
    for i in range(0, 30, 3):
        x, y = pts[i], pts[(i + 7) % 30]
        assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)
        value = eval_kernel(spec, x, y)
        assert 0.0 < value <= bound


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gram_positive_semidefinite(spec):
    rng = np.random.default_rng(8)
    for n in (5, 12, 20):
        pts = rng.normal(size=(n, 2))
        g = gram_matrix(spec, pts, pts)
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        assert eigs.min() >= -1e-8 * kernel_bound(spec, 2)


# --- precision of the BLAS distance form -------------------------------------


def _reference_gram(spec, A, B):
    """Difference-form gram from the (m, n, d) tensor of scaled differences."""
    U = (A[:, None, :] - B[None, :, :]) / spec.bandwidth_vector(A.shape[1])
    if spec.family == "gaussian":
        base = np.exp(-0.5 * (U**2).sum(axis=-1))
    elif spec.family == "laplace":
        base = np.exp(-np.abs(U).sum(axis=-1))
    else:
        base = (1.0 + (U**2).sum(axis=-1)) ** (-spec.imq_exponent)
    return kernel_bound(spec, A.shape[1]) * base


def _reference_stein(spec, X, S):
    """Stein matrix from the reference gram and the difference-form derivatives."""
    G1 = grad1_matrix(spec, X, X)
    H = _reference_gram(spec, X, X) * (S @ S.T)
    H += np.einsum("ijd,jd->ij", G1, S) - np.einsum("ijd,id->ij", G1, S)
    H += cross_derivative_matrix(spec, X, X)
    return 0.5 * (H + H.T)


def _precision_points():
    rng = np.random.default_rng(41)
    base = rng.normal(size=(9, 3))
    duplicates = base.copy()
    duplicates[6], duplicates[8] = base[1], base[4]
    near = base.copy()
    near[6] = base[1] + 1e-9
    near[8] = base[4] - 1e-9 * np.array([1.0, -2.0, 0.5])
    return {
        "duplicates": duplicates,
        "near_duplicates": near,
        "offset_1e6": base + 1e6,
        "anisotropic": base,
        "two_dims": near[:, :2] + 1e6,  # coordinate differences are accumulated below three dimensions
    }


def _precision_cases():
    isotropic = [gaussian_kernel(1.3), laplace_kernel(1.3), imq_kernel(1.3, exponent=0.6)]
    anisotropic = [
        gaussian_kernel((0.4, 1.1, 2.5)),
        laplace_kernel((0.4, 1.1, 2.5)),
        imq_kernel((0.4, 1.1, 2.5), exponent=0.6),
    ]
    for name, points in _precision_points().items():
        for spec in anisotropic if name == "anisotropic" else isotropic:
            yield pytest.param(spec, points, id=f"{name}-{spec.family}")


@pytest.mark.parametrize("spec, points", list(_precision_cases()))
def test_gram_and_stein_match_difference_form(spec, points):
    scores = np.random.default_rng(43).normal(size=points.shape)
    first, second = points[:7], points[4:]  # cross gram sharing three rows
    for a, b in ((points, points), (first, second)):
        np.testing.assert_allclose(gram_matrix(spec, a, b), _reference_gram(spec, a, b), rtol=1e-12)
    if spec.family not in STEIN_FAMILIES:
        return
    ref = _reference_stein(spec, points, scores)
    # Stein entries are sums of terms of both signs, so the error is relative to the matrix scale
    np.testing.assert_allclose(
        stein_matrix(spec, points, scores), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
    )


@pytest.mark.parametrize("name", ["duplicates", "near_duplicates", "offset_1e6", "two_dims"])
def test_bandwidths_match_difference_form(name):
    points = _precision_points()[name]
    diff = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=-1))[np.triu_indices(len(points), k=1)]
    dists = np.sort(dists[dists > 0])
    expected = np.geomspace(np.quantile(dists, 0.05), np.quantile(dists, 0.95), 4)
    np.testing.assert_allclose(bandwidth_grid(points, 4), expected, rtol=1e-12)
    assert median_heuristic(points) == pytest.approx(np.median(dists), rel=1e-12)


def test_gram_exact_at_identical_points():
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(12, 4)) + 1e3
    pts[7] = pts[2]
    for spec in (gaussian_kernel(0.9), imq_kernel(0.9)):
        g = gram_matrix(spec, pts, pts)
        assert np.array_equal(g, g.T)
        assert np.all(np.diagonal(g) == 1.0) and g[2, 7] == 1.0
        assert np.array_equal(gram_matrix(spec, pts, pts.copy()), g)


@pytest.mark.parametrize("n", [130, 300])
@pytest.mark.parametrize("dim", [3, 50])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
@pytest.mark.parametrize("anisotropic", [False, True])
def test_self_distances_exactly_symmetric_with_zero_diagonal(n, dim, scale, anisotropic):
    # the BLAS path (dim >= 3) relies on As @ As.T and |a|^2 + |b|^2 being
    # exactly symmetric; no pass averages D with its transpose
    rng = np.random.default_rng(n + dim)
    pts = rng.normal(size=(n, dim)) * scale + 3.0 * scale
    pts[n - 1], pts[n // 2] = pts[0], pts[1]
    lam = rng.uniform(0.5, 2.0, size=dim) if anisotropic else None
    D = kernels_module._sq_distances(pts, pts, lam, True)
    assert np.array_equal(D, D.T)
    assert np.all(np.diagonal(D) == 0.0)
    assert D[0, n - 1] == D[1, n // 2] == 0.0
    assert np.all(D >= 0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("square", [True, False])
@pytest.mark.parametrize("scaled", [False, True])
def test_accumulated_distances_in_row_blocks_equal_one_whole_pass(dim, square, scaled):
    rng = np.random.default_rng(49)
    a, b = rng.normal(size=(300, dim)) * 1e3, rng.normal(size=(170, dim))
    lam = rng.uniform(0.5, 2.0, size=dim) if scaled else None
    assert 1 < kernels_module._DISTANCE_BLOCK_ELEMENTS // b.shape[0] < a.shape[0]
    # the pass as one (m, n) temporary per dimension, added to zeros
    want = np.zeros((a.shape[0], b.shape[0]))
    for i in range(dim):
        u = np.subtract.outer(a[:, i], b[:, i])
        if scaled:
            u /= lam[i]
        want += u * u if square else np.abs(u)
    assert np.array_equal(kernels_module._accumulated_distances(a, b, lam, square), want)


def test_large_gram_and_bandwidth_memory(traced_peak):
    # the (m, n, d) difference tensor of 1024 x 50 points alone takes 400 MiB
    pts = np.random.default_rng(45).normal(size=(1024, 50))
    peak = traced_peak(lambda: gram_matrix(gaussian_kernel(median_heuristic(pts)), pts, pts))
    assert peak < 80 * 2**20


def test_median_heuristic_holds_one_triangle_of_distances(traced_peak):
    n = 1024
    dists = PointDistances(np.random.default_rng(47).normal(size=(n, 5)))
    dists.squared  # cached before tracing: it is the point set's, not the rule's
    peak = traced_peak(lambda: median_heuristic(dists))
    # no copy of the triangle: one block of it as floats and two bool masks,
    # the sample (its gathers, their concatenation and its sorted copy), and
    # three copies of the bracket's entries, which hold about 4.4% of the
    # triangle here (a sixteenth is allowed); half the triangle, 2 MiB, breaks this
    selected = n * (n - 1) // 2 // 16
    allowed = 10 * kernels_module._SELECT_BLOCK_ELEMENTS + 32 * kernels_module._SAMPLE_OFFSETS * n
    assert peak <= allowed + 3 * 8 * selected + 2**16


# --- bandwidth selection ---------------------------------------------------


def test_grid_two_points_single_count():
    grid = bandwidth_grid(np.array([[0.0], [2.0]]), 1)
    assert grid.tolist() == [2.0]


def test_grid_three_points_matches_stated_rule():
    # pairwise distances of {0, 1, 3} are {1, 2, 3}; grid spans their 5%/95% quantiles
    dists = np.array([1.0, 2.0, 3.0])
    lo, hi = np.quantile(dists, 0.05), np.quantile(dists, 0.95)
    expected = np.geomspace(lo, hi, 3)
    got = bandwidth_grid(np.array([[0.0], [1.0], [3.0]]), 3)
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_grid_permutation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 3))
    base = bandwidth_grid(pts, 7)
    for _ in range(5):
        shuffled = pts[rng.permutation(25)]
        assert np.array_equal(bandwidth_grid(shuffled, 7), base)


def test_grid_identical_points_error():
    with pytest.raises(ValueError):
        bandwidth_grid(np.ones((4, 2)), 3)


def _numpy_bandwidths(points, count):
    """The rule as numpy states it: np.median and np.quantile of the
    square-rooted positive distances of the strict upper triangle."""
    n = len(points)
    vals = PointDistances(points).squared[~np.tri(n, dtype=bool)]
    vals = np.sqrt(vals[vals > 0])
    lo, hi = float(np.quantile(vals, 0.05)), float(np.quantile(vals, 0.95))
    grid = np.array([math.sqrt(lo * hi)]) if count == 1 else np.geomspace(lo, hi, count)
    return float(np.median(vals)), grid


def _bandwidth_point_sets():
    rng = np.random.default_rng(47)
    for dim in (1, 2, 50):
        for n in (2, 3, 4, 5, 8, 13, 40):  # 1, 3, 6, 10, 28, 78 and 780 pairs
            pts = rng.normal(size=(n, dim))
            yield f"d{dim}-n{n}", pts
            if n >= 4:
                dup = pts.copy()
                dup[n // 2 :] = pts[: n - n // 2]  # zero distances shift the ranks
                yield f"d{dim}-n{n}-duplicates", dup
                yield f"d{dim}-n{n}-ties", np.round(2.0 * pts)  # repeated distances
        yield f"d{dim}-one-distance", np.vstack([np.zeros((3, dim)), np.ones((1, dim))])


def _selection_point_sets():
    """Sets on both sides of the selection's one-step cut (N = 256), with
    zeros and ties, and a circle whose diagonal sample sees only 8 distances."""
    rng = np.random.default_rng(61)
    for n in (2, 3, 255, 256, 257, 400):
        pts = rng.normal(size=(n, 3))
        yield f"n{n}", pts
        if n > 3:
            yield f"n{n}-five-points", pts[rng.integers(0, 5, size=n)]  # mostly zeros, the rest tied
            yield f"n{n}-duplicates", np.vstack([pts[: n // 2], pts[: n - n // 2]])
            yield f"n{n}-all-but-one-identical", np.vstack([np.zeros((n - 1, 3)), np.ones((1, 3))])
            yield f"n{n}-ties", np.round(2.0 * pts[:, :1])
            angle = 2.0 * math.pi * np.arange(n) / n
            yield f"n{n}-circle", np.column_stack([np.cos(angle), np.sin(angle)])


@pytest.mark.parametrize("name, points", list(_selection_point_sets()))
def test_selection_equals_numpy_across_the_one_step_cut(name, points):
    assert (len(points) ** 2 <= kernels_module._SELECT_BLOCK_ELEMENTS) == (len(points) <= 256)
    for count in (1, 10):
        median, grid = _numpy_bandwidths(points, count)
        assert median_heuristic(points) == median
        assert np.array_equal(bandwidth_grid(points, count), grid)


# with a single positive distance value, every bracket runs from 0 to inf
MISSABLE_SETS = [c for c in _selection_point_sets() if len(c[1]) > 256 and "one" not in c[0]]


@pytest.mark.parametrize("name, points", MISSABLE_SETS)
def test_selection_is_exact_after_bracket_misses(name, points, monkeypatch, recorded):
    # brackets one sample rank wide from a one-offset sample almost always
    # miss: the misses are bracketed again until they hit
    monkeypatch.setattr(kernels_module, "_SAMPLE_MARGIN", 0.0)
    monkeypatch.setattr(kernels_module, "_SAMPLE_OFFSETS", 1)
    passes = recorded(kernels_module, "_bracket_pass")
    median, grid = _numpy_bandwidths(points, 10)
    assert median_heuristic(points) == median
    assert np.array_equal(bandwidth_grid(points, 10), grid)
    assert len(passes) > 2  # at least one of the two selections missed


@pytest.mark.parametrize("name, points", list(_bandwidth_point_sets()))
def test_bandwidths_equal_numpy_rule_bit_for_bit(name, points):
    dists = PointDistances(points)
    for count in (1, 4, 10):
        median, grid = _numpy_bandwidths(points, count)
        for source in (points, dists):
            assert median_heuristic(source) == median
            assert np.array_equal(bandwidth_grid(source, count), grid)


def _cached_gram_cases():
    for dim in (1, 3):
        for normalized in (False, True):
            for spec in (
                gaussian_kernel(0.7, normalized=normalized),
                laplace_kernel(2.3, normalized=normalized),
                imq_kernel(1.1, exponent=0.6, normalized=normalized),
            ):
                yield pytest.param(spec, dim, id=f"{spec.family}-normalized{normalized}-d{dim}")
    for spec in (gaussian_kernel((0.5, 1.5, 0.9)), laplace_kernel((0.5, 1.5, 0.9))):
        yield pytest.param(spec, 3, id=f"{spec.family}-anisotropic-d3")


@pytest.mark.parametrize("spec, dim", list(_cached_gram_cases()))
def test_cached_gram_equals_gram_matrix_bit_for_bit(spec, dim):
    rng = np.random.default_rng(48)
    points = rng.normal(size=(14, dim)) + 3.0
    points[9] = points[2]
    dists = PointDistances(points)
    full = gram_matrix(spec, points, points)
    assert np.array_equal(dists.gram(spec), full)
    with pytest.raises(ValueError, match="read-only"):
        dists.squared[0, 1] = 1.0
    assert np.array_equal(full, full.T) and np.all(np.diagonal(full) == kernel_bound(spec, dim))
    if np.ndim(spec.bandwidth) == 0:
        # the wild cores read these blocks of the merged or component matrix
        for rows, cols in ((slice(None, 7), slice(None, 7)), (slice(7, None), slice(7, None)),
                           (slice(None, 7), slice(7, None))):
            assert np.array_equal(dists.gram(spec, rows, cols), full[rows, cols])


def test_median_heuristic_values():
    assert median_heuristic(np.array([[0.0], [2.0]])) == 2.0
    assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0
    duplicated = np.array([[0.0], [1.0], [3.0], [0.0], [1.0], [3.0]])
    assert median_heuristic(duplicated) == 2.0  # zero distances ignored
    with pytest.raises(ValueError):
        median_heuristic(np.zeros((3, 1)))


# --- derivatives ------------------------------------------------------------


def _fd_pair(spec, x, y, step=1e-5):
    """Central finite differences for grad1 and the mixed second derivative."""
    d = x.size
    g1 = np.empty(d)
    cross = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        g1[i] = (eval_kernel(spec, x + e, y) - eval_kernel(spec, x - e, y)) / (2 * step)
        cross += (
            eval_kernel(spec, x + e, y + e)
            - eval_kernel(spec, x + e, y - e)
            - eval_kernel(spec, x - e, y + e)
            + eval_kernel(spec, x - e, y - e)
        ) / (4 * step**2)
    return g1, cross


@pytest.mark.parametrize(
    "spec", [gaussian_kernel(0.9), gaussian_kernel((0.6, 1.3, 0.9)), imq_kernel(0.8, exponent=0.6)]
)
def test_derivatives_match_finite_differences(spec):
    rng = np.random.default_rng(17)
    for _ in range(25):
        x, y = rng.normal(size=3), rng.normal(size=3)
        g1 = grad1_matrix(spec, x[None], y[None])[0, 0]
        g2 = grad2_matrix(spec, x[None], y[None])[0, 0]
        cross = cross_derivative_matrix(spec, x[None], y[None])[0, 0]
        fd_g1, fd_cross = _fd_pair(spec, x, y)
        np.testing.assert_allclose(g1, fd_g1, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(g2, -fd_g1, rtol=1e-4, atol=1e-8)
        # atol covers the 4-point stencil's own roundoff (~1e-6 at step 1e-5)
        np.testing.assert_allclose(cross, fd_cross, rtol=1e-4, atol=2e-6)


@pytest.mark.parametrize(
    "spec", [gaussian_kernel(0.9), gaussian_kernel((0.6, 1.3, 0.9)), imq_kernel(0.8, exponent=0.6)]
)
def test_derivative_bounds_hold(spec):
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(40, 3)) * 2.0
    bound_k, bound_g, bound_h = derivative_bounds(spec, 3)
    g = gram_matrix(spec, pts, pts)
    g1 = grad1_matrix(spec, pts, pts)
    cross = cross_derivative_matrix(spec, pts, pts)
    assert g.max() <= bound_k * (1 + 1e-12)
    assert np.sqrt((g1**2).sum(-1)).max() <= bound_g * (1 + 1e-12)
    assert np.abs(cross).max() <= bound_h * (1 + 1e-12)


# --- Stein kernels ----------------------------------------------------------


def test_stein_kernel_at_origin_is_cross_term():
    # standard-normal score vanishes at 0, leaving sum_i d^2k/dx_i dy_i = d / lambda^2
    value = stein_kernel(gaussian_kernel(1.0), standard_gaussian_score(), [0.0, 0.0], [0.0, 0.0])
    assert value == pytest.approx(2.0, abs=1e-14)
    value = stein_kernel(gaussian_kernel(2.0), standard_gaussian_score(), [0.0], [0.0])
    assert value == pytest.approx(0.25, abs=1e-15)


def test_zero_score_reduces_to_cross_derivative():
    from kerntest.kernels import ScoreField

    zero = ScoreField(evaluate=lambda x: np.zeros_like(x))
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 2))
    h = stein_matrix(gaussian_kernel(0.7), pts, zero(pts))
    cross = cross_derivative_matrix(gaussian_kernel(0.7), pts, pts)
    np.testing.assert_allclose(h, 0.5 * (cross + cross.T), atol=1e-15)
    assert np.array_equal(h, h.T)


def test_stein_matrix_symmetric_and_matches_scalar():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(7, 2))
    score = standard_gaussian_score()
    h = stein_matrix(imq_kernel(1.0), pts, score(pts))
    assert np.array_equal(h, h.T)
    for i in range(7):
        for j in range(7):
            assert h[i, j] == pytest.approx(stein_kernel(imq_kernel(1.0), score, pts[i], pts[j]), rel=1e-12)


def _tiled_average(h, tile=128):
    """(H + H') / 2 in place, a pair of square tiles at a time."""
    n = h.shape[0]
    for lo in range(0, n, tile):
        rows = slice(lo, lo + tile)
        for lo2 in range(lo, n, tile):
            cols = slice(lo2, lo2 + tile)
            t = h[rows, cols] + h[cols, rows].T
            t *= 0.5
            h[rows, cols] = t
            h[cols, rows] = t.T
    return h


@pytest.mark.parametrize("n", [5, 130, 300, 517])
@pytest.mark.parametrize("spec", [gaussian_kernel(0.9), imq_kernel(1.3), gaussian_kernel((0.5, 1.0, 2.0))])
def test_stein_matrix_equals_the_tiled_average_of_its_blocks(spec, n):
    # the in-place H += H.T reads H.T from a copy: bit for bit the tiled average
    pts = np.random.default_rng(n).normal(size=(n, 3))
    dists, whole = PointDistances(pts), slice(0, n)
    expected = _tiled_average(stein_blocks(spec, dists, -pts)(whole, whole))
    assert np.array_equal(stein_matrix(spec, dists, -pts), expected)


@pytest.mark.parametrize("spec", [gaussian_kernel(1.0), imq_kernel(1.0)])
def test_stein_matrix_positive_semidefinite(spec):
    # a Stein kernel is a reproducing kernel, so every Stein matrix is PSD
    rng = np.random.default_rng(9)
    score = standard_gaussian_score()
    for n in (6, 13, 20):
        pts = rng.normal(size=(n, 2))
        h = stein_matrix(spec, pts, score(pts))
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-6 * np.abs(h).max()


def test_stein_identity_monte_carlo():
    # E[h_P(X, X')] = 0 over 10^4 independent pairs of model draws
    rng = np.random.default_rng(31)
    n = 10_000
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    score = standard_gaussian_score()
    spec = gaussian_kernel(1.0)
    # hand expansion for the 1-d Gaussian kernel with s(t) = -t:
    # h = k s(x)s(y) + dk/dx s(y) + dk/dy s(x) + d2k/dxdy
    diff = x - y
    k = np.exp(-0.5 * diff**2)
    h = k * (x * y) + (-diff * k) * (-y) + (diff * k) * (-x) + (1.0 - diff**2) * k
    spot = np.array([stein_kernel(spec, score, [x[i]], [y[i]]) for i in range(0, n, 500)])
    np.testing.assert_allclose(h[::500], spot, rtol=1e-10)
    se = h.std() / math.sqrt(n)
    assert abs(h.mean()) <= 3 * se


def test_stein_kernel_bound_dominates_samples():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(50, 2)) * 1.5
    score = student_t_score(5.0, 2)
    vals = stein_matrix(imq_kernel(1.0), pts, score(pts))
    bound = stein_kernel_bound(imq_kernel(1.0), 2, score.bound)
    assert np.abs(vals).max() <= bound


@pytest.mark.parametrize("family", FAMILIES)
def test_only_stein_families_build_a_stein_kernel(family):
    # a Stein kernel needs a base kernel continuously differentiable in both
    # arguments; any other family is an error, not a silent fallback
    spec = KernelSpec(family, 1.1, imq_exponent=0.75 if family == "imq" else None)
    pts = np.random.default_rng(14).normal(size=(9, 2))
    score = standard_gaussian_score()
    if family in STEIN_FAMILIES:
        h = stein_matrix(spec, pts, score(pts))
        assert np.array_equal(h, h.T)
        return
    data = ModelSampleData.from_score_field(pts, score)
    for call in (
        lambda: stein_matrix(spec, pts, score(pts)),
        lambda: core_matrix_ksd(spec, data),
        lambda: goodness_of_fit_test(pts, score, spec, replicates=19),
        lambda: stein_kernel_bound(spec, 2, 1.0),
    ):
        with pytest.raises(ValueError, match="no Stein kernel"):
            call()


def test_student_t_score_bound():
    score = student_t_score(4.0, 3)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(200, 3)) * 5.0
    norms = np.sqrt((score(pts) ** 2).sum(axis=1))
    assert norms.max() <= score.bound + 1e-12
    assert score.bound == pytest.approx(7.0 / 4.0)
    # the sup is attained on the sphere |x|^2 = df
    edge = np.zeros((1, 3))
    edge[0, 0] = 2.0
    assert np.sqrt((score(edge) ** 2).sum()) == pytest.approx(score.bound)


def test_score_field_shape_validation():
    from kerntest.kernels import ScoreField

    bad = ScoreField(evaluate=lambda x: x[:, :1])
    with pytest.raises(ValueError):
        bad(np.zeros((3, 2)))
