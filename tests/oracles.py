"""Test oracles: direct formulas that the tests check the library against.

* Kernel values, derivatives and the scalar Stein kernel, from the
  (m, n, d) tensor of scaled coordinate differences.  The library builds
  its Stein matrices in closed form from the distance cache
  (``kernels.stein_blocks``); these formulas, and finite differences,
  check that form.
* The null-simulation identities, on held (n, n) core arrays: a wild-bootstrap
  statistic with given signs, and the same statistic after the pair swaps
  those signs stand for (``permuted_statistic``).  For the MMD core
  (m = n) and the half-split HSIC core, flipping sign i swaps pair i, so
  the two agree bit for bit.  The doubly-centred HSIC core has no such
  identity; ``hsic_permuted_statistic`` permutes the Y component of its
  two centred factors (``hsic_centered_grams``) instead.
* The plug-in one-sample MMD against a model with known moments, and the
  merged-form two-sample MMD V-statistic from three grams.
"""

import numpy as np

from kerntest.kernels import KernelSpec, ScoreField, _as_points, _norm_const, _require_stein, gram_matrix
from kerntest.statistics import CoreRows, DesignSet, PairedData, _as_matrix, _double_center, incomplete_statistic


def _difference_form(spec: KernelSpec, A, B) -> tuple[np.ndarray, np.ndarray, float]:
    """(U, lam, c): scaled differences U[i, j] = (A_i - B_j) / lam, shape (m, n, d),
    the bandwidths and the normalisation constant."""
    A, B = _as_points(A), _as_points(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    lam = spec.bandwidth_vector(A.shape[1])
    return (A[:, None, :] - B[None, :, :]) / lam, lam, _norm_const(spec, A.shape[1])


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y) for two single points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(gram_matrix(spec, x[None, :], y[None, :])[0, 0])


def grad1_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Gradients of k with respect to the first argument, shape (m, n, d)."""
    _require_stein(spec)
    U, lam, c = _difference_form(spec, A, B)
    if spec.family == "gaussian":
        K = np.exp(-0.5 * np.einsum("mnd,mnd->mn", U, U))
        return -(U / lam) * (c * K)[:, :, None]
    beta = spec.imq_exponent
    r2 = np.einsum("mnd,mnd->mn", U, U)
    return -2.0 * beta * (U / lam) * (c * (1.0 + r2) ** (-beta - 1.0))[:, :, None]


def grad2_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Gradients with respect to the second argument; -grad1 for these even kernels."""
    return -grad1_matrix(spec, A, B)


def cross_derivative_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """sum_i d^2 k / dx_i dy_i, shape (m, n)."""
    _require_stein(spec)
    U, lam, c = _difference_form(spec, A, B)
    inv2 = 1.0 / lam**2
    if spec.family == "gaussian":
        K = np.exp(-0.5 * np.einsum("mnd,mnd->mn", U, U))
        return c * K * ((1.0 - U**2) * inv2).sum(axis=-1)
    beta = spec.imq_exponent
    r2 = np.einsum("mnd,mnd->mn", U, U)
    base = 1.0 + r2
    term1 = 2.0 * beta * inv2.sum() * base ** (-beta - 1.0)
    term2 = 4.0 * beta * (beta + 1.0) * (U**2 * inv2).sum(axis=-1) * base ** (-beta - 2.0)
    return c * (term1 - term2)


def stein_kernel(spec: KernelSpec, score: ScoreField, x, y) -> float:
    """Stein kernel value h_P(x, y) for a score field s = grad log p.

    h_P(x,y) = k(x,y) s(x)'s(y) + grad1 k(x,y)'s(y) + grad2 k(x,y)'s(x)
               + sum_i d^2 k / dx_i dy_i.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=float))[None, :]
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sx, sy = score(x)[0], score(y)[0]
    k = gram_matrix(spec, x, y)[0, 0]
    g1 = grad1_matrix(spec, x, y)[0, 0]
    c = cross_derivative_matrix(spec, x, y)[0, 0]
    return float(k * (sx @ sy) + g1 @ sy + (-g1) @ sx + c)


def held_rows(h) -> CoreRows:
    """A held (n, n) core as the wild engine reads a streamed one: all its
    rows in one block, as views, which the engine only reads."""
    return CoreRows(h.shape[0], h.shape[0], lambda rows, cols: h[rows, cols])


def wild_bootstrap_statistic(h, design: DesignSet, signs) -> float:
    """(1/|D|) sum over (i,j) in D of eps_i eps_j H[i, j]."""
    signs = np.asarray(signs, dtype=float)
    n = h.shape[0]
    if signs.shape != (n,):
        raise ValueError(f"sign vector of length {signs.size} does not match core size {n}")
    design.validate_for(n)
    vals = h[design.idx_i, design.idx_j]
    e = signs[design.idx_i] * signs[design.idx_j]
    return float((vals * e).sum() / design.size)


def pair_swap_signs(n: int, swapped) -> np.ndarray:
    """Sign vector with -1 exactly at the swapped pair indices."""
    signs = np.ones(n)
    signs[np.asarray(swapped, dtype=np.intp)] = -1.0
    return signs


def swap_permuted_core(h, signs) -> np.ndarray:
    """Core matrix after swapping the pairs with sign -1.

    For the MMD core (and the half-split HSIC core) swapping pair i
    negates row/column i exactly, so the permuted core is the
    sign-conjugated matrix; the conjugation is exact in floating point.
    """
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (h.shape[0],):
        raise ValueError("sign vector length does not match core size")
    return (signs[:, None] * signs[None, :]) * h


def permuted_statistic(h, swapped, design: DesignSet | None = None) -> float:
    """Design-mean statistic of an MMD core or a half-split HSIC core after
    swapping the pairs indexed by ``swapped`` (possibly empty)."""
    n = h.shape[0]
    design = design if design is not None else DesignSet.full_offdiag(n)
    return incomplete_statistic(swap_permuted_core(h, pair_swap_signs(n, swapped)), design)


def hsic_centered_grams(kx: KernelSpec, ky: KernelSpec, data: PairedData) -> tuple[np.ndarray, np.ndarray]:
    """The doubly-centred grams C K C and C L C of the X and Y components."""
    return _double_center(data.x_distances.gram(kx)), _double_center(data.y_distances.gram(ky))


def hsic_permuted_statistic(kc, lc, permutation, design: DesignSet | None = None) -> float:
    """Design-mean statistic of the doubly-centred HSIC core (C K C) * (C L C)
    after permuting the Y component by ``permutation`` of range(N), which
    conjugates the second factor ``lc``."""
    n = kc.shape[0]
    perm = np.asarray(permutation, dtype=np.intp)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("not a permutation of range(N)")
    design = design if design is not None else DesignSet.full_offdiag(n)
    return incomplete_statistic(kc * lc[np.ix_(perm, perm)], design)


def two_sample_v_statistic(gram_xx, gram_yy, gram_xy) -> float:
    """Merged-form MMD V-statistic, valid for unequal sample sizes.

    mean(Kxx) + mean(Kyy) - 2 mean(Kxy); nonnegative up to rounding.
    """
    m, n = gram_xy.shape
    return float(gram_xx.sum() / (m * m) + gram_yy.sum() / (n * n) - 2.0 * gram_xy.sum() / (m * n))


def one_sample_mmd(spec: KernelSpec, points, mean_embedding, double_expectation: float) -> float:
    """Plug-in squared MMD between a sample and a model with known moments.

    ``points`` is an array of sample points (a single point is allowed).
    ``mean_embedding`` maps points to E_P[k(x, Y)]; ``double_expectation``
    is E_{P,P}[k(Y, Y')].  Value:

        mean_ij k(X_i, X_j) - 2 mean_i E_P[k(X_i, Y)] + E_{P,P}[k(Y, Y')]
    """
    x = _as_matrix(points, "points")
    n = x.shape[0]
    g = gram_matrix(spec, x, x)
    emb = np.asarray(mean_embedding(x), dtype=float).reshape(-1)
    if emb.shape[0] != n:
        raise ValueError("mean embedding must return one value per sample point")
    return float(g.sum() / (n * n) - 2.0 * emb.sum() / n + double_expectation)


def empirical_model_moments(spec: KernelSpec, model_points) -> tuple:
    """Moments of the empirical distribution on ``model_points``.

    Feeding these into one_sample_mmd reproduces the usual two-sample
    MMD V-statistic against that empirical sample.
    """
    pts = _as_matrix(model_points, "model_points")

    def _embed(x):
        return gram_matrix(spec, _as_matrix(x, "x"), pts).mean(axis=1)

    g = gram_matrix(spec, pts, pts)
    return _embed, float(g.sum() / (pts.shape[0] ** 2))
