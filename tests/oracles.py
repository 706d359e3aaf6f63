"""Test oracles: kernel values, derivatives and the scalar Stein kernel from
the (m, n, d) tensor of scaled coordinate differences.

The library builds its Stein matrices in closed form from the distance
cache (``kernels.stein_blocks``); these direct formulas are what the tests
check that form, and the finite differences, against.
"""

import numpy as np

from kerntest.kernels import KernelSpec, ScoreField, _as_points, _norm_const, _require_stein, gram_matrix


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
