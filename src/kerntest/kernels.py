"""Kernel families, bandwidth selection and Stein kernels.

Three translation-invariant families are provided, each in two forms:

* bounded form (default): ``k(x, x) = 1``, which is the form every test
  path relies on since the kernel bound enters sensitivity and U/V
  inequalities;
* density form (``normalized=True``): the kernel is divided by the
  product of bandwidths together with the family's normalisation
  constant, so that the Gaussian and Laplace kernels integrate to one.

With scaled coordinate differences ``t_i = (x_i - y_i) / lambda_i`` the
bounded forms are

* gaussian:  ``exp(-sum(t_i^2) / 2)``
* laplace:   ``exp(-sum(|t_i|))``
* imq:       ``(1 + sum(t_i^2))^(-beta)``  with ``beta in (1/2, 1)``

A Stein kernel needs a base kernel that is continuously differentiable in
both arguments, so only the families in ``STEIN_FAMILIES`` have one.  The
Laplace kernel is not differentiable where two points share a coordinate,
and the mixed second derivative of ``exp(-|t|)`` has a Dirac part at
``t = 0``; a Stein kernel built from its almost-everywhere derivatives
does not have mean zero under the model.  So the Stein and derivative
builders raise ``ValueError`` for it, and Laplace is a kernel for grams,
MMD and HSIC only.  First and mixed second derivatives of the Gaussian and
IMQ kernels are computed analytically; finite differences are used only as
a test oracle.

Precision contract of the matrix builders.  A point set has one pass of
unscaled squared Euclidean distances, kept in its ``PointDistances`` (a
dataset holds one per sample it tests), plus one pass of unscaled L1
distances when a Laplace kernel needs them.  Everything isotropic is
derived from these: the median and grid bandwidths, every Gaussian, IMQ
and Laplace gram as ``exp(-D (0.5 / lambda^2))``,
``(1 + D / lambda^2)^(-beta)`` or ``exp(-L / lambda)`` (one private
transform, which ``gram_matrix`` also applies to its own distance pass,
so both routes give the same gram bit for bit), the MMD and HSIC wild
cores as blocks of those grams, and the squared distances of the Stein
matrix.  Anisotropic bandwidths keep their own pass on scaled
coordinates.

The squared distances come from one BLAS pass, ``|a|^2 + |b|^2 - 2 a.b``,
on coordinates shifted by the per-coordinate midrange of the data (which
does not depend on row order); ``|a|^2 + |b|^2`` is formed a block of
rows at a time, so no second (m, n) array is built.  That form loses
accuracy where the distance is small against ``|a|^2 + |b|^2``; every
entry below ``2^-6 (|a|^2 + |b|^2)``, negatives included, is recomputed
from the coordinate differences, so identical points are at distance
exactly 0 and a squared distance elsewhere carries a relative error of at
most about ``2^6 (d + 2)`` units in the last place.  In one or two
dimensions, where it is also faster, the squared coordinate differences
are accumulated over the dimensions instead, as L1 distances accumulate
``|a_i - b_i|``.  The distances of a sample with itself are exactly
symmetric with a zero diagonal, so its grams are exactly symmetric with
diagonal ``kernel_bound``, and so are its Stein matrices.

Bandwidths are read from order statistics of the squared distances: one
single-kth partition per median or quantile finds the one or two that
``np.median`` or ``np.quantile`` would read, and only those are
square-rooted.  ``sqrt`` is monotone and correctly rounded, so the result
equals numpy's on the square-rooted distances bit for bit.  Only the
derivative matrices, behind the scalar oracle ``stein_kernel``, form
(m, n, d) tensors.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

FAMILIES = ("gaussian", "laplace", "imq")
# the families with a Stein kernel: those continuously differentiable in both arguments
STEIN_FAMILIES = ("gaussian", "imq")

DEFAULT_IMQ_EXPONENT = 0.75


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """A kernel family with its bandwidth(s) and form.

    ``bandwidth`` is either a positive scalar (isotropic) or a vector of
    per-dimension bandwidths.  ``imq_exponent`` must be given exactly for
    the IMQ family and lie strictly in (1/2, 1).
    """

    family: str
    bandwidth: float | tuple[float, ...]
    imq_exponent: float | None = None
    normalized: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        bw = np.atleast_1d(np.asarray(self.bandwidth, dtype=float))
        if bw.ndim != 1 or bw.size == 0:
            raise ValueError("bandwidth must be a scalar or a 1-d vector")
        if not np.all(np.isfinite(bw)) or np.any(bw <= 0):
            raise ValueError("bandwidth components must be positive and finite")
        if self.family == "imq":
            if self.imq_exponent is None:
                raise ValueError("imq kernel requires imq_exponent")
            if not (0.5 < self.imq_exponent < 1.0):
                raise ValueError("imq_exponent must lie strictly in (1/2, 1)")
        elif self.imq_exponent is not None:
            raise ValueError("imq_exponent is only valid for the imq family")

    def bandwidth_vector(self, dim: int) -> np.ndarray:
        """Bandwidths broadcast to shape (dim,)."""
        bw = np.atleast_1d(np.asarray(self.bandwidth, dtype=float))
        if bw.size == 1:
            return np.full(dim, bw[0])
        if bw.size != dim:
            raise ValueError(f"bandwidth has {bw.size} components, data has dimension {dim}")
        return bw.copy()

    def describe(self) -> dict:
        """JSON-friendly description of the kernel."""
        bw = np.atleast_1d(np.asarray(self.bandwidth, dtype=float))
        out = {
            "family": self.family,
            "bandwidth": float(bw[0]) if bw.size == 1 else [float(v) for v in bw],
            "normalized": self.normalized,
        }
        if self.family == "imq":
            out["imq_exponent"] = float(self.imq_exponent)
        return out


def gaussian_kernel(bandwidth, normalized: bool = False) -> KernelSpec:
    return KernelSpec("gaussian", bandwidth, normalized=normalized)


def laplace_kernel(bandwidth, normalized: bool = False) -> KernelSpec:
    return KernelSpec("laplace", bandwidth, normalized=normalized)


def imq_kernel(bandwidth, exponent: float = DEFAULT_IMQ_EXPONENT, normalized: bool = False) -> KernelSpec:
    return KernelSpec("imq", bandwidth, imq_exponent=exponent, normalized=normalized)


def _as_points(a) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must form a 2-d array (rows = samples)")
    return pts


def _norm_const(spec: KernelSpec, dim: int) -> float:
    """Multiplier turning the bounded form into the density form."""
    if not spec.normalized:
        return 1.0
    prod = float(np.prod(spec.bandwidth_vector(dim)))
    if spec.family == "gaussian":
        return (2.0 * math.pi) ** (-dim / 2.0) / prod
    if spec.family == "laplace":
        return 2.0 ** (-dim) / prod
    return 1.0 / prod  # imq: no closed-form normaliser, 1/prod(lambda) scaling


def kernel_bound(spec: KernelSpec, dim: int) -> float:
    """K = k(x, x), the supremum of the kernel."""
    return _norm_const(spec, dim)


def _difference_form(spec: KernelSpec, A, B) -> tuple[np.ndarray, np.ndarray, float]:
    """(U, lam, c): scaled differences U[i, j] = (A_i - B_j) / lam, shape (m, n, d),
    the bandwidths and the normalisation constant."""
    A, B = _as_points(A), _as_points(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    lam = spec.bandwidth_vector(A.shape[1])
    return (A[:, None, :] - B[None, :, :]) / lam, lam, _norm_const(spec, A.shape[1])


# Squared distances below this share of |a|^2 + |b|^2 are recomputed from
# differences; above it the BLAS form's error, a few ulps of |a|^2 + |b|^2,
# stays within 2^6 ulps of the distance per unit of (d + 2).
_CANCELLATION_SHARE = 2.0**-6
# Cap on the (entries x dimensions) temporary of one recompute step.
_RECOMPUTE_ELEMENTS = 1 << 16
# Cap on the entries of a row block of an (m, n) temporary.
_ROW_BLOCK_ELEMENTS = 1 << 13
# Cap on the entries of a row block of the low-dimensional distance pass;
# up to 128 points, one block covers the whole (n, n) matrix.
_DISTANCE_BLOCK_ELEMENTS = 1 << 14
# Side of the square tiles in which a Stein matrix is symmetrised.
_SYMMETRISE_TILE = 128
# Below this dimension, accumulating squared coordinate differences takes
# fewer passes over the (m, n) buffer than the BLAS form, and is exact.
_BLAS_MIN_DIM = 3


def _midrange(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-coordinate (min + max) / 2 over both samples; independent of row order."""
    lo = np.minimum(A.min(axis=0), B.min(axis=0))
    hi = np.maximum(A.max(axis=0), B.max(axis=0))
    return 0.5 * lo + 0.5 * hi


def _symmetrise(D: np.ndarray) -> None:
    """D <- (D + D.T) / 2 in place, exactly symmetric.

    Tile by tile: no n x n temporary, and the transposed reads stay in cache.
    """
    n = D.shape[0]
    for lo in range(0, n, _SYMMETRISE_TILE):
        rows = slice(lo, lo + _SYMMETRISE_TILE)
        for lo2 in range(lo, n, _SYMMETRISE_TILE):
            cols = slice(lo2, lo2 + _SYMMETRISE_TILE)
            T = D[rows, cols] + D[cols, rows].T
            T *= 0.5
            D[rows, cols] = T
            D[cols, rows] = T.T


def _sq_distances(A: np.ndarray, B: np.ndarray, lam: np.ndarray | None, same: bool) -> np.ndarray:
    """Squared distances sum_i ((a_i - b_i) / lam_i)^2, shape (m, n); unscaled
    (``lam_i = 1``) when ``lam`` is None.

    ``same`` says that B is A; the result is then exactly symmetric with a
    zero diagonal.  See the module docstring for the precision contract.
    """
    if A.shape[1] < _BLAS_MIN_DIM:
        return _accumulated_distances(A, B, lam, square=True)
    centre = _midrange(A, B)
    As = _scaled(A - centre, lam)
    Bs = As if same else _scaled(B - centre, lam)
    na = np.einsum("ij,ij->i", As, As)
    nb = na if same else np.einsum("ij,ij->i", Bs, Bs)
    # with B = A, numpy computes As @ As.T by one SYRK call, which mirrors
    # one triangle, so the product is exactly symmetric
    D = As @ Bs.T
    D *= -2.0
    # |a|^2 + |b|^2 is formed one block of rows at a time, rounded once per
    # entry, which keeps d(a, b) = d(b, a); scaled, it is the block's
    # cancellation bound
    rows = max(1, _ROW_BLOCK_ELEMENTS // D.shape[1])
    flagged = []
    for lo in range(0, D.shape[0], rows):
        block = D[lo : lo + rows]
        bound = np.add.outer(na[lo : lo + rows], nb)
        block += bound
        bound *= _CANCELLATION_SHARE
        flagged.append(np.flatnonzero(block <= bound) + lo * D.shape[1])
    flagged = np.concatenate(flagged)
    # every entry at or below the bound, negatives included, is recomputed,
    # so no entry is left below zero
    step = max(1, _RECOMPUTE_ELEMENTS // A.shape[1])
    for lo in range(0, flagged.size, step):
        r, c = np.divmod(flagged[lo : lo + step], D.shape[1])
        U = _scaled(A[r] - B[c], lam)
        D[r, c] = np.einsum("kd,kd->k", U, U)
    if same:
        np.fill_diagonal(D, 0.0)
    return D


def _scaled(U: np.ndarray, lam: np.ndarray | None) -> np.ndarray:
    """U / lam in place, or U itself when lam is None."""
    if lam is not None:
        U /= lam
    return U


def _accumulated_distances(A: np.ndarray, B: np.ndarray, lam: np.ndarray | None, square: bool) -> np.ndarray:
    """sum_i t_i^2 (``square``) or sum_i |t_i| with t_i = (a_i - b_i) / lam_i, shape (m, n);
    unscaled (``lam_i = 1``) when ``lam`` is None.

    Accumulated one dimension at a time into one (m, n) buffer, a block of
    rows at a time, so each block is written while it is in cache.  The
    first dimension's term is written in place of adding it to zeros,
    which is the same value, so every entry is the same sum in the same
    order whatever the block size.
    """
    D = np.zeros((A.shape[0], B.shape[0]))
    rows = max(1, _DISTANCE_BLOCK_ELEMENTS // max(1, B.shape[0]))
    U = np.empty((min(rows, A.shape[0]), B.shape[0])) if A.shape[1] > 1 else None
    for lo in range(0, A.shape[0], rows):
        block = D[lo : lo + rows]
        for i in range(A.shape[1]):
            term = block if i == 0 else U[: block.shape[0]]
            np.subtract.outer(A[lo : lo + rows, i], B[:, i], out=term)
            if lam is not None:
                term /= lam[i]
            if square:
                np.multiply(term, term, out=term)
            else:
                np.abs(term, out=term)
            if i > 0:
                block += term
    return D


def _isotropic(lam: np.ndarray) -> float | None:
    """The common bandwidth when every component is equal, else None."""
    return float(lam[0]) if np.all(lam == lam[0]) else None


def _distance_gram(
    spec: KernelSpec, D: np.ndarray, scale: float, dim: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Kernel values from distances D and the bandwidth ``scale``: D holds
    squared Euclidean distances for the Gaussian and IMQ kernels, L1
    distances for the Laplace kernel.  Written to ``out`` (which may be D)
    or to a new array.

    The one gram formula: every gram, from a dataset's cached distances or
    from ``gram_matrix``'s own pass, is made here.
    """
    if spec.family == "gaussian":
        G = np.multiply(D, -(0.5 / scale**2), out=out)
        np.exp(G, out=G)
    elif spec.family == "laplace":
        G = np.divide(D, -scale, out=out)
        np.exp(G, out=G)
    else:
        G = np.divide(D, scale**2, out=out)
        G += 1.0
        np.power(G, -spec.imq_exponent, out=G)
    if spec.normalized:
        G *= _norm_const(spec, dim)
    return G


def gram_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Matrix of kernel values, entry (i, j) = k(A_i, B_j).

    Exactly symmetric with diagonal ``kernel_bound`` when A equals B
    row-for-row.  An isotropic gram is made from one unscaled distance
    pass, exactly as ``PointDistances.gram`` makes it from cached distances.
    """
    A, B = _as_points(A), _as_points(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    lam = spec.bandwidth_vector(A.shape[1])
    scale = _isotropic(lam)
    pass_lam = None if scale is not None else lam  # anisotropic: one scaled pass
    if spec.family == "laplace":
        D = _accumulated_distances(A, B, pass_lam, square=False)
    else:
        same = A is B or np.array_equal(A, B)
        D = _sq_distances(A, A if same else B, pass_lam, same)
    return _distance_gram(spec, D, 1.0 if scale is None else scale, A.shape[1], out=D)


class PointDistances:
    """Pairwise distances of one point set, each matrix computed once, on first use.

    ``squared`` holds the unscaled squared Euclidean distances and ``l1``
    the unscaled L1 distances, (n, n), exactly symmetric with a zero
    diagonal and read-only.  The median and grid bandwidths, every
    isotropic gram (``gram``) and the Stein matrix's squared distances are
    read from them, so a dataset pays one distance pass (two for the
    Laplace kernel) however many kernels it is tested with.

    The matrices are never recomputed, so ``points`` must not change: the
    datasets of ``kerntest.statistics`` pass arrays that they own and have
    made read-only.
    """

    def __init__(self, points):
        self.points = _as_points(points)

    @functools.cached_property
    def squared(self) -> np.ndarray:
        return _read_only(_sq_distances(self.points, self.points, None, True))

    @functools.cached_property
    def l1(self) -> np.ndarray:
        return _read_only(_accumulated_distances(self.points, self.points, None, square=False))

    def gram(self, spec: KernelSpec, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
        """k(points[rows], points[cols]) as a new array.

        With an isotropic bandwidth this is, bit for bit, the same block of
        ``gram_matrix(spec, points, points)``.  Anisotropic bandwidths need
        a scaled pass, which ``gram_matrix`` makes on the two blocks.
        """
        dim = self.points.shape[1]
        scale = _isotropic(spec.bandwidth_vector(dim))
        if scale is None:
            return gram_matrix(spec, self.points[rows], self.points[cols])
        D = self.l1 if spec.family == "laplace" else self.squared
        return _distance_gram(spec, D[rows, cols], scale, dim)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _distances(points) -> PointDistances:
    return points if isinstance(points, PointDistances) else PointDistances(points)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y) for two single points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(gram_matrix(spec, x[None, :], y[None, :])[0, 0])


def _require_stein(spec: KernelSpec) -> None:
    """Raise ValueError unless the family has a Stein kernel (see the module docstring)."""
    if spec.family not in STEIN_FAMILIES:
        raise ValueError(
            f"the {spec.family} kernel is not differentiable, so it has no Stein kernel; "
            f"use one of {', '.join(STEIN_FAMILIES)}"
        )


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


@dataclasses.dataclass(frozen=True)
class ScoreField:
    """A gradient-of-log-density field.

    ``evaluate`` maps an (n, d) array of points to an (n, d) array of
    score vectors.  ``bound`` is a known supremum of the score norm; when
    absent, consumers fall back to the maximum observed norm.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    provenance: str = "closed_form"
    bound: float | None = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = _as_points(points)
        out = np.asarray(self.evaluate(points), dtype=float)
        if out.shape != points.shape:
            raise ValueError(f"score output shape {out.shape} does not match points {points.shape}")
        return out


def standard_gaussian_score() -> ScoreField:
    """Score of N(0, I): s(x) = -x.  The norm is unbounded on R^d."""
    return ScoreField(evaluate=lambda x: -x, provenance="closed_form", bound=None)


def student_t_score(df: float, dim: int) -> ScoreField:
    """Score of the multivariate t model p(x) ~ (1 + |x|^2/df)^(-(df+dim)/2).

    s(x) = -(df + dim) x / (df + |x|^2).  The squared norm
    (df + dim)^2 |x|^2 / (df + |x|^2)^2 peaks at |x|^2 = df, so the norm
    is bounded by (df + dim) / (2 sqrt(df)).
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")

    def _eval(x: np.ndarray) -> np.ndarray:
        return -(df + dim) * x / (df + (x**2).sum(axis=1, keepdims=True))

    return ScoreField(evaluate=_eval, provenance="closed_form", bound=(df + dim) / (2.0 * math.sqrt(df)))


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


def _smooth_stein_matrix(spec: KernelSpec, dists: PointDistances, S: np.ndarray) -> np.ndarray:
    """Gaussian or IMQ Stein matrix in closed form, up to symmetrisation.

    With A = (X - midrange) / lam, T = S / lam, p_i = A_i . T_i, r^2 the
    squared scaled distance, w = sum_d ((x_d - y_d) / lam_d^2)^2 and
    E = p_i + p_j - 2 A_i . T_j + sum_d 1 / lam_d^2, entry (i, j) is
    c k (s_i . s_j + E - w) for the Gaussian and
    c k (s_i . s_j + 2 beta (E - 2 (beta + 1) w / (1 + r^2)) / (1 + r^2))
    for the IMQ kernel.  Averaging with the transpose turns -2 A_i . T_j
    into -(A_i . T_j + A_j . T_i), which with p_i + p_j makes the two
    gradient terms (A_i - A_j) . (T_i - T_j).
    """
    X = dists.points
    dim = X.shape[1]
    lam = spec.bandwidth_vector(dim)
    scale = _isotropic(lam)
    if scale is not None:
        # r^2 = D / lam^2 and w = r^2 / lam^2, from the cached distances
        r2, w, s2 = dists.squared, None, scale**2
    else:
        r2, w, s2 = _sq_distances(X, X, lam, True), _sq_distances(X, X, lam**2, True), 1.0
    A = (X - _midrange(X, X)) / lam
    T = S / lam
    p = np.einsum("ij,ij->i", A, T)
    minus_2t, inv2, c = -2.0 * T.T, (1.0 / lam**2).sum(), _norm_const(spec, dim)
    H = np.empty_like(r2)
    # a block of rows at a time: the output is the only other (n, n) array
    rows = max(1, _ROW_BLOCK_ELEMENTS // X.shape[0])
    for lo in range(0, X.shape[0], rows):
        blk = slice(lo, lo + rows)
        R = r2[blk] / s2
        W = R / s2 if w is None else w[blk]
        E = A[blk] @ minus_2t
        E += p[blk, None]
        E += p[None, :]
        E += inv2
        if spec.family == "gaussian":
            E -= W
            R *= -0.5
            np.exp(R, out=R)
        else:
            beta = spec.imq_exponent
            R += 1.0
            W = W / R
            W *= 2.0 * (beta + 1.0)
            E -= W
            E /= R
            E *= 2.0 * beta
            np.power(R, -beta, out=R)
        E += S[blk] @ S.T
        E *= R
        E *= c
        H[blk] = E
    return H


def stein_matrix(spec: KernelSpec, points, scores) -> np.ndarray:
    """Matrix of Stein kernel values over one sample, exactly symmetric.

    ``points`` is an (n, d) array or the sample's ``PointDistances``, whose
    cached distances are then reused.  Raises ValueError for a family
    outside ``STEIN_FAMILIES``.
    """
    _require_stein(spec)
    dists = _distances(points)
    S = np.asarray(scores, dtype=float)
    if S.shape != dists.points.shape:
        raise ValueError(f"scores shape {S.shape} does not match points {dists.points.shape}")
    # the builder's row temporaries are freed before the tiles are averaged
    H = _smooth_stein_matrix(spec, dists, S)
    _symmetrise(H)
    return H


def derivative_bounds(spec: KernelSpec, dim: int) -> tuple[float, float, float]:
    """Conservative suprema (K, G, H) of |k|, |grad1 k|_2 and |sum d^2k/dx_i dy_i|."""
    _require_stein(spec)
    lam = spec.bandwidth_vector(dim)
    lam_min = float(lam.min())
    inv2_sum = float((1.0 / lam**2).sum())
    c = _norm_const(spec, dim)
    if spec.family == "gaussian":
        return c, c * math.exp(-0.5) / lam_min, c * dim / lam_min**2
    beta = spec.imq_exponent
    return c, c * beta / lam_min, c * (2.0 * beta * inv2_sum + 4.0 * beta * (beta + 1.0) / lam_min**2)


def stein_kernel_bound(spec: KernelSpec, dim: int, score_bound: float) -> float:
    """Closed-form bound on |h_P| from derivative bounds and a score-norm bound."""
    if score_bound < 0:
        raise ValueError("score bound must be nonnegative")
    K, G, H = derivative_bounds(spec, dim)
    return K * score_bound**2 + 2.0 * G * score_bound + H


def _upper_squared(points) -> tuple[np.ndarray, int]:
    """The squared pairwise distances of the strict upper triangle, as a new
    array, and how many of them are zero.

    Distances are never negative, so order statistic k of the positive
    distances is order statistic ``zeros + k`` of the array.
    """
    dists = _distances(points)
    n = dists.points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    squared = dists.squared
    # row by row into one array: the same values in the same order as a
    # boolean mask of the triangle picks them, without the (n, n) mask
    vals = np.empty(n * (n - 1) // 2)
    end = 0
    for i in range(n - 1):
        start, end = end, end + n - 1 - i
        vals[start:end] = squared[i, i + 1 :]
    zeros = vals.size - np.count_nonzero(vals)
    if zeros == vals.size:
        raise ValueError("all points are identical: no positive pairwise distance")
    return vals, zeros


def _neighbours(vals: np.ndarray, k: int) -> tuple[float, float]:
    """Order statistics k and k + 1 of vals (0-based), reordering vals.

    One single-kth partition at whichever of the two lies nearer an end of
    the array; the other is the max of the part below it or the min of the
    part above it, whichever is the smaller.
    """
    if k + 1 <= vals.size - 1 - k:
        vals.partition(k + 1)
        return float(vals[: k + 1].max()), float(vals[k + 1])
    vals.partition(k)
    return float(vals[k]), float(vals[k + 1 :].min())


def _distance_quantile(vals: np.ndarray, zeros: int, q: float) -> float:
    """``np.quantile`` (linear method) of the square roots of the positive
    entries of vals, taking only the one or two square roots it reads.

    sqrt is monotone and correctly rounded, so the order statistics of the
    roots are the roots of the order statistics; the index and the
    interpolation repeat numpy's arithmetic, so the result is bit for bit
    numpy's.
    """
    count = vals.size - zeros
    virtual = (count - 1) * q
    if virtual >= count - 1:
        return math.sqrt(float(vals.max()))
    below = math.floor(virtual)
    lo, hi = _neighbours(vals, zeros + below)
    a, b = math.sqrt(lo), math.sqrt(hi)
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def median_heuristic(points) -> float:
    """Median of the nonzero pairwise Euclidean distances.

    ``points`` is an (n, d) array or its ``PointDistances``, whose cached
    squared distances are then read.  Bit for bit ``np.median`` of the
    square-rooted distances, with only the one or two roots it reads taken.
    """
    vals, zeros = _upper_squared(points)
    count = vals.size - zeros
    half = zeros + count // 2
    if count % 2:
        vals.partition(half)
        return math.sqrt(float(vals[half]))
    lo, hi = _neighbours(vals, half - 1)
    return (math.sqrt(lo) + math.sqrt(hi)) / 2.0


def bandwidth_grid(points, count: int) -> np.ndarray:
    """Geometric bandwidth grid spanning the inter-sample distances.

    Returns ``count`` bandwidths geometrically spaced between the 5% and
    95% quantiles of the nonzero pairwise distances.  The quantiles depend
    only on the multiset of distances, whose values do not depend on the
    order of the input rows, so neither does the output.  ``points`` is an
    (n, d) array or its ``PointDistances``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    vals, zeros = _upper_squared(points)
    lo = _distance_quantile(vals, zeros, 0.05)
    hi = _distance_quantile(vals, zeros, 0.95)
    if count == 1:
        return np.array([math.sqrt(lo * hi)])
    return np.geomspace(lo, hi, count)
