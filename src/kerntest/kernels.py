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
does not have mean zero under the model.  So the Stein matrix and the
derivative bounds raise ``ValueError`` for it, and Laplace is a kernel for
grams, MMD and HSIC only.  The Stein matrices of the Gaussian and IMQ
kernels are made in closed form (``stein_blocks``).

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

Bandwidths are read from order statistics of the positive squared
distances of the strict upper triangle.  Up to N = 256 one step copies and
partitions it; above that it is not copied: brackets around the wanted
quantiles come from a sample of the pairs (i, i + o mod N) for a few fixed
offsets o, which spreads over every point (distances that share a point
are correlated, so a few rows or a strided grid miss), and one pass over
the triangle counts the zeros and the entries below each bracket and
copies those inside it; a rank between brackets is bracketed again in its
gap, with a wider margin.  Only the
order statistics ``np.median`` or ``np.quantile`` read are square-rooted;
``sqrt`` is monotone and correctly rounded, so the result is numpy's on
the square-rooted distances bit for bit.
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
# Entries of one step of the bandwidth selection's pass over the upper
# triangle; up to N = 256 one step copies all of it.
_SELECT_BLOCK_ELEMENTS = 1 << 16
# Diagonal offsets whose distances sample the triangle for the selection's
# brackets, and a bracket's half-width around quantile q, in standard
# deviations sqrt(s q (1 - q)) of q's rank in a sample of size s.
_SAMPLE_OFFSETS = 8
_SAMPLE_MARGIN = 4.0
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
    if out is None and not D.flags.c_contiguous:
        out = D = D.copy()  # a ufunc on a strided view would take a 64 KiB buffer
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


def _require_stein(spec: KernelSpec) -> None:
    """Raise ValueError unless the family has a Stein kernel (see the module docstring)."""
    if spec.family not in STEIN_FAMILIES:
        raise ValueError(
            f"the {spec.family} kernel is not differentiable, so it has no Stein kernel; "
            f"use one of {', '.join(STEIN_FAMILIES)}"
        )


@dataclasses.dataclass(frozen=True)
class ScoreField:
    """A gradient-of-log-density field.

    ``evaluate`` maps an (n, d) array of points to an (n, d) array of
    score vectors.  ``bound`` is a known supremum of the score norm; when
    absent, consumers fall back to the maximum observed norm.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    bound: float | None = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = _as_points(points)
        out = np.asarray(self.evaluate(points), dtype=float)
        if out.shape != points.shape:
            raise ValueError(f"score output shape {out.shape} does not match points {points.shape}")
        return out


def standard_gaussian_score() -> ScoreField:
    """Score of N(0, I): s(x) = -x.  The norm is unbounded on R^d."""
    return ScoreField(evaluate=lambda x: -x, bound=None)


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

    return ScoreField(evaluate=_eval, bound=(df + dim) / (2.0 * math.sqrt(df)))


def stein_blocks(spec: KernelSpec, points, scores) -> Callable[[slice, slice], np.ndarray]:
    """``block(rows, cols)``: H[rows, cols] of the Gaussian or IMQ Stein
    matrix in closed form before its averaging with the transpose, as a new
    array.

    ``points`` is an (n, d) array or the sample's ``PointDistances``, whose
    cached distances are then read.  With A = (X - midrange) / lam,
    T = S / lam, p_i = A_i . T_i, r^2 the squared scaled distance,
    w = sum_d ((x_d - y_d) / lam_d^2)^2 and
    E = p_i + p_j - 2 A_i . T_j + sum_d 1 / lam_d^2, entry (i, j) is
    c k (s_i . s_j + E - w) for the Gaussian and
    c k (s_i . s_j + 2 beta (E - 2 (beta + 1) w / (1 + r^2)) / (1 + r^2))
    for the IMQ kernel.  Averaging with the transpose turns -2 A_i . T_j
    into -(A_i . T_j + A_j . T_i), which with p_i + p_j makes the two
    gradient terms (A_i - A_j) . (T_i - T_j); before it, H is the Stein
    kernel only in its quadratic forms and its diagonal.  A block is made
    in sub-blocks of rows, counted from ``rows.start``, each of whose
    temporaries holds at most ``_ROW_BLOCK_ELEMENTS`` entries.  An anisotropic
    bandwidth has no cache: its two (n, n) scaled distance matrices are
    made here and held by the builder.  Raises ValueError for a family
    outside ``STEIN_FAMILIES``.
    """
    _require_stein(spec)
    dists = _distances(points)
    S = np.asarray(scores, dtype=float)
    X = dists.points
    if S.shape != X.shape:
        raise ValueError(f"scores shape {S.shape} does not match points {X.shape}")
    n, dim = X.shape
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
    step = max(1, _ROW_BLOCK_ELEMENTS // n)

    def block(rows: slice, cols: slice) -> np.ndarray:
        start, stop, _ = rows.indices(n)
        out = None if stop - start <= step else np.empty((stop - start, len(range(*cols.indices(n)))))
        for lo in range(start, stop, step):
            blk = slice(lo, min(lo + step, stop))
            R = r2[blk, cols] / s2
            W = R / s2 if w is None else w[blk, cols]
            E = A[blk] @ minus_2t[:, cols]
            E += p[blk, None]
            E += p[None, cols]
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
            E += S[blk] @ S[cols].T
            E *= R
            E *= c
            if out is None:
                return E  # one sub-block: no copy
            out[lo - start : blk.stop - start] = E
        return out

    return block


# The wild engine streams stein_blocks; this held matrix serves
# core_matrix_ksd, and keeps its name because perfbench/spans.py TARGETS
# wraps kernels.stein_matrix.
def stein_matrix(spec: KernelSpec, points, scores) -> np.ndarray:
    """Matrix of Stein kernel values over one sample, exactly symmetric.

    ``points`` is an (n, d) array or the sample's ``PointDistances``, whose
    cached distances are then reused.  The row sub-blocks of
    ``stein_blocks`` are stacked and averaged with the transpose.  Raises
    ValueError for a family outside ``STEIN_FAMILIES``.
    """
    dists = _distances(points)
    block = stein_blocks(spec, dists, scores)
    whole = slice(0, dists.points.shape[0])
    # the builder's row temporaries are freed before the tiles are averaged
    H = block(whole, whole)
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


def _bracket_pass(squared: np.ndarray, brackets: list) -> list:
    """(lo, hi, the count of triangle entries <= lo, the entries in (lo, hi])
    for each bracket (lo, hi): a block of rows at a time, the triangle of its
    diagonal square and the part right of it (copied to one buffer) are read."""
    n = squared.shape[0]
    rows = max(1, _SELECT_BLOCK_ELEMENTS // n)
    upper, buf = ~np.tri(min(rows, n), dtype=bool), np.empty(rows * max(0, n - rows))
    below, kept = [0] * len(brackets), []
    for a in range(0, n, rows):
        b = min(a + rows, n)
        right = buf[: (b - a) * (n - b)]
        right.reshape(b - a, n - b)[...] = squared[a:b, b:]
        for piece in (squared[a:b, a:b][upper[: b - a, : b - a]], right):
            keep = None
            for i, (lo, hi) in enumerate(brackets):
                low = piece <= lo
                below[i] += np.count_nonzero(low)
                if hi > lo:
                    low ^= piece <= hi
                    keep = low if keep is None else keep | low
            kept.append(piece[:0] if keep is None else np.compress(keep, piece))
    kept = np.concatenate(kept)
    return [(lo, hi, c, kept[(kept > lo) & (kept <= hi)]) for (lo, hi), c in zip(brackets, below)]


def _order_statistics(points, qs: tuple) -> tuple[int, dict]:
    """The count of positive squared distances in the strict upper triangle,
    and {rank: value} for the order statistics ``np.quantile`` reads for
    each q in ``qs``; see the module docstring."""
    dists = _distances(points)
    n = dists.points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    squared, total, margin = dists.squared, n * (n - 1) // 2, _SAMPLE_MARGIN
    if n * n <= _SELECT_BLOCK_ELEMENTS:  # one step: a copy of the triangle holds every rank
        upper = np.tri(n, dtype=bool)
        vals = squared[np.logical_not(upper, out=upper)]
        zeros = total - np.count_nonzero(vals)
        table = [(-math.inf, math.inf, 0, vals), (math.inf, math.inf, total, vals[:0])]
    else:
        idx = np.arange(n)
        offsets = np.unique(np.linspace(1, n // 2, _SAMPLE_OFFSETS).astype(int))
        sample = np.sort(np.concatenate([squared[idx, (idx + o) % n] for o in offsets]))
        positive = sample[np.count_nonzero(sample == 0.0) :]

        def bracket(q: float, margin: float) -> tuple[float, float]:
            at, half = q * (positive.size - 1), margin * math.sqrt(sample.size * q * (1.0 - q)) + 1.0
            lo, hi = math.floor(at - half), math.ceil(at + half)
            return float(positive[lo]) if lo >= 0 else 0.0, float(positive[hi]) if hi < positive.size else math.inf

        # the first bracket counts the zeros; a sentinel closes the table
        table = _bracket_pass(squared, [(0.0, 0.0)] + [bracket(q, margin) for q in qs])
        table.append((math.inf, math.inf, total, np.empty(0)))
        zeros = table[0][2]
    if zeros == total:
        raise ValueError("all points are identical: no positive pairwise distance")
    count = total - zeros
    # the one or two order statistics np.quantile reads for each q
    ranks = sorted({min(count - 1, math.floor((count - 1) * q) + d) for q in qs for d in (0, 1)})
    while True:  # ascending; a rank's home is the first entry whose top lies above it
        table.sort(key=lambda e: e[:2])
        homes = [next(j for j, e in enumerate(table) if zeros + r < e[2] + e[3].size) for r in ranks]
        missed = {j: r for r, j in zip(ranks, homes) if zeros + r < table[j][2]}
        if not missed:
            break
        margin = max(1.0, 8.0 * margin)
        fresh = [(j, bracket(r / max(1, count - 1), margin)) for j, r in missed.items()]
        fresh = [(max(lo, table[j - 1][1]), min(hi, table[j][0])) for j, (lo, hi) in fresh]
        table += _bracket_pass(squared, [(lo, hi) for lo, hi in fresh if lo < hi])
    values, last = {}, None
    for r, j in zip(ranks, homes):  # ascending: each partition leaves the ranks above it above
        _, _, below, inside = table[j]
        k, start = zeros + r - below, last[1] if last and last[0] == j else 0
        inside[start:].partition(k - start)
        values[r], last = float(inside[k]), (j, k + 1)
    return count, values


def _distance_quantile(count: int, values: dict, q: float) -> float:
    """``np.quantile`` (linear method) of the square roots of the ``count``
    positive squared distances, from the order statistics it reads, with
    numpy's index and interpolation arithmetic, so bit for bit numpy's."""
    virtual = (count - 1) * q
    if virtual >= count - 1:
        return math.sqrt(values[count - 1])
    below = math.floor(virtual)
    a, b = math.sqrt(values[below]), math.sqrt(values[below + 1])
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def median_heuristic(points) -> float:
    """Median of the nonzero pairwise Euclidean distances.

    ``points`` is an (n, d) array or its ``PointDistances``, whose cached
    squared distances are then read.  Bit for bit ``np.median`` of the
    square-rooted distances, with only the one or two roots it reads taken.
    """
    count, values = _order_statistics(points, (0.5,))
    half = count // 2
    if count % 2:
        return math.sqrt(values[half])
    return (math.sqrt(values[half - 1]) + math.sqrt(values[half])) / 2.0


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
    total, values = _order_statistics(points, (0.05, 0.95))
    lo = _distance_quantile(total, values, 0.05)
    hi = _distance_quantile(total, values, 0.95)
    if count == 1:
        return np.array([math.sqrt(lo * hi)])
    return np.geomspace(lo, hi, count)
