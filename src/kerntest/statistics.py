"""Core-function matrices and the statistics built on them.

All three discrepancy estimators reduce to averages of a symmetric
core matrix H over index pairs:

* complete V-statistic: mean over all pairs including the diagonal;
* complete U-statistic: mean over off-diagonal pairs;
* incomplete statistic: mean over an explicit design of pairs;
* block B-statistic: mean over the within-block off-diagonal pairs of
  consecutive blocks (the trailing smaller block is dropped).

Two HSIC cores are provided.  ``core_matrix_hsic`` is the N x N
doubly-centered product core of the permutation test; permuting the Y
component conjugates its second factor, so the permutation engine reads
the two centred factors (``hsic_centered_grams``, each gram centred in
place a block of rows at a time) and never forms the product.
``core_matrix_hsic_wild`` splits the N paired samples in half and
multiplies the two half-sample MMD cores; for that (N/2) x (N/2) core,
flipping the sign of block i is exactly equivalent to swapping pairs i
and i + N/2, which is what makes the wild bootstrap a permutation test.
The doubly-centered core does not satisfy that identity.  The wild engine
reads the MMD and HSIC wild cores and the KSD Stein matrix as
``CoreRows``, a block of rows at a time from the distance caches;
``core_matrix_mmd`` and ``core_matrix_hsic_wild`` stack those blocks, and
``core_matrix_ksd`` stacks the Stein builder's and averages them with the
transpose.  The reference statistics that check the engines against
these identities (sign flips as pair swaps, Y-permutations of the centred
factors) are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .kernels import KernelSpec, PointDistances, ScoreField

FRAMEWORKS = ("mmd", "hsic", "ksd")

# Cap on the entries of one (rows, N/2) gram tile from which a block of rows
# of a pair-split core is made, and of one row block of a gram being
# centred (512 KiB): at N/2 = 512 a core block has 128 rows.
_CORE_BLOCK_ELEMENTS = 1 << 16
# A streamed Stein matrix is read an eighth of its rows at a time, in blocks
# of at least _STEIN_BLOCK_MIN_ELEMENTS entries (the whole matrix up to
# n = 64) and at most _STEIN_BLOCK_MAX_ROWS rows.  With 1 BLAS thread, 256
# rows at n = 4096 were no faster and peaked 4 MiB higher.
_STEIN_BLOCK_MIN_ELEMENTS = 1 << 12
_STEIN_BLOCK_MAX_ROWS = 128


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array (rows = samples)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _owned_matrix(a, name: str) -> np.ndarray:
    """A read-only copy of ``a`` as a finite (samples, dimension) array."""
    arr = _as_matrix(np.array(a, dtype=float), name)
    arr.flags.writeable = False
    return arr


@dataclasses.dataclass(frozen=True)
class TwoSampleData:
    """Samples X (m x d) and Y (n x d) from the two distributions under test.

    Like every dataset here, it holds read-only copies of its inputs, so a
    caller who changes an input array afterwards changes no result, and
    its cached distances cannot go stale.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _owned_matrix(self.x, "x"))
        object.__setattr__(self, "y", _owned_matrix(self.y, "y"))
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError("x and y must share their dimension")
        if self.x.shape[0] < 2 or self.y.shape[0] < 2:
            raise ValueError("need at least 2 samples on each side")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @functools.cached_property
    def distances(self) -> PointDistances:
        """Distances of the merged sample [X; Y], computed on first use.

        The permutation engine's gram and the median and grid bandwidths
        read all of it; the wild core reads its X-X, Y-Y and X-Y blocks.
        """
        z = np.vstack([self.x, self.y])
        z.flags.writeable = False
        return PointDistances(z)


@dataclasses.dataclass(frozen=True)
class PairedData:
    """Jointly observed pairs, stored as rows of Z = [X | Y] with a split index.

    Z is a read-only copy; the distances of each component are cached.
    """

    z: np.ndarray
    split: int

    def __post_init__(self):
        object.__setattr__(self, "z", _owned_matrix(self.z, "z"))
        if not (1 <= self.split < self.z.shape[1]):
            raise ValueError(f"split index {self.split} out of range for {self.z.shape[1]} columns")
        if self.z.shape[0] < 2:
            raise ValueError("need at least 2 paired samples")

    @classmethod
    def from_parts(cls, x, y) -> "PairedData":
        x, y = _as_matrix(x, "x"), _as_matrix(y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError("paired samples need matching lengths")
        return cls(np.hstack([x, y]), x.shape[1])

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def x_part(self) -> np.ndarray:
        return self.z[:, : self.split]

    @property
    def y_part(self) -> np.ndarray:
        return self.z[:, self.split :]

    @functools.cached_property
    def x_distances(self) -> PointDistances:
        """Distances of the X component, computed on first use; the wild
        core reads the blocks of its two halves."""
        return PointDistances(self.x_part)

    @functools.cached_property
    def y_distances(self) -> PointDistances:
        """Distances of the Y component, computed on first use."""
        return PointDistances(self.y_part)


@dataclasses.dataclass(frozen=True)
class ModelSampleData:
    """One sample plus the model's score values at the sample points.

    Both are held as read-only copies, one score vector per point; the
    distances of the sample are cached.
    """

    x: np.ndarray
    scores: np.ndarray
    score_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", _owned_matrix(self.x, "x"))
        object.__setattr__(self, "scores", _owned_matrix(self.scores, "scores"))
        if self.scores.shape != self.x.shape:
            raise ValueError("scores must have the same shape as the sample")
        if self.x.shape[0] < 2:
            raise ValueError("need at least 2 samples")

    @classmethod
    def from_score_field(cls, x, field: ScoreField) -> "ModelSampleData":
        x = _as_matrix(x, "x")
        return cls(x, field(x), score_bound=field.bound)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @functools.cached_property
    def distances(self) -> PointDistances:
        """Distances of the sample, computed on first use."""
        return PointDistances(self.x)


Dataset = TwoSampleData | PairedData | ModelSampleData


@dataclasses.dataclass(frozen=True)
class CoreMatrix:
    """Symmetric matrix of core-function values with its closed-form bound."""

    h: np.ndarray
    kernel_bound: float
    framework: str

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("core matrix must be square")
        if self.framework not in FRAMEWORKS:
            raise ValueError(f"unknown framework {self.framework!r}")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    height = property(lambda self: self.n, doc="Rows per block read by the wild engine: all of them.")

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        return self.h[rows, cols]


class CoreRows(NamedTuple):
    """A core matrix never held whole: ``block(rows, cols)`` makes H[rows,
    cols] as a new array, and the wild engine reads ``height`` rows at a
    time.  The MMD and HSIC cores are exactly symmetric, their values bit
    for bit whatever the block; the KSD's is the Stein matrix before its
    averaging with the transpose, which the engine's statistics equal."""

    n: int
    height: int
    block: Callable[[slice, slice], np.ndarray]


class DesignSet:
    """An ordered set of index pairs (i, j) defining an incomplete statistic.

    Explicit pairs are given as two index arrays.  ``block(n, k)`` is
    structural: it holds the core's n and ``block_count`` k, its ``size``
    is arithmetic, and its pairs are built only when ``idx_i`` or
    ``idx_j`` is read.  The wild engine reads none of them: it sums
    per-block quadratic forms.  ``full_offdiag(n)`` is one block.
    """

    def __init__(self, idx_i, idx_j):
        i = np.asarray(idx_i, dtype=np.intp)
        j = np.asarray(idx_j, dtype=np.intp)
        if i.shape != j.shape or i.ndim != 1:
            raise ValueError("design index arrays must be 1-d and of equal length")
        if i.size == 0:
            raise ValueError("design must be nonempty")
        self._pairs = (i, j)
        self.n = self.block_count = None

    @functools.cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # reached by block designs only: __init__ sets explicit pairs
        size = self.block_size
        ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        mask = ii != jj
        offsets = np.arange(self.block_count)[:, None] * size
        return (offsets + ii[mask]).ravel(), (offsets + jj[mask]).ravel()

    idx_i = property(lambda self: self._pairs[0])
    idx_j = property(lambda self: self._pairs[1])

    @property
    def block_size(self) -> int:
        """floor(n / block_count), for a block design."""
        return self.n // self.block_count

    @property
    def size(self) -> int:
        if self.block_count is None:
            return self.idx_i.size
        return self.block_count * self.block_size * (self.block_size - 1)

    def validate_for(self, core: CoreMatrix) -> None:
        n = core.n
        if self.block_count is not None:
            if n != self.n:
                raise ValueError(f"a block design of n={self.n} does not fit a core of {n} rows")
            return
        if self.idx_i.min() < 0 or self.idx_j.min() < 0 or self.idx_i.max() >= n or self.idx_j.max() >= n:
            raise ValueError("design pair out of range")
        if np.any(self.idx_i == self.idx_j):
            raise ValueError("design contains diagonal pairs but the core excludes the diagonal")

    @classmethod
    def full_offdiag(cls, n: int) -> "DesignSet":
        """All ordered off-diagonal pairs in row-major order: one block."""
        return cls.block(n, 1)

    @classmethod
    def block(cls, n: int, blocks: int) -> "DesignSet":
        """Within-block ordered off-diagonal pairs of `blocks` consecutive blocks.

        Blocks have size floor(n / blocks); trailing points are ignored.
        """
        if blocks < 1:
            raise ValueError("block count must be positive")
        size = n // blocks
        if size < 2:
            raise ValueError(f"block size {size} < 2 for n={n}, blocks={blocks}")
        design = cls.__new__(cls)
        design.n, design.block_count = n, blocks
        return design

    @classmethod
    def incomplete(cls, n: int, size: int) -> "DesignSet":
        """Deterministic design of `size` pairs taken from successive superdiagonals.

        Pairs are enumerated as (i, i+r) for r = 1, 2, ... which keeps the
        design spread across rows of the core matrix; there are n(n-1)/2.
        """
        if size < 1:
            raise ValueError("design size must be positive")
        if size > n * (n - 1) // 2:
            raise ValueError(f"design size {size} exceeds the {n * (n - 1) // 2} pairs (i, j), i < j, of n={n}")
        ii, jj = [], []
        remaining = size
        for r in range(1, n):
            count = min(n - r, remaining)
            ii.append(np.arange(count))
            jj.append(np.arange(count) + r)
            remaining -= count
            if remaining == 0:
                break
        return cls(np.concatenate(ii), np.concatenate(jj))


def _pair_split_block(parts: list, half: int, rows: slice, cols: slice) -> np.ndarray:
    """Block [rows, cols], as a new array, of the entrywise product over the
    (spec, dists) in ``parts`` of the core k(a_i,a_j) - k(a_i,b_j) -
    k(a_j,b_i) + k(b_i,b_j), (a_i, b_i) = (P_i, P_{half+i}) for the points P
    behind ``dists``.  Each core is made from four gram tiles of the distance
    cache, at most two held at once, so no value depends on the block; the
    cache is exactly symmetric, and so is the core.  (An anisotropic
    bandwidth has no cache: each tile makes its own scaled pass, so its core
    moves with the block in the last digits.)
    """
    far_rows, far_cols = slice(rows.start + half, rows.stop + half), slice(cols.start + half, cols.stop + half)
    out = None
    for spec, dists in parts:
        h = dists.gram(spec, rows, far_cols)  # k(a_i, b_j)
        h += dists.gram(spec, far_rows, cols)  # k(b_i, a_j)
        np.subtract(dists.gram(spec, rows, cols), h, out=h)
        h += dists.gram(spec, far_rows, far_cols)
        out = h if out is None else np.multiply(out, h, out=out)
    return out


def _stacked(core: CoreRows) -> np.ndarray:
    """The (n, n) matrix of a streamed core, its row blocks stacked."""
    h = np.empty((core.n, core.n))
    for lo in range(0, core.n, core.height):
        rows = slice(lo, min(lo + core.height, core.n))
        h[rows] = core.block(rows, slice(0, core.n))
    return h


def core_bound(entry, data: TwoSampleData | PairedData) -> float:
    """K_h of the MMD core (4 K), or of an HSIC core (16 K_x K_y) for a (kx, ky) entry."""
    if isinstance(data, PairedData):
        kx, ky = entry
        return 16.0 * kernels.kernel_bound(kx, data.split) * kernels.kernel_bound(ky, data.z.shape[1] - data.split)
    return 4.0 * kernels.kernel_bound(entry, data.x.shape[1])


def mmd_core_rows(spec: KernelSpec, data: TwoSampleData) -> CoreRows:
    """``core_matrix_mmd``'s core, streamed from the merged sample's distances."""
    if data.m != data.n:
        raise ValueError(
            "the one-sample MMD core requires m == n; use the permutation test "
            "on the merged sample for unequal sample sizes"
        )
    block = functools.partial(_pair_split_block, [(spec, data.distances)], data.m)
    return CoreRows(data.m, max(1, _CORE_BLOCK_ELEMENTS // data.m), block)


def core_matrix_mmd(spec: KernelSpec, data: TwoSampleData) -> CoreMatrix:
    """One-sample second-order MMD core for paired two-sample data (m = n).

    H[i, j] = k(X_i, X_j) - k(X_j, Y_i) - k(X_i, Y_j) + k(Y_i, Y_j).
    Swapping a pair (X_i, Y_i) negates row and column i.
    """
    h = _stacked(mmd_core_rows(spec, data))
    return CoreMatrix(h=h, kernel_bound=core_bound(spec, data), framework="mmd")


def _double_center(g: np.ndarray) -> np.ndarray:
    # G - (r 1' + 1 r') + mean(G); equals C G C and stays exactly symmetric.
    # Centred in place a block of rows at a time, so centring holds G only.
    row, mean = g.mean(axis=0), g.mean()
    rows = max(1, _CORE_BLOCK_ELEMENTS // g.shape[0])
    for lo in range(0, g.shape[0], rows):
        block = g[lo : lo + rows]
        np.subtract(block, row[lo : lo + rows, None] + row[None, :], out=block)
        block += mean
    return g


def hsic_centered_grams(kx: KernelSpec, ky: KernelSpec, data: PairedData) -> tuple[np.ndarray, np.ndarray]:
    """The doubly-centered grams C K C and C L C of the X and Y components."""
    return _double_center(data.x_distances.gram(kx)), _double_center(data.y_distances.gram(ky))


def core_matrix_hsic(kx: KernelSpec, ky: KernelSpec, data: PairedData) -> CoreMatrix:
    """Doubly-centered product core H = (C K C) * (C L C), entrywise.

    Used with permutations of the Y component; Y-permutations act on the
    second factor by row/column conjugation.
    """
    kc, lc = hsic_centered_grams(kx, ky, data)
    return CoreMatrix(h=kc * lc, kernel_bound=core_bound((kx, ky), data), framework="hsic")


def core_matrix_hsic_wild(kx: KernelSpec, ky: KernelSpec, data: PairedData) -> CoreMatrix:
    """Half-split product core for the wild-bootstrap HSIC test (N even).

    With n = N/2, block i carries pairs i and i+n and
    H[i, j] = hX[i, j] * hY[i, j] where hX, hY are the half-sample MMD
    cores of the X and Y components.  Flipping sign i is equivalent to
    swapping (X_i, Y_i) with (X_{i+n}, Y_{i+n})'s Y component, i.e. the
    permutation that swaps i with i + N/2.
    """
    h = _stacked(hsic_wild_core_rows(kx, ky, data))
    return CoreMatrix(h=h, kernel_bound=core_bound((kx, ky), data), framework="hsic")


def hsic_wild_core_rows(kx: KernelSpec, ky: KernelSpec, data: PairedData) -> CoreRows:
    """``core_matrix_hsic_wild``'s core, streamed from the components' distances."""
    if data.n % 2 != 0:
        raise ValueError("the wild-bootstrap HSIC core requires an even number of pairs")
    half = data.n // 2
    block = functools.partial(_pair_split_block, [(kx, data.x_distances), (ky, data.y_distances)], half)
    return CoreRows(half, max(1, _CORE_BLOCK_ELEMENTS // half), block)


def ksd_core_rows(spec: KernelSpec, data: ModelSampleData) -> CoreRows:
    """``core_matrix_ksd``'s Stein matrix before its averaging with the
    transpose (see ``kernels.stein_blocks``), streamed from the sample's
    distances."""
    block = kernels.stein_blocks(spec, data.distances, data.scores)
    n = data.n
    return CoreRows(n, min(n, _STEIN_BLOCK_MAX_ROWS, max(n // 8, _STEIN_BLOCK_MIN_ELEMENTS // n)), block)


def core_matrix_ksd(spec: KernelSpec, data: ModelSampleData) -> CoreMatrix:
    """Stein kernel core H[i, j] = h_P(X_i, X_j) from score values."""
    h = kernels.stein_matrix(spec, data.distances, data.scores)
    if data.score_bound is not None:
        s_bound = float(data.score_bound)
    else:
        s_bound = float(np.sqrt((data.scores**2).sum(axis=1)).max())
    bound = kernels.stein_kernel_bound(spec, data.x.shape[1], s_bound)
    return CoreMatrix(h=h, kernel_bound=bound, framework="ksd")


def v_statistic(core: CoreMatrix) -> float:
    """Mean of the core matrix over all pairs, diagonal included."""
    n = core.n
    return float(core.h.sum() / (n * n))


def incomplete_statistic(core: CoreMatrix, design: DesignSet) -> float:
    """Mean of the core values over the design pairs."""
    design.validate_for(core)
    return float(core.h[design.idx_i, design.idx_j].sum() / design.size)


def u_statistic(core: CoreMatrix) -> float:
    """Off-diagonal mean; shares the gather-and-sum path of the full design,
    so block_statistic(core, 1) reproduces it bit-for-bit."""
    if core.n < 2:
        raise ValueError("U-statistic needs at least 2 samples")
    return incomplete_statistic(core, DesignSet.full_offdiag(core.n))


def block_statistic(core: CoreMatrix, blocks: int) -> float:
    """Mean of the complete U-statistics over `blocks` consecutive blocks."""
    return incomplete_statistic(core, DesignSet.block(core.n, blocks))
