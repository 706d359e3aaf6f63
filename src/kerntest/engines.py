"""Replicate engines: original and null-replicate statistics, per kernel.

Every test in the package reduces to one (K, B + 1) array of per-kernel
statistic values, column 0 the original data's and columns 1..B those of
``B`` null replicates; the decision, pooling, noise and aggregation all
read that one array.  Within one replicate the randomness (a permutation
or a Rademacher sign vector) is drawn once and shared across all kernels;
this sharing is part of the correctness contract of the adaptive tests,
not an optimisation.

Replicate ``b`` draws from ``stream(seed, TAG_REPLICATE, b)``, i.e. from
``default_rng(SeedSequence((seed, TAG_REPLICATE, b)))``, so results do not
depend on evaluation order.  Each engine takes its B generators from one
batched ``stream(seed, TAG_REPLICATE, range(B))`` call, which yields
exactly these generators.  Permutations come from ``rng.permutation``;
wild-bootstrap signs are read from the generators' raw PCG64 output
words (see ``_sign_matrix``) and equal ``rademacher(rng, n)`` bit for
bit.  The original statistic is computed
through the same arithmetic as the replicates (identity permutation,
all-ones signs), which keeps constrained variants bit-compatible with the
standard test they degenerate to.  A replicate whose draw reproduces the
original's ties with it exactly: the MMD permutation and wild engines copy
the original's values into it, and the HSIC permutation engine's sums do
not depend on a replicate's position.

The engines form no (N, N) matrix per replicate, and an MMD or KSD test
holds the distance cache, the replicate draws and O(block + B N) beside
it.  The MMD permutation engine makes its gram a tile at a time from the
cache (blocks of columns, their rows cut at m) and reduces each tile's
product with the masks straight into the per-replicate sums.  The wild
engine reads every core a block of rows at a time from the caches
(``CoreRows``) and never holds one whole; the KSD Stein matrix is read
before its averaging with the transpose, which quadratic forms do not
need and a design's pairs make as they are read.  The HSIC permutation
engine reads the two doubly-centred grams and gathers, per step, a
cache-sized block of rows of each for a chunk of replicates
(``_GATHER_CHUNK_ELEMENTS``), never their product core.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec
from .resampling import (
    TAG_REPLICATE,
    ReplicateSpec,
    sample_paired_permutation,
    sample_two_sample_permutation,
    stream,
)

# No engine calls rademacher: _sign_matrix reads the same signs from raw
# words.  It stays importable here because the benchmark's span table
# (perfbench/spans.py TARGETS) wraps engines.rademacher by name.
from .resampling import rademacher  # noqa: F401
from .statistics import (
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    hsic_centered_grams,
    hsic_wild_core_rows,
    ksd_core_rows,
    mmd_core_rows,
)

# No engine calls these: the HSIC permutation engine never forms the product
# core, and the wild engine streams the MMD, HSIC and KSD cores.  They stay
# importable here because perfbench/spans.py TARGETS wraps them by name.
from .statistics import core_matrix_hsic, core_matrix_hsic_wild, core_matrix_ksd, core_matrix_mmd  # noqa: F401

STATISTIC_KINDS = ("u", "v", "sqrt_v")

_CHUNK_ELEMENTS = 1 << 22
# What one step of a permutation engine gathers, sized to stay in cache
# (512 KiB): the MMD engine's block of gram columns (at least
# _GRAM_BLOCK_MIN_ROWS of them) or its masked (rows, N) products, or the
# HSIC engine's two blocks of (rows, chunk, n) and (chunk, rows, n)
# elements, each half of it.
_GATHER_CHUNK_ELEMENTS = 1 << 16
# Fewest gram columns in one block of the MMD engine: BLAS packs the masks
# for every tile's product.  At B = 199 (1 BLAS thread) the engine with
# blocks of 128 was as fast as with the whole gram for N = 1024 to 4096;
# blocks of 64 made it 8% slower at N = 1024, and of 16 a third slower at
# N = 4096.
_GRAM_BLOCK_MIN_ROWS = 128


def framework_of(data) -> str:
    if isinstance(data, TwoSampleData):
        return "mmd"
    if isinstance(data, PairedData):
        return "hsic"
    if isinstance(data, ModelSampleData):
        return "ksd"
    raise ValueError(f"unrecognised dataset type {type(data).__name__}")


def _sign_matrix(seed: int, count: int, n: int) -> np.ndarray:
    """(count+1, n) signs; row 0 is all ones (the original).

    Row b holds ``rademacher(rng, n)`` of replicate b's generator, read
    from its raw PCG64 output: sign i is the top bit of the stream's i-th
    32-bit word (each 64-bit output gives its low word first), which is
    what ``integers(0, 2)`` returns for it.
    """
    out = np.empty((count + 1, n))
    out[0] = 1.0
    words = (n + 1) // 2
    for b, rng in enumerate(stream(seed, TAG_REPLICATE, range(count)), start=1):
        raw = rng.bit_generator.random_raw(words).astype("<u8", copy=False)
        out[b] = raw.view("<u4")[:n]
    # a word is at least 2**31 exactly when its top bit is set; no word is
    # 2**31 - 0.5, so no sign is 0
    replicates = out[1:]
    replicates -= 2.0**31 - 0.5
    np.sign(replicates, out=replicates)
    return out


def _quadratic_offdiag(core, sl: slice, signs: np.ndarray) -> np.ndarray:
    """sum_{i != j} eps_i eps_j H[i, j] over i, j in ``sl`` for every sign row,
    reading H[sl, sl] ``core.height`` rows at a time; several blocks move
    values in the last digits against one."""
    s, whole = signs[:, sl], sl.stop - sl.start <= core.height
    acc = trace = 0.0
    for lo in range(sl.start, sl.stop, core.height):
        rows = slice(lo, min(lo + core.height, sl.stop))
        h = core.block(rows, sl)
        # q[:, r] is (eps' H)_r or, in several blocks, (H eps)_r for r in rows:
        # either sums to eps' H eps, so H need not be symmetric
        q = s @ (h if whole else h.T)
        q *= signs[:, rows]  # in place: one (B + 1, rows) temporary
        acc += q.sum(axis=1)
        trace += np.trace(h, offset=lo - sl.start)
        del h, q  # freed before the next block is made
    return acc - trace


def _row_buckets(idx: np.ndarray, n: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, edges): ``order[edges[b] : edges[b + 1]]`` are the positions p
    with ``idx[p]`` in row block b, rows [b height, (b + 1) height) of n."""
    order = np.argsort(idx, kind="stable")
    return order, np.searchsorted(idx[order], np.arange(0, n + height, height))


def wild_replicates(cores: list, design: DesignSet | None, rep: ReplicateSpec) -> np.ndarray:
    """Wild-bootstrap statistics (1/|D|) sum eps_i eps_j H[i, j].

    ``cores`` (``CoreMatrix`` or ``CoreRows``) are read a block of rows at a
    time; the statistics are those of (H + H') / 2, so a core need not be
    symmetric.  Returns the (K, B + 1) values, column 0 the original's
    (all-ones signs); one shared sign vector per replicate across the K
    cores.  No design means all off-diagonal pairs, i.e. one block; the
    pairs of a block design are never built.  A sign row whose products
    eps_i eps_j are all +1 on the design (constant within every block) gets
    the original's values.
    """
    n = cores[0].n
    if any(c.n != n for c in cores):
        raise ValueError("all core matrices must share the sample size")
    if design is not None:
        for c in cores:
            design.validate_for(c)
    elif n < 2:
        raise ValueError("need n >= 2")
    signs = _sign_matrix(rep.seed, rep.count, n)
    vals = np.empty((len(cores), rep.count + 1))
    blocks = 1 if design is None else design.block_count
    if blocks is not None:
        size = n if design is None else design.block_size
        slices = [slice(b * size, (b + 1) * size) for b in range(blocks)]
        for k, c in enumerate(cores):
            acc = np.zeros(rep.count + 1)
            for sl in slices:
                acc += _quadratic_offdiag(c, sl, signs)
            vals[k] = acc / (blocks * size * (size - 1))
        # a block's signs are all equal exactly when their sum, exact in any
        # order, is +-size
        tied = np.ones(rep.count + 1, dtype=bool)
        for sl in slices:
            tied &= np.abs(signs[:, sl] @ np.ones(size)) == size
    else:
        # a pair reads (H[i, j] + H[j, i]) / 2 from the row blocks of i and j:
        # H[i, j] bit for bit on a symmetric core; hv starts at -0.0, which
        # adds to every float exactly
        hv = np.full((len(cores), design.size), -0.0)
        sides = ((design.idx_i, design.idx_j), (design.idx_j, design.idx_i))
        buckets = {}
        for k, c in enumerate(cores):
            if c.height not in buckets:
                buckets[c.height] = [_row_buckets(own, n, c.height) for own, _ in sides]
            for b, lo in enumerate(range(0, n, c.height)):
                h = c.block(slice(lo, min(lo + c.height, n)), slice(0, n))
                for (own, other), (order, edges) in zip(sides, buckets[c.height]):
                    pick = order[edges[b] : edges[b + 1]]
                    hv[k, pick] += h[own[pick] - lo, other[pick]]
                del h  # freed before the next block is made
        hv *= 0.5
        tied = np.empty(rep.count + 1, dtype=bool)
        chunk = max(1, _CHUNK_ELEMENTS // design.size)
        for lo in range(0, rep.count + 1, chunk):
            hi = min(lo + chunk, rep.count + 1)
            e = signs[lo:hi, design.idx_i] * signs[lo:hi, design.idx_j]
            vals[:, lo:hi] = hv @ e.T / design.size
            tied[lo:hi] = e.min(axis=1) > 0
    vals[:, tied] = vals[:, :1]
    return vals


def _gram_row_blocks(m: int, n: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) that tile the (N, N) merged gram, N = m + n.

    The whole gram is one block when it fits ``_GATHER_CHUNK_ELEMENTS``.
    Otherwise [0, m) and [m, N) are each cut into blocks of one height, so
    that two samples of one size are tiled alike.
    """
    total = m + n
    if total * total <= _GATHER_CHUNK_ELEMENTS:
        return [(0, total)]
    height = max(_GRAM_BLOCK_MIN_ROWS, _GATHER_CHUNK_ELEMENTS // total)
    return [(a, min(a + height, hi)) for lo, hi in ((0, m), (m, total)) for a in range(lo, hi, height)]


def mmd_permutation_replicates(
    data: TwoSampleData, specs: list[KernelSpec], rep: ReplicateSpec, statistic: str = "sqrt_v"
) -> np.ndarray:
    """Merged-sample MMD statistics over uniformly permuted group labels.

    Supports unequal sample sizes.  ``statistic``: "u" for the unbiased
    estimator of MMD^2, "v" for the biased one, "sqrt_v" for its root.
    """
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {statistic!r}")
    m, n = data.m, data.n
    total = m + n
    masks = np.zeros((rep.count + 1, total))
    masks[0, :m] = 1.0
    for row, rng in zip(masks[1:], stream(rep.seed, TAG_REPLICATE, range(rep.count))):
        row[sample_two_sample_permutation(rng, m, n)[:m]] = 1.0
    same = np.flatnonzero((masks == masks[0]).all(axis=1))
    vals = np.empty((len(specs), rep.count + 1))
    diag = np.empty(total)
    blocks = _gram_row_blocks(m, n)
    # the rows of a block of columns are cut at m, so that every tile lies
    # in one of the gram's X-X, X-Y, Y-X and Y-Y parts
    halves = [(0, total)] if len(blocks) == 1 else [(0, m), (m, total)]
    # one tile's product with the masks, in one buffer: a fresh (B + 1, N)
    # array per kernel made the engine a quarter slower at N = 100, B = 499
    prod = np.empty((rep.count + 1, max(b - a for a, b in blocks)))
    for k, spec in enumerate(specs):
        # the gram is never held whole: each tile is made from the distance
        # cache, and its product with the masks is reduced at once into the
        # per-replicate sums, a block of replicates at a time; the diagonal
        # and the sums of the X-X, X-Y and Y-Y parts are read from the tiles
        xx = xy = yy = whole = 0.0
        s_xx, s_xy = np.zeros(rep.count + 1), np.zeros(rep.count + 1)
        for a, b in blocks:
            for c, d in halves:
                g = data.distances.gram(spec, slice(c, d), slice(a, b))
                tile = np.matmul(masks[:, c:d], g, out=prod[:, : b - a])  # rows c:d's share of columns a:b
                if c <= a < d:
                    diag[a:b] = np.diagonal(g[a - c : b - c])
                whole += g.sum()
                y_row, y_col = max(0, m - c), max(0, m - a)  # the tile's first row and column of Y
                xx += g[:y_row, :y_col].sum()
                xy += g[:y_row, y_col:].sum()
                yy += g[y_row:, y_col:].sum()
                del g  # freed before the products are reduced
                rows = max(1, _GATHER_CHUNK_ELEMENTS // (b - a))
                for lo in range(0, rep.count + 1, rows):
                    within = tile[lo : lo + rows] * masks[lo : lo + rows, a:b]
                    s_xx[lo : lo + rows] += within.sum(axis=1)
                    # masks are 0/1 and the gram >= 0, so tile - tile * masks is exactly tile * (1 - masks)
                    np.subtract(tile[lo : lo + rows], within, out=within)
                    s_xy[lo : lo + rows] += within.sum(axis=1)
                del within  # freed before the next tile is made
        s_yy = whole - s_xx - 2.0 * s_xy
        # the original's sums are read from the gram's blocks, so samples with
        # identical halves give equal sums and a statistic of exactly 0; the
        # replicates that keep the original labelling get the same sums, so
        # they tie with it exactly
        s_xx[same], s_xy[same], s_yy[same] = xx, xy, yy
        if statistic == "u":
            d_x = masks @ diag
            d_y = diag.sum() - d_x
            vals[k] = (
                (s_xx - d_x) / (m * (m - 1))
                + (s_yy - d_y) / (n * (n - 1))
                - 2.0 * s_xy / (m * n)
            )
        else:
            v = s_xx / (m * m) + s_yy / (n * n) - 2.0 * s_xy / (m * n)
            vals[k] = np.sqrt(np.maximum(v, 0.0)) if statistic == "sqrt_v" else v
    return vals


def hsic_permutation_replicates(
    data: PairedData,
    spec_pairs: list[tuple[KernelSpec, KernelSpec]],
    rep: ReplicateSpec,
    statistic: str = "sqrt_v",
) -> np.ndarray:
    """Doubly-centered HSIC statistics with the Y component permuted."""
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {statistic!r}")
    n = data.n
    perms = np.empty((rep.count + 1, n), dtype=np.int32)
    perms[0] = np.arange(n)
    for b, rng in enumerate(stream(rep.seed, TAG_REPLICATE, range(rep.count)), start=1):
        perms[b] = sample_paired_permutation(rng, n)
    inverses = np.argsort(perms, axis=1).astype(np.int32)
    # sum_ij K[i, j] L[p_i, p_j] = sum_ik K[i, q_k] L[p_i, k] with q = p^-1:
    # a column and a row gather in place of one scattered (i, j) gather.  A
    # step gathers a block of rows of both factors for a chunk of replicates
    # and writes each row's sum; a replicate's total adds its row sums in row
    # order, so no value depends on the block or chunk size.
    block = _GATHER_CHUNK_ELEMENTS // 2
    rows = max(1, min(n, block // n))
    chunk = max(1, block // (rows * n))
    vals = np.empty((len(spec_pairs), rep.count + 1))
    row_sums = np.empty((n, rep.count + 1))
    for k, (kx, ky) in enumerate(spec_pairs):
        kc, lc = hsic_centered_grams(kx, ky, data)
        for a in range(0, n, rows):
            for lo in range(0, rep.count + 1, chunk):
                kq = np.take(kc[a : a + rows], inverses[lo : lo + chunk], axis=1)  # (rows, chunk, n)
                lp = np.take(lc, perms[lo : lo + chunk, a : a + rows], axis=0)  # (chunk, rows, n)
                np.einsum("icj,cij->ic", kq, lp, out=row_sums[a : a + rows, lo : lo + chunk])
        total = row_sums.sum(axis=0)
        if statistic == "u":
            trace = np.diagonal(lc)[perms]
            trace *= np.diagonal(kc)
            vals[k] = (total - trace.sum(axis=1)) / (n * (n - 1))
        else:
            v = total / (n * n)
            vals[k] = np.sqrt(np.maximum(v, 0.0)) if statistic == "sqrt_v" else v
        del kc, lc  # freed before the next kernel's grams are built
    return vals


def resolve_design(data, blocks: int | None, design_size: int | None) -> DesignSet | None:
    """The design a wild-bootstrap test averages its core over; None means
    all off-diagonal pairs.

    The wild core has one row per MMD pair (m), per HSIC half-split block
    (N/2) or per KSD sample point (n).
    """
    if blocks is None and design_size is None:
        return None
    framework = framework_of(data)
    n = data.m if framework == "mmd" else (data.n // 2 if framework == "hsic" else data.n)
    if blocks is not None:
        return DesignSet.block(n, blocks)
    return DesignSet.incomplete(n, design_size)


def collection_replicates(
    data,
    kernel_entries: list,
    rep: ReplicateSpec,
    *,
    statistic: str | None = None,
    design: DesignSet | None = None,
) -> np.ndarray:
    """The (K, B + 1) statistic values, column 0 the original's, from the
    right engine for the dataset / method combination.

    ``kernel_entries`` holds KernelSpec items (mmd, ksd) or
    (KernelSpec, KernelSpec) pairs (hsic).  Permutation engines take a
    ``statistic`` kind (default "sqrt_v"); the wild engine averages the
    core over ``design`` (default: all off-diagonal pairs).  The options
    are those ``testing.check_options`` accepts.
    """
    framework = framework_of(data)
    if rep.method == "permutation":
        engine = mmd_permutation_replicates if framework == "mmd" else hsic_permutation_replicates
        return engine(data, kernel_entries, rep, statistic or "sqrt_v")
    if framework == "mmd":
        cores = [mmd_core_rows(spec, data) for spec in kernel_entries]
    elif framework == "hsic":
        cores = [hsic_wild_core_rows(kx, ky, data) for kx, ky in kernel_entries]
    else:
        cores = [ksd_core_rows(spec, data) for spec in kernel_entries]
    return wild_replicates(cores, design, rep)
