"""Replicate engines: original and null-replicate statistics, per kernel.

Every test in the package reduces to an array of per-kernel statistic
values for the original data and for ``B`` null replicates.  Within one
replicate the randomness (a permutation or a Rademacher sign vector) is
drawn once and shared across all kernels; this sharing is part of the
correctness contract of the adaptive tests, not an optimisation.

Replicate ``b`` draws from ``stream(seed, TAG_REPLICATE, b)``, i.e. from
``default_rng(SeedSequence((seed, TAG_REPLICATE, b)))``, so results do not
depend on evaluation order.  Each engine takes its B generators from one
batched ``stream(seed, TAG_REPLICATE, range(B))`` call, which yields
exactly these generators.  The original statistic is computed
through the same arithmetic as the replicates (identity permutation,
all-ones signs), which keeps constrained variants bit-compatible with the
standard test they degenerate to.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec
from .resampling import (
    TAG_REPLICATE,
    ReplicateSpec,
    rademacher,
    sample_paired_permutation,
    sample_two_sample_permutation,
    stream,
)
from .statistics import (
    CoreMatrix,
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    core_matrix_hsic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
)

STATISTIC_KINDS = ("u", "v", "sqrt_v")

_CHUNK_ELEMENTS = 1 << 22
# The HSIC permutation engine's two gathered (K, chunk, n, n) blocks, and
# the MMD permutation engine's masked (chunk, N) products, are sized to
# stay in cache.
_GATHER_CHUNK_ELEMENTS = 1 << 16


def framework_of(data) -> str:
    if isinstance(data, TwoSampleData):
        return "mmd"
    if isinstance(data, PairedData):
        return "hsic"
    if isinstance(data, ModelSampleData):
        return "ksd"
    raise ValueError(f"unrecognised dataset type {type(data).__name__}")


def _sign_matrix(seed: int, count: int, n: int) -> np.ndarray:
    """(count+1, n) signs; row 0 is all ones (the original)."""
    out = np.empty((count + 1, n))
    out[0] = 1.0
    for b, rng in enumerate(stream(seed, TAG_REPLICATE, range(count)), start=1):
        out[b] = rademacher(rng, n)
    return out


def _quadratic_offdiag(h: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_{i != j} eps_i eps_j h[i, j] for every sign row."""
    q = signs @ h
    q *= signs  # in place: one (rows, n) temporary
    return q.sum(axis=1) - np.trace(h)


def wild_replicates(
    cores: list[CoreMatrix], design: DesignSet | None, rep: ReplicateSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Wild-bootstrap statistics (1/|D|) sum eps_i eps_j H[i, j].

    Returns (originals, replicates) of shapes (K,) and (K, B); one shared
    sign vector per replicate across the K cores.  No design means all
    off-diagonal pairs, i.e. one block, for which no indices are built.
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
        size = n // blocks
        for k, c in enumerate(cores):
            acc = np.zeros(rep.count + 1)
            for b in range(blocks):
                sl = slice(b * size, (b + 1) * size)
                acc += _quadratic_offdiag(c.h[sl, sl], signs[:, sl])
            vals[k] = acc / (blocks * size * (size - 1))
    else:
        hv = np.stack([c.h[design.idx_i, design.idx_j] for c in cores])
        chunk = max(1, _CHUNK_ELEMENTS // design.size)
        for lo in range(0, rep.count + 1, chunk):
            hi = min(lo + chunk, rep.count + 1)
            e = signs[lo:hi, design.idx_i] * signs[lo:hi, design.idx_j]
            vals[:, lo:hi] = hv @ e.T / design.size
    return _finalize(vals)


def _finalize(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return vals[:, 0].copy(), vals[:, 1:].copy()


def mmd_permutation_replicates(
    data: TwoSampleData, specs: list[KernelSpec], rep: ReplicateSpec, statistic: str = "sqrt_v"
) -> tuple[np.ndarray, np.ndarray]:
    """Merged-sample MMD statistics over uniformly permuted group labels.

    Supports unequal sample sizes.  ``statistic``: "u" for the unbiased
    estimator of MMD^2, "v" for the biased one, "sqrt_v" for its root.
    """
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {statistic!r}")
    m, n = data.m, data.n
    total = m + n
    masks = np.empty((rep.count + 1, total))
    masks[0] = np.concatenate([np.ones(m), np.zeros(n)])
    for b, rng in enumerate(stream(rep.seed, TAG_REPLICATE, range(rep.count)), start=1):
        perm = sample_two_sample_permutation(rng, m, n)
        row = np.zeros(total)
        row[perm[:m]] = 1.0
        masks[b] = row
    same = np.flatnonzero((masks == masks[0]).all(axis=1))
    vals = np.empty((len(specs), rep.count + 1))
    # the masked products are formed a block of replicates at a time, so
    # that no third (B + 1, N) array sits next to the masks and gm; a row's
    # sum does not depend on its block
    rows = max(1, _GATHER_CHUNK_ELEMENTS // total)
    for k, spec in enumerate(specs):
        gram = data.distances.gram(spec)
        gm = masks @ gram
        s_xx, s_xy = np.empty(rep.count + 1), np.empty(rep.count + 1)
        for lo in range(0, rep.count + 1, rows):
            within = gm[lo : lo + rows] * masks[lo : lo + rows]
            s_xx[lo : lo + rows] = within.sum(axis=1)
            # masks are 0/1 and gm >= 0, so gm - gm * masks is exactly gm * (1 - masks)
            np.subtract(gm[lo : lo + rows], within, out=within)
            s_xy[lo : lo + rows] = within.sum(axis=1)
        s_yy = gram.sum() - s_xx - 2.0 * s_xy
        # the original's sums are read from the gram's blocks, so samples with
        # identical halves give equal sums and a statistic of exactly 0; the
        # replicates that keep the original labelling get the same sums, so
        # they tie with it exactly
        s_xx[same], s_xy[same], s_yy[same] = gram[:m, :m].sum(), gram[:m, m:].sum(), gram[m:, m:].sum()
        if statistic == "u":
            diag = np.diagonal(gram)
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
    return _finalize(vals)


def hsic_permutation_replicates(
    data: PairedData,
    spec_pairs: list[tuple[KernelSpec, KernelSpec]],
    rep: ReplicateSpec,
    statistic: str = "sqrt_v",
) -> tuple[np.ndarray, np.ndarray]:
    """Doubly-centered HSIC statistics with the Y component permuted."""
    if statistic not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {statistic!r}")
    n = data.n
    cores = [core_matrix_hsic(kx, ky, data) for kx, ky in spec_pairs]
    kc = np.stack([c.k_centered for c in cores])
    lc = np.stack([c.l_centered for c in cores])
    # the products h and the unstacked factors are not read here; freed, they
    # make room for the components' cached distances
    del cores
    k_diag = np.einsum("kii->ki", kc).copy()
    l_diag = np.einsum("kii->ki", lc).copy()
    perms = np.empty((rep.count + 1, n), dtype=np.intp)
    perms[0] = np.arange(n)
    for b, rng in enumerate(stream(rep.seed, TAG_REPLICATE, range(rep.count)), start=1):
        perms[b] = sample_paired_permutation(rng, n)
    inverses = np.argsort(perms, axis=1)
    vals = np.empty((len(spec_pairs), rep.count + 1))
    chunk = max(1, _GATHER_CHUNK_ELEMENTS // (n * n * len(spec_pairs)))
    for lo in range(0, rep.count + 1, chunk):
        hi = min(lo + chunk, rep.count + 1)
        p = perms[lo:hi]
        # sum_ij K[i, j] L[p_i, p_j] = sum_ik K[i, q_k] L[p_i, k] with q = p^-1:
        # a column and a row gather in place of one scattered (i, j) gather
        kq = np.take(kc, inverses[lo:hi], axis=2)  # (K, n, chunk, n)
        lp = np.take(lc, p, axis=1)  # (K, chunk, n, n)
        total = np.einsum("kicj,kcij->kc", kq, lp)
        if statistic == "u":
            trace = (k_diag[:, None, :] * l_diag[:, p]).sum(axis=2)
            vals[:, lo:hi] = (total - trace) / (n * (n - 1))
        else:
            v = total / (n * n)
            vals[:, lo:hi] = np.sqrt(np.maximum(v, 0.0)) if statistic == "sqrt_v" else v
    return _finalize(vals)


def collection_replicates(
    data,
    kernel_entries: list,
    rep: ReplicateSpec,
    *,
    statistic: str | None = None,
    design: DesignSet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the right engine for the dataset / method combination.

    ``kernel_entries`` holds KernelSpec items (mmd, ksd) or
    (KernelSpec, KernelSpec) pairs (hsic).  Permutation engines accept a
    ``statistic`` kind (default "sqrt_v") and no design; the wild engine
    averages the core over ``design`` (default: all off-diagonal pairs).
    """
    framework = framework_of(data)
    if rep.method == "permutation":
        if design is not None:
            raise ValueError("incomplete designs are only supported with the wild bootstrap")
        kind = statistic or "sqrt_v"
        if framework == "mmd":
            return mmd_permutation_replicates(data, kernel_entries, rep, kind)
        if framework == "hsic":
            return hsic_permutation_replicates(data, kernel_entries, rep, kind)
        raise ValueError("goodness-of-fit testing admits no permutation method; use the wild bootstrap")
    if statistic is not None:
        raise ValueError("wild-bootstrap statistics are design means; the statistic kind is not configurable")
    if framework == "mmd":
        cores = [core_matrix_mmd(spec, data) for spec in kernel_entries]
    elif framework == "hsic":
        cores = [core_matrix_hsic_wild(kx, ky, data) for kx, ky in kernel_entries]
    else:
        cores = [core_matrix_ksd(spec, data) for spec in kernel_entries]
    return wild_replicates(cores, design, rep)
