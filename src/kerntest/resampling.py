"""Null simulation by permutations / wild bootstrap, and test decisions.

Replicate randomness is derived per replicate: replicate ``b`` of a run
with master seed ``s`` draws from ``default_rng(SeedSequence((s, tag, b)))``
where the tag separates permutation/sign draws from privatisation-noise
draws.  Replicates can therefore be evaluated in any order (or in
parallel) without changing results.  The engines ask ``stream`` for a
whole range of replicate indices at once: it derives every generator
state of the range in one vectorised pass and reproduces these
per-replicate generators bit for bit.

Where a draw has a closed form in the generator's raw PCG64 output, the
engines read the raw 64-bit words (``bit_generator.random_raw``) instead
of calling the ``Generator``, with bit-identical results: the Rademacher
sign i (``rademacher``, i.e. ``integers(0, 2)``) is the top bit of the
stream's i-th 32-bit word, each 64-bit word giving its low half first,
and the uniform ``random()`` is the first 64-bit word w as
(w >> 11) * 2**-53.

The decision rule: with pool = {original} u replicates of size M,

* threshold = the (M - floor(alpha * M))-th order statistic of the pool,
  i.e. its ceil((1 - alpha) M)-th smallest element;
* p-value  = (1 + #{replicates >= original}) / M;
* reject iff p <= alpha, equivalently iff original > threshold.

Equality of the two rules is kept exact by deciding on the integer count
#{pool >= original} <= floor(alpha * M).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# stream tags for SeedSequence-derived generators
TAG_REPLICATE = 1
TAG_NOISE = 2
TAG_DATA = 3
TAG_CELL = 4

# guards floor/ceil of alpha * M against float representation error
_INDEX_EPS = 1e-9

METHODS = ("permutation", "wild_bootstrap")


@dataclasses.dataclass(frozen=True)
class ReplicateSpec:
    """How many null replicates to draw, by which method, from which seed."""

    count: int = 199
    method: str = "permutation"
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("replicate count must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def stream(seed: int, tag: int, index: int | range):
    """Deterministic generator for one replicate / purpose.

    An integer ``index`` returns ``default_rng(SeedSequence((seed, tag,
    index)))``.  A ``range`` of indices below 2**32 returns an iterator
    over the same generators, one per index in order: every starting
    state is derived in this call, in one vectorised pass, and each step
    sets it on one bit generator owned by the iterator and yields one
    ``Generator`` over it.  Draw from each yielded generator before
    advancing; the next step reseeds it.  The draws are bit-identical to
    the integer form.
    """
    if isinstance(index, range):
        # PCG64(0)'s own state is replaced before the first draw
        return _reseeded(np.random.Generator(np.random.PCG64(0)), _pcg64_states(int(seed), int(tag), index))
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(tag), int(index))))


def _reseeded(rng: np.random.Generator, states: list[tuple[int, int]]):
    bit_generator = rng.bit_generator
    # one state dict, refilled per replicate: the setter copies the values out
    full = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = full["state"]
    for pcg["state"], pcg["inc"] in states:
        bit_generator.state = full
        yield rng


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer (at least one)."""
    if value < 0:
        raise ValueError("seed, tag and index must be nonnegative integers")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of ``count`` hashmix calls."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of row r of ``values`` with constants r and r+1 of ``consts``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _pcg64_states(seed: int, tag: int, indices: range) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(SeedSequence((seed, tag, b))) for
    every b in ``indices``.

    SeedSequence's entropy mixing and ``generate_state`` run on (words, B)
    uint32 arrays, with numpy's wrapping arithmetic: entropy words beyond
    the pool (seeds >= 2**64) go through the extra mixing loop.  PCG64's
    128-bit ``srandom`` step runs on Python integers.
    """
    ends = (indices[0], indices[-1]) if indices else (0, 0)
    if min(ends) < 0 or max(ends) > _MASK32:
        raise ValueError("batched stream indices must lie in [0, 2**32)")
    fixed = _uint32_words(seed) + _uint32_words(tag)
    rows = max(len(fixed) + 1, _POOL_SIZE)
    entropy = np.zeros((rows, len(indices)), dtype=np.uint32)
    entropy[: len(fixed)] = np.array(fixed, dtype=np.uint32)[:, None]
    entropy[len(fixed)] = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint32)

    # hashmix calls: one per pool word, 4 * 3 cross-mixing, 4 per word beyond the pool
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * rows)
    pool = _hashmix(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, rows):
        pool = _mix(pool, _hashmix(entropy[src], consts[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE

    # generate_state(4, uint64): 8 words cycling over the pool, paired little-endian
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
    # srandom(initstate, initseq): inc = 2 initseq + 1, state = (inc + initstate) M + inc
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n independent +-1 signs."""
    return 2.0 * rng.integers(0, 2, size=n).astype(float) - 1.0


def sample_two_sample_permutation(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform permutation of the merged sample indices 0 .. m+n-1."""
    if m + n < 2:
        raise ValueError("need at least 2 points to permute")
    return rng.permutation(m + n)


def sample_paired_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform permutation of 0 .. n-1, applied to Y components only."""
    if n < 2:
        raise ValueError("need at least 2 pairs to permute")
    return rng.permutation(n)


@dataclasses.dataclass(frozen=True)
class TestResult:
    """Outcome of one calibrated test."""

    framework: str
    statistic: float
    threshold: float
    p_value: float
    reject: bool
    alpha: float
    replicates: int
    method: str
    seed: int
    kernels: tuple = ()
    constraint: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "framework": self.framework,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "replicates": self.replicates,
            "method": self.method,
            "seed": self.seed,
            "kernel": list(self.kernels),
        }
        if self.constraint is not None:
            # xi = inf (no privacy noise) has no strict-JSON number: emitted as null
            out["constraint"] = {
                k: None if k == "xi" and math.isinf(v) else v for k, v in self.constraint.items()
            }
        return out


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")


def _alpha_count(alpha: float, pool_size: int) -> int:
    """The largest k <= pool_size - 1 with k / pool_size <= alpha, so that a
    p-value ge / pool_size is at most alpha exactly when ge <= k."""
    k = min(int(math.floor(alpha * pool_size + _INDEX_EPS)), pool_size - 1)
    return k - 1 if k / pool_size > alpha else k


def threshold_index(alpha: float, pool_size: int) -> int:
    """0-based index of the empirical (1-alpha)-quantile in the sorted pool."""
    return pool_size - 1 - _alpha_count(alpha, pool_size)


def test_decision(
    original: float,
    replicates,
    alpha: float,
    *,
    threshold_shift: float = 0.0,
    framework: str = "unspecified",
    method: str = "unspecified",
    seed: int = 0,
    kernels: tuple = (),
    constraint: dict | None = None,
) -> TestResult:
    """Quantile / p-value decision over the pool {original} u replicates.

    ``threshold_shift`` adds a constant to the empirical quantile (used by
    corruption-robust tests); the p-value counts replicates to the right
    of original - shift so that the two rejection rules stay equivalent.
    """
    replicates = np.asarray(replicates, dtype=float)
    if replicates.ndim != 1 or replicates.size == 0:
        raise ValueError("replicates must be a nonempty 1-d array")
    check_alpha(alpha)
    pool = np.sort(np.concatenate([[original], replicates]))
    m = pool.size
    quantile = float(pool[threshold_index(alpha, m)])
    ge = 1 + int(np.count_nonzero(replicates >= original - threshold_shift))
    p_value = ge / m
    reject = ge <= _alpha_count(alpha, m)
    return TestResult(
        framework=framework,
        statistic=float(original),
        threshold=quantile + threshold_shift,
        p_value=p_value,
        reject=reject,
        alpha=alpha,
        replicates=replicates.size,
        method=method,
        seed=seed,
        kernels=tuple(kernels),
        constraint=constraint,
    )


def min_replicates(alpha: float, beta: float) -> int:
    """ceil(6 log(2/beta) / alpha), the replicate count sufficient for the
    power guarantees at errors (alpha, beta)."""
    if not (0.0 < alpha < 1.0) or not (0.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie in (0, 1)")
    return int(math.ceil(6.0 * math.log(2.0 / beta) / alpha))
