"""Sampled means of the norm circuit's outcomes and the Hoeffding-style upper bound on ||f||_{U_2}.

A measured outcome of the 3n-qubit norm circuit is read as the concatenated
bit string x' || a' || b'; Y = (its decimal value) / 2^(3n) lies in [0, 1).
With sample mean Ybar over m shots, the norm satisfies

    ||f||_{U_2} <= (1 + t - Ybar)^(1/8)

with a failure probability the report quotes two ways: confidence_paper uses
exp(-2 m^2 t^2), the optimistic exponent this estimator is usually stated
with, while confidence_standard uses exp(-2 m t^2), the textbook Hoeffding
rate for a mean of m bounded i.i.d. variables.  The standard form is the
defensible one; both are always computed so the discrepancy stays visible.
`hoeffding_bound` returns the report as the dict the CLI prints.
`u2_partial_sums` gives the circuit's outcome distribution in closed form, as
int64 partial sums, without simulating it.  `y_bar` and `validate_bound`
sample them through `_means`: a sorted pool of keys, each read from one raw
64-bit word of a stream, takes the draws of many streams at once and is looked
up in cache-sized blocks, in memory that grows with neither m nor the streams.
All randomness comes from one counter-based stream, `_words` (SplitMix64; Steele, Lea &
Flood 2014), drawn in chunks of at most _DRAW_CHUNK (`_draw_chunks`) that change no word.  A
request for more than DRAW_BUDGET draws is a CapacityError before the first one;
`validate_bound` also charges each stream STREAM_SETUP_DRAWS for its set-up.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from . import errors
from .boolfn import BooleanFunction
from .errors import CapacityError, CrossCheckError, check_layout

RNG_ALGORITHM = "SplitMix64"
# SplitMix64's increment, and its finalizer's (shift, factor) rounds before z ^= z >> 31
_GAMMA, _ROUNDS = 0x9E3779B97F4A7C15, ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
# words per call of every sampler (see _draw_chunks): 64 KiB, a working set that stays in cache
_DRAW_CHUNK = 1 << 13
_POOL_KEYS = 1 << 16  # keys per pool of _means (times max(1, cum.size >> 22)): 512 KiB
# most draws one sampling request may ask for: ~3 minutes at y_bar's ~5.5e6 draws/s at n = 8
DRAW_BUDGET = 2**30
# a stream's key and first chunk take ~20 us to set up, less than the time of ~2^8 draws
STREAM_SETUP_DRAWS = 1 << 8


def child_seed(seed: int, index: int) -> tuple[int, int]:
    return seed, index  # the seed of trial `index`'s stream under a master seed, for `_key`


def _key(seed) -> int:
    """The key K of a seed's stream: the 64-bit limbs of each part (an int >= 0, or each of a
    child_seed pair), least significant first, then their count, each folded as K <- word 0 of
    the stream of K ^ value, from K = 0.  None stands for a fresh 128-bit seed."""
    seed, key = int.from_bytes(os.urandom(16), "big") if seed is None else seed, 0
    for part in seed if isinstance(seed, tuple) else (seed,):
        if not isinstance(part, int) or part < 0:
            raise ValueError(f"a seed is an int >= 0, a child_seed pair or None, got {part!r}")
        limbs = [part >> at & 2**64 - 1 for at in range(0, max(1, part.bit_length()), 64)]
        for value in (*limbs, len(limbs)):  # _words(K ^ value, 0, 1) on one int, ~8x faster
            key = (key ^ value) + _GAMMA & 2**64 - 1
            for shift, factor in _ROUNDS:
                key = (key ^ key >> shift) * factor & 2**64 - 1
            key ^= key >> 31
    return key


@functools.lru_cache(maxsize=1)
def _steps(count: int) -> np.ndarray:  # (i + 1) * gamma for i < count
    return np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _words(key: int, start: int, count: int) -> np.ndarray:
    """Words [start, start + count) of the stream of `key` K: word i is the SplitMix64
    finalizer of K + (i + 1) * gamma, mod 2^64."""
    z = _steps(max(count, _DRAW_CHUNK))[:count] + np.uint64(key + start * _GAMMA & 2**64 - 1)
    for shift, factor in _ROUNDS:
        z ^= z >> shift
        z *= factor
    z ^= z >> 31
    return z


def _check_draws(count: int) -> None:
    if count > DRAW_BUDGET:
        raise CapacityError(f"{count} draws > the draw budget of {DRAW_BUDGET}")


def _draw_chunks(count: int):
    """(start, size) of the chunks of at most _DRAW_CHUNK that cover [0, count); a count over
    DRAW_BUDGET is refused here, before anything is drawn."""
    _check_draws(count)
    return ((start, min(_DRAW_CHUNK, count - start)) for start in range(0, count, _DRAW_CHUNK))


def u2_partial_sums(f: BooleanFunction) -> np.ndarray:
    """The int64 partial sums of num^2 over the U_2 circuit's final amplitudes num / 2^(3n).

    num(a || b || c) = sum_s T[s, b] T[s, a ^ b] (-1)^(s . c), T[s] = W_{D_s F}: the
    Fourier form of ||f||_{U_2}^4 (Gowers 2001).  Blocks of a (errors._BLOCK_CELLS entries, at
    least one a) are transformed along s in int32, exact as |num| <= 2^(3n) <= 2^24.
    A total other than 2^(6n) raises CrossCheckError.
    """
    from . import spectral  # here: random_function draws through this module, and needs none

    n = f.n
    check_layout(3, n)
    ramp, table = np.arange(1 << n), f.table
    rows = table[ramp ^ ramp[:, None]] ^ table  # rows[s, x] = F(x ^ s) ^ F(x) = D_s F(x)
    t = spectral.fwht_inplace(1 - 2 * rows.astype(np.int32)).T.copy()  # t[b, s] = T[s, b]
    per = max(1, errors._BLOCK_CELLS >> 2 * n)  # values of a per block
    cum = np.empty(1 << 3 * n, np.int64)
    for a in range(0, 1 << n, per):
        block = t[ramp ^ ramp[a : a + per, None]]  # [a, b, s] = T[s, a ^ b]
        block *= t
        part = cum[a << 2 * n : (a + per) << 2 * n]  # [a, b, c] after the transform: num(a||b||c)
        np.square(spectral.fwht_inplace(block).reshape(-1), out=part, dtype=np.int64)
        part[0] += cum[(a << 2 * n) - 1] if a else 0
        np.cumsum(part, out=part)
    if cum[-1] != 1 << 6 * n:
        raise CrossCheckError(f"U_2 circuit probabilities sum to {cum[-1]} / 2^{6 * n}, not 1")
    return cum


def _means(cum: np.ndarray, m: int, seeds):
    """Yield, seed by seed, the mean of Y = outcome / cum.size over m draws on its stream.

    Draw r gives the first outcome whose int64 partial sum in `cum` exceeds floor(r * S), S =
    cum[-1] = 2^L <= 2^53.  Word w of the stream is the draw r = (w >> 11) / 2^53, so
    floor(r * S) = (w >> 11) >> (53 - L) = w >> (b + 1), b = 63 - L.  The streams' chunks of
    words (`_draw_chunks(m)`) fill, in turn, a pool of int64 keys floor(r * S) << b | slot,
    slot the stream's place in the pool.  Each pool is sorted once and looked up in blocks of
    _DRAW_CHUNK keys, walking the CDF forwards; bincount sums the outcomes per slot, exact
    below 2^53, and each stream's total T gives its mean T / (cum.size * m), rounded once, as
    soon as its pool is flushed.
    """
    if cum.dtype != np.int64:
        raise TypeError(f"need int64 partial sums of squared numerators, got {cum.dtype}")
    s = int(cum[-1]) if cum.size else 0
    if s < 1 or s & (s - 1) or s > 1 << 53:
        raise ValueError(f"squares must sum to a power of two <= 2^53, got {s}")
    if m < 1:
        raise ValueError("need at least one sample")
    b = 64 - s.bit_length()  # floor(r * S) < 2^(63 - b)
    keys = np.empty(_POOL_KEYS * max(1, cum.size >> 22), np.int64)  # _POOL_KEYS, or 1/64 of cum
    shifted = np.empty(_DRAW_CHUNK, np.int64)  # one lookup block's floor(r * S)
    fill = slot = carry = 0  # keys in the pool, the stream being drawn, slot 0's earlier sum

    def flush():  # yields the means of the streams before `slot`, returns slot's sum so far
        pool = keys[:fill]
        pool.sort()
        sums = np.zeros(slot + 1, np.int64)
        for start in range(0, fill, shifted.size):
            block = pool[start : start + shifted.size]
            thresholds = np.right_shift(block, b, out=shifted[: block.size])
            outcomes = np.searchsorted(cum, thresholds, side="right")
            np.bitwise_and(block, (1 << b) - 1, out=block)  # each key's slot
            sums += np.bincount(block, outcomes, slot + 1).astype(np.int64)
        sums[0] += carry
        yield from (int(total) / (cum.size * m) for total in sums[:slot])
        return sums[slot]

    for key in map(_key, seeds):
        for start, size in _draw_chunks(m):
            if fill + size > keys.size or slot >> b:
                carry = yield from flush()
                fill = slot = 0
            view = keys.view(np.uint64)[fill : fill + size]
            np.right_shift(_words(key, start, size), b + 1, out=view)  # floor(r * S)
            np.bitwise_or(np.left_shift(view, b, out=view), slot, out=view)
            fill += size
        slot += 1
    yield from flush()


def y_bar(cum: np.ndarray, m: int, seed) -> float:
    """Mean of Y over m measurements of a state, in memory that does not grow with m."""
    return next(_means(cum, m, [seed]))


def count_nonzero_outcomes(p0, m: int, seed) -> int:
    """How many of m draws r on the stream of `seed` have r >= p0, a rational in [0, 1].

    A draw r maps to outcome 0 iff r < p0, as in `y_bar(cum, m, seed)`'s lookup, where
    p0 = cum[0] / S: floor(r * S) < cum[0] iff r < p0.  Each draw is r = (w >> 11) / 2^53
    for a word w, so r >= p0 iff w >= ceil(p0 * 2^53) << 11, compared exactly (at p0 = 1
    numpy finds no uint64 >= 2^64).
    """
    key, least = _key(seed), math.ceil(p0 * 2**53) << 11  # the least word that rejects
    return sum(int(np.count_nonzero(_words(key, start, size) >= least))
               for start, size in _draw_chunks(m))


def hoeffding_bound(y_bar: float, m: int, t: float, seed: int | None = None) -> dict:
    """The report of the upper bound min(1, (1 + t - Ybar)^(1/8)) from the mean of m
    samples, with both confidence labels; `seed` is only recorded in it."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"margin t must be finite and positive, got {t!r}")
    return {
        "y_bar": y_bar,
        "t": t,
        "m": m,
        "upper_bound": min(1.0, (1.0 + t - y_bar) ** 0.125),
        "confidence_paper": 1.0 - math.exp(-2.0 * m * m * t * t),  # see the module docstring
        "confidence_standard": 1.0 - math.exp(-2.0 * m * t * t),  # textbook Hoeffding
        "seed": seed,
        "rng": RNG_ALGORITHM,
    }


def validate_bound(cum: np.ndarray, exact_norm: float, m: int, t: float, trials: int,
                   seed: int) -> float:
    """Fraction of independent trials whose bound covers exact_norm.

    Trial i takes the mean of m outcomes of the norm circuit's final state, given by its
    partial sums `cum`, on the stream of child seed i, through the pooled, sorted lookups of
    `_means`; it is covered if exact_norm <= its Hoeffding report's upper_bound.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    hoeffding_bound(0.0, m, t)  # refuses a bad t before any draw
    _check_draws(trials * (m + STREAM_SETUP_DRAWS))
    means = _means(cum, m, (child_seed(seed, i) for i in range(trials)))
    return sum(exact_norm <= hoeffding_bound(y, m, t)["upper_bound"] for y in means) / trials
