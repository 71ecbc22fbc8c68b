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
int64 partial sums, without simulating it.  `y_bar` samples them for Ybar
alone, adding exact integer sums of the outcomes chunk by chunk in memory that
does not grow with m.  All randomness comes from numpy's PCG64
(`np.random.default_rng`); child streams for trial i are derived via
SeedSequence([seed, i]) (see child_seed).  Every sampler draws in chunks
(`_draw_sizes`), and a request for more than DRAW_BUDGET draws is a
CapacityError before the first one.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors, spectral
from .boolfn import BooleanFunction
from .errors import CapacityError, CrossCheckError, check_layout

RNG_ALGORITHM = "PCG64"
_DRAW_CHUNK = 1 << 16  # draws per Generator call in every sampler (see _draw_sizes)
# most draws one sampling request may ask for: ~8 minutes at y_bar's ~2.3e6 draws/s at n = 8
DRAW_BUDGET = 2**30


def child_seed(seed: int, index: int) -> int:
    """Deterministic 128-bit child seed for trial `index` under a master seed."""
    words = np.random.SeedSequence([seed, index]).generate_state(2, np.uint64)
    return (int(words[0]) << 64) | int(words[1])


def _check_draws(count: int) -> None:
    if count > DRAW_BUDGET:
        raise CapacityError(f"{count} draws > the draw budget of {DRAW_BUDGET}")


def _draw_sizes(count: int):
    """Chunk sizes of at most _DRAW_CHUNK that add up to count.

    Drawn in turn from one generator, the chunks are the stream of one call.
    A count over DRAW_BUDGET is refused here, before anything is drawn.
    """
    _check_draws(count)
    return (min(_DRAW_CHUNK, count - start) for start in range(0, count, _DRAW_CHUNK))


def u2_partial_sums(f: BooleanFunction) -> np.ndarray:
    """The int64 partial sums of num^2 over the U_2 circuit's final amplitudes num / 2^(3n).

    num(a || b || c) = sum_s T[s, b] T[s, a ^ b] (-1)^(s . c), T[s] = W_{D_s F}: the
    Fourier form of ||f||_{U_2}^4 (Gowers 2001).  Blocks of a (errors._BLOCK_CELLS entries, at
    least one a) are transformed along s in int32, exact as |num| <= 2^(3n) <= 2^24.
    A total other than 2^(6n) raises CrossCheckError.
    """
    n = f.n
    check_layout(3, n)
    rows = spectral._by_direction(f.table)  # rows[s] = D_s F
    t = spectral.fwht_inplace(1 - 2 * rows.astype(np.int32)).T.copy()  # t[b, s] = T[s, b]
    ramp = np.arange(1 << n)
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


def _lookup(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The outcomes of sorted `draws`, in their order, walking the CDF forwards: for each r
    the first outcome whose partial sum exceeds floor(r * S), S = cum[-1].  `draws` is
    scaled in place, exactly, S being a power of two."""
    draws *= cum[-1]
    return np.searchsorted(cum, draws.astype(np.int64), side="right")  # truncation is floor


def y_bar(cum: np.ndarray, m: int, seed) -> float:
    """Mean of Y = outcome / cum.size over m measurements of a state, in constant memory.

    Outcome i has probability (cum[i] - cum[i - 1]) / S: `cum` holds the int64 partial
    sums of the state's squared amplitude numerators, S = cum[-1] a power of two <= 2^53,
    as `u2_partial_sums` builds them.  Chunks of draws from one PCG64 stream are sorted
    and looked up; their outcome sum T is exact, and T / (cum.size * m) is rounded once.
    """
    if cum.dtype != np.int64:
        raise TypeError(f"need int64 partial sums of squared numerators, got {cum.dtype}")
    s = int(cum[-1]) if cum.size else 0
    if s < 1 or s & (s - 1) or s > 1 << 53:
        raise ValueError(f"squares must sum to a power of two <= 2^53, got {s}")
    if m < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    total = sum(int(_lookup(cum, np.sort(rng.random(size))).sum()) for size in _draw_sizes(m))
    return total / (cum.size * m)


def count_nonzero_outcomes(p0, m: int, seed) -> int:
    """How many of m draws r on the PCG64 stream of `seed` have r >= p0, a rational in [0, 1].

    A draw r maps to outcome 0 iff r < p0, as in `y_bar(cum, m, seed)`'s lookup, where
    p0 = cum[0] / S: floor(r * S) < cum[0] iff r < p0.  Each draw is a multiple of 2^-53,
    so r >= p0 iff r >= ceil(p0 * 2^53) / 2^53, a float without rounding at every p0.
    """
    threshold = math.ceil(p0 * 2**53) / 2**53
    rng = np.random.default_rng(seed)
    return sum(int(np.count_nonzero(rng.random(size) >= threshold)) for size in _draw_sizes(m))


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

    Each trial takes the mean of m outcomes of the norm circuit's final state,
    given by its partial sums `cum`, with a derived child seed, computes the
    Hoeffding report, and checks exact_norm <= upper_bound.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_draws(m * trials)
    covered = 0
    for i in range(trials):
        report = hoeffding_bound(y_bar(cum, m, child_seed(seed, i)), m, t)
        if exact_norm <= report["upper_bound"]:
            covered += 1
    return covered / trials
