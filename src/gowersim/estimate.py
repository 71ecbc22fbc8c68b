"""Measurement sampling and the Hoeffding-style upper bound on ||f||_{U_2}.

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
`u2_partial_sums` gives the circuit's outcome distribution in closed form,
without simulating it, for `Measurement` to sample.  Ybar is streamed:
`Measurement.y_bar` adds exact integer sums of the outcomes chunk by chunk, so
its memory does not grow with m.  All randomness comes from numpy's PCG64
(`np.random.default_rng`); child streams for trial i are derived via
SeedSequence([seed, i]) (see child_seed).  Every sampler draws in chunks
(`_draw_sizes`), and a request for more than DRAW_BUDGET draws is a
CapacityError before the first one.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .boolfn import BooleanFunction
from .errors import CapacityError, CrossCheckError, check_layout

RNG_ALGORITHM = "PCG64"
_DRAW_CHUNK = 1 << 16  # draws per Generator call in every sampler (see _draw_sizes)
# most draws one sampling request may ask for: ~2 minutes at y_bar's ~1e7 draws/s
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
    Fourier form of ||f||_{U_2}^4 (Gowers 2001).  Blocks of a (_BLOCK_CELLS entries, at
    least one a) are transformed along s in int32, exact as |num| <= 2^(3n) <= 2^24.
    A total other than 2^(6n) raises CrossCheckError.
    """
    n = f.n
    check_layout(3, n)
    # block `low` holds the rows of d = low + c * t, so stacking on axis 1 puts d in order
    rows = np.stack(list(spectral._derivative_rows(f.table[None])), axis=1).reshape(1 << n, -1)
    t = spectral.fwht_inplace(1 - 2 * rows.astype(np.int32)).T.copy()  # t[b, s] = T[s, b]
    ramp = np.arange(1 << n)
    per = max(1, spectral._BLOCK_CELLS >> 2 * n)  # values of a per block
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


class Measurement:
    """Computational-basis measurements of one state, by inverse-CDF sampling in integers.

    `cum` holds the int64 partial sums of a state's squared integer amplitude numerators,
    as `u2_partial_sums` builds them: outcome i has probability (cum[i] - cum[i - 1]) / S,
    S = cum[-1], a power of two <= 2^53.  Every draw reuses them.
    """

    def __init__(self, cum: np.ndarray):
        if cum.dtype != np.int64:
            raise TypeError(f"need int64 partial sums of squared numerators, got {cum.dtype}")
        total = int(cum[-1]) if cum.size else 0
        if total < 1 or total & (total - 1) or total > 1 << 53:
            raise ValueError(f"squares must sum to a power of two <= 2^53, got {total}")
        self.cum = cum

    def _outcome_chunks(self, m: int, seed):
        """The outcomes of m independent measurements, chunk by chunk in draw order."""
        if m < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        for size in _draw_sizes(m):
            yield self._lookup(rng.random(size))

    def _lookup(self, draws: np.ndarray) -> np.ndarray:
        """Outcomes of `draws` in draw order.

        A draw r maps to the first outcome whose partial sum exceeds
        floor(r * S); r * S is exact, S being a power of two.  The draws are
        looked up in sorted order, which walks the CDF forwards, and scattered
        back.  Deleting each array once it is read keeps at most three
        chunk-sized arrays alive.
        """
        order = np.argsort(draws)
        draws = draws[order]
        draws *= self.cum[-1]
        thresholds = draws.astype(np.int64)  # truncation is floor, as r >= 0
        del draws
        outcomes = np.searchsorted(self.cum, thresholds, side="right")
        del thresholds
        outcomes[order] = outcomes.copy()
        return outcomes

    def sample(self, m: int, seed) -> np.ndarray:
        """The int64 basis indices of m measurements; deterministic for a given seed."""
        return np.concatenate(list(self._outcome_chunks(m, seed)))

    def y_bar(self, m: int, seed) -> float:
        """Mean of Y = outcome / dim (dim = cum.size) over m measurements, in constant memory.

        The outcome sum T is an exact integer and T / (dim * m) is rounded once.
        Whenever m * dim <= 2^53 this is the float np.mean(sample(m, seed) / dim)
        gives, since all its partial sums are exact; beyond, it is still the
        correctly rounded mean.
        """
        # map drops each chunk before the next is drawn
        total = sum(map(int, map(np.sum, self._outcome_chunks(m, seed))))
        return total / (self.cum.size * m)


def count_nonzero_outcomes(p0, m: int, seed) -> int:
    """How many of m draws r on the PCG64 stream of `seed` have r >= p0, a rational in [0, 1].

    A draw r maps to outcome 0 iff r < p0, as in Measurement(cum).sample(m, seed), where
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


def validate_bound(
    measurement: Measurement, exact_norm: float, m: int, t: float, trials: int, seed: int
) -> float:
    """Fraction of independent trials whose bound covers exact_norm.

    Each trial samples m outcomes from `measurement`, of the norm circuit's
    final state, with a derived child seed, computes the Hoeffding report, and
    checks exact_norm <= upper_bound.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_draws(m * trials)
    covered = 0
    for i in range(trials):
        report = hoeffding_bound(measurement.y_bar(m, child_seed(seed, i)), m, t)
        if exact_norm <= report["upper_bound"]:
            covered += 1
    return covered / trials
