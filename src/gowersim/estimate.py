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
Ybar is streamed: `Measurement.y_bar` adds exact integer sums of the outcomes
chunk by chunk, so its memory does not grow with m.  All randomness comes from
numpy's PCG64 (`np.random.default_rng`); child streams for trial i are derived
via SeedSequence([seed, i]) (see child_seed).  Every sampler draws in chunks
(`_draw_sizes`), and a request for more than DRAW_BUDGET draws is a
CapacityError before the first one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

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


class Measurement:
    """Computational-basis measurements of one amplitude array, by inverse-CDF sampling.

    The cumulative |amp|^2 array is built once, on construction, and every
    draw reuses it.  A norm drift beyond 1e-9 is an error; smaller drift is
    renormalized away.
    """

    def __init__(self, amp: np.ndarray):
        self.cum = _cdf(amp)

    def _outcome_chunks(self, m: int, seed):
        """The outcomes of m independent measurements, chunk by chunk in draw order."""
        if m < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        for size in _draw_sizes(m):
            yield self._lookup(rng.random(size))

    def _lookup(self, draws: np.ndarray) -> np.ndarray:
        """Outcomes of `draws` in draw order.

        The draws are looked up in sorted order, which walks the CDF forwards,
        and scattered back.  Rebinding `draws` and scattering in place keep at
        most three chunk-sized arrays alive.
        """
        order = np.argsort(draws)
        draws = draws[order]
        outcomes = np.searchsorted(self.cum, draws, side="right")
        del draws
        outcomes[order] = outcomes.copy()
        return outcomes

    def sample(self, m: int, seed) -> np.ndarray:
        """The int64 basis indices of m measurements; deterministic for a given seed."""
        return np.concatenate(list(self._outcome_chunks(m, seed)))

    def y_bar(self, m: int, seed) -> float:
        """Mean of Y = outcome / dim (dim = amp.size) over m measurements, in constant memory.

        The outcome sum S is an exact integer and S / (dim * m) is rounded once.
        Whenever m * dim <= 2^53 this is the float np.mean(sample(m, seed) / dim)
        gives, since all its partial sums are exact; beyond, it is still the
        correctly rounded mean.
        """
        # map drops each chunk before the next is drawn
        total = sum(map(int, map(np.sum, self._outcome_chunks(m, seed))))
        return total / (self.cum.size * m)


def count_nonzero_outcomes(p0: float, m: int, seed) -> int:
    """count_nonzero(Measurement(amp).sample(m, seed)) when |amp[0]|^2 = p0.

    Exact on the same PCG64 stream whenever the state's amplitudes are
    integers / 2^q, as every norm circuit's are: then each partial sum of
    |amp|^2 is a float64 without rounding, the CDF's total is exactly 1.0, and
    a draw maps to outcome 0 iff it is below cum[0] = p0.
    """
    rng = np.random.default_rng(seed)
    return sum(int(np.count_nonzero(rng.random(size) >= p0)) for size in _draw_sizes(m))


def _cdf(amp: np.ndarray) -> np.ndarray:
    p = np.square(amp, dtype=np.float64)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: sum |amp|^2 = {total!r}")
    p /= total
    cum = np.cumsum(p, out=p)
    cum[-1] = 1.0
    return cum


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
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"margin t must be finite and positive, got {t!r}")
    _check_draws(m * trials)
    covered = 0
    for i in range(trials):
        report = hoeffding_bound(measurement.y_bar(m, child_seed(seed, i)), m, t)
        if exact_norm <= report["upper_bound"]:
            covered += 1
    return covered / trials
