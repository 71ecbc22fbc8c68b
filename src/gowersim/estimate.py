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
All randomness comes from numpy's PCG64; child streams for trial i are
derived via SeedSequence([seed, i]) (see child_seed).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .qsim import StateVector

RNG_ALGORITHM = "PCG64"
_DRAW_CHUNK = 1 << 16  # draws per Generator call in every sampler (see _draw_sizes)


def child_seed(seed: int, index: int) -> int:
    """Deterministic 128-bit child seed for trial `index` under a master seed."""
    words = np.random.SeedSequence([seed, index]).generate_state(2, np.uint64)
    return (int(words[0]) << 64) | int(words[1])


def _draw_sizes(count: int):
    """Chunk sizes of at most _DRAW_CHUNK that add up to count.

    Drawn in turn from one generator, the chunks are the stream of one call.
    """
    return (min(_DRAW_CHUNK, count - start) for start in range(0, count, _DRAW_CHUNK))


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or (isinstance(seed, int) and seed >= 0):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SampleSet:
    n: int  # qubits per register of the sampled state
    m_samples: int
    outcomes: np.ndarray = field(repr=False)  # basis indices
    y_values: np.ndarray = field(repr=False)  # outcome / 2^(total qubits)
    seed: int | None

    def __post_init__(self):
        self.outcomes.setflags(write=False)
        self.y_values.setflags(write=False)


@dataclass(frozen=True)
class EstimationReport:
    y_bar: float
    t: float
    m: int
    upper_bound: float
    confidence_paper: float  # 1 - exp(-2 m^2 t^2); see the module docstring
    confidence_standard: float  # 1 - exp(-2 m t^2), textbook Hoeffding
    seed: int | None

    def to_json_dict(self, function_hex: str | None = None) -> dict:
        out = {**asdict(self), "rng": RNG_ALGORITHM}
        if function_hex is not None:
            out["function_tt_hex"] = function_hex
        return out


class Measurement:
    """Computational-basis measurements of one state, by inverse-CDF sampling.

    The cumulative |amp|^2 array is built once, on construction, and every
    `sample` call reuses it.  A norm drift beyond 1e-9 is an error; smaller
    drift is renormalized away.
    """

    def __init__(self, state: StateVector):
        self.layout = state.layout
        self.cum = _cdf(state)

    def sample(self, m: int, seed) -> SampleSet:
        """m independent measurements; deterministic for a given seed.

        Each chunk of draws is looked up in the CDF in sorted order, which
        walks it forwards, and scattered back into draw order.
        """
        if m < 1:
            raise ValueError("need at least one sample")
        rng = _generator(seed)
        outcomes = np.empty(m, dtype=np.int64)
        start = 0
        for size in _draw_sizes(m):
            draws = rng.random(size)
            order = np.argsort(draws)
            chunk = outcomes[start : start + size]
            chunk[order] = np.searchsorted(self.cum, draws[order], side="right")
            start += size
        y_values = outcomes / float(self.layout.dim)
        stored_seed = seed if isinstance(seed, int) else None
        return SampleSet(self.layout.n, m, outcomes, y_values, stored_seed)


def count_nonzero_outcomes(p0: float, m: int, seed) -> int:
    """count_nonzero(Measurement(state).sample(m, seed).outcomes) when |amp_0|^2 = p0.

    Exact on the same PCG64 stream whenever the state's amplitudes are
    integers / 2^q, as every norm circuit's are: then each partial sum of
    |amp|^2 is a float64 without rounding, the CDF's total is exactly 1.0, and
    a draw maps to outcome 0 iff it is below cum[0] = p0.
    """
    rng = _generator(seed)
    return sum(int(np.count_nonzero(rng.random(size) >= p0)) for size in _draw_sizes(m))


def _cdf(state: StateVector) -> np.ndarray:
    p = np.square(state.amp, dtype=np.float64)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: sum |amp|^2 = {total!r}")
    p /= total
    cum = np.cumsum(p, out=p)
    cum[-1] = 1.0
    return cum


def hoeffding_bound(samples: SampleSet, t: float) -> EstimationReport:
    """Upper bound min(1, (1 + t - Ybar)^(1/8)) with both confidence labels."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"margin t must be finite and positive, got {t!r}")
    m = samples.m_samples
    y_bar = float(np.mean(samples.y_values))
    upper = min(1.0, (1.0 + t - y_bar) ** 0.125)
    return EstimationReport(
        y_bar=y_bar,
        t=t,
        m=m,
        upper_bound=upper,
        confidence_paper=1.0 - math.exp(-2.0 * m * m * t * t),
        confidence_standard=1.0 - math.exp(-2.0 * m * t * t),
        seed=samples.seed,
    )


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
    covered = 0
    for i in range(trials):
        report = hoeffding_bound(measurement.sample(m, child_seed(seed, i)), t)
        if exact_norm <= report.upper_bound:
            covered += 1
    return covered / trials
