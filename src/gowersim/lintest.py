"""Linearity testing: the norm-circuit test, the classical BLR test, and a
head-to-head comparison harness.

The quantum test runs the 3-register norm circuit and accepts a shot iff the
measured index is all-zeros, which happens with probability exactly
p0 = ||f||_{U_2}^8.  A linear f therefore accepts with probability 1; so does
any function with ||f||_{U_2} = 1, i.e. every affine function (constant 1
included) -- the test distinguishes linear functions from functions *far
from linear* only under that promise.

Only that statistic is simulated, never the 2^(3n) final state: p0 is the
square of the exact spectral U_2 value, and the shots are drawn against it
on the stream that sampling the state would use (see
estimate.count_nonzero_outcomes), so the counts equal the state sampler's.

The BLR test draws x, y uniformly and accepts iff F(x) + F(y) = F(x+y); its
exact acceptance probability is 1/2 + 1/2 sum_u fhat(u)^3, which
`blr_exact_dyadic(f)` cross-checks against the enumeration of all 2^(2n)
pairs where n <= 15.  Its trials are drawn in chunks, in memory that does not
grow with their count, from one stream read by position: its first `trials`
uint32 halves are the xs, the next `trials` the ys.  Results are the dicts the
CLI prints: a verdict per test, a row from compare.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .boolfn import BooleanFunction
from .dyadic import DyadicRational
from .errors import CapacityError, CrossCheckError
from .estimate import _check_draws, _draw_chunks, _key, _words, child_seed, count_nonzero_outcomes
from .gowers import _power_sum, u2_spectral
from .spectral import convolve, dist_to_linear, nonlinearity, walsh

QUANTUM_QUERIES_PER_SHOT = 4  # phase-oracle calls per circuit execution
BLR_QUERIES_PER_TRIAL = 3


def _verdict(p_accept: float, count: int, rejections: int, seed) -> dict:
    """The verdict document that `lintest` and `blr` print."""
    return {
        "verdict": "REJECT" if rejections else "ACCEPT",
        "mode": "sampled",
        "shots": count,
        "accept_probability_exact": p_accept,
        "rejection_frequency": rejections / count,
        "seed": seed,
    }


def _bound_polynomial(eps: float) -> float:
    return 1.0 - (1.0 - 2.0 * eps) ** 4


def rejection_lower_bound(eps: float) -> dict:
    """Lower bound on the per-shot rejection probability at distance eps from linear:
    `exact` 1 - (1 - 2 eps)^4 and `exponential` 1 - exp(-8 eps), the stated approximation."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps!r}")
    return {"exact": _bound_polynomial(eps), "exponential": 1.0 - math.exp(-8.0 * eps)}


def _quantum_shots(f: BooleanFunction, shots: int, seed) -> tuple[Fraction, int]:
    """The exact p0 and how many of `shots` >= 1 measurements reject, outcome 0 accepting."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_draws(shots)  # before the transform
    p0 = u2_spectral(f).pow_value ** 2
    return p0, count_nonzero_outcomes(p0, shots, seed)


def quantum_linearity_test(f: BooleanFunction, shots: int, seed: int | None = None) -> dict:
    """Per-shot test: ACCEPT iff the measured index is 0.

    Samples `shots` >= 1 measurements; the verdict is REJECT iff any shot
    rejects.
    """
    p0, rejections = _quantum_shots(f, shots, seed)
    return _verdict(float(p0), shots, rejections, seed)


# ---------------------------------------------------------------------------
# BLR
# ---------------------------------------------------------------------------


def blr_exact_dyadic(f: BooleanFunction) -> DyadicRational:
    """Exact BLR acceptance probability 1/2 + 1/2 sum fhat^3, cross-checked against the
    enumeration of all 2^(2n) pairs where `convolve` admits n (n + max(0, n-6) <= 24)."""
    n = f.n
    spectral = DyadicRational((1 << (3 * n)) + _power_sum(walsh(f), 3), 3 * n + 1)
    try:  # accepted pairs (x, y): (2^(2n) + sum_x f(x) r(x)) / 2, r(x) = sum_y f(y) f(x+y)
        r = convolve(f, f)
    except CapacityError:  # past n + max(0, n-6) <= 24, too many words to XOR
        return spectral
    s = int(np.dot(f.sign_table(), r))
    enumerated = DyadicRational((1 << (2 * n)) + s, 2 * n + 1)
    if spectral != enumerated:
        raise CrossCheckError(f"BLR routes disagree: spectral {spectral} vs enumeration "
                              f"{enumerated}")
    return spectral


def _blr_trials(f: BooleanFunction, trials: int, seed) -> tuple[DyadicRational, int]:
    """The exact acceptance probability from `blr_exact_dyadic` and how many of `trials` >= 1
    draws reject.  xs and ys are the top n bits of the uint32 halves [0, trials) and [trials,
    2 trials) of the seed's stream, each word's low half first, taken chunk by chunk."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_draws(trials)  # before the transform
    p_exact = blr_exact_dyadic(f)
    key, shift, table, rejections = _key(seed), 32 - f.n, f.table, 0
    for start, count in _draw_chunks(trials):
        xs, ys = (_words(key, at >> 1, count + 2 >> 1).astype("<u8", copy=False).view("<u4")
                  [at & 1 :][:count] >> shift for at in (start, trials + start))
        rejections += int(np.count_nonzero(table.take(xs) ^ table.take(ys) ^ table.take(xs ^ ys)))
    return p_exact, rejections


def blr_test(f: BooleanFunction, trials: int, seed: int | None = None) -> dict:
    """Sampled BLR test of `trials` >= 1 draws, REJECT iff any trial rejects; the verdict
    adds the exact acceptance probability as a dyadic."""
    p_exact, rejections = _blr_trials(f, trials, seed)
    verdict = _verdict(float(p_exact), trials, rejections, seed)
    return {**verdict, "accept_probability_exact_dyadic": p_exact.to_json_dict()}


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------


def compare(f: BooleanFunction, shots: int, seed: int) -> dict:
    """Side-by-side exact and sampled rejection rates, quantum vs BLR, as one row.

    `shots` is used for both sides (circuit shots and BLR trials); the two
    samplers draw from child seeds (seed, 0) and (seed, 1).  Per-query rates
    divide the per-shot rejection by the oracle queries one shot consumes
    (4 phase queries quantum, 3 classical queries BLR), because a raw
    per-shot comparison silently hands the quantum side a 4-query budget.
    `eps` is the distance to the linear functions, eps_num / 2^eps_log2_den
    exactly; those two keys come last and are not CSV columns.  Each exact
    rate is taken as a Fraction and rounded once.
    """
    p0, q_rejections = _quantum_shots(f, shots, child_seed(seed, 0))
    p_blr, blr_rejections = _blr_trials(f, shots, child_seed(seed, 1))
    q_reject, blr_reject = 1 - p0, 1 - p_blr
    eps_dy, _ = dist_to_linear(f)
    eps = float(eps_dy)
    return {
        "n": f.n,
        "function_tt_hex": f.to_hex(),
        "eps": eps,
        "nonlinearity": nonlinearity(f),
        "quantum_reject_exact": float(q_reject),
        "quantum_reject_freq": q_rejections / shots,
        "quantum_reject_bound": _bound_polynomial(eps),  # 1 - (1 - 2 eps)^4 at the exact eps
        "blr_reject_exact": float(blr_reject),
        "blr_reject_freq": blr_rejections / shots,
        "shots": shots,
        "quantum_queries_per_shot": QUANTUM_QUERIES_PER_SHOT,
        "blr_queries_per_trial": BLR_QUERIES_PER_TRIAL,
        "quantum_reject_per_query": float(q_reject / QUANTUM_QUERIES_PER_SHOT),
        "blr_reject_per_query": float(blr_reject / BLR_QUERIES_PER_TRIAL),
        "seed": seed,
        "eps_num": eps_dy.num,
        "eps_log2_den": eps_dy.log2_den,
    }
