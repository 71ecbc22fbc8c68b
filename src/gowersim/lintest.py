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
on the PCG64 stream that sampling the state would use (see
estimate.count_nonzero_outcomes), so the counts equal the state sampler's.
The circuit's 3n <= 24 qubit envelope is kept.

The BLR test draws x, y uniformly and accepts iff F(x) + F(y) = F(x+y); its
exact acceptance probability is 1/2 + 1/2 sum_u fhat(u)^3, which
`blr_exact_dyadic(f)` cross-checks against the enumeration of all 2^(2n)
pairs where 2n <= 24.  Its trials are drawn in chunks, in memory that does not
grow with their count, on the stream of one call for all xs and one for all
ys: the ys come from a copy of the generator advanced past the xs.  Results
are the dicts the CLI prints: a verdict per test, a row from compare.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .boolfn import BooleanFunction
from .dyadic import DyadicRational
from .errors import MAX_N, CrossCheckError, check_layout
from .estimate import _draw_sizes, child_seed, count_nonzero_outcomes
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


def quantum_linearity_test(f: BooleanFunction, shots: int, seed: int | None = None) -> dict:
    """Per-shot test: ACCEPT iff the measured index is 0.

    Samples `shots` >= 1 measurements; the verdict is REJECT iff any shot
    rejects.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    check_layout(3, f.n)  # the circuit's 3 registers of n qubits
    p_accept = float(u2_spectral(f).pow_value) ** 2
    return _verdict(p_accept, shots, count_nonzero_outcomes(p_accept, shots, seed), seed)


# ---------------------------------------------------------------------------
# BLR
# ---------------------------------------------------------------------------


def blr_exact_dyadic(f: BooleanFunction) -> DyadicRational:
    """Exact BLR acceptance probability 1/2 + 1/2 sum fhat^3.

    Where 2n <= 24 it is cross-checked against the enumeration of all 2^(2n) pairs.
    """
    n = f.n
    spectral = DyadicRational((1 << (3 * n)) + _power_sum(walsh(f), 3), 3 * n + 1)
    if 2 * n <= MAX_N:
        # accepted pairs (x, y): (2^(2n) + sum_x f(x) r(x)) / 2, r(x) = sum_y f(y) f(x+y)
        s = int(np.dot(f.sign_table(), convolve(f, f)))
        enumerated = DyadicRational((1 << (2 * n)) + s, 2 * n + 1)
        if spectral != enumerated:
            raise CrossCheckError(
                f"BLR routes disagree: spectral {spectral} vs enumeration {enumerated}"
            )
    return spectral


def blr_test(f: BooleanFunction, trials: int, seed: int | None = None) -> dict:
    """Sampled BLR test of `trials` >= 1 draws; REJECT iff any trial rejects.

    The verdict adds the exact acceptance probability as a dyadic, computed
    once by `blr_exact_dyadic`.  xs and ys are the seed's first and second
    `trials` uint32 draws, taken chunk by chunk, the ys from a copy of the
    generator advanced past the xs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_exact = blr_exact_dyadic(f)
    x_rng = np.random.default_rng(seed)
    y_rng = copy.deepcopy(x_rng)
    y_rng.bit_generator.advance(trials // 2)  # two uint32 draws per 64-bit output
    if trials % 2:  # the ys start on the high half that the last x leaves buffered
        y_rng.integers(1 << 32, dtype=np.uint32)
    size, table, rejections = 1 << f.n, f.table, 0
    for count in _draw_sizes(trials):
        xs = x_rng.integers(0, size, size=count, dtype=np.uint32)
        ys = y_rng.integers(0, size, size=count, dtype=np.uint32)
        rejections += int(np.count_nonzero(table[xs] ^ table[ys] ^ table[xs ^ ys]))
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
    exactly; those two keys come last and are not CSV columns.
    """
    quantum = quantum_linearity_test(f, shots, child_seed(seed, 0))
    q_reject_exact = 1.0 - quantum["accept_probability_exact"]
    blr = blr_test(f, shots, child_seed(seed, 1))
    blr_reject_exact = 1.0 - blr["accept_probability_exact"]
    eps_dy, _ = dist_to_linear(f)
    eps = float(eps_dy)
    return {
        "n": f.n,
        "function_tt_hex": f.to_hex(),
        "eps": eps,
        "nonlinearity": nonlinearity(f),
        "quantum_reject_exact": q_reject_exact,
        "quantum_reject_freq": quantum["rejection_frequency"],
        "quantum_reject_bound": _bound_polynomial(eps),  # 1 - (1 - 2 eps)^4 at the exact eps
        "blr_reject_exact": blr_reject_exact,
        "blr_reject_freq": blr["rejection_frequency"],
        "shots": shots,
        "quantum_queries_per_shot": QUANTUM_QUERIES_PER_SHOT,
        "blr_queries_per_trial": BLR_QUERIES_PER_TRIAL,
        "quantum_reject_per_query": q_reject_exact / QUANTUM_QUERIES_PER_SHOT,
        "blr_reject_per_query": blr_reject_exact / BLR_QUERIES_PER_TRIAL,
        "seed": seed,
        "eps_num": eps_dy.num,
        "eps_log2_den": eps_dy.log2_den,
    }
