"""The sampled mean of the norm circuit's outcomes and the Hoeffding-style norm estimator."""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowersim import errors, estimate, spectral
from gowersim.boolfn import BooleanFunction, bent_quadratic, linear, random_function
from gowersim.errors import CapacityError, CrossCheckError
from gowersim.estimate import (
    child_seed,
    count_nonzero_outcomes,
    hoeffding_bound,
    u2_partial_sums,
    validate_bound,
    y_bar,
)
from gowersim.gowers import u2_spectral
from gowersim.qsim import Circuit, build_derivative_walk_circuit
from gowersim.spectral import fwht_inplace

from gate_reference import fold, partial_sums, permuted_run, uniform_state
from packed import from_packed

from_anf_string = BooleanFunction.from_anf_string


def u2_sums_and_norm(f):
    """The partial sums of the norm circuit's final state and the exact U2 norm they bound."""
    return u2_partial_sums(f), u2_spectral(f).norm


def sorted_outcomes(cum, m, seed):
    """The outcomes of one `default_rng(seed).random(m)` call, in sorted-draw order: the
    draws of y_bar(cum, m, seed), as its chunks are one call's stream."""
    return estimate._lookup(cum, np.sort(np.random.default_rng(seed).random(m)))


def point_mass(regs, index):
    """The partial sums of a state with all its weight on one basis index of regs' qubits."""
    num = np.zeros(1 << regs.qubits, dtype=np.int32)
    num[index] = 1
    return partial_sums(num)


def test_sample_y_convention():
    # measured register contents (01, 10, 11) at n = 2 pack to index 27 of 64
    regs = Circuit(2, 3, ())
    idx = (0b01 << regs.shift(1)) | (0b10 << regs.shift(2)) | (0b11 << regs.shift(3))
    assert idx == 27
    outcomes = sorted_outcomes(point_mass(regs, idx), 10, 1)
    assert np.all(outcomes == 27)
    assert np.all(outcomes / (1 << regs.qubits) == 27 / 64)
    assert outcomes.size == 10
    assert y_bar(point_mass(regs, idx), 10, 1) == 27 / 64

    zeros = sorted_outcomes(point_mass(regs, 0), 5, 1)
    assert np.all(zeros / (1 << regs.qubits) == 0.0)
    assert y_bar(point_mass(regs, 0), 5, 1) == 0.0


def test_sample_matches_distribution():
    # frequency of the zero outcome for AND must track p0 = 1/16
    f = from_anf_string("x1*x2", 2)
    m = 100_000
    outcomes = sorted_outcomes(u2_partial_sums(f), m, 2718)
    freq = np.count_nonzero(outcomes == 0) / m
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / m)
    assert abs(freq - p) <= 4 * sigma


def test_sample_is_deterministic():
    cum = u2_partial_sums(bent_quadratic(2))
    a = y_bar(cum, 1000, 42)
    assert a == y_bar(cum, 1000, 42)
    assert a != y_bar(cum, 1000, 43)


def test_sample_rejects_unnormalized_state():
    # the partial sums must end in a power of two <= 2^53
    regs = Circuit(1, 3, ())
    for squares, total in (([9] * 8, 72), ([0] * 8, 0), ([], 0), ([2**54, 0], 2**54)):
        with pytest.raises(ValueError, match=rf"power of two <= 2\^53, got {total}$"):
            y_bar(np.cumsum(np.array(squares, dtype=np.int64)), 1, 0)
    with pytest.raises(ValueError, match="need at least one sample"):  # not a ZeroDivisionError
        y_bar(partial_sums(uniform_state(regs)), 0, 0)


def test_measurement_refuses_sums_that_are_not_int64():
    for cum in (np.cumsum(np.full(8, 0.125)), np.arange(1, 9, dtype=np.int32),
                np.arange(1, 9, dtype=np.uint64)):
        with pytest.raises(TypeError, match=str(cum.dtype)):
            y_bar(cum, 1, 0)


def test_child_seed():
    assert child_seed(7, 0) != child_seed(7, 1)
    assert child_seed(7, 0) == child_seed(7, 0)
    assert child_seed(8, 0) != child_seed(7, 0)
    assert 0 <= child_seed(7, 0) < 1 << 128


def test_hoeffding_report_values():
    report = hoeffding_bound(0.9, 10, 0.05)
    assert report["y_bar"] == pytest.approx(0.9)
    assert report["upper_bound"] == pytest.approx(0.15**0.125)
    assert report["upper_bound"] == pytest.approx(0.789, abs=5e-4)

    report50 = hoeffding_bound(0.0, 50, 0.2)
    assert report50["confidence_paper"] == pytest.approx(1 - math.exp(-200))
    assert report50["confidence_standard"] == pytest.approx(1 - math.exp(-4))
    # ybar = 0 makes the raw bound exceed 1, so it clips
    assert report50["upper_bound"] == 1.0


def test_hoeffding_bound_monotone_in_t():
    bounds = [hoeffding_bound(0.7, 4, t)["upper_bound"] for t in (0.01, 0.1, 0.2, 0.301)]
    assert bounds == sorted(bounds)
    with pytest.raises(ValueError):
        hoeffding_bound(0.7, 4, 0.0)
    with pytest.raises(ValueError):
        hoeffding_bound(0.7, 4, -0.1)


def test_bounds_reject_non_finite_t():
    # t = inf would print "t": Infinity, which is not JSON
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hoeffding_bound(0.7, 4, t)
        with pytest.raises(ValueError, match="finite"):
            validate_bound(cum, norm, m=10, t=t, trials=5, seed=1)


def test_mean_y_never_exceeds_rejection_mass():
    # E[Y] <= 1 - p0 exactly, with equality only when all mass sits at zero;
    # this is what makes (1 + t - ybar)^(1/8) an upper bound on the norm
    rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            sign = (1 - 2 * f.table.astype(np.int64))
            size = 1 << n
            tensor = np.empty(size**3, dtype=np.int64)
            for x in range(size):
                for a in range(size):
                    for b in range(size):
                        tensor[(x << (2 * n)) | (a << n) | b] = (
                            sign[x] * sign[x ^ a] * sign[x ^ b] * sign[x ^ a ^ b]
                        )
            fwht_inplace(tensor)
            dim = size**3
            weights = [Fraction(int(w) ** 2, dim**2) for w in tensor]
            assert sum(weights) == 1
            mean_y = sum(Fraction(j, dim) * w for j, w in enumerate(weights))
            p0 = weights[0]
            if f.degree() <= 1:
                assert mean_y == 0 and p0 == 1
            else:
                assert mean_y < 1 - p0


def test_validate_bound_linear_is_always_covered():
    cum, norm = u2_sums_and_norm(linear(2, 0b10))
    assert validate_bound(cum, norm, m=20, t=0.1, trials=30, seed=5) == 1.0


def test_validate_bound_inputs():
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    with pytest.raises(ValueError):
        validate_bound(cum, norm, m=10, t=0.0, trials=5, seed=1)
    with pytest.raises(ValueError):
        validate_bound(cum, norm, m=10, t=0.1, trials=0, seed=1)


def test_validate_bound_reproducible():
    cum, norm = u2_sums_and_norm(bent_quadratic(4))
    a = validate_bound(cum, norm, m=25, t=0.05, trials=40, seed=9)
    b = validate_bound(cum, norm, m=25, t=0.05, trials=40, seed=9)
    assert a == b


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_count_equals_one_draw(offset):
    m = estimate._DRAW_CHUNK + offset
    for p0, seed in ((0.3, 4), (11 / 32, 5)):
        single = np.random.default_rng(seed).random(m)  # PCG64(SeedSequence(seed)), one call
        assert count_nonzero_outcomes(p0, m, seed) == int(np.count_nonzero(single >= p0))


def test_count_draws_at_most_one_chunk_at_a_time(monkeypatch):
    sizes = []

    class Recorder:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            sizes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(estimate, "_DRAW_CHUNK", 1000)
    cum = u2_partial_sums(bent_quadratic(2))
    draws = np.random.default_rng(7).random(3005)
    default_rng = np.random.default_rng
    monkeypatch.setattr(estimate.np.random, "default_rng", lambda seed: Recorder(default_rng(seed)))
    count = count_nonzero_outcomes(0.5, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert count == int(np.count_nonzero(draws >= 0.5))
    sizes.clear()  # y_bar's chunks too
    mean = y_bar(cum, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert mean == float(np.mean(np.searchsorted(cum, (draws * 2**12).astype(np.int64),
                                                 side="right") / 64))


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_sample_equals_one_call_lookup(monkeypatch, chunk, offset):
    # sorted lookups per chunk add up to the mean of the one-call outcomes in draw order,
    # which the float CDF of the amplitudes gives too
    f = random_function(3, 12)
    num = permuted_run(build_derivative_walk_circuit(3, 2), f)
    cum = u2_partial_sums(f)
    cdf = np.cumsum((num * 2.0**-9) ** 2)
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    for m in (chunk + offset, 3 * chunk + offset):
        draws = np.random.default_rng(77).random(m)
        thresholds = (draws * 2**18).astype(np.int64)  # floor(r * S), S = (2^9)^2
        expected = np.searchsorted(cum, thresholds, side="right")
        assert sorted_outcomes(cum, m, 77).tolist() == sorted(expected.tolist())
        assert expected.tolist() == np.searchsorted(cdf, draws, side="right").tolist()
        assert y_bar(cum, m, 77) == float(np.mean(expected / 512))


def test_y_bar_memory_does_not_grow_with_m():
    # all 10^6 outcomes as int64 alone would take 7.6 MiB
    cum = u2_partial_sums(bent_quadratic(2))
    y_bar(cum, 1, 5)  # the first generator built in a process allocates ~1 MiB once
    tracemalloc.start()
    try:
        y_bar(cum, 10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_measurement_holds_eight_bytes_per_state():
    # 8 bytes of int64 partial sums per basis state, and one block of the transform:
    # its int32 entries, their half-length scratch and numpy's cast buffers
    f = random_function(7, 70)
    dim = 1 << 21
    tracemalloc.start()
    try:
        u2_partial_sums(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * dim + 12 * errors._BLOCK_CELLS


def u2_reference_sums(f):
    return partial_sums(permuted_run(build_derivative_walk_circuit(f.n, 2), f))


def test_u2_partial_sums_equal_the_reference_state_for_every_function_at_n2():
    for bits in range(16):
        f = from_packed(2, bits)
        assert u2_partial_sums(f).tobytes() == u2_reference_sums(f).tobytes()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cells", [16, errors._BLOCK_CELLS])
def test_u2_partial_sums_equal_the_reference_state(monkeypatch, n, cells):
    # at 16 cells the derivative rows come in interleaved blocks, one a per block
    f = random_function(n, 50 + n)
    expected = u2_reference_sums(f)
    monkeypatch.setattr(errors, "_BLOCK_CELLS", cells)
    assert u2_partial_sums(f).tobytes() == expected.tobytes()


def test_u2_partial_sums_check_their_total(monkeypatch):
    monkeypatch.setattr(spectral, "fwht_inplace", lambda a: a)
    with pytest.raises(CrossCheckError, match=r"sum to 64 / 2\^12, not 1$"):
        u2_partial_sums(bent_quadratic(2))


def test_u2_partial_sums_refuse_before_any_work(monkeypatch):
    # past 3n = 24 the 2^(3n) int64 CDF is refused before the first derivative row
    def no_rows(*args):
        raise AssertionError("the derivative rows were built")

    monkeypatch.setattr(spectral, "_derivative_rows", no_rows)
    with pytest.raises(CapacityError, match=r"got 3 x 9: 2\^27 basis states > 2\^24$"):
        u2_partial_sums(random_function(9, 1))


@st.composite
def sampled_circuits(draw):
    """The u2 circuit at n <= 3 or a walk of order k <= 3 at n <= 2, with a random f."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        circuit = build_derivative_walk_circuit(n, 2)
    else:
        n = draw(st.integers(1, 2))
        circuit = build_derivative_walk_circuit(n, draw(st.integers(1, 3)))
    return circuit, random_function(n, draw(st.integers(0, 2**32 - 1)))


def fraction_sample(num, draws):
    """Inverse CDF over the Fraction partial sums of num^2 / S: the first outcome
    whose partial sum exceeds r, for each draw r."""
    weights = [int(v) ** 2 for v in num]
    total = sum(weights)
    partial = list(accumulate(Fraction(w, total) for w in weights))
    return [bisect_right(partial, Fraction(r)) for r in draws]


@settings(max_examples=80, deadline=None)
@given(sampled_circuits(), st.integers(1, 400), st.integers(0, 2**64 - 1))
def test_sample_equals_the_fraction_inverse_cdf(case, m, seed):
    circuit, f = case
    num = fold(circuit, f)  # the integer gate-by-gate fold, independent of both sums
    u2 = circuit.gates == build_derivative_walk_circuit(f.n, 2).gates
    cum = u2_partial_sums(f) if u2 else partial_sums(num)
    # the lookup is monotone in r, so sorted draws give the oracle's outcomes, sorted
    oracle = sorted(fraction_sample(num, np.random.default_rng(seed).random(m)))
    assert sorted_outcomes(cum, m, seed).tolist() == oracle
    assert y_bar(cum, m, seed) == float(Fraction(sum(oracle), cum.size * m))
    p0 = float(Fraction(int(num[0]) ** 2, int(np.sum(num.astype(np.int64) ** 2))))
    assert count_nonzero_outcomes(p0, m, seed) == sum(map(bool, oracle))


def test_draw_budget_is_refused_before_the_first_draw(monkeypatch):
    # arithmetic only: the budget is patched down, never run at its real size
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)

    class NoDraws:
        def random(self, size):
            raise AssertionError("a draw was made before the budget check")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    for call in (lambda: y_bar(cum, 1001, 1),
                 lambda: count_nonzero_outcomes(0.5, 1001, 1),
                 lambda: validate_bound(cum, norm, m=334, t=0.1, trials=3, seed=1)):
        with pytest.raises(CapacityError, match="1001 draws|1002 draws"):
            call()
