"""Measurement sampling and the Hoeffding-style norm estimator."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gowersim import estimate
from gowersim.boolfn import BooleanFunction, bent_quadratic, linear, random_function
from gowersim.errors import CapacityError
from gowersim.estimate import (
    Measurement,
    child_seed,
    count_nonzero_outcomes,
    hoeffding_bound,
    validate_bound,
)
from gowersim.gowers import u2_spectral
from gowersim.qsim import RegisterLayout, build_u2_circuit, run
from gowersim.spectral import fwht_inplace

from gate_reference import uniform_state

from_anf_string = BooleanFunction.from_anf_string


def u2_measurement_and_norm(f):
    """Measurements of the norm circuit's final state and the exact U2 norm they bound."""
    return Measurement(run(build_u2_circuit(f.n), f)), u2_spectral(f).norm


def point_mass(layout, index):
    amp = np.zeros(layout.dim)
    amp[index] = 1.0
    return amp


def test_sample_y_convention():
    # measured register contents (01, 10, 11) at n = 2 pack to index 27 of 64
    lay = RegisterLayout(2, 3)
    idx = lay.index((0b01, 0b10, 0b11))
    assert idx == 27
    outcomes = Measurement(point_mass(lay, idx)).sample(10, 1)
    assert np.all(outcomes == 27)
    assert np.all(outcomes / lay.dim == 27 / 64)
    assert outcomes.size == 10

    zeros = Measurement(point_mass(lay, 0)).sample(5, 1)
    assert np.all(zeros / lay.dim == 0.0)


def test_sample_matches_distribution():
    # frequency of the zero outcome for AND must track p0 = 1/16
    f = from_anf_string("x1*x2", 2)
    amp = run(build_u2_circuit(2), f)
    m = 100_000
    outcomes = Measurement(amp).sample(m, 2718)
    freq = np.count_nonzero(outcomes == 0) / m
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / m)
    assert abs(freq - p) <= 4 * sigma


def test_sample_is_deterministic():
    amp = run(build_u2_circuit(2), bent_quadratic(2))
    a = Measurement(amp).sample(1000, 42)
    b = Measurement(amp).sample(1000, 42)
    assert np.array_equal(a, b)
    c = Measurement(amp).sample(1000, 43)
    assert not np.array_equal(a, c)


def test_sample_rejects_unnormalized_state():
    lay = RegisterLayout(1, 3)
    bad = np.full(lay.dim, 0.25)
    with pytest.raises(ValueError):
        Measurement(bad).sample(10, 0)
    with pytest.raises(ValueError):
        Measurement(uniform_state(lay)).sample(0, 0)


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
    measurement, norm = u2_measurement_and_norm(bent_quadratic(2))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hoeffding_bound(0.7, 4, t)
        with pytest.raises(ValueError, match="finite"):
            validate_bound(measurement, norm, m=10, t=t, trials=5, seed=1)


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
    measurement, norm = u2_measurement_and_norm(linear(2, 0b10))
    assert validate_bound(measurement, norm, m=20, t=0.1, trials=30, seed=5) == 1.0


def test_validate_bound_inputs():
    measurement, norm = u2_measurement_and_norm(bent_quadratic(2))
    with pytest.raises(ValueError):
        validate_bound(measurement, norm, m=10, t=0.0, trials=5, seed=1)
    with pytest.raises(ValueError):
        validate_bound(measurement, norm, m=10, t=0.1, trials=0, seed=1)


def test_validate_bound_reproducible():
    measurement, norm = u2_measurement_and_norm(bent_quadratic(4))
    a = validate_bound(measurement, norm, m=25, t=0.05, trials=40, seed=9)
    b = validate_bound(measurement, norm, m=25, t=0.05, trials=40, seed=9)
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
    default_rng = np.random.default_rng
    monkeypatch.setattr(estimate.np.random, "default_rng", lambda seed: Recorder(default_rng(seed)))
    count = count_nonzero_outcomes(0.5, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert count == int(np.count_nonzero(np.random.default_rng(7).random(3005) >= 0.5))


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_sample_equals_one_call_lookup(monkeypatch, chunk, offset):
    # sorted lookups per chunk, scattered back, give the one-call outcomes
    amp = np.random.default_rng(12).normal(size=1 << 9)
    measurement = Measurement(amp / np.linalg.norm(amp))
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    for m in (chunk + offset, 3 * chunk + offset):
        outcomes = measurement.sample(m, 77)
        draws = np.random.default_rng(77).random(m)
        expected = np.searchsorted(measurement.cum, draws, side="right")
        assert outcomes.tolist() == expected.tolist()
        assert (outcomes / 512).tolist() == (expected / 512).tolist()
        assert measurement.y_bar(m, 77) == float(np.mean(expected / 512))


def test_y_bar_memory_does_not_grow_with_m():
    # all 10^6 outcomes as int64 alone would take 7.6 MiB
    measurement = Measurement(run(build_u2_circuit(2), bent_quadratic(2)))
    measurement.y_bar(1, 5)  # the first generator built in a process allocates ~1 MiB once
    tracemalloc.start()
    try:
        measurement.y_bar(10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_draw_budget_is_refused_before_the_first_draw(monkeypatch):
    # arithmetic only: the budget is patched down, never run at its real size
    measurement, norm = u2_measurement_and_norm(bent_quadratic(2))
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)

    class NoDraws:
        def random(self, size):
            raise AssertionError("a draw was made before the budget check")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    for call in (lambda: measurement.sample(1001, 1),
                 lambda: measurement.y_bar(1001, 1),
                 lambda: count_nonzero_outcomes(0.5, 1001, 1),
                 lambda: validate_bound(measurement, norm, m=334, t=0.1, trials=3, seed=1)):
        with pytest.raises(CapacityError, match="1001 draws|1002 draws"):
            call()
