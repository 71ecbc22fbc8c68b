"""Measurement sampling and the Hoeffding-style norm estimator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gowersim import estimate
from gowersim.boolfn import BooleanFunction, bent_quadratic, linear, random_function
from gowersim.estimate import (
    Measurement,
    SampleSet,
    child_seed,
    count_nonzero_outcomes,
    hoeffding_bound,
    validate_bound,
)
from gowersim.gowers import u2_spectral
from gowersim.qsim import RegisterLayout, StateVector, build_u2_circuit, run
from gowersim.spectral import fwht_inplace

from gate_reference import uniform_state

from_anf_string = BooleanFunction.from_anf_string


def u2_measurement_and_norm(f):
    """Measurements of the norm circuit's final state and the exact U2 norm they bound."""
    return Measurement(run(build_u2_circuit(f.n), f)), u2_spectral(f).norm


def point_mass(layout, index):
    amp = np.zeros(layout.dim)
    amp[index] = 1.0
    return StateVector(layout, amp)


def test_sample_y_convention():
    # measured register contents (01, 10, 11) at n = 2 pack to index 27 of 64
    lay = RegisterLayout(2, 3)
    idx = lay.index((0b01, 0b10, 0b11))
    assert idx == 27
    samples = Measurement(point_mass(lay, idx)).sample(10, 1)
    assert np.all(samples.outcomes == 27)
    assert np.all(samples.y_values == 27 / 64)
    assert samples.m_samples == 10

    zeros = Measurement(point_mass(lay, 0)).sample(5, 1)
    assert np.all(zeros.y_values == 0.0)


def test_sample_matches_distribution():
    # frequency of the zero outcome for AND must track p0 = 1/16
    f = from_anf_string("x1*x2", 2)
    state = run(build_u2_circuit(2), f)
    m = 100_000
    samples = Measurement(state).sample(m, 2718)
    freq = np.count_nonzero(samples.outcomes == 0) / m
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / m)
    assert abs(freq - p) <= 4 * sigma


def test_sample_is_deterministic():
    state = run(build_u2_circuit(2), bent_quadratic(2))
    a = Measurement(state).sample(1000, 42)
    b = Measurement(state).sample(1000, 42)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = Measurement(state).sample(1000, 43)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_sample_rejects_unnormalized_state():
    lay = RegisterLayout(1, 3)
    bad = StateVector(lay, np.full(lay.dim, 0.25))
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
    ys = np.full(10, 0.9)
    ss = SampleSet(n=2, m_samples=10, outcomes=np.zeros(10, dtype=np.int64), y_values=ys, seed=None)
    report = hoeffding_bound(ss, 0.05)
    assert report.y_bar == pytest.approx(0.9)
    assert report.upper_bound == pytest.approx(0.15**0.125)
    assert report.upper_bound == pytest.approx(0.789, abs=5e-4)

    report50 = hoeffding_bound(
        SampleSet(n=2, m_samples=50, outcomes=np.zeros(50, dtype=np.int64),
                  y_values=np.zeros(50), seed=None),
        0.2,
    )
    assert report50.confidence_paper == pytest.approx(1 - math.exp(-200))
    assert report50.confidence_standard == pytest.approx(1 - math.exp(-4))
    # ybar = 0 makes the raw bound exceed 1, so it clips
    assert report50.upper_bound == 1.0


def test_hoeffding_bound_monotone_in_t():
    ss = SampleSet(n=2, m_samples=4, outcomes=np.zeros(4, dtype=np.int64),
                   y_values=np.full(4, 0.7), seed=None)
    bounds = [hoeffding_bound(ss, t).upper_bound for t in (0.01, 0.1, 0.2, 0.301)]
    assert bounds == sorted(bounds)
    with pytest.raises(ValueError):
        hoeffding_bound(ss, 0.0)
    with pytest.raises(ValueError):
        hoeffding_bound(ss, -0.1)


def test_bounds_reject_non_finite_t():
    # t = inf would print "t": Infinity, which is not JSON
    ss = SampleSet(n=2, m_samples=4, outcomes=np.zeros(4, dtype=np.int64),
                   y_values=np.full(4, 0.7), seed=None)
    measurement, norm = u2_measurement_and_norm(bent_quadratic(2))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hoeffding_bound(ss, t)
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
    monkeypatch.setattr(estimate, "_generator", lambda seed: Recorder(np.random.default_rng(seed)))
    count = count_nonzero_outcomes(0.5, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert count == int(np.count_nonzero(np.random.default_rng(7).random(3005) >= 0.5))


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_sample_equals_one_call_lookup(monkeypatch, chunk, offset):
    # sorted lookups per chunk, scattered back, give the one-call outcomes
    amp = np.random.default_rng(12).normal(size=1 << 9)
    measurement = Measurement(StateVector(RegisterLayout(3, 3), amp / np.linalg.norm(amp)))
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    for m in (chunk + offset, 3 * chunk + offset):
        samples = measurement.sample(m, 77)
        draws = np.random.default_rng(77).random(m)
        expected = np.searchsorted(measurement.cum, draws, side="right")
        assert samples.outcomes.tolist() == expected.tolist()
        assert samples.y_values.tolist() == (expected / 512).tolist()
