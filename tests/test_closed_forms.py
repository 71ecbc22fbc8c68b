"""The exact U2 routes, the nonlinearity and `analyze` against the rank closed forms of
quadratics, the U3 routes against the rank closed form of cubics, and the simulated
`u3_appendix` amplitude against its coset sum (tests/closed_forms.py), which use no Walsh
transform and no circuit."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gowersim import cli
from gowersim.boolfn import BooleanFunction
from gowersim.gowers import u2_spectral, uk_definition, uk_via_derivatives
from gowersim.qsim import build_appendix_u3_circuit, zero_amplitude
from gowersim.spectral import nonlinearity, walsh

from closed_forms import (Cubic, Quadratic, gf2_rank, random_cubic, random_quadratic,
                          u3_appendix_amplitude)


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([0b011, 0b101, 0b110]) == 2  # the rows sum to zero
    assert gf2_rank([1 << i for i in range(20)]) == 20


def test_bent_and_affine_closed_forms():
    bent = Quadratic(6, ((1, 2), (3, 4), (5, 6)), (), 0)
    assert (bent.rank(), bent.max_abs_walsh(), bent.nonlinearity()) == (6, 8, 28)
    affine = Quadratic(4, (), (1, 3), 1)
    assert (affine.rank(), affine.u2_pow(), affine.nonlinearity()) == (0, 1, 0)


def quadratics(sizes, per_size, seed):
    return [random_quadratic(n, seed + 100 * n + i) for n in sizes for i in range(per_size)]


def test_rank_matches_the_definition():
    for q in quadratics(range(1, 6), 8, 1):
        f = BooleanFunction.from_anf_string(q.anf(), q.n)
        assert uk_definition(f, 2).pow_value == q.u2_pow(), q


def test_rank_matches_the_spectrum():
    for q in quadratics(range(2, 9), 10, 2):
        f = BooleanFunction.from_anf_string(q.anf(), q.n)
        assert u2_spectral(f).pow_value == q.u2_pow(), q
        assert nonlinearity(f) == q.nonlinearity(), q
        assert int(np.abs(walsh(f)).max()) == q.max_abs_walsh(), q


@pytest.mark.parametrize("seed", [20, 21])
def test_analyze_at_n20_matches_the_rank(capsys, seed):
    # at n = 20 only the spectral route is in capacity: this is its second check
    q = random_quadratic(20, seed)
    assert cli.main(["analyze", "--anf", q.anf(), "-n", "20", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    u2 = doc["u2"]["pow"]
    assert (u2["num"], 1 << u2["log2_den"]) == (1, q.u2_pow().denominator)
    assert doc["nonlinearity"] == q.nonlinearity()
    assert doc["walsh"]["max_abs"] == q.max_abs_walsh()


def test_cubic_closed_form_of_one_monomial():
    # B(a) has rank 2 for every a != 0: (2^3 + 7 * 2^1) / 2^6
    cubic = Cubic(((1, 2, 3),), Quadratic(3, (), (), 0))
    assert cubic.u3_pow() == Fraction(11, 32)
    assert Cubic((), random_quadratic(5, 1)).u3_pow() == 1


def cubics(sizes, per_size, seed):
    return [random_cubic(n, seed + 100 * n + i) for n in sizes for i in range(per_size)]


def test_cubic_rank_matches_the_definition():
    for c in cubics(range(3, 6), 6, 3):
        f = BooleanFunction.from_anf_string(c.anf(), c.n)
        assert uk_definition(f, 3).pow_value == c.u3_pow(), c


def test_cubic_rank_matches_the_derivative_route():
    # n = 12 is the largest the derivative route's guard admits for k = 3
    for c in cubics(range(3, 9), 6, 4) + cubics((10,), 2, 4) + cubics((12,), 1, 4):
        f = BooleanFunction.from_anf_string(c.anf(), c.n)
        assert uk_via_derivatives(f, 3).pow_value == c.u3_pow(), c


def test_u3_appendix_coset_sum_of_constant_and_linear_functions():
    # h = 1 for an affine f, so amp_0 is the mean of f
    assert u3_appendix_amplitude(np.zeros(8, np.uint8)) == 1
    assert u3_appendix_amplitude(np.ones(8, np.uint8)) == -1
    assert u3_appendix_amplitude(np.array([0, 0, 0, 0, 1, 1, 1, 1], np.uint8)) == 0  # x1


@pytest.mark.parametrize("n", range(1, 7))
def test_u3_appendix_amplitude_matches_the_coset_sum(n):
    # n = 6 is the 24-qubit edge of the 4-register layout
    rng = np.random.default_rng(29 + n)
    for _ in range(3):
        f = BooleanFunction(n, rng.integers(0, 2, 1 << n, dtype=np.uint8))
        want = u3_appendix_amplitude(f.table)
        assert Fraction(zero_amplitude(build_appendix_u3_circuit(n), f)) == want
