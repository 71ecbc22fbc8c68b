"""Property tests: the exact routes agree on randomly generated functions, and
the table conversions (hex, Mobius, ANF) invert each other.

Every comparison is integer (dyadic) equality, never a float tolerance.
"""


from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gowersim.boolfn import Anf, BooleanFunction, _mobius
from gowersim.dyadic import DyadicRational
from gowersim.gowers import u2_autocorrelation, u2_spectral, uk_definition, uk_via_derivatives
from gowersim.lintest import blr_exact_dyadic
from gowersim.spectral import convolve

from gate_reference import definition_ones
from packed import from_packed


def functions(max_n: int, min_n: int = 1, build=from_packed):
    """Any packed truth table with min_n <= n <= max_n (shrinks towards F = 0);
    `build` (n, bits) may read the bits as something else, e.g. ANF coefficients."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, (1 << (1 << n)) - 1))
    )


@settings(max_examples=60, deadline=None)
@given(functions(8))
def test_u2_routes_agree(f):
    spectral = u2_spectral(f).pow_value
    assert u2_autocorrelation(f).pow_value == spectral
    assert uk_definition(f, 2).pow_value == spectral


def definition_cases():
    """(k, f) for k = 1..5 at every n with (k+1)*n <= 24, the uint8 oracle's reach; n = 5, 6
    and 7 straddle the 64-entry word, so each k draws them on their own as well."""
    def sizes(k):
        edge = [n for n in (5, 6, 7) if (k + 1) * n <= 24]
        every = st.integers(1, 24 // (k + 1))
        return st.one_of(st.sampled_from(edge), every) if edge else every

    return st.integers(1, 5).flatmap(
        lambda k: st.tuples(st.just(k), sizes(k).flatmap(lambda n: functions(n, n))))


@settings(max_examples=40, deadline=None)
@given(definition_cases())
@example((1, from_packed(7, 3 << 100)))
@example((2, from_packed(6, 0xF0F0_3C3C_5A5A_9696)))
@example((3, from_packed(5, 0x8000_0001)))
def test_uk_definition_equals_the_byte_count(case):
    k, f = case
    ones, log2 = definition_ones(f, k), (k + 1) * f.n
    assert uk_definition(f, k).pow_value == DyadicRational((1 << log2) - 2 * ones, log2)


# past (k+1)*n <= 24 at k = 3, n = 7 and k = 4, n = 6: the definition's guard counts words
@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(st.just(3), functions(7)), st.tuples(st.just(4), functions(4)),
                 st.tuples(st.just(4), functions(6, 6))))
def test_uk_definition_equals_derivative_route(case):
    k, f = case
    assert uk_definition(f, k).pow_value == uk_via_derivatives(f, k).pow_value


@settings(max_examples=60, deadline=None)
@given(functions(6))
def test_blr_spectral_equals_enumeration(f):
    # the accepted pairs (x, y), counted from the XOR correlation r(x) = sum_y f(y) f(x+y)
    s = int(np.dot(f.sign_table(), convolve(f, f)))
    assert blr_exact_dyadic(f) == Fraction((1 << (2 * f.n)) + s, 1 << (2 * f.n + 1))


@settings(max_examples=40, deadline=None)
@given(functions(6).flatmap(lambda f: st.tuples(st.just(f), functions(f.n, f.n))))
def test_convolve_matches_brute_force(fg):
    f, g = fg
    size, ft, gt = 1 << f.n, f.table.tolist(), g.table.tolist()
    conv = convolve(f, g)
    for a in range(size):
        total = sum(1 - 2 * (ft[y] ^ gt[y ^ a]) for y in range(size))
        assert conv[a] == total  # 2^n (f * g)(a)


@settings(max_examples=60, deadline=None)
@given(functions(10))
def test_hex_round_trip(f):
    text = f.to_hex()
    assert np.array_equal(BooleanFunction.from_hex(f.n, text).table, f.table)
    assert np.array_equal(BooleanFunction.from_hex(f.n, text.upper()).table, f.table)


@settings(max_examples=60, deadline=None)
@given(functions(10))
def test_mobius_is_an_involution(f):
    once = _mobius(f.table)
    assert once.dtype == np.uint8 and np.array_equal(once, f.to_anf().coeffs)
    assert np.array_equal(_mobius(once), f.table)


@settings(max_examples=60, deadline=None)
@given(functions(6, build=lambda n, bits: (n, bits)))
def test_anf_evaluates_pointwise(case):
    # F(x) = XOR of lambda_u (bit u of the packed coefficients) over the u with u & x == u
    n, bits = case
    table = _mobius(from_packed(n, bits).table)
    for x in range(1 << n):
        expected = 0
        for u in range(1 << n):
            if u & x == u:
                expected ^= bits >> u & 1
        assert table[x] == expected


@settings(max_examples=60, deadline=None)
@given(functions(10, build=lambda n, bits: Anf(n, from_packed(n, bits).table)))
def test_anf_round_trip(anf):
    # the function whose table is the Moebius transform of the coefficients has this ANF
    f = BooleanFunction(anf.n, _mobius(anf.coeffs))
    assert np.array_equal(f.to_anf().coeffs, anf.coeffs)
