"""Exact Gowers-norm values through every route, against brute force and
against each other.
"""

import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gowersim.boolfn import (
    BooleanFunction,
    bent_quadratic,
    linear,
    random_function,
)
from gowersim.dyadic import DyadicRational
from gowersim.errors import CapacityError
from gowersim.gowers import (
    u2_autocorrelation,
    u2_spectral,
    uk_definition,
    uk_via_derivatives,
)
from gowersim import errors, gowers
from gowersim.spectral import _derivative_rows, convolve, fwht_inplace, walsh

from closed_forms import random_cubic, random_quadratic
from packed import from_packed

from_anf_string = BooleanFunction.from_anf_string


def brute_uk_pow(f, k):
    """Average of the sign product over all k-dimensional parallelepipeds."""
    size = 1 << f.n
    sign = [1 - 2 * bit for bit in f.table.tolist()]
    total = 0
    for point in product(range(size), repeat=k + 1):
        x, dirs = point[0], point[1:]
        prod = 1
        for mask in range(1 << k):
            y = x
            for j in range(k):
                if (mask >> j) & 1:
                    y ^= dirs[j]
            prod *= sign[y]
        total += prod
    return Fraction(total, size ** (k + 1))


def test_u2_known_values():
    gv = u2_spectral(from_anf_string("x1*x2", 2))
    assert gv.k == 2
    assert gv.pow_value == DyadicRational(1, 2)
    assert gv.norm == pytest.approx(2**-0.5)

    assert u2_spectral(bent_quadratic(4)).pow_value == DyadicRational(1, 4)
    assert u2_spectral(bent_quadratic(6)).pow_value == DyadicRational(1, 6)

    for u in ("000", "001", "101"):
        assert u2_spectral(linear(3, u)).pow_value == DyadicRational(1, 0)
    assert u2_spectral(from_anf_string("1", 3)).pow_value == DyadicRational(1, 0)


def test_u3_known_value():
    f = from_anf_string("x1*x2*x3", 3)
    assert uk_definition(f, 3).pow_value == DyadicRational(11, 5)
    assert uk_via_derivatives(f, 3).pow_value == DyadicRational(11, 5)
    assert uk_definition(f, 3).norm == pytest.approx((11 / 32) ** (1 / 8))


def test_uk_definition_against_brute_force():
    # brute_uk_pow evaluates F at every x + sum_S d_i: no translate, no block kernel
    rng = np.random.default_rng(12021)
    extra = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (3, 1), (3, 3), (3, 4))
    for n, k in ((2, 1), (2, 2), (2, 3), (3, 2), *extra):
        for _ in range(1 if (n, k) == (3, 4) else 4):
            f = random_function(n, int(rng.integers(0, 2**32)))
            assert uk_definition(f, k).pow_value == brute_uk_pow(f, k)


@pytest.mark.parametrize("cells", [64, 1 << 14])
def test_block_size_does_not_change_values(monkeypatch, cells):
    # small blocks force one-row blocks, split rows and several tables per block
    g = random_function(8, 11)
    routes = [
        (random_function(12, 5), lambda f: uk_definition(f, 1)),
        (random_function(12, 6), u2_autocorrelation),
        (random_function(4, 7), lambda f: uk_definition(f, 3)),
        (random_function(10, 12), lambda f: uk_definition(f, 2)),
        (random_function(14, 13), lambda f: uk_definition(f, 1)),
        (random_function(5, 8), lambda f: uk_via_derivatives(f, 4)),
        (random_function(8, 9), lambda f: uk_via_derivatives(f, 3)),
        (random_function(8, 10), lambda f: convolve(f, g).tolist()),
    ]
    expected = [route(f) for f, route in routes]
    monkeypatch.setattr(errors, "_BLOCK_CELLS", cells)
    assert [route(f) for f, route in routes] == expected


def test_u1_is_squared_bias():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 15):
        f = random_function(n, int(rng.integers(0, 2**32)))
        w0 = int(walsh(f)[0])
        assert uk_definition(f, 1).pow_value == Fraction(w0, 1 << n) ** 2


def test_route_agreement_u2():
    rng = np.random.default_rng(60)
    for f in (from_packed(2, bits) for bits in range(16)):
        assert uk_definition(f, 2).pow_value == u2_spectral(f).pow_value
        assert u2_autocorrelation(f).pow_value == u2_spectral(f).pow_value
    for n in (3, 4, 5, 6):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            spectral = u2_spectral(f).pow_value
            assert u2_autocorrelation(f).pow_value == spectral
            assert uk_definition(f, 2).pow_value == spectral


def test_route_agreement_u3_u4():
    rng = np.random.default_rng(61)
    for n in (2, 3):
        for _ in range(6):
            f = random_function(n, int(rng.integers(0, 2**32)))
            assert uk_definition(f, 3).pow_value == uk_via_derivatives(f, 3).pow_value
    for _ in range(3):
        f = random_function(2, int(rng.integers(0, 2**32)))
        assert uk_definition(f, 4).pow_value == uk_via_derivatives(f, 4).pow_value


def test_norm_one_exactly_for_affine():
    for n in (2, 3):
        for bits in range(1 << (1 << n)):
            f = from_packed(n, bits)
            is_affine = f.degree() <= 1
            assert (u2_spectral(f).pow_value == DyadicRational(1, 0)) == is_affine


def test_nonlinearity_bounds_the_norm():
    # pow_value <= ((2^n - 2 nl)/2^n)^2, exactly, via the spectral radius
    from gowersim.spectral import nonlinearity

    rng = np.random.default_rng(62)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            cap = DyadicRational(((1 << n) - 2 * nonlinearity(f)) ** 2, 2 * n)
            assert u2_spectral(f).pow_value <= cap


def test_max_walsh_coefficient_lower_bound():
    rng = np.random.default_rng(63)
    for n in (2, 3, 4):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            floor = DyadicRational(int(np.abs(walsh(f)).max()) ** 4, 4 * n)
            assert u2_spectral(f).pow_value >= floor


def test_definition_answers_past_one_byte_per_term():
    # sizes with (k+1)*n > 24 that the word guard admits, against the other routes and the
    # rank closed forms, which count no derivative entry one by one
    for n, seed in ((9, 40), (10, 41)):
        q = random_quadratic(n, seed)
        f = from_anf_string(q.anf(), n)
        assert uk_definition(f, 2).pow_value == u2_spectral(f).pow_value == q.u2_pow(), q
        f = random_function(n, seed)
        assert uk_definition(f, 2).pow_value == u2_spectral(f).pow_value
    c = random_cubic(7, 42)
    f = from_anf_string(c.anf(), 7)
    assert uk_definition(f, 3).pow_value == uk_via_derivatives(f, 3).pow_value == c.u3_pow(), c
    f = random_function(6, 43)
    assert uk_definition(f, 4).pow_value == uk_via_derivatives(f, 4).pow_value


def test_definition_guard_admits_the_words_it_xors(monkeypatch):
    # with the sum stubbed out, the admitted (k, n) past (k+1)*n <= 24 are exactly these
    monkeypatch.setattr(gowers, "_derivative_rows", lambda g, depth: iter(()))
    monkeypatch.setattr(gowers, "_pair_ones", lambda rows: 0)
    admitted = set()
    for n in range(1, 17):
        f = from_anf_string("0", n)
        for k in range(1, 26):
            try:
                uk_definition(f, k)
            except CapacityError:
                continue
            admitted.add((k, n))
    assert {(k, n) for k, n in admitted if (k + 1) * n > 24} == {
        (1, 13), (1, 14), (1, 15), (2, 9), (2, 10), (3, 7), (4, 5), (4, 6), (6, 4), (8, 3),
        (12, 2), (24, 1)}
    assert {(k, n) for k in range(1, 26) for n in range(1, 17) if (k + 1) * n <= 24} < admitted


def test_definition_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the definition started its sum")

    monkeypatch.setattr(gowers, "_derivative_rows", no_work)
    monkeypatch.setattr(gowers, "_pair_ones", no_work)
    for k, n, cost in ((2, 11, 27), (1, 16, 26), (4, 7, 29), (25, 1, 25)):
        line = (f"uk_definition needs k*n + max(0, n-6) <= 24, got k = {k}, n = {n}: "
                f"2^{cost} words > 2^24")
        with pytest.raises(CapacityError, match=f"^{re.escape(line)}$"):
            uk_definition(from_anf_string("0", n), k)


def test_derivative_route_asymmetric_to_definition_capacity():
    # the two routes trade register width differently, so their guards differ
    with pytest.raises(CapacityError):
        uk_definition(from_anf_string("0", 11), 2)  # k*n + n-6 = 27
    assert uk_via_derivatives(from_anf_string("0", 9), 3).pow_value == DyadicRational(1, 0)
    with pytest.raises(CapacityError):
        uk_via_derivatives(from_anf_string("0", 13), 5)  # (k-1)n = 52
    with pytest.raises(CapacityError):
        uk_via_derivatives(from_anf_string("0", 13), 3)  # (k-1)n = 26: 2^13 FWHTs of length 2^13


def test_derivative_route_refuses_before_any_work(monkeypatch):
    def no_rows(*args):
        raise AssertionError("the derivative rows were built")

    monkeypatch.setattr(gowers, "_derivative_rows", no_rows)
    for k, cost in ((3, 26), (5, 52)):
        with pytest.raises(CapacityError, match=rf"n = 13: 2\^{cost} transform entries > 2\^24$"):
            uk_via_derivatives(from_anf_string("0", 13), k)


def test_argument_validation():
    f = from_anf_string("0", 2)
    with pytest.raises(ValueError):
        uk_definition(f, 0)
    with pytest.raises(ValueError):
        uk_via_derivatives(f, 2)
    with pytest.raises(CapacityError, match=r"got n = 16: 2\^26 words > 2\^24$"):
        u2_autocorrelation(from_anf_string("0", 16))


def test_monotone_in_k():
    # ||f||_{U_k} <= ||f||_{U_{k+1}} for the norms themselves
    rng = np.random.default_rng(64)
    for _ in range(6):
        f = random_function(3, int(rng.integers(0, 2**32)))
        norms = [
            uk_definition(f, 1).norm,
            uk_definition(f, 2).norm,
            uk_definition(f, 3).norm,
        ]
        assert norms[0] <= norms[1] + 1e-12
        assert norms[1] <= norms[2] + 1e-12


def test_every_function_at_n4_definition_and_blr_sums_equal_the_spectrum():
    # all 65,536 tables, through the kernels of uk_definition and the BLR enumeration;
    # depth-d rows come table by table, each table's 2^(dn) rows of 2^n entries in turn
    n, size = 4, 16
    tables = ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).astype(np.uint8)
    w = fwht_inplace(1 - 2 * tables.astype(np.int64))
    ones_d1d2, ones_d, pairs = [], [], []
    for start in range(0, 1 << size, 4096):
        batch = tables[start : start + 4096]
        ones_d1d2 += [np.count_nonzero(rows.reshape(-1, size**3), axis=1)
                      for rows in _derivative_rows(batch, 2)]
        ones_d += [np.count_nonzero(rows.reshape(-1, size, size), axis=2)
                   for rows in _derivative_rows(batch)]
        # uk_definition's packed count of the last level, over the depth-1 rows of 16 tables
        pairs += [gowers._pair_ones(rows) for block in _derivative_rows(batch)
                  for rows in block.reshape(-1, 16 * size, size)]
    # the U2 definition numerator over 2^(3n) is sum W^4 over 2^(4n)
    definition = (1 << 3 * n) - 2 * np.concatenate(ones_d1d2).astype(np.int64)
    assert np.array_equal(definition << n, (w**4).sum(axis=1))
    packed = (16 << 3 * n) - 4 * np.array(pairs, dtype=np.int64)
    assert np.array_equal(packed << n, (w**4).sum(axis=1).reshape(-1, 16).sum(axis=1))
    # BLR: 2^(2n) + sum_x f(x) r(x), r(a) = sum_y f(y) f(y+a), is (2^(3n) + sum W^3) / 2^n
    r = size - 2 * np.concatenate(ones_d).astype(np.int64)
    enumeration = (1 << 2 * n) + ((1 - 2 * tables.astype(np.int64)) * r).sum(axis=1)
    assert np.array_equal(enumeration << n, (1 << 3 * n) + (w**3).sum(axis=1))
