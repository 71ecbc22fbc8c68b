"""Exact Gowers-norm values through every route, against brute force and
against each other.
"""

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
from gowersim import spectral
from gowersim.spectral import _derivative_rows, convolve, fwht_inplace, walsh

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

    for u in (0, 0b1, 0b101):
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
        (random_function(5, 8), lambda f: uk_via_derivatives(f, 4)),
        (random_function(8, 9), lambda f: uk_via_derivatives(f, 3)),
        (random_function(8, 10), lambda f: convolve(f, g).tolist()),
    ]
    expected = [route(f) for f, route in routes]
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", cells)
    assert [route(f) for f, route in routes] == expected


def test_u1_is_squared_bias():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        f = random_function(n, int(rng.integers(0, 2**32)))
        w0 = int(walsh(f)[0])
        assert uk_definition(f, 1).pow_value == Fraction(w0, 1 << n) ** 2


def test_route_agreement_u2():
    rng = np.random.default_rng(60)
    for f in (BooleanFunction.from_packed(2, bits) for bits in range(16)):
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
            f = BooleanFunction.from_packed(n, bits)
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


def test_derivative_route_asymmetric_to_definition_capacity():
    # the two routes trade register width differently, so their guards differ
    with pytest.raises(CapacityError):
        uk_definition(from_anf_string("0", 9), 2)  # (k+1)n = 27
    assert uk_via_derivatives(from_anf_string("0", 9), 3).pow_value == DyadicRational(1, 0)
    with pytest.raises(CapacityError):
        uk_via_derivatives(from_anf_string("0", 13), 5)  # (k-1)n = 52
    with pytest.raises(CapacityError):
        uk_via_derivatives(from_anf_string("0", 13), 3)  # (k-1)n = 26: 2^13 FWHTs of length 2^13


def test_argument_validation():
    f = from_anf_string("0", 2)
    with pytest.raises(ValueError):
        uk_definition(f, 0)
    with pytest.raises(ValueError):
        uk_via_derivatives(f, 2)
    with pytest.raises(CapacityError):
        u2_autocorrelation(from_anf_string("0", 13))


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
    ones_d1d2, ones_d = [], []
    for start in range(0, 1 << size, 4096):
        batch = tables[start : start + 4096]
        ones_d1d2 += [np.count_nonzero(rows.reshape(-1, size**3), axis=1)
                      for rows in _derivative_rows(batch, 2)]
        ones_d += [np.count_nonzero(rows.reshape(-1, size, size), axis=2)
                   for rows in _derivative_rows(batch)]
    # the U2 definition numerator over 2^(3n) is sum W^4 over 2^(4n)
    definition = (1 << 3 * n) - 2 * np.concatenate(ones_d1d2).astype(np.int64)
    assert np.array_equal(definition << n, (w**4).sum(axis=1))
    # BLR: 2^(2n) + sum_x f(x) r(x), r(a) = sum_y f(y) f(y+a), is (2^(3n) + sum W^3) / 2^n
    r = size - 2 * np.concatenate(ones_d).astype(np.int64)
    enumeration = (1 << 2 * n) + ((1 - 2 * tables.astype(np.int64)) * r).sum(axis=1)
    assert np.array_equal(enumeration << n, (1 << 3 * n) + (w**3).sum(axis=1))
