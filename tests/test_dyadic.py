import copy
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gowersim.dyadic import DyadicRational


def test_canonical_form():
    assert DyadicRational(4, 4) == DyadicRational(1, 2)
    assert DyadicRational(4, 4).num == 1
    assert DyadicRational(4, 4).log2_den == 2
    assert DyadicRational(0, 7) == DyadicRational(0, 0)
    assert DyadicRational(0, 7).log2_den == 0
    assert DyadicRational(-8, 3) == DyadicRational(-1, 0)


def test_negative_log2_den_rejected():
    with pytest.raises(ValueError, match="log2_den must be non-negative"):
        DyadicRational(1, -1)


def test_arithmetic_matches_fraction():
    rng = np.random.default_rng(20240517)
    for _ in range(300):
        a = DyadicRational(int(rng.integers(-200, 200)), int(rng.integers(0, 12)))
        b = DyadicRational(int(rng.integers(-200, 200)), int(rng.integers(0, 12)))
        fa, fb = Fraction(a.num, 1 << a.log2_den), Fraction(b.num, 1 << b.log2_den)
        assert a + b == fa + fb
        assert a - b == fa - fb
        assert a * b == fa * fb
        assert -a == -fa
        k = int(rng.integers(0, 5))
        assert a**k == fa**k


def test_comparisons_are_exact():
    assert DyadicRational(1, 2) < DyadicRational(3, 3)  # 1/4 < 3/8
    assert DyadicRational(3, 3) <= DyadicRational(3, 3)
    assert DyadicRational(11, 5) > DyadicRational(1, 2)
    assert not DyadicRational(1, 0) < DyadicRational(1, 0)
    # huge denominators must not lose precision the way floats would
    tiny = DyadicRational(1, 400)
    assert DyadicRational(0, 0) < tiny < DyadicRational(1, 399)


def test_negative_powers_are_exact():
    assert DyadicRational(1, 1) ** -1 == 2
    assert DyadicRational(3, 2) ** -2 == Fraction(16, 9)


def test_float_and_root():
    d = DyadicRational(11, 5)
    assert float(d) == 11 / 32
    assert d.root(3) == pytest.approx((11 / 32) ** 0.125, abs=1e-15)
    assert DyadicRational(1, 0).root(4) == 1.0
    with pytest.raises(ValueError):
        DyadicRational(-1, 1).root(2)


# str and JSON of each (num, log2_den), as printed before DyadicRational became a Fraction
STR_JSON_TABLE = [
    ((0, 0), "0", '{"num": 0, "log2_den": 0, "value": 0.0}'),
    ((0, 7), "0", '{"num": 0, "log2_den": 0, "value": 0.0}'),
    ((4, 4), "1/2^2", '{"num": 1, "log2_den": 2, "value": 0.25}'),
    ((3, 4), "3/2^4", '{"num": 3, "log2_den": 4, "value": 0.1875}'),
    ((-3, 4), "-3/2^4", '{"num": -3, "log2_den": 4, "value": -0.1875}'),
    ((-8, 3), "-1", '{"num": -1, "log2_den": 0, "value": -1.0}'),
    ((5, 0), "5", '{"num": 5, "log2_den": 0, "value": 5.0}'),
    ((11, 5), "11/2^5", '{"num": 11, "log2_den": 5, "value": 0.34375}'),
    ((1, 100), "1/2^100", '{"num": 1, "log2_den": 100, "value": 7.888609052210118e-31}'),
    ((2**100 - 1, 100), "1267650600228229401496703205375/2^100",
     '{"num": 1267650600228229401496703205375, "log2_den": 100, "value": 1.0}'),
    ((3 - 2**100, 100), "-1267650600228229401496703205373/2^100",
     '{"num": -1267650600228229401496703205373, "log2_den": 100, "value": -1.0}'),
    ((2**100, 3), "158456325028528675187087900672",
     '{"num": 158456325028528675187087900672, "log2_den": 0, "value": 1.5845632502852868e+29}'),
    ((2**100 + 1, 0), "1267650600228229401496703205377",
     '{"num": 1267650600228229401496703205377, "log2_den": 0, "value": 1.2676506002282294e+30}'),
]


def test_str_and_json():
    d = DyadicRational(3, 4)
    assert str(d) == "3/2^4"
    assert d.to_json_dict() == {"num": 3, "log2_den": 4, "value": 3 / 16}
    for args, text, doc in STR_JSON_TABLE:
        assert str(DyadicRational(*args)) == text, args
        assert json.dumps(DyadicRational(*args).to_json_dict()) == doc, args


@pytest.mark.parametrize("args", [(3, 4), (-3, 4), (0, 0), (5, 0), (2**100 - 1, 100)])
def test_copy_and_pickle_keep_the_value(args):
    # Fraction rebuilds copies as cls(numerator, denominator): 3/16 would come back as 3/2^16
    d = DyadicRational(*args)
    clones = [copy.copy(d), copy.deepcopy(d), copy.deepcopy([d])[0]]
    clones += [pickle.loads(pickle.dumps(d, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is DyadicRational
        assert clone == d
        assert (clone.num, clone.log2_den) == (d.num, d.log2_den)


def test_repr():
    assert repr(DyadicRational(3, 4)) == "DyadicRational(3, 4)"
    assert repr(DyadicRational(12, 4)) == "DyadicRational(3, 2)"


def test_equal_to_fraction_with_equal_hash():
    assert DyadicRational(1, 2) == Fraction(1, 4)
    rng = np.random.default_rng(20261018)
    cases = [(num, k) for num in (0, 1, -1, 2**100, -(2**100)) for k in (0, 1, 100)]
    for _ in range(300):
        num = int(rng.integers(-(2**50), 2**50)) * int(rng.integers(0, 2**50)) + int(rng.integers(-2, 3))
        cases.append((num, int(rng.integers(0, 101))))
    for num, k in cases:
        d, f = DyadicRational(num, k), Fraction(num, 2**k)
        assert d == f and hash(d) == hash(f)
        assert (d.num, 1 << d.log2_den) == (f.numerator, f.denominator)


@pytest.mark.parametrize(("make", "value", "num", "log2_den"), [
    (DyadicRational.from_float, 0.25, 1, 2),
    (DyadicRational.from_float, -3.0, -3, 0),
    (DyadicRational.from_float, 2.0**-1074, 1, 1074),  # the smallest subnormal
    (DyadicRational.from_decimal, Decimal("0.375"), 3, 3),
])
def test_from_float_and_from_decimal_are_exact(make, value, num, log2_den):
    q = make(value)
    assert type(q) is DyadicRational
    assert (q.num, q.log2_den) == (num, log2_den)
    assert q == Fraction(value)


@pytest.mark.parametrize("call", [
    lambda: DyadicRational.from_decimal(Decimal("0.1")),  # 1/10 is not dyadic
    lambda: DyadicRational.from_float(math.nan),
    lambda: DyadicRational.from_float(math.inf),
    lambda: DyadicRational.from_float(-math.inf),
    lambda: DyadicRational.from_decimal(Decimal("NaN")),
    lambda: DyadicRational.from_decimal(Decimal("Infinity")),
])
def test_from_float_and_from_decimal_refuse_what_is_not_dyadic(call):
    with pytest.raises((ValueError, OverflowError)):
        call()
