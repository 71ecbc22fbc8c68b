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
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


def test_arithmetic_matches_fraction():
    rng = np.random.default_rng(20240517)
    for _ in range(300):
        a = DyadicRational(int(rng.integers(-200, 200)), int(rng.integers(0, 12)))
        b = DyadicRational(int(rng.integers(-200, 200)), int(rng.integers(0, 12)))
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (-a).as_fraction() == -fa
        k = int(rng.integers(0, 5))
        assert (a**k).as_fraction() == fa**k


def test_comparisons_are_exact():
    assert DyadicRational(1, 2) < DyadicRational(3, 3)  # 1/4 < 3/8
    assert DyadicRational(3, 3) <= DyadicRational(3, 3)
    assert DyadicRational(11, 5) > DyadicRational(1, 2)
    assert not DyadicRational(1, 0) < DyadicRational(1, 0)
    # huge denominators must not lose precision the way floats would
    tiny = DyadicRational(1, 400)
    assert DyadicRational(0, 0) < tiny < DyadicRational(1, 399)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        DyadicRational(1, 1) ** -1


def test_float_and_root():
    d = DyadicRational(11, 5)
    assert float(d) == 11 / 32
    assert d.root(3) == pytest.approx((11 / 32) ** 0.125, abs=1e-15)
    assert DyadicRational(1, 0).root(4) == 1.0
    with pytest.raises(ValueError):
        DyadicRational(-1, 1).root(2)


def test_str_and_json():
    d = DyadicRational(3, 4)
    assert str(d) == "3/2^4"
    assert d.to_json_dict() == {"num": 3, "log2_den": 4, "value": 3 / 16}

