"""The exact U2 routes, the nonlinearity and `analyze` against the rank closed forms of
quadratics (tests/closed_forms.py), which use no Walsh transform."""

import json

import numpy as np
import pytest

from gowersim import cli
from gowersim.boolfn import BooleanFunction
from gowersim.gowers import u2_spectral, uk_definition
from gowersim.spectral import nonlinearity, walsh

from closed_forms import Quadratic, gf2_rank, random_quadratic


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
