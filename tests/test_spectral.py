"""Walsh spectra, nonlinearity, distances, autocorrelation as self-convolution, convolution."""

from fractions import Fraction

import numpy as np
import pytest

from gowersim.boolfn import (
    BooleanFunction,
    bent_quadratic,
    linear,
    random_function,
)
from gowersim.dyadic import DyadicRational
from gowersim import errors
from gowersim.errors import CapacityError
from gowersim.gowers import u2_spectral
from gowersim.spectral import (
    _derivative_rows,
    convolve,
    dist_to_linear,
    fwht_inplace,
    nonlinearity,
    walsh,
)

from closed_forms import gf2_rank
from gate_reference import byte_convolve

from_anf_string = BooleanFunction.from_anf_string


def brute_walsh(f):
    t, size = f.table.tolist(), 1 << f.n
    out = []
    for u in range(size):
        total = 0
        for x in range(size):
            total += (-1) ** (t[x] ^ (bin(u & x).count("1") & 1))
        out.append(total)
    return out


def test_walsh_matches_brute_force():
    rng = np.random.default_rng(314)
    for n in (1, 2, 3):
        for _ in range(8):
            f = random_function(n, int(rng.integers(0, 2**32)))
            assert list(walsh(f)) == brute_walsh(f)


def test_walsh_known_values():
    w = walsh(from_anf_string("x1*x2", 2))
    assert list(w) == [2, 2, 2, -2]
    assert w[0b11] == -2
    with pytest.raises(ValueError):  # the spectrum is a read-only value
        w[0] = 0

    assert list(walsh(linear(2, "01"))) == [0, 4, 0, 0]
    assert list(walsh(from_anf_string("1", 2))) == [-4, 0, 0, 0]


def test_parseval():
    rng = np.random.default_rng(999)
    for n in range(1, 11):
        f = random_function(n, int(rng.integers(0, 2**32)))
        w = walsh(f).astype(object)
        assert int(np.sum(w * w)) == 1 << (2 * n)


def test_fwht_self_inverse():
    rng = np.random.default_rng(55)
    for n in (1, 4, 7):
        a = rng.integers(-50, 50, size=1 << n).astype(np.int64)
        b = a.copy()
        fwht_inplace(b)
        fwht_inplace(b)
        assert np.array_equal(b, a << n)


def test_nonlinearity():
    assert nonlinearity(linear(3, "110")) == 0
    assert nonlinearity(from_anf_string("x1*x2", 2)) == 1
    assert nonlinearity(bent_quadratic(4)) == 6  # 2^(n-1) - 2^(n/2-1)
    assert nonlinearity(bent_quadratic(6)) == 28


def test_nonlinearity_is_distance_to_nearest_affine():
    # cross-check against explicit enumeration of all affine functions
    rng = np.random.default_rng(1717)
    for n in (2, 3, 4):
        f = random_function(n, int(rng.integers(0, 2**32)))
        best = 1 << n
        for u in range(1 << n):
            lin = linear(n, format(u, f"0{n}b"))
            for c in (0, 1):
                g = lin if c == 0 else BooleanFunction(n, 1 - lin.table)
                best = min(best, int(np.sum(f.table != g.table)))
        assert nonlinearity(f) == best


def test_dist_to_linear():
    eps, u = dist_to_linear(linear(3, "011"))
    assert eps == DyadicRational(0, 0)
    assert u == 0b011

    eps, u = dist_to_linear(from_anf_string("x1*x2", 2))
    assert eps == DyadicRational(1, 2)
    assert u == 0  # ties broken toward the smallest index

    # the complement of a linear function is affine but maximally far from linear
    comp = BooleanFunction(2, 1 - linear(2, "10").table)
    eps, u = dist_to_linear(comp)
    assert eps == DyadicRational(1, 1)
    assert u == 0


def test_dist_to_linear_matches_enumeration():
    rng = np.random.default_rng(2024)
    for n in (2, 3):
        for _ in range(20):
            f = random_function(n, int(rng.integers(0, 2**32)))
            dists = [int(np.sum(f.table != linear(n, format(u, f"0{n}b")).table))
                     for u in range(1 << n)]
            eps, packed = dist_to_linear(f)
            assert eps == Fraction(min(dists), 1 << n)
            assert dists[packed] == min(dists)
            assert all(dists[u] > dists[packed] for u in range(packed))


def test_autocorrelation():
    # (f * f)(a) = 2^-n convolve(f, f)[a]
    f = from_anf_string("x1*x2", 2)
    r = convolve(f, f)
    assert r[0] == 4 and r[0b11] == 0
    b = bent_quadratic(4)
    assert list(convolve(b, b)) == [16] + [0] * 15


def test_autocorrelation_brute():
    rng = np.random.default_rng(31337)
    f = random_function(3, int(rng.integers(0, 2**32)))
    t = f.table.tolist()
    r = convolve(f, f)
    for a in range(8):
        expected = Fraction(sum((-1) ** (t[x] ^ t[x ^ a]) for x in range(8)), 8)
        assert Fraction(int(r[a]), 8) == expected


def test_convolve():
    rng = np.random.default_rng(808)
    for n in (1, 2, 3, 4):
        f = random_function(n, int(rng.integers(0, 2**32)))
        g = random_function(n, int(rng.integers(0, 2**32)))
        conv = convolve(f, g)
        assert conv.dtype == np.int64 and not conv.flags.writeable
        size, ft, gt = 1 << n, f.table.tolist(), g.table.tolist()
        for a in range(size):
            expected = sum((-1) ** (ft[x] ^ gt[x ^ a]) for x in range(size))
            assert conv[a] == expected  # 2^n (f * g)(a)


@pytest.mark.parametrize("same", [False, True], ids=["f!=g", "f=g"])
@pytest.mark.parametrize("n", range(1, 13))
def test_convolve_equals_the_byte_references(n, same):
    # r(a) = 2^n - 2 * the ones of F(x) ^ G(x ^ a), summed one uint8 entry at a time, and the
    # byte-packed kernel that the words replaced; a table fills part of a word (n < 6), one
    # word (n = 6) or several, and at n = 12 the gathered words span several blocks
    assert (8 << 2 * 12 - 6) > errors._BLOCK_CELLS
    rng = np.random.default_rng(1300 + n)
    f, g = (random_function(n, int(seed)) for seed in rng.integers(0, 2**32, 2))
    g = f if same else g
    ft, gt, x = f.table, g.table, np.arange(1 << n)
    expected = [(1 << n) - 2 * int((ft ^ gt[x ^ a]).sum(dtype=np.int64)) for a in range(1 << n)]
    assert convolve(f, g).tolist() == expected == byte_convolve(f, g).tolist()


def test_convolution_theorem():
    # FWHT(2^n * (f conv g)) equals the pointwise product of the two spectra,
    # checked as an exact integer identity; from n = 7 on, the shifts a span several
    # words, and the correlation must put them back in order of a
    rng = np.random.default_rng(414)
    for n in range(1, 11):
        f = random_function(n, int(rng.integers(0, 2**32)))
        g = random_function(n, int(rng.integers(0, 2**32)))
        conv = convolve(f, g)
        assert conv.dtype == np.int64  # 2^n * (f conv g) is an integer array
        scaled = conv.astype(object)
        fwht_inplace(scaled)
        assert np.array_equal(scaled, walsh(f).astype(object) * walsh(g).astype(object))


def test_convolve_errors():
    with pytest.raises(ValueError, match="dimension mismatch: n = 2 vs 3$"):
        convolve(from_anf_string("0", 2), from_anf_string("0", 3))
    with pytest.raises(CapacityError, match=r"^the XOR correlation needs n \+ max\(0, n-6\) <= 24, "
                                            r"got n = 16: 2\^26 words > 2\^24$"):
        convolve(from_anf_string("0", 16), from_anf_string("0", 16))


def test_autocorrelation_is_self_convolution():
    # F(y) and F(y + a) disagree where the derivative D_a F = 1
    f = random_function(4, 202)
    conv = convolve(f, f)
    t, x = f.table, np.arange(16)
    for a in range(16):
        assert conv[a] == 16 - 2 * np.count_nonzero(t ^ t[x ^ a])


@pytest.mark.parametrize("n, tables", [(3, 40), (5, 3), (6, 1), (10, 1)])
def test_derivative_rows_bounded_blocks_of_every_translate(monkeypatch, n, tables):
    # 2^10 cells: several tables per block (n = 3), split rows (n = 5, 6), one-row blocks (n = 10)
    monkeypatch.setattr(errors, "_BLOCK_CELLS", 1 << 10)
    size = 1 << n
    g = np.random.default_rng(n).integers(0, 2, (tables, size), dtype=np.uint8)
    blocks = list(_derivative_rows(g))
    assert max(block.size for block in blocks) <= max(1 << 10, size)
    x = np.arange(size)
    want = np.concatenate([[t ^ t[x ^ d] for d in range(size)] for t in g])
    got = np.concatenate(blocks)

    def ordered(rows):
        return rows[np.lexsort(rows.T[::-1])]

    assert np.array_equal(ordered(got), ordered(want))
    if tables == 1:  # block `low` of c holds d = low, low + c, ...: stacking restores d's order
        assert np.array_equal(np.stack(blocks, axis=1).reshape(size, size), want)


def test_affine_invariants_at_n20():
    # for G = F o L + l, L invertible over GF(2)^20 and l linear, W_G(u) = W_F(M u ^ c)
    # up to sign with M = (L^-1)^T: U2, the nonlinearity, max |W| and eps stay
    n, rng = 20, np.random.default_rng(41)
    while True:
        columns = rng.integers(0, 1 << n, n)
        if gf2_rank([int(c) for c in columns]) == n:
            break
    x = np.arange(1 << n)
    images = np.zeros_like(x)
    for i in range(n):  # L x: the XOR of the columns at x's set bits
        images ^= ((x >> i) & 1) * columns[i]
    ell = np.bitwise_count(x & int(rng.integers(1, 1 << n))) & 1
    f = random_function(n, 42)
    g = BooleanFunction(n, f.table[images] ^ ell)
    assert u2_spectral(g).pow_value == u2_spectral(f).pow_value
    assert nonlinearity(g) == nonlinearity(f)
    assert np.abs(walsh(g)).max() == np.abs(walsh(f)).max()
    assert dist_to_linear(g)[0] == dist_to_linear(f)[0]
