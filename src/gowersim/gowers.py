"""Exact Gowers uniformity norms by independent routes.

For k >= 1 the U_k norm of the character form f is

    ||f||_{U_k} = ( 2^(-(k+1)n) sum_{x, d1..dk} prod_{S subset [k]}
                    f(x + sum_{i in S} di) )^(2^-k),

and the routes implemented here are:

* uk_definition   -- the literal (k+1)-fold sum (any k >= 1), 64 terms per word XOR,
* u2_spectral     -- sum_u fhat(u)^4 for k = 2,
* u2_autocorrelation -- 2^-n sum_a (f*f)(a)^2 for k = 2, 64 terms per word XOR too,
* uk_via_derivatives -- 2^(-(k-2)n) sum over (k-2)-tuples of directions of
  ||Delta_dirs f||_{U_2}^4, for k >= 3.

All routes return a NamedTuple `GowersValue(k, pow_value)`, the same exact dyadic
pow_value = ||f||^(2^k); its 2^-k-th root `.norm` is floating point, for display only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .boolfn import BooleanFunction
from .dyadic import DyadicRational
from .errors import MAX_N, check_capacity
from .spectral import _derivative_rows, _word_translates, convolve, fwht_inplace, walsh


class GowersValue(NamedTuple):
    """k-th Gowers norm carrier: pow_value = ||f||_{U_k}^(2^k), exact."""

    k: int
    pow_value: DyadicRational

    @property
    def norm(self) -> float:
        return self.pow_value.root(self.k)


def _power_sum(w: np.ndarray, p: int) -> int:
    """Exact sum of W(u)^p (Python integers; safe for any n <= 24)."""
    values, counts = np.unique(w, return_counts=True)
    return sum(int(v) ** p * int(c) for v, c in zip(values, counts))


def u2_spectral(f: BooleanFunction) -> GowersValue:
    """pow_value = sum_u W(u)^4 / 2^(4n)."""
    total = _power_sum(walsh(f), 4)
    return GowersValue(2, DyadicRational(total, 4 * f.n))


def u2_autocorrelation(f: BooleanFunction) -> GowersValue:
    """pow_value = 2^-n sum_a (f*f)(a)^2, from `convolve`, the XOR correlation of packed words."""
    r = convolve(f, f)
    return GowersValue(2, DyadicRational(int(np.dot(r, r)), 3 * f.n))


def _pair_ones(rows: np.ndarray) -> int:
    """Count, over the 0/1 rows R of 2^n entries and all e, the x with e's top bit clear and
    R(x) != R(x ^ e): each pair {x, x ^ e} once.  Of the words of `_word_translates`, words a < b
    pair once (e >= 64), and the translates of one word meet each pair twice (e < 64).  The XORs
    run in place: XORing word a into the words after it leaves each of them XOR one constant,
    which cancels in every later XOR of two of its translates."""
    t, pairs = _word_translates(rows), 0  # t[b, e]: word b, bits ^ e
    for a in range(len(t) - 1):
        pairs += int(np.bitwise_count(np.bitwise_xor(t[a + 1 :], t[a, 0], out=t[a + 1 :])).sum())
    d = np.bitwise_xor(t[:, 1:], t[:, :1], out=t[:, 1:])
    return pairs + int(np.bitwise_count(d).sum()) // 2


def uk_definition(f: BooleanFunction, k: int) -> GowersValue:
    """Literal sum over all x, d1, ..., dk of the 2^k-fold subset product.

    Each derivative table Delta_{d1..dk} F contributes
    sum_x (-1)^(Delta_{d1..dk} F (x)) = 2^n - 2 * popcount, the last derivative
    counted 64 entries per XOR of words.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    check_capacity(f"uk_definition needs k*n + max(0, n-6) <= {MAX_N}, got k = {k}, n = {f.n}",
                   k * f.n + max(0, f.n - 6), "words")
    blocks = [f.table[None]] if k == 1 else _derivative_rows(f.table[None], k - 1)
    pairs = sum(_pair_ones(rows) for rows in blocks)  # half the popcount
    return GowersValue(k, DyadicRational((1 << (k + 1) * f.n) - 4 * pairs, (k + 1) * f.n))


def uk_via_derivatives(f: BooleanFunction, k: int) -> GowersValue:
    """2^(-(k-2)n) sum over (k-2)-tuples of ||Delta_dirs f||_{U_2}^4, exact."""
    if k < 3:
        raise ValueError("the derivative route is defined for k >= 3")
    check_capacity(f"uk_via_derivatives needs (k-1)*n <= {MAX_N}, got k = {k}, n = {f.n}",
                   (k - 1) * f.n, "transform entries")  # 2^((k-2)n) FWHTs of length 2^n
    # int16 butterflies are exact for n <= 14; sum W^4 <= 2^((k+2)n) <= 2^60 fits int64
    total = 0
    for rows in _derivative_rows(f.table[None], k - 2):
        w2 = np.square(fwht_inplace(1 - 2 * rows.astype(np.int16)), dtype=np.int32)
        total += int(np.einsum("ij,ij->", w2, w2, dtype=np.int64))
    return GowersValue(k, DyadicRational(total, (k + 2) * f.n))
