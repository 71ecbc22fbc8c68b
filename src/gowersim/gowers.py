"""Exact Gowers uniformity norms by independent routes.

For k >= 1 the U_k norm of the character form f is

    ||f||_{U_k} = ( 2^(-(k+1)n) sum_{x, d1..dk} prod_{S subset [k]}
                    f(x + sum_{i in S} di) )^(2^-k),

and the routes implemented here are:

* uk_definition   -- the literal (k+1)-fold sum (any k >= 1), 64 terms per word,
* u2_spectral     -- sum_u fhat(u)^4 for k = 2,
* u2_autocorrelation -- 2^-n sum_a (f*f)(a)^2 for k = 2,
* uk_via_derivatives -- 2^(-(k-2)n) sum over (k-2)-tuples of directions of
  ||Delta_dirs f||_{U_2}^4, for k >= 3.

All routes return the same exact dyadic rational pow_value = ||f||^(2^k);
the 2^-k-th root is floating point, for display only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction
from .dyadic import DyadicRational
from .errors import MAX_N, check_capacity
from .spectral import _derivative_rows, convolve, fwht_inplace, walsh

# bit p of a word swaps with bit p ^ 2^j, for the positions p with bit j clear
_SWAP_MASKS = [np.uint64(m) for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                                      0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)]


@dataclass(frozen=True)
class GowersValue:
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
    """pow_value = 2^-n sum_a (f*f)(a)^2, from the blocked XOR correlation."""
    r = convolve(f, f)
    return GowersValue(2, DyadicRational(int(np.dot(r, r)), 3 * f.n))


def _pair_ones(rows: np.ndarray) -> int:
    """Count, over the 0/1 rows R of 2^n entries and all e, the x with e's top bit clear and
    R(x) != R(x ^ e): each pair {x, x ^ e} once.  Rows pack 64 entries per word (rows with n < 6
    share one); e's low six bits swap bit runs inside words, the rest pair words a < b.
    """
    n = rows.shape[1].bit_length() - 1
    packed = np.packbits(rows, bitorder="little")
    w = np.pad(packed, (0, -packed.size % 8)).view("<u8").reshape(-1, max(1, rows.shape[1] >> 6))
    t = np.empty((w.shape[1], 1 << min(n, 6), w.shape[0]), np.uint64)  # t[b, e]: word b, bits ^ e
    x = np.empty_like(t)
    t[:, 0] = w.T
    w, pairs = t[:, :1], 0
    for j, m in enumerate(_SWAP_MASKS[: min(n, 6)]):  # out= t, x: a new array faults its pages in
        lo, hi, xs = t[:, : 1 << j], t[:, 1 << j : 2 << j], x[:, : 1 << j]
        np.bitwise_and(np.right_shift(lo, 1 << j, out=hi), m, out=hi)
        np.bitwise_or(hi, np.left_shift(np.bitwise_and(lo, m, out=xs), 1 << j, out=xs), out=hi)
        np.bitwise_and(np.bitwise_xor(hi, w, out=xs), m, out=xs)  # e's top bit is j
        pairs += int(np.bitwise_count(xs, out=xs).sum())
    for a in range(len(t) - 1):
        d = np.bitwise_xor(t[a + 1 :], t[a, 0], out=x[a + 1 :])
        pairs += int(np.bitwise_count(d, out=d).sum())
    return pairs


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
