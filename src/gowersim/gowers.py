"""Exact Gowers uniformity norms by independent routes.

For k >= 1 the U_k norm of the character form f is

    ||f||_{U_k} = ( 2^(-(k+1)n) sum_{x, d1..dk} prod_{S subset [k]}
                    f(x + sum_{i in S} di) )^(2^-k),

and the routes implemented here are:

* uk_definition   -- the literal (k+1)-fold sum (any k >= 1),
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

from .boolfn import MAX_N, BooleanFunction
from .dyadic import DyadicRational
from .errors import CapacityError
from .spectral import _derivative_rows, convolve, fwht_inplace, walsh


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


def uk_definition(f: BooleanFunction, k: int) -> GowersValue:
    """Literal sum over all x, d1, ..., dk of the 2^k-fold subset product.

    Each derivative table Delta_{d1..dk} F contributes
    sum_x (-1)^(Delta_{d1..dk} F (x)) = 2^n - 2 * popcount.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if (k + 1) * f.n > MAX_N:  # 2^((k+1) n) terms
        raise CapacityError(
            f"uk_definition needs (k+1)*n <= {MAX_N}, got k = {k}, n = {f.n}: "
            f"2^{(k + 1) * f.n} terms > 2^{MAX_N}"
        )
    ones = sum(int(np.count_nonzero(rows)) for rows in _derivative_rows(f.table[None], k))
    return GowersValue(k, DyadicRational((1 << (k + 1) * f.n) - 2 * ones, (k + 1) * f.n))


def uk_via_derivatives(f: BooleanFunction, k: int) -> GowersValue:
    """2^(-(k-2)n) sum over (k-2)-tuples of ||Delta_dirs f||_{U_2}^4, exact."""
    if k < 3:
        raise ValueError("the derivative route is defined for k >= 3")
    if (k - 1) * f.n > MAX_N:  # 2^((k-2)n) FWHTs of length 2^n
        raise CapacityError(
            f"uk_via_derivatives needs (k-1)*n <= {MAX_N}, got k = {k}, n = {f.n}: "
            f"2^{(k - 1) * f.n} transform entries > 2^{MAX_N}"
        )
    # int16 butterflies are exact for n <= 14; sum W^4 <= 2^((k+2)n) <= 2^60 fits int64
    total = 0
    for rows in _derivative_rows(f.table[None], k - 2):
        w2 = np.square(fwht_inplace(1 - 2 * rows.astype(np.int16)), dtype=np.int32)
        total += int(np.einsum("ij,ij->", w2, w2, dtype=np.int64))
    return GowersValue(k, DyadicRational(total, (k + 2) * f.n))
