"""Closed-form spectral values of quadratic Boolean functions, from one GF(2) rank.

For F(x) = sum_{i<j} b_ij x_i x_j + (linear and constant terms), let B be the
alternating GF(2) matrix of the degree-2 monomials (B_ij = B_ji = b_ij, zero
diagonal).  Its rank r = 2h is even, and by Dickson's theorem |W(u)| is
2^(n-h) on 2^(2h) points u and 0 elsewhere; the linear and constant terms only
move and sign those values.  Hence

    ||f||_{U_2}^4 = sum_u W(u)^4 / 2^(4n) = 2^(-r),
    max_u |W(u)|  = 2^(n-h),
    nonlinearity  = 2^(n-1) - 2^(n-1-h)

(MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 15).  None
of these uses a Walsh transform, so they check the library's routes
independently, also at sizes where only the spectral route runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of the matrix whose rows are the bits of `rows`."""
    rank, rows = 0, [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


@dataclass(frozen=True)
class Quadratic:
    """F = sum of x_i x_j over `pairs` + sum of x_i over `linear` + `constant`; 1-based i."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    linear: tuple[int, ...]
    constant: int

    def anf(self) -> str:
        terms = [f"x{i}*x{j}" for i, j in self.pairs] + [f"x{i}" for i in self.linear]
        return " + ".join(terms + ["1"] * self.constant) or "0"

    def rank(self) -> int:
        """Rank of the alternating matrix B; row i has bit j set iff x_i x_j is a term."""
        rows = [0] * (self.n + 1)
        for i, j in self.pairs:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return gf2_rank(rows)

    def u2_pow(self) -> Fraction:
        return Fraction(1, 1 << self.rank())

    def max_abs_walsh(self) -> int:
        return 1 << (self.n - self.rank() // 2)

    def nonlinearity(self) -> int:
        h = self.rank() // 2  # n - 1 - h >= 0, since 2h <= n
        return (1 << (self.n - 1)) - (1 << (self.n - 1 - h))


def random_quadratic(n: int, seed: int) -> Quadratic:
    """Each of the n(n-1)/2 quadratic and n linear monomials present with a seeded
    random density, and a random constant."""
    rng = random.Random(seed)
    density = rng.random()
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  if rng.random() < density)
    linear = tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
    return Quadratic(n, pairs, linear, rng.randrange(2))
