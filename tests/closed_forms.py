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

For a cubic F each derivative D_a F is quadratic, and its alternating matrix
B(a) = sum_i a_i C_i is linear in a, where C_i has entry (j, l) for every cubic
monomial x_i x_j x_l; the quadratic and linear terms of F only add affine terms
to D_a F.  Since ||f||_{U_3}^8 is the mean over a of ||D_a f||_{U_2}^4,

    ||f||_{U_3}^8 = 2^(-n) sum_a 2^(-rank B(a))

(Gowers, "A new proof of Szemeredi's theorem", GAFA 2001, for U_3 through
first derivatives).

The `u3_appendix` circuit measures no norm.  On registers x, a, b, c its 7
oracle calls read F at x, x+a, x+a+b, x+a+b+c, x+b+c, x+c and x+b, never at
x+a+c.  With f = (-1)^F and h_{a,c}(y) = f(y) f(y+a) f(y+c) f(y+a+c), the
four calls that read b multiply to h_{a,c}(x+b), and the other three to
h_{a,c}(x) f(x+a+c).  Its final Hadamard layer sums the signs, so

    2^(4n) amp_0 = sum_{a,c} (sum_x h_{a,c}(x) f(x+a+c)) (sum_y h_{a,c}(y)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np


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


@dataclass(frozen=True)
class Cubic:
    """F = sum of x_i x_j x_l over `triples` (i < j < l, 1-based) + the quadratic `lower`."""

    triples: tuple[tuple[int, int, int], ...]
    lower: Quadratic

    @property
    def n(self) -> int:
        return self.lower.n

    def anf(self) -> str:
        terms = [f"x{i}*x{j}*x{l}" for i, j, l in self.triples]
        return " + ".join(terms + [self.lower.anf()])

    def u3_pow(self) -> Fraction:
        """||f||_{U_3}^8 from the ranks of B(a), with a in Gray-code order: one C_i per step."""
        n = self.n
        slices = [[0] * (n + 1) for _ in range(n + 1)]  # C_i: row j has bit l iff x_i x_j x_l
        for triple in self.triples:
            for i in triple:
                j, l = (v for v in triple if v != i)
                slices[i][j] |= 1 << l
                slices[i][l] |= 1 << j
        rows, total = [0] * (n + 1), 1 << n  # a = 0: B = 0, rank 0
        for g in range(1, 1 << n):
            i = (g & -g).bit_length()  # g ^ (g >> 1) differs from its predecessor in bit i - 1
            rows = [r ^ c for r, c in zip(rows, slices[i])]
            total += 1 << (n - gf2_rank(rows))
        return Fraction(total, 1 << (2 * n))


def random_cubic(n: int, seed: int) -> Cubic:
    """Each of the n(n-1)(n-2)/6 cubic monomials present with a seeded random density,
    plus `random_quadratic(n, seed)`."""
    rng = random.Random(seed)
    density = rng.random()
    triples = tuple(t for t in combinations(range(1, n + 1), 3) if rng.random() < density)
    return Cubic(triples, random_quadratic(n, seed))


def u3_appendix_amplitude(table: np.ndarray) -> Fraction:
    """amp_0 of the `u3_appendix` circuit on the 0/1 table of F, from its cosets grouped by b."""
    f = 1 - 2 * np.asarray(table, dtype=np.int64)
    x = np.arange(f.size)
    a, c, y = x[:, None, None], x[None, :, None], x[None, None, :]  # 2^(3n) triples
    h = f[y] * f[y ^ a] * f[y ^ c] * f[y ^ a ^ c]
    total = int(((h * f[y ^ a ^ c]).sum(axis=2) * h.sum(axis=2)).sum())
    return Fraction(total, f.size**4)
