"""Exact dyadic rationals num / 2**log2_den.

Every normalized quantity in this library is a sum of 2**(-k*n)-scaled
integers, so dyadic rationals carry all of them without rounding.  Floats
appear only at presentation boundaries (CLI output, 2**-k-th roots).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DyadicRational:
    """num / 2**log2_den in canonical form (num odd, or num == 0 and log2_den == 0)."""

    num: int
    log2_den: int

    def __post_init__(self):
        if self.log2_den < 0:
            raise ValueError("log2_den must be non-negative")
        num, den = self.num, self.log2_den
        if num == 0:
            den = 0
        else:
            while num % 2 == 0 and den > 0:
                num //= 2
                den -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log2_den", den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: DyadicRational) -> DyadicRational:
        d = max(self.log2_den, other.log2_den)
        return DyadicRational(
            (self.num << (d - self.log2_den)) + (other.num << (d - other.log2_den)), d
        )

    def __sub__(self, other: DyadicRational) -> DyadicRational:
        return self + (-other)

    def __neg__(self) -> DyadicRational:
        return DyadicRational(-self.num, self.log2_den)

    def __mul__(self, other: DyadicRational) -> DyadicRational:
        return DyadicRational(self.num * other.num, self.log2_den + other.log2_den)

    def __pow__(self, exponent: int) -> DyadicRational:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer exponents are exact")
        return DyadicRational(self.num**exponent, self.log2_den * exponent)

    # -- comparisons (exact, via cross-multiplication by powers of two) ------

    def _cmp_key(self, other: DyadicRational) -> tuple[int, int]:
        return self.num << other.log2_den, other.num << self.log2_den

    def __lt__(self, other: DyadicRational) -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: DyadicRational) -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: DyadicRational) -> bool:
        return other < self

    def __ge__(self, other: DyadicRational) -> bool:
        return other <= self

    # -- conversion and display ----------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2_den)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def root(self, log2_degree: int) -> float:
        """Presentation-only 2**log2_degree-th root (requires a non-negative value)."""
        if self.num < 0:
            raise ValueError("root of a negative dyadic rational")
        return float(self) ** (2.0**-log2_degree)

    def __str__(self) -> str:
        if self.log2_den == 0:
            return str(self.num)
        return f"{self.num}/2^{self.log2_den}"

    def to_json_dict(self) -> dict:
        return {"num": self.num, "log2_den": self.log2_den, "value": float(self)}

