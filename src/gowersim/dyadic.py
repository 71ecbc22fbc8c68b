"""Exact dyadic rationals num / 2**log2_den.

Every normalized quantity in this library is a sum of 2**(-k*n)-scaled
integers, so dyadic rationals carry all of them without rounding.  Floats
appear only at presentation boundaries (CLI output, 2**-k-th roots).

A DyadicRational is a fractions.Fraction: exact arithmetic, comparison,
hashing and the correctly rounded float() come from the standard library,
and arithmetic on it gives plain Fractions.
"""

from __future__ import annotations

from fractions import Fraction


class DyadicRational(Fraction):
    """num / 2**log2_den in lowest terms (num odd, or num == 0 and log2_den == 0).

    The constructor takes (num, log2_den), not a denominator, so every method
    that rebuilds an instance from (numerator, denominator) is overridden,
    from_float and from_decimal included: both give the exact value, and
    from_decimal raises ValueError for a value that is not dyadic.
    """

    __slots__ = ()

    def __new__(cls, num: int, log2_den: int):
        if log2_den < 0:
            raise ValueError("log2_den must be non-negative")
        return super().__new__(cls, num, 1 << log2_den)

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def log2_den(self) -> int:
        return self.denominator.bit_length() - 1

    @classmethod
    def from_float(cls, f: float) -> DyadicRational:
        return cls._exact(Fraction.from_float(f))

    @classmethod
    def from_decimal(cls, dec) -> DyadicRational:
        return cls._exact(Fraction.from_decimal(dec))

    @classmethod
    def _exact(cls, q: Fraction) -> DyadicRational:
        log2_den = q.denominator.bit_length() - 1
        if q.denominator != 1 << log2_den:
            raise ValueError(f"{q} is not a dyadic rational")
        return cls(q.numerator, log2_den)

    def __reduce__(self):
        return type(self), (self.num, self.log2_den)

    def __copy__(self) -> DyadicRational:
        return self  # immutable

    def __deepcopy__(self, memo) -> DyadicRational:
        return self

    def __repr__(self) -> str:
        return f"DyadicRational({self.num}, {self.log2_den})"

    def root(self, log2_degree: int) -> float:
        """Presentation-only 2**log2_degree-th root (requires a non-negative value)."""
        if self < 0:
            raise ValueError("root of a negative dyadic rational")
        return float(self) ** (2.0**-log2_degree)

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.num)
        return f"{self.num}/2^{self.log2_den}"

    def to_json_dict(self) -> dict:
        return {"num": self.num, "log2_den": self.log2_den, "value": float(self)}
