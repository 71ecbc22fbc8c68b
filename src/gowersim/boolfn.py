"""Boolean functions F: GF(2)^n -> GF(2): truth tables, ANF, degrees and families.

Conventions used library-wide:

* A point x = (x1, ..., xn) is packed into an index with x1 as the most
  significant bit: idx(x) = sum x_i * 2**(n-i).  Truth tables are listed in
  increasing index order, i.e. lexicographically in (x1, ..., xn).
* Truth tables (and ANF coefficient tables) are stored as read-only uint8
  numpy arrays indexed by idx(x), so every consumer reads them without a copy
  and objects may share them.
* The character form f(x) = (-1)**F(x) is exposed as sign tables.
* Hex truth-table format: ceil(2^n / 4) hex digits, most significant digit
  first; the bit of x = 0...0 is the most significant bit of the whole string.
  (For n = 1 the single digit is padded with two low zero bits.)

The constructors, `BooleanFunction(n, table)`, `from_anf_string`, `from_hex` and the
families `linear`, `bent_quadratic` and `random_function`, accept 1 <= n <= errors.MAX_N
= 24; larger n raises CapacityError so that all downstream exact accumulators stay cheap.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .errors import MAX_N, AnfSyntaxError, check_capacity

# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    check_capacity(f"n = {n} exceeds the supported maximum {MAX_N}", n, "table entries")


def _table(n: int, table: Iterable[int] | np.ndarray, what: str) -> np.ndarray:
    """A read-only uint8 copy of a 0/1 integer table of 2^n entries; the input is not frozen."""
    _check_n(n)
    arr = np.asarray(list(table) if not isinstance(table, np.ndarray) else table)
    if arr.shape != (1 << n,):
        raise ValueError(f"{what} must have length {1 << n}")
    if arr.dtype.kind not in "biu":
        raise ValueError(f"{what} must hold integers, got {arr.dtype}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} entries must be 0/1")
    arr = arr.astype(np.uint8)
    arr.setflags(write=False)
    return arr


def _mobius(table: np.ndarray) -> np.ndarray:
    """Binary Mobius transform of a 0/1 table, as a new array; it is an involution."""
    out = table.copy()
    h = 1
    while h < out.size:  # each stage XORs the low half of every 2h-block into its high half
        halves = out.reshape(-1, 2, h)
        halves[:, 1] ^= halves[:, 0]
        h *= 2
    return out


# ---------------------------------------------------------------------------
# ANF
# ---------------------------------------------------------------------------


class Anf:
    """Algebraic normal form: coefficient lambda_u is entry u of the uint8 table `coeffs`."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[int] | np.ndarray):
        """The coefficients are checked and copied, as a BooleanFunction's truth table is."""
        self.n, self.coeffs = n, _table(n, coeffs, "ANF coefficient table")

    def degree(self) -> int:
        """Max Hamming weight of a monomial; 0 for the constant functions."""
        present = np.flatnonzero(self.coeffs)
        if present.size == 0:
            return 0
        return int(np.bitwise_count(present.astype(np.uint32)).max())

    def to_string(self) -> str:
        """Monomials in ascending u joined by ' + '; '1' for u = 0, '0' if none."""
        low = self.n // 2  # u = (high field x1..x_{n-low}, low field: the rest)
        high_names, low_names = _products(self.n - low, 1), _products(low, self.n - low + 1)
        terms = []
        for u in np.flatnonzero(self.coeffs).tolist():
            h, l = high_names[u >> low], low_names[u & ((1 << low) - 1)]
            terms.append(h + "*" + l if h and l else h or l or "1")
        return " + ".join(terms) if terms else "0"


def _products(width: int, first: int) -> list[str]:
    """'x_i*...*x_j' for every value of a width-bit field whose top bit is x_first."""
    return ["*".join(f"x{first + i}" for i in range(width) if v >> (width - 1 - i) & 1)
            for v in range(1 << width)]


_ANF_TOKEN = re.compile(r"\s*(x([0-9]*)|\S)")  # [0-9], not \d: ASCII indices only


def _parse_anf(text: str, n: int) -> np.ndarray:
    """Parse a sum of monomials into the uint8 table of its ANF coefficients.

    Grammar: expr := term ('+' term)*; term := factor (('*' | '&') factor)*;
    factor := '1' | '0' | 'x'[0-9]+.  Whitespace is free between tokens.
    '0' (the empty sum) is accepted as a courtesy extension.
    """
    if not text.strip():
        raise AnfSyntaxError("empty ANF expression", 1)
    monomials, u, zero, pos = [], 0, False, 0
    while True:
        token = _ANF_TOKEN.match(text, pos)  # a factor is due
        if token is None:
            raise AnfSyntaxError("expected a variable or constant", len(text) + 1)
        column, pos = token.start(1) + 1, token.end()
        if token[2]:
            index = int(token[2])
            if not 1 <= index <= n:
                raise AnfSyntaxError(f"variable x{index} out of range [1, {n}]", column)
            u |= 1 << (n - index)  # x*x = x over GF(2)
        elif token[1] == "x":
            raise AnfSyntaxError("'x' must be followed by a variable index", column)
        elif token[1] == "0":
            zero = True
        elif token[1] != "1":
            raise AnfSyntaxError(f"unexpected character {token[1]!r}", column)
        token = _ANF_TOKEN.match(text, pos)  # an operator or the end is due
        if token is None or token[1] == "+":
            if not zero:
                monomials.append(u)
            if token is None:
                break
            u, zero = 0, False
        elif token[1] not in ("*", "&"):
            raise AnfSyntaxError(f"expected '+' but found {token[1][0]!r}", token.start(1) + 1)
        pos = token.end()
    coeffs = np.zeros(1 << n, np.uint8)
    np.bitwise_xor.at(coeffs, np.array(monomials, np.int64), 1)  # a repeated term cancels
    return coeffs


# ---------------------------------------------------------------------------
# Boolean functions
# ---------------------------------------------------------------------------


class BooleanFunction:
    """An n-variable Boolean function backed by a read-only uint8 truth table."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: Iterable[int] | np.ndarray):
        """The table is checked and copied, so the caller's array is never frozen."""
        self.n, self.table = n, _table(n, table, "truth table")

    @classmethod
    def _of(cls, n: int, table: np.ndarray) -> "BooleanFunction":
        """Wrap a 0/1 uint8 table that nothing else writes to; it is frozen in place."""
        table.setflags(write=False)
        obj = cls.__new__(cls)
        obj.n, obj.table = n, table
        return obj

    @classmethod
    def from_anf_string(cls, text: str, n: int) -> "BooleanFunction":
        _check_n(n)
        return cls._of(n, _mobius(_parse_anf(text, n)))

    @classmethod
    def from_hex(cls, n: int, digits: str) -> "BooleanFunction":
        _check_n(n)
        size = 1 << n
        ndigits = (size + 3) // 4
        digits = digits.strip()
        if len(digits) != ndigits:
            raise ValueError(
                f"tt-hex for n = {n} must have {ndigits} hex digits, got {len(digits)}"
            )
        if not set(digits) <= set("0123456789abcdefABCDEF"):  # fromhex also skips whitespace
            raise ValueError(f"tt-hex must be the digits 0-9, a-f, A-F, got {digits!r}")
        raw = bytes.fromhex(digits.ljust(ndigits + ndigits % 2, "0"))
        bits = np.unpackbits(np.frombuffer(raw, np.uint8))
        if bits[size:].any():
            raise ValueError("padding bits beyond 2^n positions must be zero")
        return cls._of(n, bits[:size])

    # -- basic accessors ------------------------------------------------------

    @property
    def packed(self) -> int:
        """The table packed into an integer: bit idx(x) holds F(x)."""
        return int.from_bytes(np.packbits(self.table, bitorder="little").tobytes(), "little")

    def sign_table(self) -> np.ndarray:
        """Character form f(x) = (-1)**F(x) as an int64 array of +-1."""
        # int16 arithmetic and one widening cast: ~5x faster than int64 arithmetic
        return (1 - 2 * self.table.astype(np.int16)).astype(np.int64)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.table))

    def to_hex(self) -> str:
        ndigits = ((1 << self.n) + 3) // 4  # F(0) is the most significant bit
        return np.packbits(self.table).tobytes().hex()[:ndigits]

    # -- algebra ---------------------------------------------------------------

    def to_anf(self) -> Anf:
        anf = Anf.__new__(Anf)  # the transform is a fresh 0/1 table: no check, no copy
        anf.n, anf.coeffs = self.n, _mobius(self.table)
        anf.coeffs.setflags(write=False)
        return anf

    def degree(self) -> int:
        return self.to_anf().degree()


# -- standard families ---------------------------------------------------------


def _as_mask(u: int | str, n: int) -> int:
    if isinstance(u, str):
        if len(u) != n or any(c not in "01" for c in u):
            raise ValueError(f"direction string must be {n} bits of 0/1, got {u!r}")
        return int(u, 2)
    if not isinstance(u, (int, np.integer)):
        raise TypeError(f"u must be an index or a bit string, got {type(u).__name__}")
    if not 0 <= u < (1 << n):
        raise ValueError(f"index {u} out of range for n = {n}")
    return int(u)


def linear(n: int, u: int | str) -> BooleanFunction:
    """The linear function x -> u . x (u given as index or bit string)."""
    _check_n(n)
    mask = _as_mask(u, n)
    idx = np.arange(1 << n, dtype=np.uint32)
    return BooleanFunction._of(n, (np.bitwise_count(idx & np.uint32(mask)) & 1).astype(np.uint8))


def bent_quadratic(n: int) -> BooleanFunction:
    """x1*x2 + x3*x4 + ... + x_{n-1}*x_n (n even); the standard bent quadratic."""
    _check_n(n)
    if n % 2:
        raise ValueError("bent_quadratic requires an even number of variables")
    idx = np.arange(1 << n, dtype=np.uint32)  # x_{2i-1} x_{2i} is bit n-2i of idx & idx >> 1
    pairs = idx & (idx >> 1) & np.uint32(int("01" * (n // 2), 2))
    return BooleanFunction._of(n, (np.bitwise_count(pairs) & 1).astype(np.uint8))


def random_function(n: int, seed) -> BooleanFunction:
    """Uniformly random truth table from a PCG64 generator seeded with `seed`."""
    _check_n(n)
    rng = np.random.default_rng(seed)
    return BooleanFunction._of(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
