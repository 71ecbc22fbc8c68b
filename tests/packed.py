"""Functions from packed integers, for tests that enumerate or draw every table of n variables."""

import numpy as np

from gowersim.boolfn import BooleanFunction


def from_packed(n: int, bits: int) -> BooleanFunction:
    """The function whose F(x) is bit idx(x) of `bits`, 0 <= bits < 2^(2^n): `f.packed` inverted."""
    raw = np.frombuffer(bits.to_bytes(((1 << n) + 7) // 8, "little"), np.uint8)
    return BooleanFunction(n, np.unpackbits(raw, count=1 << n, bitorder="little"))
