"""Walsh-Hadamard spectra, derivative rows and the XOR correlation, in exact integer arithmetic.

W(u) = sum_x (-1)^(F(x) + u.x) = 2^n * fhat(u), unnormalized; DyadicRational holds the 2^-n.
`convolve` and `gowers.uk_definition` count 64 entries per XOR of `boolfn._word_translates`' words.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import errors
from .boolfn import BooleanFunction, _word_translates
from .dyadic import DyadicRational
from .errors import MAX_N, check_capacity


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """In-place unnormalized FWHT along the last axis (a power of two) of a contiguous array."""
    size = a.shape[-1]
    scratch = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        view = a.reshape(-1, 2 * h)
        lo = scratch.reshape(-1, h)
        np.copyto(lo, view[:, :h])
        hi = view[:, h:]
        np.add(lo, hi, out=view[:, :h])
        np.subtract(lo, hi, out=view[:, h:])
        h *= 2
    return a


def walsh(f: BooleanFunction) -> np.ndarray:
    """The integer W(u) as a read-only int64 array, indexed by the packed index of u."""
    w = fwht_inplace(f.sign_table())
    w.setflags(write=False)
    return w


def nonlinearity(f: BooleanFunction) -> int:
    """Minimum Hamming distance to the 2^(n+1) affine functions."""
    return ((1 << f.n) - int(np.abs(walsh(f)).max())) // 2


def dist_to_linear(f: BooleanFunction) -> tuple[DyadicRational, int]:
    """(eps, u): eps = (1 - max_u W(u) / 2^n) / 2 is the normalized distance to the 2^n
    linear functions (complements excluded), u the packed index of the nearest one, the
    smallest on ties."""
    w = walsh(f)
    u = int(np.argmax(w))  # the first maximum
    return DyadicRational((1 << f.n) - int(w[u]), f.n + 1), u


def _derivative_rows(g: np.ndarray, depth: int = 1) -> Iterator[np.ndarray]:
    """Blocks of ~errors._BLOCK_CELLS entries of the tables Delta_{d1..d_depth} G over all
    d1..d_depth, for every 0/1 table G in the (B, 2^n) uint8 array g.  At depth 1, whole
    tables' rows share a block when they fit; else each table gives c blocks, and block
    `low` holds the rows x -> G(x) ^ G(x ^ d) of d = low, low + c, low + 2c, ...
    """
    size, cells = g.shape[1], errors._BLOCK_CELLS
    per = min(size, 1 << max(0, (cells // size).bit_length() - 1))  # rows per table
    c, group = size // per, max(1, cells // (per * size))
    for start in range(0, len(g), group):
        base = g[start : start + group]
        for low in range(c):
            block = np.empty((len(base), per, size), np.uint8)
            block[:, 0] = base.reshape(-1, size // c, c)[..., np.arange(c) ^ low].reshape(-1, size)
            for j in range(per.bit_length() - 1):  # rows [2^j, 2^(j+1)) = rows [0, 2^j) ^ c*2^j
                v = block.reshape(len(base), per, -1, 2, c << j)
                v[:, 1 << j : 2 << j] = v[:, : 1 << j, :, ::-1]
            block ^= base[:, None, :]
            rows = block.reshape(-1, size)
            yield from [rows] if depth == 1 else _derivative_rows(rows, depth - 1)


def convolve(f: BooleanFunction, g: BooleanFunction) -> np.ndarray:
    """r(a) = sum_y f(y) g(y+a) = 2^n (f * g)(a), as a read-only int64 array indexed by a:
    2^n - 2 sum_b popcount(F_b ^ t[a & 63, b ^ (a >> 6)]), F_b the words of F and t[e, b] those
    of G translated by e (`_word_translates`), gathered in blocks of errors._BLOCK_CELLS bytes
    or of one value of a >> 6 (256 KiB at n = 15), under `uk_definition`'s word rule at k = 1."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: n = {f.n} vs {g.n}")
    check_capacity(f"the XOR correlation needs n + max(0, n-6) <= {MAX_N}, got n = {f.n}",
                   f.n + max(0, f.n - 6), "words")
    words = _word_translates(f.table.reshape(-1, 1))[0, 0]  # F_b: 64 one-entry rows a word
    t = _word_translates(g.table.reshape(-1, min(64, 1 << f.n)))[0]  # t[e, b]: a row a word
    ramp = np.arange(t.shape[1])
    per = max(1, errors._BLOCK_CELLS // t.nbytes)  # values of a >> 6 per block
    ones = np.empty(t.shape, np.int64)  # [a & 63, a >> 6]
    for a in range(0, t.shape[1], per):
        block = t[:, ramp[a : a + per, None] ^ ramp]  # [a & 63, a >> 6, b]: t[a & 63, b ^ (a >> 6)]
        ones[:, a : a + per] = np.bitwise_count(np.bitwise_xor(block, words, out=block)).sum(axis=2)
    r = (1 << f.n) - 2 * ones.T.reshape(-1)
    r.setflags(write=False)
    return r
