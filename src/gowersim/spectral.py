"""Walsh-Hadamard spectra and derived quantities, all in exact integer arithmetic.

W(u) = sum_x (-1)^(F(x) + u.x) = 2^n * fhat(u).  The transform is the
unnormalized +-1 butterfly; the 2^-n normalizations live in DyadicRational.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import errors
from .boolfn import BooleanFunction
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


def _by_direction(table: np.ndarray, each=lambda rows: rows) -> np.ndarray:
    """each(rows) over the rows x -> G(x) ^ G(x ^ d) of the 0/1 table G, stacked in order of d."""
    parts = [each(rows) for rows in _derivative_rows(table[None])]
    # block `low` holds the rows of d = low + c * t, so stacking on axis 1 puts d in order
    return np.stack(parts, axis=1).reshape(-1, *parts[0].shape[1:])


def convolve(f: BooleanFunction, g: BooleanFunction) -> np.ndarray:
    """r(a) = sum_y f(y) g(y+a) = 2^n (f * g)(a), as a read-only int64 array indexed by a."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: n = {f.n} vs {g.n}")
    check_capacity(f"the XOR correlation needs 2n <= {MAX_N}, got n = {f.n}", 2 * f.n, "terms")
    gt = g.table
    mask = f.table ^ gt  # F(y) ^ G(y ^ a) = (F ^ G)(y) ^ G(y) ^ G(y ^ a)
    r = (1 << f.n) - 2 * _by_direction(gt, lambda rows: (rows ^ mask).sum(axis=1, dtype=np.int64))
    r.setflags(write=False)
    return r
