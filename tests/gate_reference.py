"""Integer reference states for the compiled executor `qsim.zero_amplitude` and the
closed form `estimate.u2_partial_sums`, the byte-per-term count that
`gowers.uk_definition` replaces with packed words, and the byte-packed XOR correlation
that `spectral.convolve` replaces with them.

A state is its int32 array of amplitude numerators, read with the circuit's
n and m: the uniform state is all ones over 2^(q/2) for q qubits, a phase
oracle multiplies by (-1)^F(register), an MCNOT permutes basis indices, and a
Hadamard layer is the unnormalized FWHT, which moves the denominator from
2^(q/2) to 2^q.  Tests fold a circuit through `apply` from `uniform_state` and
compare by equality; a circuit without gates stands for its registers alone.

`permuted_run` reaches the same state another way, also where the fold is too
slow: the phases of `qsim._phase_blocks` in the initial registers, unpacked
from its uint64 words, then the final register map as one flat permutation of
the basis indices.
`partial_sums` turns a state into the int64 partial sums that
`estimate.y_bar` samples, and `lookup` reads the outcomes of given draws from
them, one binary search each.  `definition_ones` counts the ones of every
k-fold derivative table one uint8 entry at a time, with no packed word, and
`byte_convolve` is the XOR correlation that `spectral.convolve` replaces with
64 entries a word: derivative rows packed eight entries a byte.
"""

import functools

import numpy as np

from gowersim.boolfn import BooleanFunction
from gowersim.qsim import Circuit, Gate, HadamardAll, MCnot, PhaseOracle, _phase_blocks
from gowersim.spectral import _derivative_rows, fwht_inplace


def uniform_state(circuit: Circuit) -> np.ndarray:
    return np.ones(1 << circuit.qubits, dtype=np.int32)


def apply(circuit: Circuit, num: np.ndarray, gate: Gate,
          f: BooleanFunction | None = None) -> np.ndarray:
    """Apply one gate on the circuit's registers, returning a new numerator array (inputs
    are not mutated).  The gate's registers are taken as checked, 1 to circuit.m."""
    n, m = circuit.n, circuit.m
    if isinstance(gate, PhaseOracle):
        if f is None:
            raise ValueError("PhaseOracle requires a BooleanFunction")
        if f.n != n:
            raise ValueError(f"oracle function has n = {f.n}, the circuit has n = {n}")
        pre = 1 << ((gate.register - 1) * n)
        post = 1 << ((m - gate.register) * n)
        signs = f.sign_table().astype(num.dtype)
        return (num.reshape(pre, 1 << n, post) * signs[None, :, None]).reshape(-1)
    if isinstance(gate, MCnot):
        idx = np.arange(1 << circuit.qubits, dtype=np.int64)
        content = (idx >> circuit.shift(gate.source)) & ((1 << n) - 1)
        perm = idx ^ (content << circuit.shift(gate.target))
        return num[perm]  # the permutation is an involution
    if isinstance(gate, HadamardAll):
        return fwht_inplace(num.copy())
    raise TypeError(f"unknown gate {gate!r}")


def fold(circuit, f: BooleanFunction | None = None) -> np.ndarray:
    """The circuit's gates applied one by one to the uniform state."""
    num = uniform_state(circuit)
    for gate in circuit.gates:
        num = apply(circuit, num, gate, f)
    return num


def permuted_run(circuit: Circuit, f: BooleanFunction) -> np.ndarray:
    """The circuit's final int32 numerators, from its phases and its register map.

    `_phase_blocks` gives the phase of each initial basis index x, bit x & 63 of a
    uint64 word (the low 2^n bits where n < 6, the rest zero padding).  The
    amplitude of x then moves to the index whose register r holds the XOR of
    x's registers in r's final contents, and a final HALL transforms the result.
    """
    n, gates = circuit.n, circuit.gates
    words = np.concatenate(list(_phase_blocks(circuit, f))).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(len(words), 64)
    num = 1 - 2 * bits[:, : 1 << min(n, 6)].reshape(-1).astype(np.int32)
    contents = {r: {r} for r in range(1, circuit.m + 1)}
    for gate in gates:
        if isinstance(gate, MCnot):
            contents[gate.target] ^= contents[gate.source]
    idx = np.arange(1 << circuit.qubits, dtype=np.int64)
    field = {r: (idx >> circuit.shift(r)) & ((1 << n) - 1) for r in contents}
    index = sum(functools.reduce(np.bitwise_xor, (field[s] for s in c)) << circuit.shift(r)
                for r, c in contents.items())
    state = np.empty_like(num)
    state[index] = num
    return fwht_inplace(state) if gates and isinstance(gates[-1], HadamardAll) else state


def partial_sums(num: np.ndarray) -> np.ndarray:
    """The int64 partial sums of num^2, the form `estimate.y_bar` samples."""
    return np.cumsum(num.astype(np.int64) ** 2)


def lookup(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The outcome of each draw r, in draw order: the first whose partial sum exceeds
    floor(r * S), S = cum[-1] a power of two, so r * S is exact."""
    return np.searchsorted(cum, (draws * cum[-1]).astype(np.int64), side="right")


def byte_convolve(f: BooleanFunction, g: BooleanFunction) -> np.ndarray:
    """r(a) = sum_y f(y) g(y+a), eight entries a byte: the rows x -> G(x) ^ G(x ^ a) of
    `_derivative_rows`, XORed with F ^ G, packed by `np.packbits` and counted by
    `np.bitwise_count`, their blocks put back in order of a."""
    gt = g.table
    mask = f.table ^ gt  # F(y) ^ G(y ^ a) = (F ^ G)(y) ^ G(y) ^ G(y ^ a)
    parts = [np.bitwise_count(np.packbits(rows ^ mask, axis=1)).sum(axis=1, dtype=np.int64)
             for rows in _derivative_rows(gt[None])]
    # block `low` holds the rows of a = low + c * t, so stacking on axis 1 puts a in order
    return (1 << f.n) - 2 * np.stack(parts, axis=1).reshape(-1)


def definition_ones(f: BooleanFunction, k: int) -> int:
    """The ones of Delta_{d1..dk} F over all x, d1, ..., dk: ||f||_{U_k}^(2^k) is
    (2^((k+1)n) - 2 * ones) / 2^((k+1)n).  It builds 2^((k+1)n) bytes, in blocks."""
    return sum(int(np.count_nonzero(rows)) for rows in _derivative_rows(f.table[None], k))
