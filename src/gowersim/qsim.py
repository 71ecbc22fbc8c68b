"""The norm-measuring circuits: gates, checked circuits, builders, phase audit, amplitude at 0.

A `Circuit(n, m, gates)` is m registers of n qubits each, m*n <= errors.MAX_N,
and its gates, value-equal NamedTuples; its constructor is the one place that
checks a circuit, so the walk, the audit and the executor take it as valid.
Basis index layout: register 1 occupies the most significant n bits, register
m the least significant, matching the library's x1-most-significant points.
The phase-kickback target qubit is factored out and never stored: the phase
oracle multiplies amplitudes by (-1)^F directly.  Every gate in scope (phase
flips, register permutations, Hadamard layers) is real orthogonal.

`zero_amplitude` is the executor: the symbolic walk shared with `phase_audit`
gives each oracle call's XOR-coset of initial registers, hence the phase of
every initial basis index.  No MCNOT moves index 0 or changes the sum over all
indices, and the final HadamardAll that it requires puts that sum of signs at
0, so neither the register map nor the transform is applied.  The phases come
as uint64 words of 64 basis indices (of 2^n, zero-padded, under 6 qubits), in
blocks of at most 2^17 bytes over an `np.ix_` mesh of register runs: gathered
from F's words and their translates (`boolfn._word_translates`) where the coset
holds the last register, else from F's values spread over a word.  Only the
executor imports numpy, so building, dumping, auditing or refusing a circuit
loads none of it (nor `dataclasses` or `inspect`), and no circuit loads the
exact-arithmetic modules `spectral` and `dyadic`.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import check_capacity, check_layout

if TYPE_CHECKING:
    import numpy as np

    from .boolfn import BooleanFunction

WALK_GUARD = 32  # a walk's phases take 2^k oracle calls over 2^((k+1) n) basis states


class PhaseOracle(NamedTuple):
    """Multiply each amplitude by (-1)^F(content of `register`)."""

    register: int = 1


class MCnot(NamedTuple):
    """XOR the content of register `source` into register `target` (qubit-wise CNOTs)."""

    target: int
    source: int


class HadamardAll(NamedTuple):
    """Normalized Walsh-Hadamard transform over all m*n qubits."""


Gate = Union[PhaseOracle, MCnot, HadamardAll]


class Circuit:
    """m registers of n qubits and the gates applied to them, refused here if malformed."""

    __slots__ = ("n", "m", "gates")

    def __init__(self, n: int, m: int, gates: tuple[Gate, ...]):
        gates = tuple(gates)
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 qubits per register and m >= 1 registers")
        check_layout(m, n)
        for i, gate in enumerate(gates):
            if isinstance(gate, HadamardAll) and i == len(gates) - 1:
                continue
            if not isinstance(gate, (PhaseOracle, MCnot)):
                raise ValueError(f"{gate!r}: only HadamardAll, and only as the final gate")
            if isinstance(gate, MCnot) and gate.target == gate.source:
                raise ValueError("MCnot target and source must differ")
            for register in gate:
                if not 1 <= register <= m:
                    raise ValueError(f"register {register} out of range [1, {m}]")
        for name, value in zip(self.__slots__, (n, m, gates)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Circuit is checked once, when built: build a new one, not .{name}")

    @property
    def qubits(self) -> int:
        return self.n * self.m

    def shift(self, register: int) -> int:
        """Bit position of the least significant qubit of a register."""
        return (self.m - register) * self.n

    @property
    def oracle_count(self) -> int:
        return sum(isinstance(g, PhaseOracle) for g in self.gates)

    def dump(self) -> str:
        """One gate per line, application order top to bottom."""
        lines = []
        for g in self.gates:
            if isinstance(g, PhaseOracle):
                lines.append(f"UF r{g.register}")
            elif isinstance(g, MCnot):
                lines.append(f"MCNOT r{g.target} r{g.source}")
            else:
                lines.append("HALL")
        return "\n".join(lines)


def _walk(circuit: Circuit) -> tuple[list[frozenset[int]], dict[int, frozenset[int]]]:
    """Coset read by each oracle call and final register contents, as register-id sets."""
    contents = {r: frozenset({r}) for r in range(1, circuit.m + 1)}
    cosets = []
    for gate in circuit.gates:
        if isinstance(gate, MCnot):
            contents[gate.target] ^= contents[gate.source]
        elif isinstance(gate, PhaseOracle):
            cosets.append(contents[gate.register])
    return cosets, contents


def _phase_blocks(circuit: Circuit, f: BooleanFunction | None):
    """Flat uint64 words of the parity of F over every oracle call's coset, in basis index order.

    Bit i of word w is the phase of basis index 64 w + i; under 6 qubits a value of register m
    fills a word's low 2^n bits, the padding 0.  A block is errors._BLOCK_CELLS bytes of words
    (a power of two, one word at least) or all words.  In a block, register r holds c_r, its
    content at the block's start, XOR a run along axis r of the `np.ix_` mesh (register m's
    over word starts 64 b).  At v = XOR of coset C's registers (its prefix's XOR its highest
    register's), C's part is words[v], F(x ^ v) over register m's word x, if C holds register
    m, else masks[v], F(v) on every valid bit.  Parts are XORed in order of their highest
    register, in place once the sum spans the part, then broadcast to the block's shape.
    f is checked on the call; the blocks are built as they are read.
    """
    import numpy as np

    from .boolfn import _word_translates
    from .errors import _BLOCK_CELLS as cells

    n, m, low = circuit.n, circuit.m, min(circuit.n, 6)  # low: register m's bits in a word
    cosets, _ = _walk(circuit)
    if f is None or f.n != n:
        raise ValueError(f"the oracle needs a BooleanFunction with n = {n}")
    size = 1 << min(circuit.qubits - low, max(0, cells.bit_length() - 4))  # words per block
    ramp = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    mesh = np.ix_(*(ramp[: max(1, size << low >> circuit.shift(r))] for r in range(1, m)),
                  ramp[: size << low : 64])
    shape = tuple(axis.size for axis in mesh)
    words = _word_translates(f.table[None]).reshape(-1)  # [((v >> 6) ^ b) << 6 | (v & 63)]
    masks = f.table.astype(np.uint64) * np.uint64((1 << (1 << low)) - 1)
    starts = np.arange(0, 1 << circuit.qubits, size << low, dtype=np.int64)
    content = [(starts >> circuit.shift(r) & ramp[-1]).astype(ramp.dtype) for r in range(1, m + 1)]

    @functools.cache
    def summed(coset: frozenset[int]) -> tuple:  # the XORs of C's mesh axes and of its c_r
        pattern, cs = summed(coset - {max(coset)}) if len(coset) > 1 else (0, 0)
        return pattern ^ mesh[max(coset) - 1], cs ^ content[max(coset) - 1]

    plan, acc_shape = [], (1,) * m
    for coset in sorted(cosets, key=max):
        pattern, cs = summed(coset)
        grown = tuple(map(max, acc_shape, pattern.shape))
        plan.append((pattern, cs, words if m in coset else masks, grown != acc_shape))
        acc_shape = grown

    def block(j: int) -> np.ndarray:
        phase = np.zeros((1,) * m, np.uint64)
        for pattern, cs, source, grows in plan:
            part = source.take(pattern ^ cs[j])
            phase = phase ^ part if grows else np.bitwise_xor(phase, part, out=phase)
        return (phase if acc_shape == shape else np.broadcast_to(phase, shape)).reshape(-1)

    return map(block, range(len(starts)))


def zero_amplitude(circuit: Circuit, f: BooleanFunction) -> float:
    """The float amplitude at basis index 0 after the circuit's final HALL, from the blocks alone:
    the HALL puts sum(signs) = 2^q - 2 popcount(phase) there, so no transform is needed."""
    if not (circuit.gates and isinstance(circuit.gates[-1], HadamardAll)):
        raise ValueError("the amplitude at 0 is read after a final HadamardAll")
    import numpy as np

    q = circuit.qubits
    ones = sum(int(np.bitwise_count(block).sum()) for block in _phase_blocks(circuit, f))
    return ((1 << q) - 2 * ones) * 2.0**-q


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _walk_gates(k: int) -> list[Gate]:
    if k == 0:
        return [PhaseOracle(1)]
    inner = _walk_gates(k - 1)
    return inner + [MCnot(1, k + 1)] + inner + [MCnot(1, k + 1)]


def build_derivative_walk_circuit(n: int, k: int) -> Circuit:
    """k+1 registers; queries all 2^k direction-subsets once and restores register 1.

    The schedule doubles: D_1 = [UF, M(1,2), UF, M(1,2)], D_j = D_{j-1} + [M(1,j+1)] +
    D_{j-1} + [M(1,j+1)] visits every coset x + sum_{i in S} d_i once, in binary-counter
    order of S; a Hadamard layer follows.  Its 2^k calls read 2^((k+1) n) entries each.
    At k = 2 it is the U_2 circuit: outcome 0 has probability ||f||_{U_2}^8.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    Circuit(n, k + 1, ())  # the layout is refused before a gate is built
    check_capacity(f"derivative walk needs k + (k+1)*n <= {WALK_GUARD}, got k = {k}, n = {n}",
                   k + (k + 1) * n, "oracle-entry evaluations", WALK_GUARD)
    return Circuit(n, k + 1, tuple(_walk_gates(k) + [HadamardAll()]))


def build_appendix_u3_circuit(n: int) -> Circuit:
    """A fixed 4-register U_3 variant, kept so its defect stays demonstrable: its 7 oracle
    calls miss the coset x+a+c, as phase_audit shows, though register 1 is restored."""
    gates = (
        PhaseOracle(1),
        MCnot(1, 2),
        PhaseOracle(1),
        MCnot(1, 3),
        PhaseOracle(1),
        MCnot(1, 4),
        PhaseOracle(1),
        MCnot(1, 2),
        PhaseOracle(1),
        MCnot(1, 3),
        PhaseOracle(1),
        MCnot(1, 4),
        MCnot(1, 3),
        PhaseOracle(1),
        MCnot(1, 3),
        HadamardAll(),
    )
    return Circuit(n, 4, gates)


# ---------------------------------------------------------------------------
# symbolic phase audit
# ---------------------------------------------------------------------------


def phase_audit(circuit: Circuit) -> dict:
    """Symbolic trace of which coset each oracle call evaluates, as the CLI prints it.

    Cosets are lists of register ids whose initial contents are XOR-summed;
    register 1 stands for the point x, registers 2..m for the directions.
    The circuit implements a full iterated-derivative phase (status "ok") iff
    every coset {1} union S (S over all subsets of {2..m}) occurs exactly once
    and register 1 ends restored.
    """
    m = circuit.m
    walked, contents = _walk(circuit)
    cosets = [sorted(c) for c in walked]
    expected = Counter(
        tuple(sorted({1, *subset}))
        for size in range(m)
        for subset in combinations(range(2, m + 1), size)
    )
    actual = Counter(map(tuple, cosets))
    missing = [list(c) for c in sorted((expected - actual).elements())]
    extra = [list(c) for c in sorted((actual - expected).elements())]
    restored = contents[1] == frozenset({1})
    return {
        "status": "ok" if restored and not missing and not extra else "not-a-derivative",
        "oracle_calls": len(cosets),
        "register_one_restored": restored,
        "cosets": cosets,
        "missing": missing,
        "extra": extra,
    }
