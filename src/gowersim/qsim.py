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
indices, and a final HadamardAll puts that sum of signs at 0, so neither the
register map nor the transform is applied.  The phases come in blocks of at
most 2^17 basis indices, over an `np.ix_` mesh of register runs, from whole
rows x -> F(x ^ v) of a 2^(2n) table of translates, or from F entry by entry
where that table does not fit a block.  Only the executor imports numpy, so
building, dumping, auditing or refusing a circuit loads none of it (nor
`dataclasses` or `inspect`), and no circuit loads the exact-arithmetic modules
`spectral` and `dyadic`.
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
    """Flat uint8 parity of F over every oracle call's coset, per initial basis index, in order.

    Each block is a run of consecutive basis indices, errors._BLOCK_CELLS
    of them (rounded down to a power of two) or all 2^q if fewer.  In a
    block, register r holds c_r XOR a run 0, 1, ... along axis r of the open
    mesh `np.ix_` builds, c_r its content at the block's start, so a coset C's
    part differs between blocks only by c = XOR of C's c_r.  The part is
    rows[v] = (x -> F(x ^ v)) along the run of C's highest register h, at
    v = c XOR the runs of C's other registers; without room for the 2^(2n)
    rows, F is gathered per entry.  Parts are XORed in order of h, in place
    once the sum spans the part, and the sum is broadcast to the block's
    shape.  f is checked on the call; the blocks are built as they are read.
    """
    import numpy as np

    from .errors import _BLOCK_CELLS as cells

    n, m = circuit.n, circuit.m
    cosets, _ = _walk(circuit)
    if cosets and (f is None or f.n != n):
        raise ValueError(f"the oracle needs a BooleanFunction with n = {n}")
    size = 1 << min(circuit.qubits, cells.bit_length() - 1)
    ramp = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    mesh = np.ix_(*(ramp[: max(1, size >> ((m - r) * n))] for r in range(1, m + 1)))
    shape = tuple(axis.size for axis in mesh)
    table = f.table if cosets else None
    rows = table[np.bitwise_xor.outer(ramp, ramp)] if cosets and 4**n <= cells else None
    starts = np.arange(0, 1 << circuit.qubits, size, dtype=np.int64)
    plan, acc_shape = [], (1,) * m
    for coset in sorted(cosets, key=max):
        h = max(coset)
        cs = functools.reduce(np.bitwise_xor, [(starts >> circuit.shift(r)) & ((1 << n) - 1)
                                               for r in coset]).astype(ramp.dtype)
        if rows is None or len(coset) == 1:
            source, pattern = table, functools.reduce(np.bitwise_xor, [mesh[r - 1] for r in coset])
            part_shape = pattern.shape
        else:
            v = functools.reduce(np.bitwise_xor, [mesh[r - 1] for r in coset - {h}])
            source, pattern = rows[:, : shape[h - 1]], v.reshape(v.shape[: h - 1])
            part_shape = pattern.shape + (shape[h - 1],) + (1,) * (m - h)
        grown = np.broadcast_shapes(acc_shape, part_shape)
        plan.append((cs, source, pattern, part_shape, grown != acc_shape))
        acc_shape = grown

    def block(j: int) -> np.ndarray:
        phase = np.zeros((1,) * m, dtype=np.uint8)
        for cs, source, pattern, part_shape, grows in plan:
            part = source.take(pattern ^ cs[j], axis=0).reshape(part_shape)
            phase = phase ^ part if grows else np.bitwise_xor(phase, part, out=phase)
        return (phase if acc_shape == shape else np.broadcast_to(phase, shape)).reshape(-1)

    return map(block, range(len(starts)))


def zero_amplitude(circuit: Circuit, f: BooleanFunction | None = None) -> float:
    """The float amplitude at basis index 0 of the circuit's final state, from the blocks alone.

    A final HALL puts sum(signs) = 2^q - 2 popcount(phase) at index 0, so
    no transform is needed.  Without it, only the first block's entry 0 is read.
    """
    import numpy as np

    q = circuit.qubits
    blocks = _phase_blocks(circuit, f)
    if circuit.gates and isinstance(circuit.gates[-1], HadamardAll):
        ones = sum(int(np.count_nonzero(block)) for block in blocks)
        return ((1 << q) - 2 * ones) * 2.0**-q
    return (1 - 2 * int(next(blocks)[0])) * 2.0 ** (-q / 2.0)


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
