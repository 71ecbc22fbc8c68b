"""State-vector simulation of the norm-measuring circuits.

The simulated system is m registers of n qubits each, m*n <= boolfn.MAX_N.
Basis index layout: register 1 occupies the most significant n bits, register
m the least significant, matching the library's x1-most-significant points.
The phase-kickback target qubit is factored out and never stored: the phase
oracle multiplies amplitudes by (-1)^F directly.  Every gate in scope (phase
flips, register permutations, Hadamard layers) is real orthogonal.

`run` compiles a circuit into the state that applying its gates one by one
reaches (the tests keep that float fold as the reference): the symbolic walk
shared with `phase_audit` gives each oracle call's XOR-coset and the final
register map, the cosets give the phase table, and a final HadamardAll is one
int32 FWHT of its signs.  Amplitudes are thus exactly integer / 2^q for q
qubits before one conversion to float64.  The phase table is built in blocks
of at most 2^17 consecutive basis indices, each from whole rows x -> F(x ^ v)
of a 2^(2n) table of translates, so no 2^q table is held.  When only the
amplitude at index 0 is asked for, `zero_amplitude` reads it from the same
blocks without preparing the final state: the register map fixes 0 and the
transform's entry 0 is the sum of the signs.

Circuit builders:

* build_derivative_walk_circuit(n, k) -- k+1 registers; a recursive-doubling
  schedule D_1 = [UF, M(1,2), UF, M(1,2)], D_j = D_{j-1} + [M(1,j+1)] +
  D_{j-1} + [M(1,j+1)], visiting every coset x + sum_{i in S} d_i exactly
  once (binary-counter subset order) and restoring register 1, then a global
  Hadamard layer.  Its 2^k calls read 2^((k+1) n) entries each, so k + (k+1) n
  above WALK_GUARD is a CapacityError before any gate is built.
* build_u2_circuit(n) -- the walk for k = 2: the four cosets x, x+a, x+b,
  x+a+b.  Measuring all-zeros afterwards has probability ||f||_{U_2}^8.
* build_appendix_u3_circuit(n) -- a fixed 4-register 16-gate U_3 variant,
  kept so its defect stays demonstrable: phase_audit, which returns the CLI's
  "audit" dict, shows it queries only 7 of the 8 cosets (x+a+c is missed)
  even though register 1 is restored.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

from . import spectral
from .boolfn import MAX_N, BooleanFunction
from .errors import CapacityError
from .spectral import fwht_inplace

WALK_GUARD = 32  # a walk's phases take 2^k oracle calls over 2^((k+1) n) basis states


@dataclass(frozen=True)
class RegisterLayout:
    n: int  # qubits per register
    m: int  # number of registers

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 qubits per register and m >= 1 registers")
        if self.qubits > MAX_N:
            raise CapacityError(f"layout needs m*n <= {MAX_N}, got {self.m} x {self.n}")

    @property
    def qubits(self) -> int:
        return self.n * self.m

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    def shift(self, register: int) -> int:
        """Bit position of the least significant qubit of a register."""
        self._check_register(register)
        return (self.m - register) * self.n

    def _check_register(self, register: int) -> None:
        if not 1 <= register <= self.m:
            raise ValueError(f"register {register} out of range [1, {self.m}]")

    def content(self, index: int, register: int) -> int:
        return (index >> self.shift(register)) & ((1 << self.n) - 1)

    def index(self, contents) -> int:
        if len(contents) != self.m:
            raise ValueError(f"need {self.m} register contents")
        out = 0
        for c in contents:
            if not 0 <= c < (1 << self.n):
                raise ValueError("register content out of range")
            out = (out << self.n) | c
        return out


@dataclass(frozen=True)
class PhaseOracle:
    """Multiply each amplitude by (-1)^F(content of `register`)."""

    register: int = 1

    def __post_init__(self):
        if self.register < 1:
            raise ValueError("register indices start at 1")


@dataclass(frozen=True)
class MCnot:
    """XOR the content of register `source` into register `target` (qubit-wise CNOTs)."""

    target: int
    source: int

    def __post_init__(self):
        if self.target < 1 or self.source < 1:
            raise ValueError("register indices start at 1")
        if self.target == self.source:
            raise ValueError("MCnot target and source must differ")


@dataclass(frozen=True)
class HadamardAll:
    """Normalized Walsh-Hadamard transform over all m*n qubits."""


Gate = Union[PhaseOracle, MCnot, HadamardAll]


@dataclass(frozen=True)
class Circuit:
    layout: RegisterLayout
    gates: tuple[Gate, ...]

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
    layout, gates = circuit.layout, circuit.gates
    contents = {r: frozenset({r}) for r in range(1, layout.m + 1)}
    cosets = []
    for i, gate in enumerate(gates):
        if isinstance(gate, MCnot):
            layout._check_register(gate.target)
            layout._check_register(gate.source)
            contents[gate.target] ^= contents[gate.source]
        elif isinstance(gate, PhaseOracle):
            layout._check_register(gate.register)
            cosets.append(contents[gate.register])
        elif not (isinstance(gate, HadamardAll) and i == len(gates) - 1):
            raise ValueError(f"{gate!r}: only HadamardAll, and only as the final gate")
    return cosets, contents


def _register_axes(n: int, m: int, size: int | None = None) -> dict[int, np.ndarray]:
    """Each register's contents along its own axis of m, over the first `size` basis indices.

    size is a power of two (default: all of them).  Over the `size` indices
    from any multiple of size, a register holds its content at the first one
    XOR these values.
    """
    ramp = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    size = 1 << (n * m) if size is None else size
    return {r: ramp[: max(1, size >> ((m - r) * n))].reshape((-1,) + (1,) * (m - r))
            for r in range(1, m + 1)}


def _register_sum(axes: dict[int, np.ndarray], regs) -> np.ndarray:
    """XOR of some registers' initial contents, broadcast over their axes."""
    return functools.reduce(np.bitwise_xor, (axes[r] for r in regs))


def _phase_blocks(circuit: Circuit, f: BooleanFunction | None):
    """Flat uint8 parity of F over every oracle call's coset, per basis index, in order.

    Each block is a run of consecutive basis indices, spectral._BLOCK_CELLS
    of them (rounded down to a power of two) or all 2^q if fewer.  In a
    block each register holds c_r XOR a run 0, 1, ... along its own axis, c_r
    its content at the block's start, so a coset C's part differs between
    blocks only by c = XOR of C's c_r.  The part is the bit F(c) if all of
    C's registers are fixed in a block; else rows[v] = (x -> F(x ^ v)) along
    the run of C's highest register h, at v = c XOR the runs of C's other
    registers; without room for the 2^(2n) rows, F is gathered per entry.
    Parts are XORed in order of h, so few of them span the whole block.
    """
    layout = circuit.layout
    n, m = layout.n, layout.m
    cosets, _ = _walk(circuit)
    if cosets and (f is None or f.n != n):
        raise ValueError(f"the oracle needs a BooleanFunction with n = {n}")
    cells = spectral._BLOCK_CELLS
    size = 1 << min(layout.qubits, cells.bit_length() - 1)
    axes = _register_axes(n, m, size)
    shape = tuple(len(axes[r]) for r in range(1, m + 1))
    table = f.table if cosets else None
    rows = None
    if cosets and 4**n <= cells:
        ramp = np.arange(1 << n)
        rows = table[np.bitwise_xor.outer(ramp, ramp)]
    starts = np.arange(0, layout.dim, size, dtype=np.int64)

    def start_xor(coset: frozenset[int]) -> np.ndarray:  # c of the coset, per block
        parts = [(starts >> layout.shift(r)) & ((1 << n) - 1) for r in coset]
        return functools.reduce(np.bitwise_xor, parts).astype(axes[1].dtype)

    plan, flips, acc_shape = [], np.zeros(len(starts), dtype=np.uint8), (1,) * m
    for coset in sorted(cosets, key=max):
        h = max(coset)
        if shape[h - 1] == 1:  # every register of the coset is fixed in a block
            flips ^= table[start_xor(coset)]
            continue
        if rows is None or len(coset) == 1:
            source, pattern = table, _register_sum(axes, coset)
            part_shape = (1,) * (m - pattern.ndim) + pattern.shape
        else:
            v = _register_sum(axes, coset - {h})
            # v broadcasts from the right: pad it to m axes, keep registers 1..h-1
            lead = v.reshape((1,) * (m - v.ndim) + v.shape).shape[: h - 1]
            source, pattern = rows[:, : shape[h - 1]], v.reshape(lead)
            part_shape = lead + (shape[h - 1],) + (1,) * (m - h)
        grown = np.broadcast_shapes(acc_shape, part_shape)
        plan.append((start_xor(coset), source, pattern, part_shape, grown != acc_shape))
        acc_shape = grown
    for j, flip in enumerate(flips):
        phase = np.zeros((1,) * m, dtype=np.uint8)
        for cs, source, pattern, part_shape, grows in plan:
            part = source.take(pattern ^ cs[j], axis=0).reshape(part_shape)
            phase = phase ^ part if grows else np.bitwise_xor(phase, part, out=phase)
        if flip:
            phase ^= 1
        yield (phase if acc_shape == shape else np.broadcast_to(phase, shape)).reshape(-1)


def run(circuit: Circuit, f: BooleanFunction | None = None) -> np.ndarray:
    """The float64 amplitudes of the circuit applied to the uniform state (module docstring)."""
    layout = circuit.layout
    q = layout.qubits
    a = np.empty(layout.dim, dtype=np.int32)
    start = 0
    for block in _phase_blocks(circuit, f):
        a[start : start + block.size] = 1 - 2 * block.view(np.int8)
        start += block.size
    contents = _walk(circuit)[1]
    if any(c != {r} for r, c in contents.items()):
        axes = _register_axes(layout.n, layout.m)
        index = sum(_register_sum(axes, c).astype(np.int64) << layout.shift(r)
                    for r, c in contents.items())
        a[index.reshape(-1)] = a.copy()
    if circuit.gates and isinstance(circuit.gates[-1], HadamardAll):
        return fwht_inplace(a) * 2.0**-q
    return a * 2.0 ** (-q / 2.0)


def zero_amplitude(circuit: Circuit, f: BooleanFunction | None = None) -> float:
    """float(run(circuit, f)[0]), from the phase blocks alone.

    The final register map is linear, so it fixes index 0, and a final HALL
    puts sum(signs) = 2^q - 2 popcount(phase) at index 0: no permutation and
    no transform.  Without it, only the first block's entry 0 is read.
    """
    q = circuit.layout.qubits
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
    """k+1 registers; queries all 2^k direction-subsets once and restores register 1."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    layout = RegisterLayout(n, k + 1)
    if k + layout.qubits > WALK_GUARD:
        raise CapacityError(
            f"derivative walk needs k + (k+1)*n <= {WALK_GUARD}, got k = {k}, n = {n}: "
            f"2^{k + layout.qubits} oracle-entry evaluations > 2^{WALK_GUARD}"
        )
    return Circuit(layout, tuple(_walk_gates(k) + [HadamardAll()]))


def build_u2_circuit(n: int) -> Circuit:
    """The 3-register norm circuit: 4 oracle calls, 6 MCNOTs, final Hadamard layer."""
    return build_derivative_walk_circuit(n, 2)


def build_appendix_u3_circuit(n: int) -> Circuit:
    """The fixed 4-register U_3 variant (7 oracle calls; see phase_audit)."""
    layout = RegisterLayout(n, 4)
    gates: tuple[Gate, ...] = (
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
    return Circuit(layout, gates)


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
    m = circuit.layout.m
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
