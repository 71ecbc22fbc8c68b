"""Gate-level simulator: the checked circuit, gate actions, circuit builders,
end-to-end amplitudes, and the symbolic phase audit.
"""

import functools
import json
import tracemalloc
from collections import Counter
from itertools import combinations
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gowersim import errors
from gowersim.boolfn import BooleanFunction, bent_quadratic, linear, random_function
from gowersim.cli import main
from gowersim.dyadic import DyadicRational
from gowersim.errors import CapacityError
from gowersim.gowers import u2_spectral, uk_definition
from gowersim.qsim import (
    Circuit,
    HadamardAll,
    MCnot,
    PhaseOracle,
    _phase_blocks,
    build_appendix_u3_circuit,
    build_derivative_walk_circuit,
    phase_audit,
    zero_amplitude,
)
from gowersim.spectral import fwht_inplace

from gate_reference import apply, fold, permuted_run, uniform_state

from_anf_string = BooleanFunction.from_anf_string


def basis_state(circuit, index):
    num = np.zeros(1 << circuit.qubits, dtype=np.int32)
    num[index] = 1
    return num


def amplitude(circuit, num: int) -> float:
    """The float amplitude num / 2^q of a numerator after a final HALL, written as
    zero_amplitude computes it, so that the two compare with ==."""
    return int(num) * 2.0**-circuit.qubits


def with_hall(circuit):
    """The circuit with a final HALL, which sums the phase of every index at index 0."""
    if circuit.gates and isinstance(circuit.gates[-1], HadamardAll):
        return circuit
    return Circuit(circuit.n, circuit.m, circuit.gates + (HadamardAll(),))


def test_register_layout():
    regs = Circuit(n=3, m=3, gates=())
    assert (regs.n, regs.m, regs.gates) == (3, 3, ())
    assert regs.qubits == 9
    assert regs.shift(1) == 6 and regs.shift(3) == 0
    idx = (0b101 << regs.shift(1)) | (0b010 << regs.shift(2)) | (0b111 << regs.shift(3))
    assert idx == 0b101_010_111
    with pytest.raises(CapacityError, match=r"got 4 x 7: 2\^28 basis states > 2\^24$"):
        Circuit(7, 4, ())
    assert Circuit(6, 4, ()).qubits == 24
    assert Circuit(2, 2, (g for g in [PhaseOracle(1)])).gates == (PhaseOracle(1),)
    with pytest.raises(AttributeError):  # only the constructor sets what it checked
        regs.m = 9


NOT_A_LAYOUT = "need n >= 1 qubits per register and m >= 1 registers"
NOT_LAST = "only HadamardAll, and only as the final gate"


@pytest.mark.parametrize(
    ("n", "m", "gates", "error", "message"),
    [
        (0, 2, (), ValueError, NOT_A_LAYOUT),
        (2, 0, (), ValueError, NOT_A_LAYOUT),
        (5, 5, (), CapacityError, "layout needs m*n <= 24, got 5 x 5: 2^25 basis states > 2^24"),
        (2, 3, (PhaseOracle(0),), ValueError, "register 0 out of range [1, 3]"),
        (2, 3, (PhaseOracle(4),), ValueError, "register 4 out of range [1, 3]"),
        (2, 3, (MCnot(0, 1),), ValueError, "register 0 out of range [1, 3]"),
        (2, 3, (MCnot(4, 1),), ValueError, "register 4 out of range [1, 3]"),
        (2, 3, (MCnot(1, 0),), ValueError, "register 0 out of range [1, 3]"),
        (2, 3, (MCnot(1, 4),), ValueError, "register 4 out of range [1, 3]"),
        (2, 3, (PhaseOracle(1), MCnot(2, 2)), ValueError, "MCnot target and source must differ"),
        (2, 3, (HadamardAll(), PhaseOracle(1)), ValueError, f"HadamardAll(): {NOT_LAST}"),
        (2, 3, (PhaseOracle(1), HadamardAll(), HadamardAll()), ValueError,
         f"HadamardAll(): {NOT_LAST}"),
        (2, 3, ((1,), HadamardAll()), ValueError, f"(1,): {NOT_LAST}"),
        (2, 3, (PhaseOracle(1), "HALL"), ValueError, f"'HALL': {NOT_LAST}"),
    ],
    ids=["n-0", "m-0", "25-qubits", "oracle-0", "oracle-4-of-3", "target-0", "target-4-of-3",
         "source-0", "source-4-of-3", "target-is-source", "hall-first", "hall-twice",
         "plain-tuple", "string-last"],
)
def test_circuit_refuses_a_malformed_circuit(n, m, gates, error, message):
    with pytest.raises(error) as refused:
        Circuit(n, m, gates)
    assert str(refused.value) == message


def test_uniform_state():
    st = uniform_state(Circuit(2, 2, ()))
    assert st.dtype == np.int32 and np.all(st == 1)  # amplitude 1 / 2^(q/2) = 1/4 each


def test_phase_oracle_action():
    regs = Circuit(2, 2, ())
    f = from_anf_string("x1*x2", 2)
    st = apply(regs, uniform_state(regs), PhaseOracle(2), f)
    # register 2 occupies the low bits; sign flips where its content is 11
    for idx in range(1 << regs.qubits):
        expected = -1 if (idx & 0b11) == 0b11 else 1
        assert st[idx] == expected

    # constant-0 oracle is the identity; constant-1 is a global minus sign
    st0 = apply(regs, uniform_state(regs), PhaseOracle(1), from_anf_string("0", 2))
    assert np.array_equal(st0, uniform_state(regs))
    st1 = apply(regs, uniform_state(regs), PhaseOracle(1), from_anf_string("1", 2))
    assert np.array_equal(st1, -uniform_state(regs))


def test_phase_oracle_needs_matching_function():
    regs = Circuit(2, 2, ())
    with pytest.raises(ValueError):
        apply(regs, uniform_state(regs), PhaseOracle(1), None)
    with pytest.raises(ValueError):
        apply(regs, uniform_state(regs), PhaseOracle(1), from_anf_string("0", 3))
    # f is checked also where no oracle reads it
    for f in (None, from_anf_string("0", 3)):
        for gates in ((PhaseOracle(1), HadamardAll()), (HadamardAll(),)):
            with pytest.raises(ValueError, match="^the oracle needs a BooleanFunction with n = 2$"):
                zero_amplitude(Circuit(2, 2, gates), f)
    # the amplitude at 0 has one formula, after the final HALL: without it no block is built
    with mock.patch("gowersim.qsim._phase_blocks", side_effect=AssertionError("a block built")):
        for gates in ((PhaseOracle(1),), ()):
            with pytest.raises(ValueError,
                               match="^the amplitude at 0 is read after a final HadamardAll$"):
                zero_amplitude(Circuit(2, 2, gates), from_anf_string("0", 2))


def test_mcnot_is_a_basis_permutation():
    regs = Circuit(2, 3, ())
    gate = MCnot(target=1, source=3)
    for idx in (0, 0b01_10_11, 0b11_11_11):
        st = apply(regs, basis_state(regs, idx), gate)
        expected = idx ^ (((idx >> regs.shift(3)) & 0b11) << regs.shift(1))
        assert st[expected] == 1
        assert np.count_nonzero(st) == 1


def test_mcnot_is_an_involution():
    regs = Circuit(2, 2, ())
    num = np.random.default_rng(10).integers(-8, 8, 1 << regs.qubits, dtype=np.int32)
    twice = apply(regs, apply(regs, num, MCnot(2, 1)), MCnot(2, 1))
    assert np.array_equal(twice, num)


def test_hadamard_all():
    regs = Circuit(2, 2, ())
    dim = 1 << regs.qubits
    st = apply(regs, uniform_state(regs), HadamardAll())
    assert st[0] == dim  # amplitude 2^q / 2^q = 1
    assert not np.any(st[1:])
    # self-inverse up to the 2^q of the unnormalized transform
    num = np.random.default_rng(11).integers(-8, 8, dim, dtype=np.int32)
    back = apply(regs, apply(regs, num, HadamardAll()), HadamardAll())
    assert np.array_equal(back, dim * num)


def test_gates_preserve_norm():
    rng = np.random.default_rng(12)
    regs = Circuit(2, 3, ())
    f = random_function(2, 99)
    st = uniform_state(regs)
    dim = 1 << regs.qubits
    squared_den = dim  # |amplitude|^2 = num^2 / 2^q in the uniform state
    for gate in (PhaseOracle(1), MCnot(1, 2), HadamardAll(), MCnot(3, 1), PhaseOracle(3)):
        st = apply(regs, st, gate, f)
        if isinstance(gate, HadamardAll):
            squared_den *= dim  # the denominator goes from 2^(q/2) to 2^q
        assert int(np.sum(st.astype(np.int64) ** 2)) == squared_den


def test_u2_circuit_structure():
    c = build_derivative_walk_circuit(2, 2)
    assert c.m == 3
    assert c.gates == (
        PhaseOracle(1),
        MCnot(1, 2),
        PhaseOracle(1),
        MCnot(1, 2),
        MCnot(1, 3),
        PhaseOracle(1),
        MCnot(1, 2),
        PhaseOracle(1),
        MCnot(1, 2),
        MCnot(1, 3),
        HadamardAll(),
    )
    assert c.oracle_count == 4
    assert c.dump().splitlines() == [
        "UF r1",
        "MCNOT r1 r2",
        "UF r1",
        "MCNOT r1 r2",
        "MCNOT r1 r3",
        "UF r1",
        "MCNOT r1 r2",
        "UF r1",
        "MCNOT r1 r2",
        "MCNOT r1 r3",
        "HALL",
    ]


def test_walk_k2_matches_u2_circuit(capsys):
    # the CLI's --circuit u2 is the derivative walk at k = 2
    for n in (1, 2, 3):
        assert main(["simulate", "--circuit", "u2", "-n", str(n), "--dump"]) == 0
        dump = json.loads(capsys.readouterr().out)["dump"]
        assert dump == build_derivative_walk_circuit(n, 2).dump().splitlines()


def test_walk_k3_shape():
    c = build_derivative_walk_circuit(2, 3)
    counts = Counter(type(g).__name__ for g in c.gates)
    assert counts == {"PhaseOracle": 8, "MCnot": 14, "HadamardAll": 1}
    assert c.m == 4


def test_appendix_u3_structure():
    c = build_appendix_u3_circuit(2)
    assert c.m == 4
    assert c.oracle_count == 7
    assert len(c.gates) == 16


def test_permuted_run_known_amplitudes():
    # numerators over 2^q: amplitudes 1, 1/4 and 1/16
    assert permuted_run(build_derivative_walk_circuit(3, 2), linear(3, "110"))[0] == 1 << 9
    and_num = permuted_run(build_derivative_walk_circuit(2, 2), from_anf_string("x1*x2", 2))
    assert and_num.dtype == np.int32 and and_num.shape == (1 << 6,)
    assert and_num[0] == (1 << 6) // 4
    bent_num = permuted_run(build_derivative_walk_circuit(4, 2), bent_quadratic(4))
    assert bent_num[0] == (1 << 12) // 16


def test_u2_circuit_full_spectrum():
    # the final numerators are the 3n-bit Hadamard transform of the sign tensor
    # s(x, a, b) = f(x) f(x+a) f(x+b) f(x+a+b), over 2^(3n)
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        f = random_function(n, int(rng.integers(0, 2**32)))
        size = 1 << n
        sign = 1 - 2 * f.table.astype(np.int64)
        tensor = np.empty(size**3, dtype=np.int64)
        for x in range(size):
            for a in range(size):
                for b in range(size):
                    idx = (x << (2 * n)) | (a << n) | b
                    tensor[idx] = (
                        sign[x] * sign[x ^ a] * sign[x ^ b] * sign[x ^ a ^ b]
                    )
        fwht_inplace(tensor)
        assert np.array_equal(permuted_run(build_derivative_walk_circuit(n, 2), f), tensor)


def test_walk_circuit_measures_uk():
    rng = np.random.default_rng(14)
    for n, k in ((2, 2), (2, 3), (3, 3), (2, 4)):
        f = random_function(n, int(rng.integers(0, 2**32)))
        num0 = int(permuted_run(build_derivative_walk_circuit(n, k), f)[0])
        p0 = Fraction(num0, 1 << (k + 1) * n) ** 2
        assert p0 == uk_definition(f, k).pow_value ** 2


def test_phase_audit_u2():
    audit = phase_audit(build_derivative_walk_circuit(2, 2))
    assert audit["status"] == "ok"
    assert audit["oracle_calls"] == 4
    assert audit["register_one_restored"]
    assert sorted(audit["cosets"]) == [[1], [1, 2], [1, 2, 3], [1, 3]]
    assert audit["missing"] == [] and audit["extra"] == []


def test_phase_audit_walk():
    for k in (2, 3, 4):
        audit = phase_audit(build_derivative_walk_circuit(2, k))
        assert audit["status"] == "ok"
        assert audit["oracle_calls"] == 1 << k
        assert audit["register_one_restored"]


def test_phase_audit_appendix():
    audit = phase_audit(build_appendix_u3_circuit(2))
    assert audit["status"] == "not-a-derivative"
    assert audit["oracle_calls"] == 7
    assert audit["register_one_restored"]
    assert audit["missing"] == [[1, 2, 4]]
    assert audit["extra"] == []


def test_phase_audit_flags_repeats_and_midway_hadamard():
    doubled = Circuit(2, 1, (PhaseOracle(1), PhaseOracle(1), HadamardAll()))
    audit = phase_audit(doubled)
    assert audit["status"] == "not-a-derivative"
    assert audit["extra"] == [[1]]
    # a midway Hadamard layer is refused when the circuit is built, before any audit or run
    with pytest.raises(ValueError, match="only HadamardAll, and only as the final gate"):
        Circuit(2, 1, (HadamardAll(), PhaseOracle(1)))


def test_circuit_capacity():
    with pytest.raises(CapacityError):
        build_derivative_walk_circuit(7, 3)  # 4 registers * 7 bits = 28 qubits
    with pytest.raises(ValueError):
        build_derivative_walk_circuit(2, 0)


def test_walk_work_guard():
    # 2^k oracle calls over 2^((k+1) n) states: k + (k+1) n <= 32 runs, more is refused
    assert build_derivative_walk_circuit(2, 10).oracle_count == 1 << 10  # 2^32, on budget
    assert build_derivative_walk_circuit(4, 5).qubits == 24  # 2^29
    for n, k, work in ((1, 16, 33), (2, 11, 35), (1, 23, 47)):
        with pytest.raises(CapacityError, match=rf"2\^{work} oracle-entry evaluations > 2\^32"):
            build_derivative_walk_circuit(n, k)


def test_walk_p0_known_value():
    f = from_anf_string("x1*x2*x3", 3)
    p0 = Fraction(int(permuted_run(build_derivative_walk_circuit(3, 3), f)[0]), 1 << 12) ** 2
    assert p0 == DyadicRational(11, 5) ** 2


@st.composite
def circuits_and_functions(draw, max_qubits=10):
    """A random circuit on m registers of n qubits, n*m <= max_qubits: an oracle/MCNOT prefix
    and an optional final HALL."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, max_qubits // n))
    register = st.integers(1, m)
    gate = register.map(PhaseOracle)
    if m > 1:
        pairs = st.tuples(register, register).filter(lambda ts: ts[0] != ts[1])
        gate = gate | pairs.map(lambda ts: MCnot(*ts))
    gates = draw(st.lists(gate, max_size=12))
    if draw(st.booleans()):
        gates.append(HadamardAll())
    f = random_function(n, draw(st.integers(0, 2**32 - 1)))
    return Circuit(n, m, tuple(gates)), f


@settings(max_examples=300, deadline=None)
@given(circuits_and_functions(), st.sampled_from([4, 64, errors._BLOCK_CELLS]))
def test_permuted_run_matches_the_fold_at_every_block_size(case, cells):
    circuit, f = case
    state = fold(circuit, f)
    with mock.patch.object(errors, "_BLOCK_CELLS", cells):
        num = permuted_run(circuit, f)
    assert num.tobytes() == state.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_walk_amplitude_equals_uk_exactly(n, k, seed):
    assume(n * (k + 1) <= 16)
    f = random_function(n, seed)
    num0 = int(permuted_run(build_derivative_walk_circuit(n, k), f)[0])
    assert Fraction(num0, 1 << (k + 1) * n) == uk_definition(f, k).pow_value


@st.composite
def built_circuits(draw):
    """A walk circuit of order k <= 3 or the appendix U3 circuit, 12 qubits at most."""
    k = draw(st.integers(1, 4))  # 4 stands for the appendix circuit (4 registers)
    n = draw(st.integers(1, 12 // (min(k, 3) + 1)))
    circuit = build_appendix_u3_circuit(n) if k == 4 else build_derivative_walk_circuit(n, k)
    return circuit, random_function(n, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(built_circuits(), circuits_and_functions(max_qubits=12)))
def test_zero_amplitude_equals_permuted_run(case):
    circuit, f = with_hall(case[0]), case[1]
    assert zero_amplitude(circuit, f) == amplitude(circuit, permuted_run(circuit, f)[0])


@settings(max_examples=200, deadline=None)
@given(circuits_and_functions(), st.sampled_from([4, 64, errors._BLOCK_CELLS]))
def test_zero_amplitude_matches_gate_by_gate_fold(case, cells):
    # the fold is the independent oracle: oracles on every register, cosets
    # without register 1, several blocks and both gather paths; a HALL is appended
    # where the circuit has none, so the amplitude sums every index's phase
    circuit, f = with_hall(case[0]), case[1]
    expected = amplitude(circuit, fold(circuit, f)[0])
    with mock.patch.object(errors, "_BLOCK_CELLS", cells):
        assert zero_amplitude(circuit, f) == expected


SMALL_BLOCKS = 64


def blocked(circuit, name, cells=(SMALL_BLOCKS, 1 << 14)):
    return [pytest.param(circuit, c, id=f"{name}-{c}") for c in cells]


BLOCKED_CIRCUITS = [
    *blocked(Circuit(12, 1, (PhaseOracle(1), HadamardAll())), "m1-n12"),
    # m = 2 at n >= 9: the 2^(2n) translate rows never fit a block
    *blocked(build_derivative_walk_circuit(9, 1), "walk1-n9"),
    *blocked(build_appendix_u3_circuit(4), "u3-n4"),
    *blocked(build_derivative_walk_circuit(6, 2), "u2-n6"),
    *blocked(Circuit(4, 4, (MCnot(2, 1), PhaseOracle(2), MCnot(4, 3),
                            PhaseOracle(4), MCnot(1, 4), PhaseOracle(3))),
             "permuted-n4"),
    # 24 qubits split into 2^10 blocks; the small-block splits of u3-n6 and u2-n8
    # (2^18 blocks, seconds each) are covered by the two cases below
    *blocked(build_derivative_walk_circuit(12, 1), "walk1-n12"),
    *blocked(build_appendix_u3_circuit(6), "u3-n6", [1 << 14]),
    *blocked(build_derivative_walk_circuit(8, 2), "u2-n8", [1 << 14]),
    # a block ends inside register 3 as for u2-n8 at 64 cells, and at register 4 as
    # for u3-n6 at 64 cells, on the same gather paths
    *blocked(build_derivative_walk_circuit(7, 2), "u2-n7", [SMALL_BLOCKS]),
    *blocked(build_appendix_u3_circuit(5), "u3-n5", [32]),
]


def simulated(circuit, f):
    """zero_amplitude after a final HALL, appended where the circuit has none, and
    permuted_run's state bytes up to 18 qubits (not at 2^24 states)."""
    state = permuted_run(circuit, f).tobytes() if circuit.qubits <= 18 else None
    return zero_amplitude(with_hall(circuit), f), state


@pytest.mark.parametrize(("circuit", "cells"), BLOCKED_CIRCUITS)
def test_block_size_does_not_change_the_simulation(monkeypatch, cells, circuit):
    f = random_function(circuit.n, 21)
    expected = simulated(circuit, f)
    monkeypatch.setattr(errors, "_BLOCK_CELLS", cells)
    assert simulated(circuit, f) == expected


def idle_register_circuit(m):
    """Oracles on registers 1 and m only, so the other m - 2 registers sit idle."""
    gates = (PhaseOracle(1), MCnot(1, m), PhaseOracle(1), PhaseOracle(m), MCnot(1, m))
    return Circuit(1, m, gates + (HadamardAll(),))


@pytest.mark.parametrize(
    ("circuit", "cells"),
    [
        # one register-1 value spans 2^18, 2^20 and 2^23 entries
        pytest.param(build_derivative_walk_circuit(6, 3), errors._BLOCK_CELLS, id="walk3-n6"),
        pytest.param(build_derivative_walk_circuit(4, 5), errors._BLOCK_CELLS, id="walk5-n4"),
        pytest.param(idle_register_circuit(24), errors._BLOCK_CELLS, id="idle-m24-n1"),
        # patched bounds: a block holds part of one register's range (2, 3, 5, 3)
        pytest.param(build_derivative_walk_circuit(4, 3), 1 << 10, id="walk3-n4-1024"),
        pytest.param(build_appendix_u3_circuit(3), 16, id="u3-n3-16"),
        pytest.param(build_derivative_walk_circuit(2, 5), 8, id="walk5-n2-8"),
        pytest.param(build_derivative_walk_circuit(4, 2), 4, id="u2-n4-4"),
    ],
)
def test_every_block_is_bounded(monkeypatch, circuit, cells):
    f = random_function(circuit.n, 44)
    if circuit.qubits <= 16:
        expected = fold(circuit, f)
    monkeypatch.setattr(errors, "_BLOCK_CELLS", cells)
    sizes = [block.size for block in _phase_blocks(circuit, f)]
    assert sizes == [cells] * ((1 << circuit.qubits) // cells)
    amp0 = zero_amplitude(circuit, f)
    if circuit.qubits <= 16:
        assert amp0 == amplitude(circuit, expected[0])
        assert permuted_run(circuit, f).tobytes() == expected.tobytes()
    elif circuit.n == 1:
        assert amp0 == zero_amplitude(idle_register_circuit(2), f)
    else:
        k = circuit.m - 1
        assert Fraction(amp0) == uk_definition(f, k).pow_value


def test_zero_amplitude_never_holds_the_phase_table():
    # a 24-qubit table is 16 MiB of uint8; blocks of 2^17 entries stay far below
    f = random_function(8, 3)
    circuit = build_derivative_walk_circuit(8, 2)
    tracemalloc.start()
    try:
        zero_amplitude(circuit, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize(
    ("gates", "f"),
    [
        ((PhaseOracle(4), HadamardAll()), random_function(8, 1)),
        ((HadamardAll(), PhaseOracle(1)), random_function(8, 1)),
        (build_derivative_walk_circuit(8, 2).gates, None),
        (build_derivative_walk_circuit(8, 2).gates, random_function(7, 1)),
        ((MCnot(4, 1), HadamardAll()), random_function(8, 1)),
        ((MCnot(1, 4), HadamardAll()), random_function(8, 1)),
        (build_derivative_walk_circuit(8, 2).gates[:-1], random_function(8, 1)),
    ],
    ids=["oracle-register-4-of-3", "hall-not-last", "no-function", "function-n7",
         "mcnot-target-4-of-3", "mcnot-source-4-of-3", "no-final-hall"],
)
def test_zero_amplitude_refuses_before_it_allocates_the_state(gates, f):
    # a malformed circuit is refused when built, a missing or mismatched f or a missing
    # final HALL before the executor's first block; a 24-qubit phase table would be 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            zero_amplitude(Circuit(8, 3, gates), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# unrestored register maps: the phases are read in the initial registers
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(circuits_and_functions())
def test_permuted_run_matches_gate_by_gate_fold(case):
    circuit, f = case
    assert permuted_run(circuit, f).tobytes() == fold(circuit, f).tobytes()


@pytest.mark.parametrize(
    "circuit",
    [
        Circuit(7, 3, (PhaseOracle(1), MCnot(1, 2), PhaseOracle(1), HadamardAll())),
        Circuit(7, 3, (MCnot(2, 1), PhaseOracle(2), MCnot(3, 2), PhaseOracle(1),
                       MCnot(1, 3), PhaseOracle(3))),
        Circuit(3, 7, (PhaseOracle(1), MCnot(1, 5), MCnot(7, 1), PhaseOracle(7),
                       MCnot(2, 7), PhaseOracle(2), PhaseOracle(1), HadamardAll())),
        Circuit(1, 21, (MCnot(21, 1), PhaseOracle(21), MCnot(1, 20),
                        PhaseOracle(1), HadamardAll())),
    ],
    ids=["n7-m3", "n7-m3-no-hall", "n3-m7", "n1-m21"],
)
def test_permuted_run_and_zero_amplitude_equal_the_fold_at_21_qubits(circuit):
    # the hypothesis cases stop near 10 qubits; a few gate-by-gate folds reach the edge
    f = random_function(circuit.n, 23)
    state = fold(circuit, f)
    assert permuted_run(circuit, f).tobytes() == state.tobytes()
    hall = with_hall(circuit)
    if hall is not circuit:  # one gate more: the HALL puts the sum of every phase at 0
        state = apply(hall, state, HadamardAll())
    assert zero_amplitude(hall, f) == amplitude(hall, state[0])


# ---------------------------------------------------------------------------
# symmetries of the walk's state at the envelope edge (no second simulator)
# ---------------------------------------------------------------------------


def random_polynomial(n, degree, rng):
    """F plus a random ANF of degree exactly `degree` <= 2."""
    monomials = [f"x{i}" for i in range(1, n + 1)]
    if degree == 2:
        monomials = [f"x{i}*x{j}" for i, j in combinations(range(1, n + 1), 2)] + monomials
    picked = [t for t in ["1", *monomials] if rng.integers(2)]
    p = from_anf_string(" + ".join([monomials[0], *picked]), n)
    assert p.degree() == degree
    return p


def plus(f, g):
    return BooleanFunction(f.n, f.table ^ g.table)


@pytest.mark.parametrize(
    ("circuit", "degree"),
    [(build_derivative_walk_circuit(7, 2), 1), (build_derivative_walk_circuit(5, 3), 2)],
    ids=["u2-n7-affine", "walk3-n5-quadratic"],
)
def test_a_polynomial_of_degree_below_k_leaves_the_state_unchanged(circuit, degree):
    rng = np.random.default_rng(31)
    n = circuit.n
    f = random_function(n, 32)
    assert permuted_run(circuit, plus(f, random_polynomial(n, degree, rng))).tobytes() == (
        permuted_run(circuit, f).tobytes()
    )


def test_a_quadratic_leaves_the_24_qubit_walk_amplitude_unchanged():
    circuit = build_derivative_walk_circuit(6, 3)
    f = random_function(6, 33)
    g = plus(f, random_polynomial(6, 2, np.random.default_rng(34)))
    assert zero_amplitude(circuit, g) == zero_amplitude(circuit, f)


def test_translating_f_signs_the_state_by_register_one():
    # sum over x of phase(x ^ c, ...) (-1)^(r1 . x) = (-1)^(r1 . c) times the old entry
    circuit, n = build_derivative_walk_circuit(7, 2), 7
    f = random_function(n, 35)
    c = 0b1011001
    shifted = BooleanFunction(n, f.table[np.arange(1 << n) ^ c])
    base = permuted_run(circuit, f)
    r1 = np.arange(1 << circuit.qubits) >> circuit.shift(1)
    odd = np.bitwise_count(r1 & c) & 1 == 1
    assert np.array_equal(permuted_run(circuit, shifted), np.where(odd, -base, base))


def test_composing_f_with_a_linear_map_moves_every_register_field():
    # F o L at (r_1, ..., r_m) equals F at (M r_1, ..., M r_m), M = (L^-1)^T
    circuit, n = build_derivative_walk_circuit(7, 2), 7
    rng = np.random.default_rng(36)
    x = np.arange(1 << n)
    while True:  # L as the table of its values: XOR of the columns of x's bits
        columns = rng.integers(0, 1 << n, n)
        images = functools.reduce(np.bitwise_xor, [((x >> i) & 1) * columns[i] for i in range(n)])
        if len(np.unique(images)) == 1 << n:
            break
    inverse = np.empty_like(images)
    inverse[images] = x
    # bit i of M y is column i of L^-1, that is L^-1(2^i), dotted with y
    moved = sum(((np.bitwise_count(inverse[1 << i] & x) & 1) << i) for i in range(n))
    f = random_function(n, 37)
    base = permuted_run(circuit, f).reshape((1 << n,) * 3)
    composed = permuted_run(circuit, BooleanFunction(n, f.table[images]))
    assert np.array_equal(composed, base[np.ix_(moved, moved, moved)].reshape(-1))
