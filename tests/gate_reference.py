"""Gate-by-gate integer reference for the compiled executor `qsim.run`.

A state is its int32 array of amplitude numerators, read with the circuit's
layout, as `run` returns it: the uniform state is all ones over 2^(q/2) for q
qubits, a phase oracle multiplies by (-1)^F(register), an MCNOT permutes
basis indices, and a Hadamard layer is the unnormalized FWHT, which moves the
denominator from 2^(q/2) to 2^q.  Tests fold a circuit through `apply` from
`uniform_state` and compare with `run`/`zero_amplitude` by equality.
"""

import numpy as np

from gowersim.boolfn import BooleanFunction
from gowersim.qsim import Gate, HadamardAll, MCnot, PhaseOracle, RegisterLayout
from gowersim.spectral import fwht_inplace


def uniform_state(layout: RegisterLayout) -> np.ndarray:
    return np.ones(layout.dim, dtype=np.int32)


def apply(layout: RegisterLayout, num: np.ndarray, gate: Gate,
          f: BooleanFunction | None = None) -> np.ndarray:
    """Apply one gate, returning a new numerator array (inputs are not mutated)."""
    if isinstance(gate, PhaseOracle):
        layout._check_register(gate.register)
        if f is None:
            raise ValueError("PhaseOracle requires a BooleanFunction")
        if f.n != layout.n:
            raise ValueError(f"oracle function has n = {f.n}, layout has n = {layout.n}")
        pre = 1 << ((gate.register - 1) * layout.n)
        post = 1 << ((layout.m - gate.register) * layout.n)
        signs = f.sign_table(num.dtype)
        return (num.reshape(pre, 1 << layout.n, post) * signs[None, :, None]).reshape(-1)
    if isinstance(gate, MCnot):
        layout._check_register(gate.target)
        layout._check_register(gate.source)
        idx = np.arange(layout.dim, dtype=np.int64)
        content = (idx >> layout.shift(gate.source)) & ((1 << layout.n) - 1)
        perm = idx ^ (content << layout.shift(gate.target))
        return num[perm]  # the permutation is an involution
    if isinstance(gate, HadamardAll):
        return fwht_inplace(num.copy())
    raise TypeError(f"unknown gate {gate!r}")


def fold(circuit, f: BooleanFunction | None = None) -> np.ndarray:
    """The circuit's gates applied one by one to the uniform state."""
    num = uniform_state(circuit.layout)
    for gate in circuit.gates:
        num = apply(circuit.layout, num, gate, f)
    return num
