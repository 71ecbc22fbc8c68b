"""Gate-by-gate float reference for the compiled executor `qsim.run`.

Each gate acts on a float64 state vector exactly as the circuit model says:
a phase oracle multiplies by (-1)^F(register), an MCNOT permutes basis
indices, and a Hadamard layer is the normalized FWHT.  Tests fold a circuit
through `apply` from `uniform_state` and compare with `run`/`zero_amplitude`.
A state is its float64 amplitude array, read with the circuit's layout.
"""

import numpy as np

from gowersim.boolfn import BooleanFunction
from gowersim.qsim import Gate, HadamardAll, MCnot, PhaseOracle, RegisterLayout
from gowersim.spectral import fwht_inplace


def norm(amp: np.ndarray) -> float:
    return float(np.sqrt(np.dot(amp, amp)))


def uniform_state(layout: RegisterLayout) -> np.ndarray:
    return np.full(layout.dim, 2.0 ** (-layout.qubits / 2.0))


def apply(layout: RegisterLayout, amp: np.ndarray, gate: Gate,
          f: BooleanFunction | None = None) -> np.ndarray:
    """Apply one gate, returning a new amplitude array (inputs are not mutated)."""
    if isinstance(gate, PhaseOracle):
        layout._check_register(gate.register)
        if f is None:
            raise ValueError("PhaseOracle requires a BooleanFunction")
        if f.n != layout.n:
            raise ValueError(f"oracle function has n = {f.n}, layout has n = {layout.n}")
        pre = 1 << ((gate.register - 1) * layout.n)
        post = 1 << ((layout.m - gate.register) * layout.n)
        signs = f.sign_table(np.float64)
        return (amp.reshape(pre, 1 << layout.n, post) * signs[None, :, None]).reshape(-1)
    if isinstance(gate, MCnot):
        layout._check_register(gate.target)
        layout._check_register(gate.source)
        idx = np.arange(layout.dim, dtype=np.int64)
        content = (idx >> layout.shift(gate.source)) & ((1 << layout.n) - 1)
        perm = idx ^ (content << layout.shift(gate.target))
        return amp[perm]  # the permutation is an involution
    if isinstance(gate, HadamardAll):
        out = fwht_inplace(amp.astype(np.float64, copy=True))
        out *= 2.0 ** (-layout.qubits / 2.0)
        return out
    raise TypeError(f"unknown gate {gate!r}")


def fold(circuit, f: BooleanFunction | None = None) -> np.ndarray:
    """The circuit's gates applied one by one to the uniform state."""
    amp = uniform_state(circuit.layout)
    for gate in circuit.gates:
        amp = apply(circuit.layout, amp, gate, f)
    return amp
