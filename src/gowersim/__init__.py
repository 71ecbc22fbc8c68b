"""Exact Gowers uniformity norms of Boolean functions, a gate-level simulator
for the quantum circuits that measure them, and linearity testing built on top.

The package keeps every norm value exact (as a DyadicRational, the
fractions.Fraction num / 2**log2_den) wherever a closed-form route exists,
and the quantum simulation's amplitudes exact too: integer numerators over a
power of two, checked against those values.

Importing the package loads none of its modules: each public name below is
imported from its module the first time it is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "boolfn": "Anf BooleanFunction bent_quadratic linear random_function",
    "dyadic": "DyadicRational",
    "errors": "AnfSyntaxError CapacityError CrossCheckError",
    "estimate": "Measurement child_seed hoeffding_bound u2_partial_sums validate_bound",
    "gowers": "GowersValue u2_autocorrelation u2_spectral uk_definition uk_via_derivatives",
    "lintest": "blr_exact_dyadic blr_test compare quantum_linearity_test rejection_lower_bound",
    "qsim": "Circuit HadamardAll MCnot PhaseOracle RegisterLayout build_appendix_u3_circuit "
    "build_derivative_walk_circuit build_u2_circuit phase_audit zero_amplitude",
    "spectral": "convolve dist_to_linear fwht_inplace nonlinearity walsh",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module: `gowersim.qsim` after a bare `import gowersim`
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
