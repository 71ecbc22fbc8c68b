"""Exact Gowers uniformity norms of Boolean functions, a gate-level simulator
for the quantum circuits that measure them, and linearity testing built on top.

The package keeps every norm value exact (as a dyadic rational) wherever a
closed-form route exists, and cross-checks the floating-point quantum
simulation against those exact values.
"""

from .boolfn import (
    Anf,
    BooleanFunction,
    bent_quadratic,
    constant,
    linear,
    random_function,
)
from .dyadic import DyadicRational
from .errors import AnfSyntaxError, CapacityError, CrossCheckError
from .estimate import (
    EstimationReport,
    Measurement,
    SampleSet,
    child_seed,
    hoeffding_bound,
    validate_bound,
)
from .gowers import GowersValue, u2_autocorrelation, u2_spectral, uk_definition, uk_via_derivatives
from .lintest import (
    ComparisonReport,
    RejectionBound,
    TestVerdict,
    blr_exact_dyadic,
    blr_test,
    compare,
    quantum_linearity_test,
    rejection_lower_bound,
)
from .qsim import (
    Circuit,
    HadamardAll,
    MCnot,
    PhaseAudit,
    PhaseOracle,
    RegisterLayout,
    StateVector,
    build_appendix_u3_circuit,
    build_derivative_walk_circuit,
    build_u2_circuit,
    phase_audit,
    run,
    zero_amplitude,
)
from .spectral import (
    LinearDistance,
    autocorrelation,
    convolve,
    dist_to_linear,
    fwht_inplace,
    nonlinearity,
    walsh,
)

__version__ = "0.1.0"

__all__ = [
    "Anf",
    "AnfSyntaxError",
    "BooleanFunction",
    "CapacityError",
    "Circuit",
    "ComparisonReport",
    "CrossCheckError",
    "DyadicRational",
    "EstimationReport",
    "GowersValue",
    "HadamardAll",
    "LinearDistance",
    "MCnot",
    "Measurement",
    "PhaseAudit",
    "PhaseOracle",
    "RegisterLayout",
    "RejectionBound",
    "SampleSet",
    "StateVector",
    "TestVerdict",
    "autocorrelation",
    "bent_quadratic",
    "blr_exact_dyadic",
    "blr_test",
    "build_appendix_u3_circuit",
    "build_derivative_walk_circuit",
    "build_u2_circuit",
    "child_seed",
    "compare",
    "constant",
    "convolve",
    "dist_to_linear",
    "fwht_inplace",
    "hoeffding_bound",
    "linear",
    "nonlinearity",
    "phase_audit",
    "quantum_linearity_test",
    "random_function",
    "rejection_lower_bound",
    "run",
    "u2_autocorrelation",
    "u2_spectral",
    "uk_definition",
    "uk_via_derivatives",
    "validate_bound",
    "walsh",
    "zero_amplitude",
]
