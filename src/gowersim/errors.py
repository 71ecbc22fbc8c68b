"""Shared exception types, the size envelope MAX_N, its capacity checks and the kernels' block size.

The CLI maps these onto exit statuses: usage/parse problems (including
``ValueError`` and ``AnfSyntaxError``) exit 2, ``CapacityError`` exits 3,
``CrossCheckError`` exits 4.
"""

MAX_N = 24  # the design envelope: bits of table index, simulated qubits, log2 of a sum's terms
# entries per block of spectral._derivative_rows and estimate.u2_partial_sums, and bytes per block
# of the words of spectral.convolve (one value of a >> 6 at least) and qsim._phase_blocks (one word)
_BLOCK_CELLS = 1 << 17


class CapacityError(Exception):
    """A requested problem size exceeds the library's exact-arithmetic guards."""


def check_capacity(rule: str, cost: int, unit: str, budget: int = MAX_N) -> None:
    """Refuse 2^cost units of work over 2^budget, worded `rule: 2^cost unit > 2^budget`."""
    if cost > budget:
        raise CapacityError(f"{rule}: 2^{cost} {unit} > 2^{budget}")


def check_layout(m: int, n: int) -> None:
    """Refuse m registers of n qubits, more than 2^MAX_N basis states."""
    check_capacity(f"layout needs m*n <= {MAX_N}, got {m} x {n}", m * n, "basis states")


class AnfSyntaxError(ValueError):
    """Malformed ANF expression. ``position`` is the 1-based column of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class CrossCheckError(Exception):
    """Two independent computation routes disagreed; this must never happen."""
