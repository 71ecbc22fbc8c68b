"""Exact Gowers uniformity norms of Boolean functions, a gate-level simulator
for the quantum circuits that measure them, and linearity testing built on top.

The package keeps every norm value exact (as a DyadicRational, the
fractions.Fraction num / 2**log2_den) wherever a closed-form route exists,
and the quantum simulation's amplitudes exact too: integer numerators over a
power of two, checked against those values.

Each public name is imported from the module that defines it, for example
`from gowersim.spectral import walsh`; importing the package loads none of them.
"""

__version__ = "0.1.0"
