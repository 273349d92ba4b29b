"""Exception types shared across the package.

`cli.run` tells apart only a failed cross-check (exit 2) from every other
package error (exit 1); the two input-error classes name what was wrong
with an input, and the message says which input.
"""


class QdiceError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QdiceError):
    """Operands act on incompatible subsystems or dimensions, or a
    measurement basis is not orthogonal."""


class ParameterRangeError(QdiceError):
    """A protocol parameter lies outside its valid range, or makes the
    analysis degenerate."""


class CrossCheckError(QdiceError):
    """Two independent computations of the same quantity disagree beyond tolerance."""
