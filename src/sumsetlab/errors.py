"""Exception types shared across the package.

InputError covers malformed or inconsistent user input (wrong space, empty
operand, bad JSON shape, out-of-range parameter, a file path that cannot be
read or written).  GuardError covers refusals
of resource guards (subset-enumeration caps, sumset cardinality caps, edge
caps); its message always names the guard that fired so callers can decide
whether to raise the cap and retry.
"""

__all__ = ["SumsetLabError", "InputError", "GuardError"]


class SumsetLabError(Exception):
    """Base class for errors raised by this package."""


class InputError(SumsetLabError, ValueError):
    """Invalid or inconsistent input."""


class GuardError(SumsetLabError, RuntimeError):
    """A resource guard refused the computation; the message names the guard."""
