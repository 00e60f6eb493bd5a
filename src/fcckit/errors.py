"""Exception hierarchy shared across the toolkit.

Everything derives from FccError so callers can catch toolkit failures
with one except clause; a few classes also inherit the matching builtin
(ValueError / ZeroDivisionError) so generic code keeps working.
"""

from __future__ import annotations


class FccError(Exception):
    """Base class for all toolkit errors."""


class InvalidOrder(FccError, ValueError):
    """Requested field order is not a prime power."""


class DivisionByZero(FccError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(FccError, ValueError):
    """Operands belong to different finite fields."""


class ReducibleModulus(FccError, ValueError):
    """Supplied extension-field modulus is not monic irreducible of the right degree."""


class DuplicateNode(FccError, ValueError):
    """Interpolation nodes are not pairwise distinct."""


class EmptyInput(FccError, ValueError):
    """An operation that needs at least one item received none."""


class DimensionError(FccError, ValueError):
    """Vector or matrix shape does not match the declared dimensions."""


class RankDeficient(FccError, ValueError):
    """Generator matrix rows are linearly dependent."""


class NotSystematic(FccError, ValueError):
    """Generator matrix does not start with an identity block."""


class FieldTooSmall(FccError, ValueError):
    """Field order is below the minimum the construction requires."""


class UnknownFunction(FccError, ValueError):
    """No built-in function with the requested name."""


class BoundUndefined(FccError, ValueError):
    """Closed-form bound is undefined for these parameters."""


class WeightTooLarge(FccError, ValueError):
    """Requested error weight exceeds the vector length."""


class BeyondRadius(FccError):
    """Strict decoding found no codeword within the correction radius."""

    def __init__(self, message: str, distance: int):
        super().__init__(message)
        self.distance = distance


class BudgetExceeded(FccError):
    """An enumeration or search outgrew its configured budget.

    ``details`` carries whatever partial knowledge the aborted computation
    had.  An enumeration refused up front gives ``required`` and
    ``budget`` in one ``unit`` (``"codewords"``, ``"message pairs"``,
    ``"messages"``, ``"vectors"`` or ``"extension degree"``); a cut search
    gives its node count and best-known redundancy bounds.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class FormatError(FccError, ValueError):
    """Malformed function or scheme file; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IoError(FccError, OSError):
    """Reading or writing an input/output file failed."""
