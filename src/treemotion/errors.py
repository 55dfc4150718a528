"""Exception hierarchy.

Two broad families: structural problems (bad tree wiring, bad files,
mismatched dimensions) and numeric problems (singular root metric,
potentials evaluated outside their domain, non-finite policy output).
The CLI maps them to distinct exit codes.
"""

import operator


class TreeMotionError(Exception):
    """Base class for all library errors."""


class StructureError(TreeMotionError):
    """Tree wiring or dimension bookkeeping is inconsistent."""


class SpecFormatError(StructureError):
    """A JSON/CSV artifact does not match its documented schema."""


class NumericError(TreeMotionError):
    """A numeric contract was violated during evaluation."""


class SingularMetricError(NumericError):
    """Root importance-weight matrix is singular (or below tolerance)."""


class DomainError(NumericError):
    """A map or potential was evaluated outside its domain."""


def as_integer(value, name: str) -> int:
    """The one integer rule of constructors and spec reader: a float passes
    only when whole (JSON ``3.0``), where ``int`` would truncate 2.7 to 2."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise StructureError(f"{name} must be an integer, got {value!r}") from None
