"""Exception hierarchy.

Two broad families: structural problems (bad tree wiring, bad files,
mismatched dimensions) and numeric problems (singular root metric,
potentials evaluated outside their domain, non-finite policy output).
The CLI maps them to distinct exit codes.
"""

import math
import numbers
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


def as_integer(value, name: str, minimum=None) -> int:
    """The one integer rule of constructors and spec reader: a float passes
    only when whole (JSON ``3.0``), where ``int`` would truncate 2.7 to 2;
    a bool is not a count (see ``as_real``); below ``minimum`` (when given)
    is a ``StructureError`` too."""
    if isinstance(value, float) and value.is_integer():
        result = int(value)
    elif isinstance(value, bool):
        raise StructureError(f"{name} must be an integer, got {value!r}")
    else:
        try:
            result = operator.index(value)
        except TypeError:
            raise StructureError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and result < minimum:
        raise StructureError(f"{name} must be >= {minimum}, got {result}")
    return result


# as_real's bounds: bound -> (lowest value, whether the range excludes it,
# the value the range stops below).
_REAL_BOUNDS = {">= 0": (0.0, False, math.inf), "> 0": (0.0, True, math.inf),
                "in [0, 1)": (0.0, False, 1.0)}


def as_real(value, name: str, bound: str) -> float:
    """The one real-number rule of constructors, entry points and spec
    reader: ``float(value)`` when ``value`` is a real number (an int, a
    float, a numpy scalar) that is finite and within ``bound``, one of
    ``">= 0"``, ``"> 0"`` and ``"in [0, 1)"``; else ``StructureError``
    naming ``name``. A string is not a real number, not even ``"3"``, and
    neither is a bool: ``True`` is a flag, not a gain, so a bool is
    rejected here and by ``as_integer`` alike."""
    if type(value) is not float:  # the common case skips the ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise StructureError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    low, excluded, stop = _REAL_BOUNDS[bound]
    if not (low < value if excluded else low <= value) or not value < stop:
        raise StructureError(f"{name} must be finite and {bound}, got {value}")
    return value
