"""Exception types shared across the package, and ``check_number``, the
one test of a numeric parameter: a real that is not a bool, NaN never,
inside an interval that defaults to the finite numbers."""

import math
import numbers


class PilevolError(Exception):
    """Base class for all pilevol errors."""


class InvalidParameter(PilevolError, ValueError):
    """A numeric or enum parameter is outside its valid range."""


class EmptyCloud(PilevolError, ValueError):
    """An operation that requires points received an empty cloud."""


class DegenerateCloud(PilevolError, ValueError):
    """The cloud geometry does not support the requested fit (too few
    points, collinear, coplanar, or no consensus reached)."""


class DegenerateInput(PilevolError, ValueError):
    """2D geometry input is degenerate (fewer than 3 points or collinear)."""


class DegenerateHeights(PilevolError, ValueError):
    """All z values are identical; a height histogram cannot be built."""


class EmptyBand(PilevolError, ValueError):
    """The ground search band contains no histogram bins."""


class LabelMismatch(PilevolError, ValueError):
    """Cluster labels do not match the cloud they are applied to."""


class NotUnitVector(PilevolError, ValueError):
    """A direction argument is not normalized."""


class MalformedHeader(PilevolError, ValueError):
    """A PLY header does not follow the supported subset of PLY 1.0."""


class UnsupportedProperty(PilevolError, ValueError):
    """A PLY vertex property has a type this reader cannot skip over."""


class NonFiniteCoordinate(PilevolError, ValueError):
    """A parsed coordinate is NaN or infinite."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"non-finite coordinate at point row {row}")


class ConfigError(PilevolError, ValueError):
    """A pipeline configuration file or value is invalid."""


def check_number(name: str, value, lo=-math.inf, hi=math.inf, *, integer: bool = False,
                 lo_open: bool = True, hi_open: bool = True, error=InvalidParameter):
    """Return ``value`` if it is a number (an integer with ``integer``),
    not a bool, inside the interval from ``lo`` to ``hi``; raise ``error``
    naming ``name`` otherwise.

    Each end is open unless ``lo_open`` or ``hi_open`` is False, so the
    default interval holds exactly the finite numbers, and a closed
    infinite end admits that infinity.  NaN lies in no interval.
    """
    kind = numbers.Integral if integer else numbers.Real
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, "
                    f"got {value!r}")
    above = lo < value if lo_open else lo <= value
    below = value < hi if hi_open else value <= hi
    if not (above and below):
        if (lo, hi, lo_open, hi_open) == (-math.inf, math.inf, True, True):
            raise error(f"{name} must be finite, got {value}")
        raise error(f"{name} must be in {'(' if lo_open else '['}{lo}, {hi}"
                    f"{')' if hi_open else ']'}, got {value}")
    return value
