"""Typed errors raised by the geometry, kinematics, and dynamics operations.

Two families matter to callers: :class:`DegeneracyError` means the input
figure itself has no finite answer (parallel lines, coincident centers, a
zero vector where a direction is needed), while :class:`SingularityError`
means a numerically ill-posed configuration or an invalid step request.
The command-line front end maps the families to exit codes 2 and 3.
"""


class SympGeoError(Exception):
    """Base class for all library errors."""


class DegeneracyError(SympGeoError):
    """Geometrically degenerate input; no finite answer exists."""


class SingularityError(SympGeoError):
    """Numerically singular configuration or invalid integration step."""


class ZeroVectorError(DegeneracyError):
    """Operation undefined for the zero vector."""


class DegenerateScaleError(DegeneracyError):
    """Similarity divisor c + i*d vanishes."""


class DegenerateDenominatorError(DegeneracyError):
    """Area denominator of a ratio vanishes."""


class ParallelLinesError(DegeneracyError):
    """Lines are parallel; the intersection escapes to infinity."""


class CoincidentCentersError(DegeneracyError):
    """Circle centers coincide; tangent directions are undefined."""


class ZeroDirectionError(DegeneracyError):
    """Line direction vector must be nonzero."""


class SingularPositionError(SingularityError):
    """Mechanism slider length collapses; the rod orientation is undefined."""


class InvalidStepError(SingularityError):
    """Integrator step size or step count out of range."""


class NumericalOverflowError(SingularityError):
    """A result of valid input overflows the floating-point range."""
