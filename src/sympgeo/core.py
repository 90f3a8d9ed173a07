"""Planar symplectic vector algebra.

Everything in this package is built from four primitives on 2-vectors:
addition, scaling, the dot product, and the quarter-turn operator
:func:`tilde`.  The combination ``dot(tilde(a), b)`` is the perp-dot
(symplectic) product :func:`symp`: the signed area of the parallelogram
spanned by ``a`` and ``b``.

Sign conventions, fixed once here and relied on everywhere else:

* ``tilde`` rotates counterclockwise by pi/2, so ``symp(a, b) > 0`` when
  the turn from ``a`` to ``b`` is counterclockwise;
* the two products are compatible through ``dot(a, b) == symp(a, tilde(b))``;
* angles are reported in the half-open interval ``(-pi, pi]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# ATOL, the degeneracy tolerance, _FLOAT_MIN, the smallest normal float, and
# wrap_angle, the angle rule, are defined beside the float kernels; ATOL and
# wrap_angle are re-exported here.
from ._kernels import (_FLOAT_MIN, ATOL, _identity_magnitudes, _identity_terms, _rescaled,
                       wrap_angle)
from .errors import DegenerateScaleError, NumericalOverflowError, ZeroVectorError

#: Relative factor applied to the operand scale in approximate comparisons.
RTOL = 1e-9


def close(lhs: float, rhs: float, *, atol: float = ATOL, rtol: float = RTOL,
          scale: float | None = None) -> bool:
    """``|lhs - rhs| <= atol + rtol*scale``, scale defaulting to the larger operand."""
    if scale is None:
        scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= atol + rtol * scale


@dataclass(frozen=True, slots=True)
class Vec2:
    """Planar vector, also used as a point relative to a fixed origin.

    Components must be finite; arithmetic that would produce NaN or an
    infinity is rejected at construction time rather than propagated.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> Vec2:
        return _vec2(-self.x, -self.y)

    def __mul__(self, scalar: float) -> Vec2:
        return Vec2(self.x * scalar, self.y * scalar)

    # IEEE multiplication commutes bit for bit, signed zeros included.
    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> Vec2:
        return Vec2(self.x / scalar, self.y / scalar)


def _slot_twin(cls: type) -> type:
    """A plain class with the slots of the frozen slots dataclass ``cls``.

    A result whose fields are already checked is built as a twin, with
    plain slot stores, and then given ``__class__ = cls``: that skips the
    dataclass ``__init__``, its frozen ``__setattr__`` and the
    ``__post_init__`` check.  CPython allows the class assignment only
    between equal slot layouts and raises :class:`TypeError` otherwise.
    """
    return type(f"_{cls.__name__}Twin", (), {"__slots__": cls.__slots__})


_Vec2Twin = _slot_twin(Vec2)


def _vec2(x: float, y: float, _twin=_Vec2Twin, _cls=Vec2) -> Vec2:
    """``Vec2(x, y)`` for components the caller has already checked finite.

    Built through the slot twin of :func:`_slot_twin`; the public
    constructor still validates.  The defaults bind the builder's globals
    as locals; callers pass only ``x`` and ``y``.
    """
    v = _twin()
    v.x = x
    v.y = y
    v.__class__ = _cls
    return v


@dataclass(frozen=True, slots=True)
class Polar:
    """Signed-magnitude polar form ``magnitude * (cos(angle), sin(angle))``.

    The magnitude may be negative (a reflected direction); the angle is
    normalized into ``(-pi, pi]`` on construction.
    """

    magnitude: float
    angle: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.magnitude) and math.isfinite(self.angle)):
            raise ValueError("Polar fields must be finite")
        object.__setattr__(self, "angle", wrap_angle(self.angle))


def tilde(a: Vec2) -> Vec2:
    """Quarter-turn counterclockwise: ``(x, y) -> (-y, x)``."""
    return _vec2(-a.y, a.x)


def dot(a: Vec2, b: Vec2) -> float:
    """Euclidean inner product."""
    return a.x * b.x + a.y * b.y


def symp(a: Vec2, b: Vec2) -> float:
    """Perp-dot product: the signed area spanned by ``a`` and ``b``.

    Equal to ``dot(tilde(a), b)``; antisymmetric, and exactly zero for
    equal arguments under as-written floating-point evaluation.
    """
    return a.x * b.y - a.y * b.x


def norm(a: Vec2) -> float:
    """Euclidean length ``sqrt(dot(a, a))``."""
    return math.hypot(a.x, a.y)


def inverse(a: Vec2) -> Vec2:
    """Vector satisfying ``dot(a, inverse(a)) == 1``: ``a / dot(a, a)``.

    When ``dot(a, a)`` is not a finite normal float, it is formed on ``a``
    rescaled by a power of two and the quotient is scaled back, so
    ``Vec2(1e200, 0)`` and ``Vec2(3e-170, 4e-170)`` get their inverses.
    Raises :class:`NumericalOverflowError` when the inverse itself is out
    of range, as for ``Vec2(1e-320, 0)``.
    """
    if a.x == 0.0 and a.y == 0.0:
        raise ZeroVectorError("the zero vector has no inverse")
    square = dot(a, a)
    if _FLOAT_MIN <= square < math.inf:
        # |a_i|/|a|^2 <= 1/|a| <= 2**511, so both components are finite.
        return _vec2(a.x / square, a.y / square)
    x, y, k = _rescaled(a.x, a.y)
    square = x * x + y * y
    try:
        # ldexp of a finite quotient is finite or raises.
        return _vec2(math.ldexp(x / square, -k), math.ldexp(y / square, -k))
    except OverflowError as exc:
        raise NumericalOverflowError(f"inverse of ({a.x}, {a.y}) overflows") from exc


def to_polar(a: Vec2) -> Polar:
    """Split a nonzero vector into a magnitude >= 0 and a direction angle.

    Raises :class:`NumericalOverflowError` when the magnitude overflows.
    """
    if a.x == 0.0 and a.y == 0.0:
        raise ZeroVectorError("the zero vector has no direction angle")
    magnitude = norm(a)
    if magnitude == math.inf:
        raise NumericalOverflowError(f"magnitude of ({a.x}, {a.y}) overflows")
    return Polar(magnitude, math.atan2(a.y, a.x))


def from_polar(p: Polar) -> Vec2:
    """Rebuild the Cartesian vector ``magnitude * (cos(angle), sin(angle))``."""
    # A Polar's fields are finite, and |m*cos|, |m*sin| <= |m|.
    return _vec2(p.magnitude * math.cos(p.angle), p.magnitude * math.sin(p.angle))


def directed_angle(a: Vec2, b: Vec2) -> float:
    """Signed angle from ``a`` to ``b`` in ``(-pi, pi]``, counterclockwise positive.

    Computed as ``atan2(symp(a, b), dot(a, b))``, so the magnitudes of the
    arguments cancel and only their directions matter.  When either product
    is not a finite normal float, both are formed on the arguments rescaled
    by powers of two, so vectors near 1e308 or 1e-170 keep their angle.
    """
    if (a.x == 0.0 and a.y == 0.0) or (b.x == 0.0 and b.y == 0.0):
        raise ZeroVectorError("directed angle requires two nonzero vectors")
    area, inner = symp(a, b), dot(a, b)
    if not (_FLOAT_MIN <= abs(area) < math.inf and _FLOAT_MIN <= abs(inner) < math.inf):
        ax, ay, _ = _rescaled(a.x, a.y)
        bx, by, _ = _rescaled(b.x, b.y)
        area, inner = ax * by - ay * bx, ax * bx + ay * by
    return wrap_angle(math.atan2(area, inner))


def similarity(a: Vec2, c: float, d: float) -> Vec2:
    """Rotate-and-scale ``c*a + d*tilde(a)``.

    Identical to complex multiplication ``(a.x + i*a.y) * (c + i*d)``;
    with ``c = cos(phi)``, ``d = sin(phi)`` it is a pure rotation.
    Raises :class:`NumericalOverflowError` when the result overflows.
    """
    x = c * a.x - d * a.y
    y = c * a.y + d * a.x
    if not (math.isfinite(x) and math.isfinite(y)):
        _check_scale(c, d)
        raise NumericalOverflowError(f"similarity of ({a.x}, {a.y}) overflows")
    # x and y were checked finite just above.
    return _vec2(x, y)


def _check_scale(c: float, d: float) -> None:
    """Reject a non-finite similarity scale ``c + i*d`` as invalid input."""
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError(f"similarity scale must be finite, got ({c}, {d})")


def similarity_div(a: Vec2, c: float, d: float) -> Vec2:
    """Inverse similarity ``(c*a - d*tilde(a)) / (c^2 + d^2)``.

    Identical to complex division ``(a.x + i*a.y) / (c + i*d)``.  When
    ``c^2 + d^2`` is not a finite normal float, or a numerator overflows,
    or a numerator of a nonzero ``a`` comes out subnormal or zero, the
    quotient is formed on ``a`` and ``c + i*d`` rescaled by powers of two
    and scaled back, as :func:`inverse` does, so
    ``similarity_div(Vec2(1, 2), 1e-200, 0)`` is ``(1e200, 2e200)`` and
    ``similarity_div(Vec2(1e-300, 0), 1e-100, 0)`` is ``(1e-200, 0)``.
    Raises :class:`DegenerateScaleError` for ``c == d == 0`` and
    :class:`NumericalOverflowError` when the quotient itself overflows.
    """
    s = c * c + d * d
    if _FLOAT_MIN <= s < math.inf:
        nx, ny = c * a.x + d * a.y, c * a.y - d * a.x
        x, y = nx / s, ny / s
        # A numerator below the normal range may have lost its digits to
        # underflow, which the division by s then magnifies.
        if math.isfinite(x) and math.isfinite(y) and (
                _FLOAT_MIN <= min(abs(nx), abs(ny)) or (a.x == 0.0 and a.y == 0.0)):
            return _vec2(x, y)
    elif c == 0.0 and d == 0.0:
        raise DegenerateScaleError("similarity scale c + i*d must be nonzero")
    _check_scale(c, d)
    ax, ay, ka = _rescaled(a.x, a.y)
    cs, ds, kc = _rescaled(c, d)
    s = cs * cs + ds * ds
    try:
        x = math.ldexp((cs * ax + ds * ay) / s, ka - kc)
        y = math.ldexp((cs * ay - ds * ax) / s, ka - kc)
    except OverflowError as exc:
        raise NumericalOverflowError(f"similarity quotient of ({a.x}, {a.y}) overflows") from exc
    # ldexp of a finite quotient is finite or raises.
    return _vec2(x, y)


def rotate(a: Vec2, phi: float) -> Vec2:
    """Rotate counterclockwise by ``phi``: ``a*cos(phi) + tilde(a)*sin(phi)``."""
    return similarity(a, math.cos(phi), math.sin(phi))


class IdentityResiduals(NamedTuple):
    """Left-minus-right evaluation of five classical product identities.

    Every field vanishes identically in exact arithmetic for any argument
    quadruple; the stored values are the raw floating-point leftovers, so
    they double as a stress test of the algebra's internal consistency.
    """

    jacobi: Vec2
    grassmann_full: Vec2
    lagrange: float
    grassmann_reduced: Vec2
    binet_cauchy: float

    def magnitudes(self) -> dict[str, float]:
        """Absolute size of each residual (norms for vectors, abs for scalars)."""
        jacobi, full, lagrange, reduced, binet_cauchy = self
        # Literal keys: building the dict from the field names doubles the cost.
        m_jacobi, m_full, m_lagrange, m_reduced, m_binet = _identity_magnitudes(
            jacobi.x, jacobi.y, full.x, full.y, lagrange, reduced.x, reduced.y, binet_cauchy)
        return {"jacobi": m_jacobi, "grassmann_full": m_full, "lagrange": m_lagrange,
                "grassmann_reduced": m_reduced, "binet_cauchy": m_binet}


def identity_residuals(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> IdentityResiduals:
    """Evaluate the five identities as left-minus-right residuals.

    * jacobi:            ``tilde(a)*symp(b,c) + tilde(b)*symp(c,a) + tilde(c)*symp(a,b)``
    * grassmann_full:    ``tilde(a)*symp(b,c) + b*dot(c,a) - c*dot(a,b)``
    * lagrange:          ``symp(a,b)**2 + dot(a,b)**2 - dot(a,a)*dot(b,b)``
    * grassmann_reduced: ``tilde(a)*symp(b,a) + b*dot(a,a) - a*dot(b,a)``
    * binet_cauchy:      ``symp(a,b)*symp(c,d) - (dot(a,c)*dot(b,d) - dot(a,d)*dot(b,c))``

    Only the last identity uses ``d``.

    Evaluated on plain floats by :func:`sympgeo._kernels._identity_terms`.  Raises
    :class:`NumericalOverflowError` when a residual overflows.
    """
    jx, jy, fx, fy, lagrange, rx, ry, binet_cauchy = _identity_terms(
        a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
    # Every component was checked finite by the kernel.
    return tuple.__new__(IdentityResiduals, (_vec2(jx, jy), _vec2(fx, fy), lagrange,
                                             _vec2(rx, ry), binet_cauchy))
