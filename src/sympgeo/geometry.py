"""Closed-form planar constructions built from signed areas.

Each solver here is a small loop-closure argument: write the figure as a
vector loop, multiply by a well-chosen perpendicular to eliminate one
unknown, and read the answer off as a ratio of perp-dot products.  No
iteration, no linear-system solver; degenerate figures raise typed errors
instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._kernels import ATOL, _meet, _offset, _rescaled
from .core import Vec2, _vec2, _Vec2Twin, symp, tilde
from .errors import (
    CoincidentCentersError,
    DegenerateDenominatorError,
    NumericalOverflowError,
    ZeroDirectionError,
)


@dataclass(frozen=True, slots=True)
class Line:
    """Infinite line through ``point`` along the nonzero ``direction``."""

    point: Vec2
    direction: Vec2

    def __post_init__(self) -> None:
        if self.direction.x == 0.0 and self.direction.y == 0.0:
            raise ZeroDirectionError("line direction must be nonzero")

    def at(self, t: float) -> Vec2:
        """Point ``point + t*direction``.

        Raises :class:`NumericalOverflowError` when the point overflows; a
        non-finite ``t`` is a ``ValueError``.
        """
        try:
            return self.point + self.direction * t
        except ValueError as exc:
            # Only a Vec2 with a non-finite component raises here.
            if not math.isfinite(t):
                raise
            raise NumericalOverflowError(f"point of the line at t={t} overflows") from exc


@dataclass(frozen=True, slots=True)
class Circle:
    """Circle with a nonnegative radius; radius 0 is a point."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"circle radius must be finite and >= 0, got {self.radius}")


class Intersection(NamedTuple):
    """Meeting point of two lines plus the parameter along each direction.

    ``point == line1.point + lam*line1.direction``
    ``point == line2.point + mu*line2.direction``
    """

    point: Vec2
    lam: float
    mu: float


class Tangent(NamedTuple):
    """One common tangent of two circles.

    ``direction_e`` is the unit vector from the first center toward its
    touch point; the tangent line itself runs along ``tilde(direction_e)``
    through ``touch1``.  ``lam`` is the signed distance from ``touch1`` to
    ``touch2`` along that line, and ``kind`` is ``"outer"`` or ``"inner"``.
    """

    touch1: Vec2
    touch2: Vec2
    direction_e: Vec2
    kind: str
    lam: float


def collinearity_residual(a: Vec2, b: Vec2, c: Vec2) -> float:
    """``symp(a,b) + symp(b,c) + symp(c,a)``: twice the signed area of ABC.

    Zero exactly when the three points are collinear.  Raises
    :class:`NumericalOverflowError` when an area or the sum overflows.
    """
    residual = symp(a, b) + symp(b, c) + symp(c, a)
    # An overflowed area makes the sum infinite, or NaN where two of them
    # cancel.
    if not math.isfinite(residual):
        raise NumericalOverflowError("collinearity residual overflows")
    return residual


def is_collinear(a: Vec2, b: Vec2, c: Vec2, tol: float = 1e-9) -> bool:
    """Thresholded collinearity test, invariant under uniform scaling of the figure."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be finite and >= 0")
    # The residual as symp(b - a, c - a), against products of edge lengths:
    # both are unchanged when the figure moves, and the edge differences are
    # exact to rounding, so a small figure far out and a thin needle through
    # the origin get the verdict they get at unit scale.
    pairs = ((a.x, b.x), (a.y, b.y), (a.x, c.x), (a.y, c.y), (b.x, c.x), (b.y, c.y))
    edges = [q - p for p, q in pairs]
    largest = max(map(abs, edges))
    if largest == math.inf:
        # A difference overflows: take the figure at half size, exact this large.
        edges = [0.5 * q - 0.5 * p for p, q in pairs]
        largest = max(map(abs, edges))
    # One power of two brings the largest edge component into [0.5, 1), as
    # ``_kernels._rescaled`` does, so the residual and the products neither
    # underflow nor overflow; in the normal range the verdict is unchanged.
    k = math.frexp(largest)[1]
    abx, aby, acx, acy, bcx, bcy = [math.ldexp(e, -k) for e in edges]
    ab, ac, bc = math.hypot(abx, aby), math.hypot(acx, acy), math.hypot(bcx, bcy)
    return abs(abx * acy - aby * acx) <= tol * max(ab * ac, ab * bc, ac * bc)


def simple_ratio(a: Vec2, b: Vec2, c: Vec2) -> float:
    """Signed ratio ``AB/BC`` of collinear points as ``symp(a,b)/symp(b,c)``.

    The middle argument only contributes its direction: scaling ``b`` by
    any nonzero factor leaves the ratio unchanged.  Raises
    :class:`NumericalOverflowError` when an area or the ratio overflows.
    """
    numerator, denominator = symp(a, b), symp(b, c)
    if abs(denominator) <= ATOL:
        raise DegenerateDenominatorError("symp(b, c) vanishes; simple ratio undefined")
    ratio = numerator / denominator
    # The areas are checked too: an overflowed one can still give a finite
    # quotient, as 1e308 / inf is 0.0.
    if not (math.isfinite(numerator) and math.isfinite(denominator) and math.isfinite(ratio)):
        raise NumericalOverflowError("simple ratio overflows")
    return ratio


def cross_ratio(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> float:
    """Projective cross ratio ``(symp(a,c)*symp(b,d)) / (symp(b,c)*symp(a,d))``.

    Raises :class:`NumericalOverflowError` when an area, a product of two
    areas or the ratio overflows.
    """
    bc = symp(b, c)
    ad = symp(a, d)
    if abs(bc) <= ATOL or abs(ad) <= ATOL:
        raise DegenerateDenominatorError("cross-ratio denominator vanishes")
    # A product is not finite when one of its areas is not.
    numerator, denominator = symp(a, c) * symp(b, d), bc * ad
    ratio = numerator / denominator
    if not (math.isfinite(numerator) and math.isfinite(denominator) and math.isfinite(ratio)):
        raise NumericalOverflowError("cross ratio overflows")
    return ratio


def intersect_lines(line1: Line, line2: Line) -> Intersection:
    """Intersect two non-parallel lines in closed form.

    Closes the triangle ``a + mu*v - lam*u = 0`` (``a`` joining the two
    anchor points) by multiplying with the perpendiculars of ``v`` and
    ``u``, each of which kills one unknown.

    Wraps the float kernel :func:`sympgeo._kernels._meet`, which the
    ``intersect`` subcommand runs directly.  It rescales each direction by
    a power of two, exact in the normal range, so directions near 1e300 do
    not overflow the formulas, and it forms the anchor offset with
    :func:`sympgeo._kernels._offset`, the offset of the halved anchors
    where theirs overflows, so anchors near 1e308 on opposite sides still
    meet.  The kernel's zero-direction check is never reached here, as
    :class:`Line` rejects a zero direction first.  Raises
    :class:`ParallelLinesError` for parallel lines and
    :class:`NumericalOverflowError` when the result overflows.
    """
    p, u = line1.point, line1.direction
    q, v = line2.point, line2.direction
    x, y, lam, mu = _meet(p.x, p.y, u.x, u.y, q.x, q.y, v.x, v.y)
    # The kernel checked x and y finite.
    return tuple.__new__(Intersection, (_vec2(x, y), lam, mu))


def jacobi_triangle_residual(u: Vec2, v: Vec2, a: Vec2) -> Vec2:
    """``a*symp(u,v) + u*symp(v,a) + v*symp(a,u)``, identically zero.

    This is the intersection loop multiplied out by its common area
    denominator; numerically it measures how well the closed form closes.
    Raises :class:`NumericalOverflowError` when the residual overflows.
    """
    try:
        return a * symp(u, v) + u * symp(v, a) + v * symp(a, u)
    except ValueError as exc:
        # Only a Vec2 with a non-finite component raises here.
        raise NumericalOverflowError("Jacobi triangle residual overflows") from exc


def project_point_onto_line(p: Vec2, line: Line) -> Vec2:
    """Foot of the perpendicular from ``p`` onto ``line``."""
    return intersect_lines(line, Line(p, tilde(line.direction))).point


def _common_tangents(x1: float, y1: float, r1: float, x2: float, y2: float, r2: float,
                     outer_only: bool) -> list[Tangent]:
    """Shared float kernel of :func:`circle_tangents` and :func:`point_circle_tangents`.

    ``outer_only`` skips the inner family.  The center offset is
    :func:`sympgeo._kernels._offset`'s, halved where it overflows.  It and
    the reaches are rescaled by ``2**-k`` so that the larger offset
    component lies in ``[0.5, 1)``.  A power-of-two scale is exact in the
    normal range, so ``e`` comes out bit for bit as from the unscaled
    formulas and ``ldexp`` recovers ``lam`` exactly.
    """
    ax, ay, h = _offset(x1, y1, x2, y2)
    if ax == 0.0 and ay == 0.0:
        raise CoincidentCentersError("circle centers coincide; tangent directions undefined")
    ax, ay, k = _rescaled(ax, ay)
    k += h
    # The reaches are scaled by a product, not ldexp: a scaled reach that
    # overflows to inf has no real root, as an exact reach beyond |a| has
    # none.  The inner reach sums the scaled radii, since r1 + r2 can
    # overflow below an |a| beyond the float range (halving the radii
    # instead would round a subnormal one).  For a subnormal offset 2**-k
    # is no float, so it is applied in two halves.
    half = -k // 2 if k <= -1024 else 0
    scale, scale2 = math.ldexp(1.0, -k - half), math.ldexp(1.0, half)
    a2 = ax * ax + ay * ay
    families = (("outer", (r1 - r2) * scale * scale2, -1.0),
                ("inner", r1 * scale * scale2 + r2 * scale * scale2, 1.0))
    isfinite, ldexp, new_tuple, twin = math.isfinite, math.ldexp, tuple.__new__, _Vec2Twin
    tangents: list[Tangent] = []
    append = tangents.append
    try:
        for kind, reach, sigma in families[:1] if outer_only else families:
            radicand = a2 - reach * reach
            if radicand < 0.0:
                continue
            root = math.sqrt(radicand)
            reach2 = sigma * r2
            for lam in (root, -root):
                ex = (ax * reach - -ay * lam) / a2
                ey = (ay * reach - ax * lam) / a2
                t1x, t1y = x1 + ex * r1, y1 + ey * r1
                t2x, t2y = x2 - ex * reach2, y2 - ey * reach2
                if not (isfinite(t1x) and isfinite(t1y) and isfinite(t2x) and isfinite(t2y)):
                    raise NumericalOverflowError("common tangent overflows")
                # Touch points checked just above; e is finite: reach**2 <= a2 and a2 >= 1/4.
                # Each Vec2 is _vec2, inlined.
                touch1 = twin()
                touch1.x = t1x
                touch1.y = t1y
                touch1.__class__ = Vec2
                touch2 = twin()
                touch2.x = t2x
                touch2.y = t2y
                touch2.__class__ = Vec2
                e = twin()
                e.x = ex
                e.y = ey
                e.__class__ = Vec2
                append(new_tuple(Tangent, (touch1, touch2, e, kind, ldexp(lam, k))))
    except OverflowError as exc:  # ldexp, an out-of-range lam
        raise NumericalOverflowError("common tangent overflows") from exc
    return tangents


def circle_tangents(c1: Circle, c2: Circle) -> list[Tangent]:
    """All common tangent lines of two circles with distinct centers.

    With ``a`` the center offset, each tangent closes the loop
    ``(R1 -+ R2)*e + lam*tilde(e) = a`` with a unit vector ``e``; squaring
    gives ``lam = +-sqrt(dot(a,a) - (R1 -+ R2)^2)`` and ``e`` follows in
    closed form.  The minus sign (difference of radii) produces the outer
    pair, the plus sign (sum) the inner pair, so disjoint circles have
    four tangents, overlapping circles two, and containment none.

    Results are ordered outer(+lam), outer(-lam), inner(+lam), inner(-lam).
    A tangency (radicand exactly zero) keeps both lam signs as two
    coincident entries rather than deduplicating.

    The closed form is evaluated on ``a`` and the reaches rescaled by a
    power of two, which is exact in the normal range, so ``dot(a, a)``
    cannot overflow and circles near 1e155 still get their tangents.  A
    center offset that overflows is formed from the halved centers, as
    :func:`intersect_lines` forms its anchor offset, so tangents scale by
    exactly ``2**k`` wherever they stay finite.  Raises
    :class:`NumericalOverflowError` only when a touch point or ``lam``
    itself overflows.
    """
    return _common_tangents(c1.center.x, c1.center.y, c1.radius,
                            c2.center.x, c2.center.y, c2.radius, outer_only=False)


def point_circle_tangents(p: Vec2, c: Circle) -> list[Tangent]:
    """Tangents from a point to a circle: the zero-radius special case.

    The outer and inner families coincide pairwise when one radius is
    zero, so this returns the two distinct tangents for a point outside
    the circle, the degenerate tangent twice for a point on it, and an
    empty list for a point inside (including the center itself).  Only
    the outer family is computed.
    """
    try:
        return _common_tangents(c.center.x, c.center.y, c.radius, p.x, p.y, 0.0,
                                outer_only=True)
    except CoincidentCentersError:
        return []


def tangent_distance_error(t: Tangent, c1: Circle, c2: Circle) -> float:
    """Worst deviation of the tangent line's center distances from the radii.

    Where a term is not finite, both are formed again over :func:`_offset`'s
    center offset, halved where the unhalved one overflows, so a finite term
    keeps its bits.  Raises :class:`NumericalOverflowError` when a distance
    itself overflows.
    """
    tx, ty = t.touch1.x, t.touch1.y
    ex, ey = t.direction_e.x, t.direction_e.y
    e1 = abs(abs((c1.center.x - tx) * ex + (c1.center.y - ty) * ey) - c1.radius)
    e2 = abs(abs((c2.center.x - tx) * ex + (c2.center.y - ty) * ey) - c2.radius)
    if not (math.isfinite(e1) and math.isfinite(e2)):
        e1, e2 = _distance_error(tx, ty, ex, ey, c1), _distance_error(tx, ty, ex, ey, c2)
    return e2 if e2 > e1 else e1


def _distance_error(tx: float, ty: float, ex: float, ey: float, c: Circle) -> float:
    """One term of :func:`tangent_distance_error` over :func:`_offset`'s center offset."""
    dx, dy, h = _offset(tx, ty, c.center.x, c.center.y)
    # Where the offset was halved, the factor 2 that undoes it is exact.
    error = abs(abs(dx * ex + dy * ey) * (h + 1) - c.radius)
    if not math.isfinite(error):
        raise NumericalOverflowError("tangent distance overflows")
    return error
