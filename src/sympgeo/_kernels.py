"""Plain-float kernels of the signed-area formulas and the crank, shared by the record layers and the CLI.

Each kernel takes and returns floats and builds no record, so this module
imports only :mod:`math`, :mod:`sys` and :mod:`sympgeo.errors`: the
``identities``, ``intersect``, ``tangents`` and ``crank`` runs use it
without loading ``core``, ``geometry``, ``kinematics`` or
``dataclasses``, and each formula has one copy, here, which the record
layers wrap:

* :func:`wrap_angle` is the angle rule, ``(-pi, pi]``, of every angle
  the package reports: :func:`sympgeo.core.wrap_angle` is this function,
  and :class:`sympgeo.core.Polar`, :func:`sympgeo.core.directed_angle`
  and :func:`_crank_rows`'s ``psi`` and its unwrapping call it;
* :func:`sympgeo.core.identity_residuals` wraps :func:`_identity_terms`,
  and :meth:`sympgeo.core.IdentityResiduals.magnitudes` and
  ``sympgeo identities`` size its residuals with
  :func:`_identity_magnitudes`;
* :func:`sympgeo.geometry.intersect_lines` wraps :func:`_meet`, and
  :func:`_check_direction` is the zero-direction rule of both
  :class:`sympgeo.geometry.Line` and :func:`_meet`;
* :func:`sympgeo.geometry.circle_tangents` and
  :func:`~sympgeo.geometry.point_circle_tangents` build their records
  from the rows of :func:`_tangent_rows`, the one copy of the tangent
  loop closure, :func:`sympgeo.geometry.tangent_distance_error` wraps
  :func:`_tangency_error`, and :func:`_check_radius` is the rule of
  :class:`sympgeo.geometry.Circle`.  :func:`_meet`,
  :func:`_tangent_rows` and :func:`_tangency_error` form their loop
  vectors with :func:`_offset`.

The crank's sweep is one generator, :func:`_crank_rows`, over the angles
of :func:`_grid`, yielding one tuple of floats per angle; it holds the
only copy of the rod, rate and acceleration formulas.
:func:`sympgeo.kinematics.crank_sweep` and
:func:`~sympgeo.kinematics.crank_state` build their records from its rows
and ``sympgeo crank`` packs them.  :func:`_loop_closures` is the body of
:func:`sympgeo.kinematics.loop_residuals`, :func:`_check_crank` the rule
of :class:`sympgeo.kinematics.CrankConfig` and
:func:`_singularity_floor` the rod length at which a crank position
turns singular.

The phase flow's kernels live apart, in :mod:`sympgeo._flow`, so an
``oscillator`` run compiles none of the code above.
"""

from __future__ import annotations

import math
import sys

from .errors import (
    CoincidentCentersError,
    NumericalOverflowError,
    ParallelLinesError,
    ZeroDirectionError,
)

# A static type checker takes TYPE_CHECKING as true and reads the type-only
# imports; at run time they stay unevaluated, so no ``typing`` loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

#: Degeneracy tolerance: the relative factor of the parallel test and of the
#: crank's singular-rod floor, and the absolute floor of the ratio denominators.
ATOL = 1e-12

_FLOAT_MIN = sys.float_info.min  # smallest normal float


def wrap_angle(theta: float) -> float:
    """Normalize an angle to ``(-pi, pi]``.

    Raises :class:`ValueError` for a NaN or infinite angle.
    """
    try:
        wrapped = math.remainder(theta, math.tau)
    except ValueError:  # an infinite angle
        wrapped = math.nan
    if wrapped > -math.pi:
        return wrapped
    # remainder lies in [-pi, pi], so only -pi and NaN get here.
    if wrapped == wrapped:
        return wrapped + math.tau
    raise ValueError(f"angle must be finite, got {theta}")


def _rescaled(x: float, y: float) -> tuple[float, float, int]:
    """``(x*2**-k, y*2**-k, k)`` with the larger magnitude in ``[0.5, 1)``.

    A power-of-two scale is exact in the normal range, so products of the
    scaled components are the unscaled ones times ``2**-k``, but cannot
    overflow.  Callers pass a nonzero vector.
    """
    k = math.frexp(max(abs(x), abs(y)))[1]
    return math.ldexp(x, -k), math.ldexp(y, -k), k


def _offset(px: float, py: float, qx: float, qy: float) -> tuple[float, float, int]:
    """``(dx, dy, h)`` with ``(dx, dy) * 2**h`` the offset ``q - p``.

    ``h`` is 0 where ``q - p`` is finite.  Where it overflows, the offset
    of the halved points, which is exact at that magnitude and finite,
    comes with ``h = 1``.  The offset is not rescaled otherwise, so a
    finite difference keeps its bits.
    """
    dx, dy = qx - px, qy - py
    if math.isfinite(dx) and math.isfinite(dy):
        return dx, dy, 0
    return qx * 0.5 - px * 0.5, qy * 0.5 - py * 0.5, 1


def _identity_terms(ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
                    dx: float, dy: float) -> tuple[float, ...]:
    """The eight residual components of :func:`sympgeo.core.identity_residuals` on plain floats.

    Returns ``(jacobi_x, jacobi_y, grassmann_full_x, grassmann_full_y, lagrange,
    grassmann_reduced_x, grassmann_reduced_y, binet_cauchy)``, each checked
    finite.  The formulas are evaluated in the order they are written, with
    each product computed once (``dot`` is symmetric bit for bit).  Raises
    :class:`NumericalOverflowError` when a residual overflows.
    """
    s_bc = bx * cy - by * cx
    s_ca = cx * ay - cy * ax
    s_ab = ax * by - ay * bx
    s_ba = bx * ay - by * ax
    d_ca = cx * ax + cy * ay
    d_ab = ax * bx + ay * by
    d_aa = ax * ax + ay * ay
    d_bb = bx * bx + by * by
    jacobi_x = -ay * s_bc + -by * s_ca + -cy * s_ab
    jacobi_y = ax * s_bc + bx * s_ca + cx * s_ab
    full_x = -ay * s_bc + bx * d_ca - cx * d_ab
    full_y = ax * s_bc + by * d_ca - cy * d_ab
    try:
        lagrange = s_ab ** 2 + d_ab ** 2 - d_aa * d_bb
    except OverflowError as exc:
        raise NumericalOverflowError("identity residuals overflow") from exc
    reduced_x = -ay * s_ba + bx * d_aa - ax * d_ab
    reduced_y = ax * s_ba + by * d_aa - ay * d_ab
    binet_cauchy = (s_ab * (cx * dy - cy * dx)
                    - (d_ca * (bx * dx + by * dy) - (ax * dx + ay * dy) * (bx * cx + by * cy)))
    if not (math.isfinite(jacobi_x) and math.isfinite(jacobi_y) and math.isfinite(full_x)
            and math.isfinite(full_y) and math.isfinite(lagrange) and math.isfinite(reduced_x)
            and math.isfinite(reduced_y) and math.isfinite(binet_cauchy)):
        raise NumericalOverflowError("identity residuals overflow")
    return jacobi_x, jacobi_y, full_x, full_y, lagrange, reduced_x, reduced_y, binet_cauchy


def _identity_magnitudes(jx: float, jy: float, fx: float, fy: float, lagrange: float,
                         rx: float, ry: float, binet: float) -> tuple[float, ...]:
    """The absolute size of each residual of :func:`_identity_terms`, in family order.

    Returns ``(jacobi, grassmann_full, lagrange, grassmann_reduced,
    binet_cauchy)``: the norms of the three vector residuals and the
    absolute values of the two scalar ones.
    """
    hypot = math.hypot
    return hypot(jx, jy), hypot(fx, fy), abs(lagrange), hypot(rx, ry), abs(binet)


def _check_direction(x: float, y: float) -> None:
    """The rule of :class:`sympgeo.geometry.Line`: a direction ``(x, y)`` is nonzero.

    Raises :class:`ZeroDirectionError` otherwise.
    """
    if x == 0.0 and y == 0.0:
        raise ZeroDirectionError("line direction must be nonzero")


def _meet(px: float, py: float, ux: float, uy: float, qx: float, qy: float, vx: float,
          vy: float) -> tuple[float, float, float, float]:
    """``(x, y, lam, mu)`` where the line ``p + lam*u`` meets the line ``q + mu*v``.

    The body of :func:`sympgeo.geometry.intersect_lines` on plain floats.
    Closes the triangle ``a + mu*v - lam*u = 0`` (``a = q - p``) by
    multiplying with the perpendiculars of ``v`` and ``u``, each of which
    kills one unknown.

    Each direction is rescaled by ``2**-k`` so that its larger component
    lies in ``[0.5, 1)``; in the normal range that scale is exact, so the
    parallel test, ``lam`` and ``mu`` come out bit for bit as from the
    unscaled formulas, and directions near 1e300 do not overflow them.
    The anchor offset is :func:`_offset`'s, halved where it overflows, so
    anchors near 1e308 on opposite sides still meet.  When
    ``lam`` or ``mu`` overflows on the unscaled offset, both are formed
    again on the offset rescaled the same way and scaled back by its
    exponent, so a large offset over a direction far from unit scale
    still meets where the result is finite.  Raises
    :class:`ZeroDirectionError` when ``u``, then when ``v``, is zero,
    :class:`ParallelLinesError` for other parallel lines and
    :class:`NumericalOverflowError` when the result overflows.
    """
    sux, suy, ku = _rescaled(ux, uy)
    svx, svy, kv = _rescaled(vx, vy)
    denominator = sux * svy - suy * svx
    if abs(denominator) <= ATOL * math.hypot(sux, suy) * math.hypot(svx, svy):
        # A zero direction fails the parallel test too, so only this branch
        # checks for one and the meeting path pays nothing.
        _check_direction(ux, uy)
        _check_direction(vx, vy)
        raise ParallelLinesError("lines are parallel; no finite intersection")
    # Where the offset was halved, a factor 2 on lam and mu undoes it.
    ax, ay, h = _offset(px, py, qx, qy)
    ku -= h
    kv -= h
    lam = -(svx * ay - svy * ax) / denominator
    mu = (ax * suy - ay * sux) / denominator
    if not (math.isfinite(lam) and math.isfinite(mu)):
        # The offset is rescaled like the directions; its exponent joins theirs.
        sax, say, ka = _rescaled(ax, ay)
        lam = -(svx * say - svy * sax) / denominator
        mu = (sax * suy - say * sux) / denominator
        ku -= ka
        kv -= ka
    try:
        lam = math.ldexp(lam, -ku)
        mu = math.ldexp(mu, -kv)
    except OverflowError as exc:
        raise NumericalOverflowError("line intersection overflows") from exc
    x, y = px + ux * lam, py + uy * lam
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(mu)):
        raise NumericalOverflowError("line intersection overflows")
    return x, y, lam, mu


def _check_radius(radius: float) -> None:
    """The rule of :class:`sympgeo.geometry.Circle`: a radius finite and >= 0.

    Raises :class:`ValueError` otherwise.
    """
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValueError(f"circle radius must be finite and >= 0, got {radius}")


def _tangent_rows(x1: float, y1: float, r1: float, x2: float, y2: float, r2: float,
                  outer_only: bool) -> list[tuple]:
    """The common tangents of the circles ``((x1, y1), r1)`` and ``((x2, y2), r2)`` as float rows.

    The body of :func:`sympgeo.geometry.circle_tangents` and
    :func:`~sympgeo.geometry.point_circle_tangents` on plain floats.  Each
    row is ``(t1x, t1y, t2x, t2y, ex, ey, kind, lam)``: the two touch
    points, the unit vector ``e`` from the first center toward its touch
    point, ``"outer"`` or ``"inner"``, and the signed distance ``lam``
    along ``tilde(e)`` from the first touch point to the second.  Each
    closes the loop ``(r1 -+ r2)*e + lam*tilde(e) = a`` over the center
    offset ``a``; the rows come outer(+lam), outer(-lam), inner(+lam),
    inner(-lam), and ``outer_only`` skips the inner family.

    The center offset is :func:`_offset`'s, halved where it overflows.  It
    and the reaches are rescaled by ``2**-k`` so that the larger offset
    component lies in ``[0.5, 1)``.  A power-of-two scale is exact in the
    normal range, so ``e`` comes out bit for bit as from the unscaled
    formulas and ``ldexp`` recovers ``lam`` exactly.  Raises
    :class:`CoincidentCentersError` for an exactly zero offset and
    :class:`NumericalOverflowError` when a touch point or ``lam``
    overflows.
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
    isfinite, ldexp = math.isfinite, math.ldexp
    rows: list[tuple] = []
    append = rows.append
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
                # e is finite: reach**2 <= a2 and a2 >= 1/4.
                append((t1x, t1y, t2x, t2y, ex, ey, kind, ldexp(lam, k)))
    except OverflowError as exc:  # ldexp, an out-of-range lam
        raise NumericalOverflowError("common tangent overflows") from exc
    return rows


def _tangency_error(tx: float, ty: float, ex: float, ey: float, x1: float, y1: float,
                    r1: float, x2: float, y2: float, r2: float) -> float:
    """Worst deviation of a tangent line's center distances from the radii.

    The body of :func:`sympgeo.geometry.tangent_distance_error` on plain
    floats: the line runs through the touch point ``(tx, ty)`` along
    ``tilde(e)``, and the circles are ``((x1, y1), r1)`` and
    ``((x2, y2), r2)``.  Where a term is not finite, both are formed again
    over :func:`_offset`'s center offset, halved where the unhalved one
    overflows, so a finite term keeps its bits.  Raises
    :class:`NumericalOverflowError` when a distance itself overflows.
    """
    e1 = abs(abs((x1 - tx) * ex + (y1 - ty) * ey) - r1)
    e2 = abs(abs((x2 - tx) * ex + (y2 - ty) * ey) - r2)
    if not (math.isfinite(e1) and math.isfinite(e2)):
        # Where an offset was halved, the factor 2 that undoes it is exact.
        (d1x, d1y, h1), (d2x, d2y, h2) = _offset(tx, ty, x1, y1), _offset(tx, ty, x2, y2)
        e1 = abs(abs(d1x * ex + d1y * ey) * (h1 + 1) - r1)
        e2 = abs(abs(d2x * ex + d2y * ey) * (h2 + 1) - r2)
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise NumericalOverflowError("tangent distance overflows")
    return e2 if e2 > e1 else e1


#: Rod lengths below this fraction of the crank length are flagged in sweeps.
NEAR_SINGULAR_FRACTION = 1e-6

#: The cells after ``phi`` of a singular :func:`_crank_rows` row: no rod
#: state, and flagged near-singular.
_SINGULAR_CELLS = (None,) * 9 + (True,)


def _check_crank(length: float, phi_dot: float) -> None:
    """The rule of :class:`sympgeo.kinematics.CrankConfig`: the crank length
    finite and > 0, then the drive rate finite.

    Raises :class:`ValueError` naming the first value that breaks it.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"crank_length must be finite and > 0, got {length}")
    if not math.isfinite(phi_dot):
        raise ValueError("phi_dot must be finite")


def _singularity_floor(length: float, cx: float, cy: float) -> float:
    """Rod length at or below which a crank position is singular.

    Relative to the mechanism's scale, the crank length plus the distance
    of the pivot ``(cx, cy)``, so a small but regular crank is not flagged
    singular.  Each term is scaled before the sum, and the pivot distance
    is taken of the halved pivot, so the floor stays finite where
    ``length + |pivot|`` or ``|pivot|`` itself overflows.  The halving is
    undone by the exact ``2.0 * ATOL``, so the pivot term is
    ``ATOL * |pivot|`` bit for bit wherever that is finite.
    """
    return ATOL * length + (2.0 * ATOL) * math.hypot(0.5 * cx, 0.5 * cy)


def _grid(phi_start: float, phi_end: float, steps: int) -> Iterator[float]:
    """The ``steps`` evenly spaced crank angles of a sweep, inclusive, one at a time.

    Each angle is the weighted mean of the two ends, so the first and the
    last angle are ``phi_start`` and ``phi_end`` exactly, and no angle
    overflows where the span ``phi_end - phi_start`` would.  Equal ends
    give ``phi_start`` at every angle, since the two weights round
    separately.  Raises :class:`ValueError` for fewer than two steps.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if phi_start == phi_end:
        return (phi_start for _ in range(steps))
    last = steps - 1
    return (phi_start * ((last - i) / last) + phi_end * (i / last) for i in range(steps))


def _crank_rows(length: float, cx: float, cy: float, phi_dot: float,
                phis: Iterable[float]) -> Iterator[tuple]:
    """The crank's rod state at the angles ``phis``, in order, one plain tuple at a time.

    The crank of length ``length`` spins about the origin at the rate
    ``phi_dot``; its rod slides through the pivot ``(cx, cy)``.  Each row
    is ``(phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, ex, ey,
    psi_unwrapped, near_singular)``, with ``(ex, ey)`` the unit rod
    direction; a singular angle, where the rod length is at or below
    :func:`_singularity_floor`, gives ``phi``, nine ``None`` and ``True``.

    The only copy of the rod, rate and acceleration formulas that
    :func:`sympgeo.kinematics.crank_state` documents: the rod closes the
    loop, each rate is a signed area with the crank vector and each
    acceleration follows from the rates, stage by stage on floats.
    ``psi`` is the rod angle through :func:`wrap_angle`, and
    ``psi_unwrapped`` accumulates it continuously from the first regular
    row, each turn between rows taken through :func:`wrap_angle`.
    Raises :class:`NumericalOverflowError` naming ``phi`` when the rod
    length, its rates or its accelerations overflow.
    """
    w = phi_dot
    floor = _singularity_floor(length, cx, cy)
    near_length = NEAR_SINGULAR_FRACTION * length
    cos, sin, hypot, atan2 = math.cos, math.sin, math.hypot, math.atan2
    isfinite, wrap = math.isfinite, wrap_angle
    last_psi: float | None = None
    last_unwrapped = 0.0
    for phi in phis:
        ax = length * cos(phi)
        ay = length * sin(phi)
        rx = cx - ax
        ry = cy - ay
        s = hypot(rx, ry)
        if not isfinite(s):
            raise NumericalOverflowError(f"rod length overflows at phi={phi}")
        if s <= floor:
            yield (phi,) + _SINGULAR_CELLS
            continue
        ex = rx / s
        ey = ry / s
        psi = wrap(atan2(ey, ex))
        s_dot = w * (ax * -ey + ay * ex)
        psi_dot = -w * (ax * ex + ay * ey) / s
        if not (isfinite(s_dot) and isfinite(psi_dot)):
            raise NumericalOverflowError(f"rod rates overflow at phi={phi}")
        s_ddot = psi_dot * (psi_dot - w) * s
        psi_ddot = (w - 2.0 * psi_dot) * s_dot / s
        if not (isfinite(s_ddot) and isfinite(psi_ddot)):
            raise NumericalOverflowError(f"rod accelerations overflow at phi={phi}")
        unwrapped = psi if last_psi is None else last_unwrapped + wrap(psi - last_psi)
        last_psi = psi
        last_unwrapped = unwrapped
        # s is finite and above the floor, so |ex|, |ey| <= 1.
        yield phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, ex, ey, unwrapped, s < near_length


def _loop_closures(length: float, cx: float, cy: float, phi_dot: float, phi: float, s: float,
                   s_dot: float, psi_dot: float, s_ddot: float, psi_ddot: float, ex: float,
                   ey: float) -> tuple[float, float, float]:
    """Norms of the position, velocity and acceleration loop closures of one rod state.

    The body of :func:`sympgeo.kinematics.loop_residuals` on plain floats:
    the crank and pivot of :func:`_crank_rows`, and one of its regular
    rows' ``phi``, rod length, rates, accelerations and unit direction
    ``(ex, ey)``.  Raises :class:`NumericalOverflowError` naming ``phi``
    when a closure overflows.
    """
    w = phi_dot
    ax = length * math.cos(phi)
    ay = length * math.sin(phi)
    # Coefficients of tilde(e_psi) in the velocity closure and of a_vec,
    # e_psi and tilde(e_psi) in the acceleration closure.
    vel_te = psi_dot * s
    acc_a = -w * w
    acc_e = s_ddot - psi_dot * psi_dot * s
    acc_te = psi_ddot * s + 2.0 * psi_dot * s_dot
    position = math.hypot(ax + ex * s - cx, ay + ey * s - cy)
    velocity = math.hypot(-ay * w + ex * s_dot + -ey * vel_te,
                          ax * w + ey * s_dot + ex * vel_te)
    acceleration = math.hypot(ax * acc_a + ex * acc_e + -ey * acc_te,
                              ay * acc_a + ey * acc_e + ex * acc_te)
    if not (math.isfinite(position) and math.isfinite(velocity) and math.isfinite(acceleration)):
        raise NumericalOverflowError(f"loop residuals overflow at phi={phi}")
    return (position, velocity, acceleration)
