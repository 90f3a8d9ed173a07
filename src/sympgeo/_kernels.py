"""Plain-float kernels of the signed-area formulas, shared by the record layers and the CLI.

Each kernel takes and returns floats and builds no record, so this module
imports only :mod:`math` and :mod:`sympgeo.errors`: the ``identities``
and ``intersect`` subcommands run on it without loading ``core``,
``geometry`` or ``dataclasses``.  :func:`sympgeo.core.identity_residuals`
wraps :func:`_identity_terms`, :func:`sympgeo.geometry.intersect_lines`
wraps :func:`_meet`, and :func:`_meet` and the common-tangent kernel of
:mod:`sympgeo.geometry` both form their loop vector with :func:`_offset`,
so each formula has one copy.
"""

from __future__ import annotations

import math

from .errors import NumericalOverflowError, ParallelLinesError, ZeroDirectionError

#: Degeneracy tolerance: the relative factor of the parallel test and of the
#: crank's singular-rod floor, and the absolute floor of the ratio denominators.
ATOL = 1e-12


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
        if (ux == 0.0 and uy == 0.0) or (vx == 0.0 and vy == 0.0):
            raise ZeroDirectionError("line direction must be nonzero")
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
