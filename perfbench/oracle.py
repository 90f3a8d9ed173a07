"""Exact-rational oracles for the construct-mix stream.

Every float input is converted exactly with ``fractions.Fraction`` and
the library's documented predicates are evaluated without rounding: two
circles have an outer tangent pair when ``|a|^2 >= (r1 - r2)^2`` and an
inner pair when ``|a|^2 >= (r1 + r2)^2`` (two coincident entries each at
tangency), centres within ``ATOL`` coincide, lines are parallel when
``|symp(u, v)| <= ATOL*|u||v|``, and two lines that are not meet at the
exact solution of their 2x2 system.  The answers are computed at set-up,
before any timing, and only compared against the library's outputs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

FLOAT_MAX = Fraction(sys.float_info.max)


def _f(x: float) -> Fraction:
    return Fraction(x)


def tangent_entries(atol: float, c1: tuple, c2: tuple) -> int | None:
    """Entries ``circle_tangents`` should return; None when centres coincide.

    ``c1`` and ``c2`` are ``(x, y, r)`` float triples.
    """
    ax = _f(c2[0]) - _f(c1[0])
    ay = _f(c2[1]) - _f(c1[1])
    a2 = ax * ax + ay * ay
    if a2 <= _f(atol) ** 2:
        return None
    r1, r2 = _f(c1[2]), _f(c2[2])
    return 2 * (a2 >= (r1 - r2) ** 2) + 2 * (a2 >= (r1 + r2) ** 2)


def point_tangent_entries(atol: float, p: tuple, c: tuple) -> int:
    """Entries ``point_circle_tangents`` should return for point ``p``."""
    dx = _f(p[0]) - _f(c[0])
    dy = _f(p[1]) - _f(c[1])
    d2 = dx * dx + dy * dy
    if d2 <= _f(atol) ** 2:
        return 0
    return 2 if d2 >= _f(c[2]) ** 2 else 0


def parallel(atol: float, u: tuple, v: tuple) -> bool:
    """``|symp(u, v)| <= ATOL*|u||v|`` in exact arithmetic (squared)."""
    ux, uy, vx, vy = map(_f, (*u, *v))
    area = ux * vy - uy * vx
    return area * area <= _f(atol) ** 2 * (ux * ux + uy * uy) * (vx * vx + vy * vy)


def intersection(a: tuple, u: tuple, b: tuple, v: tuple) -> tuple | None:
    """Exact ``(lam, mu, px, py)`` rounded to floats; None if one is not a finite float.

    Only called for lines the oracle found not parallel.
    """
    ax, ay, ux, uy, bx, by, vx, vy = map(_f, (*a, *u, *b, *v))
    den = ux * vy - uy * vx
    wx, wy = bx - ax, by - ay
    lam = (wx * vy - wy * vx) / den
    mu = (wx * uy - wy * ux) / den
    exact = (lam, mu, ax + ux * lam, ay + uy * lam)
    if any(abs(q) > FLOAT_MAX for q in exact):
        return None
    return tuple(float(q) for q in exact)


def condition(u: tuple, v: tuple) -> float:
    """``|u||v| / |symp(u, v)|``, the condition number of the 2x2 intersection solve."""
    ux, uy, vx, vy = map(_f, (*u, *v))
    den = ux * vy - uy * vx
    return math.sqrt((ux * ux + uy * uy) * (vx * vx + vy * vy) / (den * den))


def products_fit(vectors: list[tuple]) -> bool:
    """Whether every product the five identities form stays a finite float.

    The largest terms are quartic in the components (Lagrange's
    ``dot(a,a)*dot(b,b)``, Binet-Cauchy's four-factor products); a sum of
    up to four such terms is bounded by ``16*m^4`` with ``m`` the largest
    component magnitude.
    """
    m = max(abs(_f(c)) for vec in vectors for c in vec)
    return 16 * m ** 4 <= FLOAT_MAX
