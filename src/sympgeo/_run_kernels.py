"""The runners of ``identities``, ``intersect``, ``tangents`` and ``crank``, on ``_kernels``.

:mod:`sympgeo.cli` imports this module only for a run of one of these
four subcommands, whose parsers name a runner here.  Each runner checks
the rules of the library's records (as a circle's radius) with the
kernels that hold them and returns a :data:`sympgeo.cli._Result`; the
two tabular runners return their rows with their :data:`_Table`, whose
writers format the rows from ``%``-templates.  Each runner gives what the
library's records would: ``identities`` sizes the residuals of
:func:`sympgeo.core.identity_residuals` on seeded draws, ``intersect``
runs the kernel of :func:`sympgeo.geometry.intersect_lines`,
``tangents`` runs the kernels of ``circle_tangents`` and
``tangent_distance_error`` and its plot draws their rows, and ``crank``
packs the rows of the sweep kernel, ten floats per row, and folds the
maxima of its loop closures.
"""

from __future__ import annotations

import math
from itertools import islice

from ._kernels import (
    _check_crank,
    _check_radius,
    _crank_rows,
    _grid,
    _identity_magnitudes,
    _identity_terms,
    _loop_closures,
    _meet,
    _tangency_error,
    _tangent_rows,
)
from .cli import _Result, _Table, _json_item, _row_view
from .errors import NumericalOverflowError, SingularityError

# A static type checker takes TYPE_CHECKING as true and reads the type-only
# imports; at run time they stay unevaluated, so no ``typing`` loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from array import array

    from .svgplot import SvgPlot

#: Scaled tolerance factor for the seeded identity fuzz runs.
IDENTITY_RTOL = 1e-9

_DEG = math.pi / 180.0

#: ``true``/``false`` as both writers spell them.
_BOOL_TEXT = {False: "false", True: "true"}


def _run_identities(args: argparse.Namespace) -> _Result:
    import random  # only the identity fuzz draws

    span = args.range
    # ``uniform(-span, span)`` is ``-span + (span + span)*random()``: finite
    # for every draw exactly when ``span + span`` is.
    if not math.isfinite(span + span):
        raise NumericalOverflowError(f"identity sample range overflows: the draws from "
                                     f"[-{abs(span)!r}, {abs(span)!r}] are not finite")
    # Each draw is ``Random.uniform(lo, span)``'s body, bit for bit.
    rand = random.Random(args.seed).random
    lo = -span
    width = span - lo
    hypot = math.hypot
    m_jacobi = m_full = m_lagrange = m_reduced = m_binet = 0.0
    within = True
    for _ in range(args.samples):
        ax = lo + width * rand()
        ay = lo + width * rand()
        bx = lo + width * rand()
        by = lo + width * rand()
        cx = lo + width * rand()
        cy = lo + width * rand()
        dx = lo + width * rand()
        dy = lo + width * rand()
        jacobi, full, lagrange, reduced, binet = _identity_magnitudes(
            *_identity_terms(ax, ay, bx, by, cx, cy, dx, dy))
        # The ``norm`` products, bit for bit.
        tol = IDENTITY_RTOL * (1.0 + hypot(ax, ay) * hypot(bx, by) * hypot(cx, cy) * hypot(dx, dy))
        if jacobi > m_jacobi:
            m_jacobi = jacobi
        if full > m_full:
            m_full = full
        if lagrange > m_lagrange:
            m_lagrange = lagrange
        if reduced > m_reduced:
            m_reduced = reduced
        if binet > m_binet:
            m_binet = binet
        if jacobi > tol or full > tol or lagrange > tol or reduced > tol or binet > tol:
            within = False
    maxima = {"jacobi": m_jacobi, "grassmann_full": m_full, "lagrange": m_lagrange,
              "grassmann_reduced": m_reduced, "binet_cauchy": m_binet}
    return _Result({"samples": args.samples, "within_tolerance": within}, maxima,
                   _IDENTITIES_TABLE, list(maxima.items()), failure=None if within else
                   SingularityError("an identity residual exceeds its tolerance"))


def _run_intersect(args: argparse.Namespace) -> _Result:
    (ax, ay), (ux, uy), (bx, by), (vx, vy) = args.a, args.u, args.b, args.v
    x, y, lam, mu = _meet(ax, ay, ux, uy, bx, by, vx, vy)
    # The closure ``(b*k - a*k) + v*(mu*k) - u*(lam*k)`` in ``Vec2``'s
    # operation order, with ``norm``'s length, is formed at unit scale and,
    # only where that overflows, at half scale: every term of a finite meet
    # is then finite, as ``|v*mu| = |point - b|`` is at most twice the
    # largest float.  An infinite term makes a sum infinite or NaN, and
    # hypot keeps either.
    for k in (1.0, 0.5):
        mk, lk = mu * k, lam * k
        closure = math.hypot(((bx * k - ax * k) + vx * mk) - ux * lk,
                             ((by * k - ay * k) + vy * mk) - uy * lk) / k
        if math.isfinite(closure):
            break
    else:
        raise NumericalOverflowError("loop closure of the line intersection overflows")
    return _Result({"point": [x, y], "lambda": lam, "mu": mu},
                   {"loop_closure": closure})


def _tangents_plot(c1: tuple[float, ...], c2: tuple[float, ...],
                   rows: list[tuple]) -> SvgPlot:
    from .svgplot import SvgPlot

    plot = SvgPlot("common tangents")
    plot.circle(*c1, color="#1f77b4", label="circle 1")
    plot.circle(*c2, color="#2ca02c", label="circle 2")
    seen_kinds: set[str] = set()
    for t1x, t1y, t2x, t2y, ex, ey, kind, lam in rows:
        color = "#d62728" if kind == "inner" else "#ff7f0e"
        # Each segment runs 15% of lam past the touch points, along tilde(e).
        reach = 0.15 * lam
        along_x, along_y = -ey * reach, ex * reach
        x1, y1 = t1x - along_x, t1y - along_y
        x2, y2 = t2x + along_x, t2y + along_y
        if not (math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2)
                and math.isfinite(y2)):
            raise NumericalOverflowError("tangent segment overflows")
        label = kind if kind not in seen_kinds else None
        seen_kinds.add(kind)
        plot.segment(x1, y1, x2, y2, color=color, width=1.2, label=label)
        plot.marker(t1x, t1y, color="#333333")
        plot.marker(t2x, t2y, color="#333333")
    return plot


def _run_tangents(args: argparse.Namespace) -> _Result:
    (x1, y1, r1), (x2, y2, r2) = args.c1, args.c2
    _check_radius(r1)
    _check_radius(r2)
    rows = _tangent_rows(x1, y1, r1, x2, y2, r2, False)
    max_error = 0.0
    entries = []
    for t1x, t1y, t2x, t2y, ex, ey, kind, lam in rows:
        max_error = max(max_error, _tangency_error(t1x, t1y, ex, ey, x1, y1, r1, x2, y2, r2))
        entries.append({
            "kind": kind,
            "lambda": lam,
            "touch1": [t1x, t1y],
            "touch2": [t2x, t2y],
            "e": [ex, ey],
        })
    return _Result({"count": len(rows), "tangents": entries},
                   {"max_tangency_error": max_error},
                   plot=lambda: _tangents_plot(args.c1, args.c2, rows))


_CRANK_COLUMNS = ("phi", "s", "psi", "psi_unwrapped", "s_dot", "psi_dot", "s_ddot", "psi_ddot",
                  "singular", "near_singular")
#: The ``(singular, near_singular)`` flag pairs a row can carry; a singular
#: sweep entry is always near-singular.
_CRANK_FLAGS = ((False, False), (False, True), (True, True))
#: The cells after ``phi`` of a packed singular row: placeholders no writer reads.
_CRANK_SINGULAR = (math.nan,) * 7 + (1.0, 1.0)


def _crank_cells(singular: bool, near_singular: bool, number: str, null: str) -> list[str]:
    """Cell formats of one crank row shape: phi, seven state cells, two flags."""
    return ([number] + [null if singular else number] * 7
            + [_BOOL_TEXT[singular], _BOOL_TEXT[near_singular]])


_CRANK_CSV = {flags: ",".join(_crank_cells(*flags, "%.17g", "")) + "\r\n"
              for flags in _CRANK_FLAGS}
_CRANK_JSON = {flags: _json_item(_crank_cells(*flags, "%r", "null"), _CRANK_COLUMNS)
               for flags in _CRANK_FLAGS}


def _crank_texts(rows: memoryview, templates: dict[tuple[bool, bool], str]) -> list[str]:
    """One text per packed row from the template of its flags, whose cells 0.0 and 1.0
    key as False and True; a singular row fills in ``phi``."""
    return [templates[row[8], row[9]] % tuple(row[:1] if row[8] else row[:8])
            for row in rows.tolist()]


def _crank_plot(store: array) -> SvgPlot:
    from .svgplot import PALETTE, SvgPlot

    plot = SvgPlot("slider-crank sweep")
    cells = memoryview(store)
    phi = cells[0::10].tolist()  # one float object per angle, shared by every curve
    # Every curve is drawn over the runs of two or more rows between singular rows.
    breaks = [-1] + [i for i, singular in enumerate(cells[8::10]) if singular] + [len(phi)]
    runs = [slice(a + 1, b) for a, b in zip(breaks, breaks[1:]) if b - a > 2]
    series = ("s", "psi_unwrapped", "s_dot", "psi_dot", "s_ddot", "psi_ddot")
    for name, color in zip(series, PALETTE):
        column = cells[_CRANK_COLUMNS.index(name)::10].tolist()
        for k, run in enumerate(runs):
            plot.polyline(zip(phi[run], column[run]), color=color, label=None if k else name)
    return plot


def _run_crank(args: argparse.Namespace) -> _Result:
    from array import array  # a shared extension module: only the packing runners load it

    length, (cx, cy), w = args.length, args.pivot, args.phidot
    _check_crank(length, w)
    unit = _DEG if args.degrees else 1.0  # scaling by 1.0 is exact, -0.0 included
    # The grid is built in the unit given, and each angle enters the sweep in
    # radians; the report gives each angle of the grid as it was built, from
    # a second pass over the grid, so no list of angles is kept.  The rows
    # are consumed as the kernel yields them; only the packed cells are kept.
    start, end, steps = getattr(args, "from"), args.to, args.steps
    rows = _crank_rows(length, cx, cy, w, (angle * unit for angle in _grid(start, end, steps)))
    isfinite = math.isfinite
    m_position = m_velocity = m_acceleration = 0.0
    store = array("d")
    extend = store.extend
    # Ten packed cells per row in ``_CRANK_COLUMNS`` order, the flags as
    # 0.0/1.0 and the other angles converted on the way out.  Of the
    # converted cells only the rod's angular rates can overflow:
    # psi_unwrapped moves at most pi per sample.
    try:
        for angle, (phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, ex, ey, unwrapped,
                    near) in zip(_grid(start, end, steps), rows):
            if s is None:
                extend((angle,) + _CRANK_SINGULAR)
                continue
            position, velocity, acceleration = _loop_closures(length, cx, cy, w, phi, s, s_dot,
                                                              psi_dot, s_ddot, psi_ddot, ex, ey)
            # The closures are finite, so this fold keeps max()'s result.
            if position > m_position:
                m_position = position
            if velocity > m_velocity:
                m_velocity = velocity
            if acceleration > m_acceleration:
                m_acceleration = acceleration
            psi_dot /= unit
            psi_ddot /= unit
            if not (isfinite(psi_dot) and isfinite(psi_ddot)):
                raise NumericalOverflowError(f"rod angle rates overflow in degrees at phi={angle}")
            extend((angle, s, psi / unit, unwrapped / unit, s_dot, psi_dot,
                    s_ddot, psi_ddot, 0.0, near))
    except NumericalOverflowError as exc:
        if not args.degrees:
            raise
        # The kernels name the radian angle they were given: name the grid angle
        # of the failing row, the next one to be packed, as the report prints it.
        angle = next(islice(_grid(start, end, steps), len(store) // 10, None))
        raise NumericalOverflowError(str(exc).replace(f"phi={angle * unit}", f"phi={angle}"))
    residuals = {
        "max_position_closure": m_position,
        "max_velocity_closure": m_velocity,
        "max_acceleration_closure": m_acceleration,
    }
    return _Result({"entries": []}, residuals, _CRANK_TABLE, _row_view(store, 10),
                   lambda: _crank_plot(store))


#: The row schemas of the two tabular runners here.
_IDENTITIES_TABLE = _Table(("identity", "max_residual"),
                           lambda rows: "".join(["%s,%.17g\r\n" % row for row in rows]))
_CRANK_TABLE = _Table(_CRANK_COLUMNS, lambda rows: "".join(_crank_texts(rows, _CRANK_CSV)),
                      "entries", lambda rows: ",\n".join(_crank_texts(rows, _CRANK_JSON)))
