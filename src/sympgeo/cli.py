"""Command-line front end.

Five subcommands drive the library end to end: ``identities`` fuzzes the
algebraic identities with a seeded generator, ``intersect`` and
``tangents`` run the closed-form constructions, ``crank`` sweeps the
mechanism, and ``oscillator`` integrates the phase flow.  Reports are
JSON by default (CSV for the tabular subcommands), deterministic for a
fixed command line apart from the wall-time field.

A run is parse -> run -> plot -> report, all driven by :func:`main`.  It
parses the command line to plain numbers: an ``x,y`` or ``x,y,r`` option
is a tuple of floats, each component finite by the one number rule of
:func:`_finite_float`.  Each subcommand's parser sets its runner, and for
a tabular subcommand its row schema, as the ``run`` and ``table``
defaults of the parsed arguments, so :func:`main` dispatches from the
parse alone and no second registry names the subcommands.  Records, and
the rules they own (as a circle's radius), are built only in the
runners.  The subcommand's runner computes a
:class:`_Result` (the report's ``results`` and ``residuals`` sections,
for the tabular subcommands one row per sample, and a builder of
the ``--svg`` diagram); with ``--svg`` it draws and writes the diagram;
and it lays out the report: the envelope, the ``input`` echo of the
command line (:func:`_echo`) and ``wall_time_ms``.  The CSV and JSON
writers share each tabular subcommand's fixed row schema, a
:class:`_Table`, and format each row from a ``%``-template.  Every row is
complete before the first byte is written, so a run that fails leaves
stdout empty; the report is then written in pieces, the row texts
:data:`_CHUNK` (256) rows at a time.  The runners keep no sweep entries or
trajectory states beside their rows, so the rows are what a large run's
peak memory holds: packed floats (:func:`_row_view`), ten per ``crank``
row and four per ``oscillator`` row, taken from each sweep entry or state
as it is yielded.  Each runner imports the layers it runs, so a run
loads ``errors``, the float kernels of ``_kernels`` and only the layers
of its subcommand (``svgplot`` only with ``--svg``): ``identities`` and
``intersect`` run on the kernels alone and load no record type.

Exit codes: 0 success (an empty solution set is still success), 1 usage
error, 2 geometric degeneracy, 3 numerical singularity.  Each failure is
raised by the layer that meets it, in the order it meets it (a run stops
at its first), and :func:`main` maps its error family to the exit code
and the words of its stderr line from the one table :data:`_FAILURES`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

from ._kernels import _identity_terms, _meet
from .errors import DegeneracyError, NumericalOverflowError, SingularityError

if TYPE_CHECKING:
    from array import array

    from .dynamics import OscillatorParams, PhaseState
    from .geometry import Circle, Tangent
    from .svgplot import SvgPlot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_SINGULAR = 3

#: Scaled tolerance factor for the seeded identity fuzz runs.
IDENTITY_RTOL = 1e-9

#: ``--method`` choices and the ``dynamics.METHODS`` entries they name.
_METHOD_NAMES = {
    "euler": "explicit_euler",
    "symplectic-euler": "symplectic_euler",
    "leapfrog": "leapfrog",
}

_DEG = math.pi / 180.0


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -<digit or .>...`` into ``--flag=-...``.

    argparse reads a separate value with a leading minus as an option unless
    it is a plain negative number, so ``--from -1e-3`` and ``--a -1,0`` would
    lose their value.  No sympgeo option starts with ``-<digit>`` or ``-.``.
    """
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[-1][:2] == "--" and "=" not in joined[-1]
                and len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_floats(text: str, shape: str) -> tuple[float, ...]:
    """An ``x,y`` or ``x,y,r`` option, as ``shape`` names, as a tuple of floats.

    Each component is finite by :func:`_finite_float`.
    """
    parts = text.split(",")
    if len(parts) != shape.count(",") + 1:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    return tuple(map(_finite_float, parts))


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


#: ``true``/``false`` as both writers spell them.
_BOOL_TEXT = {False: "false", True: "true"}


class _Result(NamedTuple):
    """What a runner computed, and nothing of the report's layout.

    ``results`` and ``residuals`` are the report sections of those names,
    with the row array under ``results``, if any, left empty; ``rows``
    holds one row per sample in the column order of the subcommand's
    :class:`_Table`, as a tuple or as a row of a :func:`_row_view`; ``plot``
    builds the ``--svg`` diagram.
    """

    results: dict
    residuals: dict
    rows: Sequence
    exit_code: int
    plot: Callable[[], SvgPlot] | None = None


class _Table(NamedTuple):
    """Fixed row schema of one tabular subcommand and its two row writers.

    Each writer maps the row list to one text per row.  ``array`` names the
    JSON row array under ``results``; None when the report holds none.
    """

    columns: tuple[str, ...]
    csv_rows: Callable[[Sequence], list[str]]
    array: str | None = None
    json_rows: Callable[[Sequence], list[str]] | None = None


def _echo(args: argparse.Namespace) -> dict:
    """The report's ``input`` section: every run argument in declaration order.

    An ``x,y`` or ``x,y,r`` option is written as the list ``[x, y]`` or ``[x, y, r]``.
    The subcommand's name, the format flags and the dispatch defaults ``run``
    and ``table`` are left out.
    """
    echo = {}
    for name, value in vars(args).items():
        if name in ("subcommand", "json", "csv", "run", "table"):
            continue
        echo[name] = list(value) if isinstance(value, tuple) else value
    return echo


def _json_item(cells: list[str], keys: tuple[str, ...] | None = None) -> str:
    """Template of one element of a ``results`` row array.

    The layout is that of ``json.dumps(indent=2)``: an object when ``keys``
    is given, else a list.  A ``%r`` cell formats a float as ``json`` does,
    by ``float.__repr__``.
    """
    if keys is None:
        return "      [\n" + ",\n".join("        " + c for c in cells) + "\n      ]"
    return ("      {\n" + ",\n".join(f'        "{k}": {c}' for k, c in zip(keys, cells))
            + "\n      }")


#: Rows formatted and written per piece of a tabular report.
_CHUNK = 256


def _row_view(store: array, width: int) -> memoryview:
    """The flat float array ``store`` read as rows of ``width`` cells.

    A 2-D view: ``len()`` counts rows, a slice takes rows and ``tolist()``
    gives one list per row, with no copy of the floats until then.  An
    empty store stays a 1-D view, since a view cannot be cast to a shape
    with a zero.
    """
    if not store:
        return memoryview(store)
    return memoryview(store).cast("B").cast("d", (len(store) // width, width))


def _row_chunks(rows: Sequence, texts: Callable[[Sequence], list[str]],
                sep: str) -> Iterator[str]:
    """``sep.join(texts(rows))`` in pieces of :data:`_CHUNK` rows each."""
    for start in range(0, len(rows), _CHUNK):
        piece = sep.join(texts(rows[start:start + _CHUNK]))
        yield piece if start == 0 else sep + piece


def _csv_pieces(table: _Table, rows: Sequence) -> Iterator[str]:
    """The CSV report in pieces: the header line, then the rows a chunk at a time."""
    yield ",".join(table.columns) + "\r\n"
    yield from _row_chunks(rows, table.csv_rows, "")


def _json_pieces(envelope: dict, table: _Table | None, rows: Sequence) -> Iterator[str]:
    """``json.dumps(report, indent=2)`` of the envelope with its row array filled in, in pieces.

    The envelope's text up to the row array, the rows a chunk at a time, then
    the rest of the envelope's text.
    """
    text = json.dumps(envelope, indent=2)
    if table is None or table.array is None or not rows:
        yield text
        return
    # Every string value in the envelope is escaped, so the unescaped key
    # followed by ``: []`` occurs only where the row array belongs.
    head = f'"{table.array}": ['
    cut = text.index(head + "]") + len(head)
    yield text[:cut] + "\n"
    yield from _row_chunks(rows, table.json_rows, ",\n")
    yield "\n    " + text[cut:]


def _build_parser() -> _Parser:
    parser = _Parser(prog="sympgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    vec = functools.partial(_parse_floats, shape="x,y")
    circle = functools.partial(_parse_floats, shape="x,y,r")

    p_id = sub.add_parser("identities",
                          help="fuzz the five product identities with seeded random vectors")
    p_id.add_argument("--samples", type=_positive_int, default=1000)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--range", type=_finite_float, default=10.0,
                      help="components drawn uniformly from [-range, range]; finite")
    fmt = p_id.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--csv", action="store_true", help="one row per identity family")
    p_id.set_defaults(run=_run_identities, table=_IDENTITIES_TABLE)

    p_int = sub.add_parser("intersect",
                           help="intersect two lines given as point and direction")
    p_int.add_argument("--a", type=vec, required=True, help="anchor of line 1 (x,y)")
    p_int.add_argument("--u", type=vec, required=True, help="direction of line 1 (x,y)")
    p_int.add_argument("--b", type=vec, required=True, help="anchor of line 2 (x,y)")
    p_int.add_argument("--v", type=vec, required=True, help="direction of line 2 (x,y)")
    p_int.set_defaults(run=_run_intersect, table=None)

    p_tan = sub.add_parser("tangents",
                           help="common tangents of two circles")
    p_tan.add_argument("--c1", type=circle, required=True, help="first circle (x,y,r)")
    p_tan.add_argument("--c2", type=circle, required=True, help="second circle (x,y,r)")
    p_tan.add_argument("--svg", metavar="PATH", help="write a construction diagram")
    p_tan.set_defaults(run=_run_tangents, table=None)

    p_crank = sub.add_parser("crank",
                             help="sweep the inverted slider crank over a crank-angle interval")
    p_crank.add_argument("--length", type=_finite_float, required=True, help="crank length")
    p_crank.add_argument("--pivot", type=vec, required=True, help="pivot block (x,y)")
    p_crank.add_argument("--phidot", type=_finite_float, required=True, help="drive rate")
    p_crank.add_argument("--from", type=_finite_float, required=True, help="first crank angle")
    p_crank.add_argument("--to", type=_finite_float, required=True, help="last crank angle")
    p_crank.add_argument("--steps", type=_positive_int, required=True)
    p_crank.add_argument("--degrees", action="store_true",
                         help="angles in degrees on input and output")
    p_crank.add_argument("--csv", action="store_true", help="CSV table instead of JSON")
    p_crank.add_argument("--svg", metavar="PATH", help="write curves of s, psi, and derivatives")
    p_crank.set_defaults(run=_run_crank, table=_CRANK_TABLE)

    p_osc = sub.add_parser("oscillator",
                           help="integrate the harmonic oscillator in phase space")
    p_osc.add_argument("--mass", type=_finite_float, required=True)
    p_osc.add_argument("--stiffness", type=_finite_float, required=True)
    p_osc.add_argument("--q0", type=_finite_float, required=True)
    p_osc.add_argument("--p0", type=_finite_float, required=True)
    p_osc.add_argument("--dt", type=_finite_float, required=True)
    p_osc.add_argument("--steps", type=_positive_int, required=True)
    p_osc.add_argument("--method", choices=sorted(_METHOD_NAMES), required=True)
    p_osc.add_argument("--csv", action="store_true", help="CSV table instead of JSON")
    p_osc.add_argument("--svg", metavar="PATH", help="write a phase portrait")
    p_osc.set_defaults(run=_run_oscillator, table=_OSCILLATOR_TABLE)

    return parser


def _run_identities(args: argparse.Namespace) -> _Result:
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
        jx, jy, fx, fy, lagrange, rx, ry, binet = _identity_terms(ax, ay, bx, by, cx, cy, dx, dy)
        # ``IdentityResiduals.magnitudes()`` and the ``norm`` products, bit for bit.
        jacobi = hypot(jx, jy)
        full = hypot(fx, fy)
        lagrange = abs(lagrange)
        reduced = hypot(rx, ry)
        binet = abs(binet)
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
                   list(maxima.items()), EXIT_OK if within else EXIT_SINGULAR)


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
                   {"loop_closure": closure}, [], EXIT_OK)


def _tangents_plot(c1: Circle, c2: Circle, tangents: list[Tangent]) -> SvgPlot:
    from .svgplot import SvgPlot

    plot = SvgPlot("common tangents")
    plot.circle(c1.center.x, c1.center.y, c1.radius, color="#1f77b4", label="circle 1")
    plot.circle(c2.center.x, c2.center.y, c2.radius, color="#2ca02c", label="circle 2")
    seen_kinds: set[str] = set()
    for t in tangents:
        color = "#d62728" if t.kind == "inner" else "#ff7f0e"
        # Each segment runs 15% of lam past the touch points, along tilde(e).
        reach = 0.15 * t.lam
        along_x, along_y = -t.direction_e.y * reach, t.direction_e.x * reach
        x1, y1 = t.touch1.x - along_x, t.touch1.y - along_y
        x2, y2 = t.touch2.x + along_x, t.touch2.y + along_y
        if not (math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2)
                and math.isfinite(y2)):
            raise NumericalOverflowError("tangent segment overflows")
        label = t.kind if t.kind not in seen_kinds else None
        seen_kinds.add(t.kind)
        plot.segment(x1, y1, x2, y2, color=color, width=1.2, label=label)
        plot.marker(t.touch1.x, t.touch1.y, color="#333333")
        plot.marker(t.touch2.x, t.touch2.y, color="#333333")
    return plot


def _run_tangents(args: argparse.Namespace) -> _Result:
    from .core import Vec2
    from .geometry import Circle, circle_tangents, tangent_distance_error

    (x1, y1, r1), (x2, y2, r2) = args.c1, args.c2
    c1, c2 = Circle(Vec2(x1, y1), r1), Circle(Vec2(x2, y2), r2)
    tangents = circle_tangents(c1, c2)
    max_error = 0.0
    entries = []
    for t in tangents:
        max_error = max(max_error, tangent_distance_error(t, c1, c2))
        entries.append({
            "kind": t.kind,
            "lambda": t.lam,
            "touch1": [t.touch1.x, t.touch1.y],
            "touch2": [t.touch2.x, t.touch2.y],
            "e": [t.direction_e.x, t.direction_e.y],
        })
    return _Result({"count": len(tangents), "tangents": entries},
                   {"max_tangency_error": max_error}, [], EXIT_OK,
                   lambda: _tangents_plot(c1, c2, tangents))


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

    from .core import Vec2
    from .kinematics import CrankConfig, _grid, _sweep, loop_residuals

    cfg = CrankConfig(args.length, Vec2(*args.pivot), args.phidot)
    unit = _DEG if args.degrees else 1.0  # scaling by 1.0 is exact, -0.0 included
    # The entries are consumed as the sweep yields them; only the rows are kept.
    entries = _sweep(cfg, _grid(getattr(args, "from") * unit, args.to * unit, args.steps))
    isfinite = math.isfinite
    m_position = m_velocity = m_acceleration = 0.0
    store = array("d")
    extend = store.extend
    # Ten packed cells per entry in ``_CRANK_COLUMNS`` order, the flags as
    # 0.0/1.0 and angles converted on the way out.  Of the converted cells
    # only the rod's angular rates can overflow: phi converts back to a given
    # angle, and psi_unwrapped moves at most pi per sample.
    for phi, _, near_singular, state, psi_unwrapped in entries:
        if state is None:
            extend((phi / unit,) + _CRANK_SINGULAR)
            continue
        position, velocity, acceleration = loop_residuals(cfg, state)
        # The closures are finite, so this fold keeps max()'s result.
        if position > m_position:
            m_position = position
        if velocity > m_velocity:
            m_velocity = velocity
        if acceleration > m_acceleration:
            m_acceleration = acceleration
        _, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, _ = state
        psi_dot /= unit
        psi_ddot /= unit
        if not (isfinite(psi_dot) and isfinite(psi_ddot)):
            raise NumericalOverflowError(f"rod angle rates overflow in degrees at phi={phi / unit}")
        extend((phi / unit, s, psi / unit, psi_unwrapped / unit, s_dot, psi_dot,
                s_ddot, psi_ddot, 0.0, near_singular))
    residuals = {
        "max_position_closure": m_position,
        "max_velocity_closure": m_velocity,
        "max_acceleration_closure": m_acceleration,
    }
    return _Result({"entries": []}, residuals, _row_view(store, 10), EXIT_OK,
                   lambda: _crank_plot(store))


def _oscillator_plot(store: array, params: OscillatorParams, initial: PhaseState,
                     integrator: str) -> SvgPlot:
    from .dynamics import analytic_oscillator
    from .svgplot import SvgPlot

    plot = SvgPlot("phase portrait")
    period = 2.0 * math.pi / params.omega
    if not math.isfinite(period):
        raise NumericalOverflowError(f"phase-portrait period overflows (omega = "
                                     f"{params.omega})")
    ellipse = []
    for i in range(257):
        s = analytic_oscillator(period * i / 256.0, initial, params)
        ellipse.append((s.q, s.p))
    plot.polyline(ellipse, color="#7f7f7f", width=1.0, label="energy ellipse")
    # The q and p columns of the packed (t, q, p, energy) rows.
    cells = memoryview(store)
    plot.polyline(zip(cells[1::4], cells[2::4]), color="#1f77b4", label=integrator)
    plot.marker(initial.q, initial.p, color="#d62728", label="initial state")
    return plot


def _run_oscillator(args: argparse.Namespace) -> _Result:
    from array import array

    from .dynamics import OscillatorParams, PhaseState, _flow, hamiltonian

    params = OscillatorParams(args.mass, args.stiffness)
    initial = PhaseState(args.q0, args.p0, 0.0)
    method = _METHOD_NAMES[args.method]
    # Each state becomes its (t, q, p, energy) row in the store as the flow
    # yields it; no state is kept.  The first overflow in step order, of a
    # state or of its energy, ends the run.
    store = array("d")
    append = store.append
    for s in _flow(initial, params, args.dt, args.steps, method):
        append(s.t)
        append(s.q)
        append(s.p)
        append(hamiltonian(s, params))
    energies = memoryview(store)[3::4]
    initial_energy = energies[0]
    max_drift = 0.0
    for energy in energies:
        # The energies are finite, so this fold keeps max()'s result.
        drift = abs(energy - initial_energy)
        if drift > max_drift:
            max_drift = drift
    t, q, p, energy = store[-4:]
    return _Result({"final": {"t": t, "q": q, "p": p, "energy": energy}, "states": []},
                   {"max_energy_drift": max_drift}, _row_view(store, 4), EXIT_OK,
                   lambda: _oscillator_plot(store, params, initial, method))


_OSCILLATOR_CSV = "%.17g,%.17g,%.17g,%.17g\r\n"
_OSCILLATOR_JSON = _json_item(["%r"] * 3)  # [t, q, p]; the energy is CSV only

#: The row schemas of the tabular subcommands, each its parser's ``table`` default.
_IDENTITIES_TABLE = _Table(("identity", "max_residual"),
                           lambda rows: ["%s,%.17g\r\n" % row for row in rows])
_CRANK_TABLE = _Table(_CRANK_COLUMNS, lambda rows: _crank_texts(rows, _CRANK_CSV),
                      "entries", lambda rows: _crank_texts(rows, _CRANK_JSON))
_OSCILLATOR_TABLE = _Table(
    ("t", "q", "p", "energy"),
    lambda rows: [_OSCILLATOR_CSV % tuple(row) for row in rows.tolist()],
    "states", lambda rows: [_OSCILLATOR_JSON % (t, q, p) for t, q, p, _ in rows.tolist()])


#: The failure families a run maps to an exit code, each with the words of
#: its stderr line, in match order: the first family an error belongs to wins.
_FAILURES = ((DegeneracyError, EXIT_DEGENERATE, "geometric degeneracy"),
             (SingularityError, EXIT_SINGULAR, "numerical singularity"),
             (ValueError, EXIT_USAGE, "invalid value"),
             (OSError, EXIT_USAGE, "cannot write output"))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    started = time.perf_counter()
    try:
        result = args.run(args)
        if getattr(args, "svg", None):
            result.plot().write(args.svg)
    except Exception as exc:
        for family, code, words in _FAILURES:
            if isinstance(exc, family):
                print(f"sympgeo: {words}: {exc}", file=sys.stderr)
                return code
        raise
    if getattr(args, "csv", False):
        sys.stdout.writelines(_csv_pieces(args.table, result.rows))
    else:
        report = {"subcommand": args.subcommand, "input": _echo(args),
                  "results": result.results, "residuals": result.residuals,
                  "wall_time_ms": (time.perf_counter() - started) * 1000.0}
        sys.stdout.writelines(_json_pieces(report, args.table, result.rows))
        sys.stdout.write("\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
