"""Command-line front end.

Five subcommands drive the library end to end: ``identities`` fuzzes the
algebraic identities with a seeded generator, ``intersect`` and
``tangents`` run the closed-form constructions, ``crank`` sweeps the
mechanism, and ``oscillator`` integrates the phase flow.  Reports are
JSON by default (CSV for the tabular subcommands), and stdout is a
function of the command line alone: two runs of one command line write
the same bytes.

A run is parse -> run -> plot -> report, all driven by :func:`main`.  It
parses the command line to plain numbers: an ``x,y`` or ``x,y,r`` option
is a tuple of floats, each component finite by the one number rule of
:func:`_finite_float`.  Each subcommand's parser names its runner, as
``MODULE.FUNCTION``, in the ``run`` default of the parsed arguments, so
:func:`main` dispatches from the parse alone and no second registry
names the subcommands.  This module is the front end only: the runners,
with their row schemas, templates and plots, live in two runner modules,
``_run_kernels`` (``identities``, ``intersect``, ``tangents`` and
``crank``, on the kernels of ``_kernels``) and ``_run_flow``
(``oscillator``, on the phase-flow kernels of ``_flow``), and
:func:`main` imports only the one its run names.  The subcommand's runner
checks the rules of the library's records (as a circle's radius) with
the kernels that hold them and computes a :data:`_Result` (the report's
``results`` and ``residuals`` sections, for the tabular subcommands a
:data:`_Table` and one row per sample, a builder of the ``--svg``
diagram, and the failure of a run whose report is still written, as an
``identities`` run over its tolerance).  With ``--svg``, :func:`main`
draws and writes the diagram, and it lays out the report: the envelope
and the ``input`` echo of the command line (:func:`_echo`).  The CSV
and JSON writers share each tabular subcommand's fixed row schema, a
:data:`_Table`, whose row writers format the row texts from
``%``-templates.  Every row is complete before the first byte is
written, so a run that fails leaves stdout empty; the report is then
written in pieces, the row texts :data:`_CHUNK` (256) rows at a time,
by one ``writelines`` and a flush.  Only a failure of that write itself
can leave a partial report.
The runners keep no records beside their rows, so the rows are what a
large run's peak memory holds: packed floats (:func:`_row_view`), ten
per ``crank`` row and four per ``oscillator`` row.

One rule says what a run loads: ``cli``, ``errors``, its runner module
and that runner's kernel module (``_kernels`` or ``_flow``); ``--svg``
adds ``svgplot``, and a JSON report adds ``json``.  No subcommand builds
a record, so none loads ``core``, ``geometry``, ``kinematics``,
``dynamics``, ``dataclasses``, ``typing`` or ``linecache``.

Exit codes: 0 success (an empty solution set is still success), 1 usage
error or unwritable output, 2 geometric degeneracy, 3 numerical
singularity or memory exhaustion.  argparse exits with 2 on a usage
error, after its usage line and its ``PROG: error: MESSAGE`` line, and
:func:`main` returns 1 for it.  Everything after the parse, the run,
the plot, the report's write and the raise of a :data:`_Result`'s
failure, is one guarded region with one way out: each failure is raised
by the layer that meets it, in the order it meets it (a run stops at its
first), and :func:`main` maps its error family to the exit code and the
one ``sympgeo: WORDS: MESSAGE`` line of stderr from the one table
:data:`_FAILURES`.  An error of no family there is a bug, and escapes.
After a failed write, stdout's descriptor points at the null device, so
the flush at interpreter exit neither fails nor prints.  A stdout closed
at start-up (Python's ``sys.stdout`` is None) is unwritable output too.
A stderr closed at start-up drops the line and keeps the exit code, so a
failed run still leaves stdout empty.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import namedtuple
from itertools import chain

from .errors import DegeneracyError, SingularityError

# A static type checker takes TYPE_CHECKING as true and reads the type-only
# imports; at run time they stay unevaluated, so no ``typing`` loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from array import array
    from collections.abc import Callable, Iterator, Sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_SINGULAR = 3

#: ``--method`` choices and the ``dynamics.METHODS`` entries they name.
_METHOD_NAMES = {
    "euler": "explicit_euler",
    "symplectic-euler": "symplectic_euler",
    "leapfrog": "leapfrog",
}


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


#: What a runner computed, and nothing of the report's layout.
#:
#: ``results`` and ``residuals`` are the report sections of those names,
#: with the row array under ``results``, if any, left empty.  A tabular
#: subcommand's runner gives its :data:`_Table` as ``table`` and one row
#: per sample as ``rows``, in the table's column order, as a tuple or as a
#: row of a :func:`_row_view` (defaults None and no rows); ``plot`` builds
#: the ``--svg`` diagram (default None).  ``failure`` (default None) is the
#: error of a run whose report is still written, raised once it is.
_Result = namedtuple("_Result", ("results", "residuals", "table", "rows", "plot", "failure"),
                     defaults=(None, (), None, None))

#: Fixed row schema of one tabular subcommand and its two row writers.
#:
#: ``columns`` names the cells; each writer, ``csv_rows`` and ``json_rows``
#: (default None), maps a chunk of rows to its text: each CSV row ends its
#: line, and JSON rows are joined by ``",\n"``.  ``array`` names the JSON
#: row array under ``results``; None (the default) when the report holds
#: none.
_Table = namedtuple("_Table", ("columns", "csv_rows", "array", "json_rows"),
                    defaults=(None, None))


def _echo(args: argparse.Namespace) -> dict:
    """The report's ``input`` section: every run argument in declaration order.

    An ``x,y`` or ``x,y,r`` option is parsed to a tuple, which JSON writes
    as the list ``[x, y]`` or ``[x, y, r]``.  The subcommand's name, the
    format flags and the dispatch default ``run`` are left out.
    """
    return {name: value for name, value in vars(args).items()
            if name not in ("subcommand", "json", "csv", "run")}


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


def _row_chunks(rows: Sequence, text: Callable[[Sequence], str], sep: str) -> Iterator[str]:
    """The texts of the rows in pieces of :data:`_CHUNK` rows each, ``text``
    of each chunk, the pieces joined by ``sep``."""
    for start in range(0, len(rows), _CHUNK):
        piece = text(rows[start:start + _CHUNK])
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
    import json  # only a JSON report loads it; a CSV run never does

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
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
    p_id.set_defaults(run="_run_kernels._run_identities")

    p_int = sub.add_parser("intersect",
                           help="intersect two lines given as point and direction")
    p_int.add_argument("--a", type=vec, required=True, help="anchor of line 1 (x,y)")
    p_int.add_argument("--u", type=vec, required=True, help="direction of line 1 (x,y)")
    p_int.add_argument("--b", type=vec, required=True, help="anchor of line 2 (x,y)")
    p_int.add_argument("--v", type=vec, required=True, help="direction of line 2 (x,y)")
    p_int.set_defaults(run="_run_kernels._run_intersect")

    p_tan = sub.add_parser("tangents",
                           help="common tangents of two circles")
    p_tan.add_argument("--c1", type=circle, required=True, help="first circle (x,y,r)")
    p_tan.add_argument("--c2", type=circle, required=True, help="second circle (x,y,r)")
    p_tan.add_argument("--svg", metavar="PATH", help="write a construction diagram")
    p_tan.set_defaults(run="_run_kernels._run_tangents")

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
    p_crank.set_defaults(run="_run_kernels._run_crank")

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
    p_osc.set_defaults(run="_run_flow._run_oscillator")

    return parser


#: The failure families a run maps to an exit code, each with the words of
#: its stderr line, in match order: the first family an error belongs to wins.
_FAILURES = ((DegeneracyError, EXIT_DEGENERATE, "geometric degeneracy"),
             (SingularityError, EXIT_SINGULAR, "numerical singularity"),
             (MemoryError, EXIT_SINGULAR, "out of memory"),
             (ValueError, EXIT_USAGE, "invalid value"),
             (OSError, EXIT_USAGE, "cannot write output"))


def _runner(name: str) -> Callable[[argparse.Namespace], _Result]:
    """The runner that a parser's ``run`` default names as ``MODULE.FUNCTION``.

    The module, one of this package's runner modules, is imported here, so
    a run loads only its own subcommand's runner and kernels.
    """
    module, _, function = name.partition(".")
    return getattr(__import__(module, globals(), None, (function,), 1), function)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        result = _runner(args.run)(args)
        if getattr(args, "svg", None):
            result.plot().write(args.svg)
        if getattr(args, "csv", False):
            pieces = _csv_pieces(result.table, result.rows)
        else:
            report = {"subcommand": args.subcommand, "input": _echo(args),
                      "results": result.results, "residuals": result.residuals}
            pieces = chain(_json_pieces(report, result.table, result.rows), ("\n",))
        if sys.stdout is None:  # descriptor 1 was closed at start-up: nothing to redirect
            raise OSError("stdout is closed")
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError:
            # Python flushes stdout again at exit; on the null device that
            # flush neither fails nor prints (see the note on SIGPIPE in the
            # documentation of the ``signal`` module).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        if result.failure is not None:
            raise result.failure
    except Exception as exc:
        for family, code, words in _FAILURES:
            if isinstance(exc, family):
                # With descriptor 2 closed at start-up, print(file=None) would
                # write to stdout: the line is dropped, and the code kept.
                if sys.stderr is not None:
                    print(f"sympgeo: {words}" + (f": {exc}" if str(exc) else ""),
                          file=sys.stderr)
                return code
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
