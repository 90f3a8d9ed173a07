"""The runner of ``sympgeo oscillator``, on the phase-flow kernels of ``_flow``.

:mod:`sympgeo.cli` imports this module only for an ``oscillator`` run, so
such a run loads neither :mod:`sympgeo._kernels` nor the other runners.
:func:`_run_oscillator` compiles one step loop, for its method only, from
the template of :mod:`sympgeo._flow`, with the signature of the library's
record loops; it appends the initial state's packed ``(t, q, p,
energy)`` row, four floats, and the loop each new state's.  The loop's
source is not registered with :mod:`linecache`, so a run loads neither
it nor :mod:`tokenize`.  Both writers format a chunk of rows with one
``%``, from the row template repeated once per row, and the ``--svg``
plot draws the kernel of ``analytic_oscillator``.
"""

from __future__ import annotations

import math

from ._flow import SPLITTINGS, _build_flow, _check_oscillator, _check_run, _energy, _omega, _orbit
from .cli import _METHOD_NAMES, _Result, _Table, _json_item, _row_view
from .errors import NumericalOverflowError

# A static type checker takes TYPE_CHECKING as true and reads the type-only
# imports; at run time they stay unevaluated, so no ``typing`` loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from array import array
    from collections.abc import Callable

    from .svgplot import SvgPlot


def _oscillator_plot(store: array, mass: float, stiffness: float, q0: float, p0: float,
                     integrator: str) -> SvgPlot:
    from .svgplot import SvgPlot

    plot = SvgPlot("phase portrait")
    w = _omega(mass, stiffness)
    period = 2.0 * math.pi / w
    if not math.isfinite(period):
        raise NumericalOverflowError(f"phase-portrait period overflows (omega = {w})")
    ellipse = []
    for i in range(257):
        q, p, _ = _orbit(period * i / 256.0, q0, p0, 0.0, mass, w)
        ellipse.append((q, p))
    plot.polyline(ellipse, color="#7f7f7f", width=1.0, label="energy ellipse")
    # The q and p columns of the packed (t, q, p, energy) rows.
    cells = memoryview(store)
    plot.polyline(zip(cells[1::4], cells[2::4]), color="#1f77b4", label=integrator)
    plot.marker(q0, p0, color="#d62728", label="initial state")
    return plot


#: What the oscillator's row loop does with each new state, in the shape of
#: :func:`sympgeo._flow._build_flow`: append its ``(t, q, p, energy)`` row.
_ROW_CELLS = ("append(t)", "append(q)", "append(p)", "append(energy(q, p, t, m, k))")


def _build_rows(row: tuple[tuple[float, float], ...] | None, name: str) -> Callable[..., None]:
    """Compile the row loop of one method from its row.

    :func:`sympgeo._flow._build_flow` in the shape :data:`_ROW_CELLS`:
    ``loop(q, p, t, m, k, dt, n_steps, append)`` passes each new state's
    ``t``, ``q``, ``p`` and energy to ``append``.  It builds no record and,
    like :func:`sympgeo.dynamics.hamiltonian`, takes each energy from
    :func:`sympgeo._flow._energy`, as this module binds it when the loop
    is built.  The code is named ``<sympgeo._run_flow._flow NAME>``, and
    its source is not registered with :mod:`linecache`; every call
    compiles anew.
    """
    return _build_flow(row, name, __name__, _ROW_CELLS, {"energy": _energy})


def _run_oscillator(args: argparse.Namespace) -> _Result:
    from array import array  # a shared extension module: only the packing runners load it

    mass, stiffness, q0, p0 = args.mass, args.stiffness, args.q0, args.p0
    _check_oscillator(mass, stiffness)
    method = _METHOD_NAMES[args.method]
    _check_run(args.steps, args.dt, method)
    # The initial row, then one loop, for this method only, appends each new
    # state's row to the store as it is stepped; no state is built or kept.
    # The first overflow in step order, of a state or of its energy, ends
    # the run.
    store = array("d", (0.0, q0, p0, _energy(q0, p0, 0.0, mass, stiffness)))
    _build_rows(SPLITTINGS.get(method), method)(q0, p0, 0.0, mass, stiffness, args.dt,
                                                args.steps, store.append)
    energies = memoryview(store)[3::4]
    initial_energy = energies[0]
    # max |e - e0|: rounding is monotone and odd, and e0 is in the column.
    max_drift = max(max(energies) - initial_energy, initial_energy - min(energies))
    t, q, p, energy = store[-4:]
    return _Result({"final": {"t": t, "q": q, "p": p, "energy": energy}, "states": []},
                   {"max_energy_drift": max_drift}, _OSCILLATOR_TABLE, _row_view(store, 4),
                   lambda: _oscillator_plot(store, mass, stiffness, q0, p0, method))


_OSCILLATOR_CSV = "%.17g,%.17g,%.17g,%.17g\r\n"
_OSCILLATOR_JSON = _json_item(["%r"] * 3)  # [t, q, p]; the energy is CSV only


def _flat_cells(rows: memoryview) -> list[float]:
    """The cells of a chunk of packed rows, row after row, as one flat list."""
    return rows.cast("B").cast("d").tolist()


def _oscillator_csv(rows: memoryview) -> str:
    """The CSV text of a chunk of packed rows: one ``%`` over all its cells."""
    return (_OSCILLATOR_CSV * len(rows)) % tuple(_flat_cells(rows))


def _oscillator_json(rows: memoryview) -> str:
    """The JSON row texts of a chunk of packed rows, each row without its energy cell."""
    cells = _flat_cells(rows)
    del cells[3::4]
    return ",\n".join([_OSCILLATOR_JSON] * len(rows)) % tuple(cells)


#: The oscillator's row schema.
_OSCILLATOR_TABLE = _Table(("t", "q", "p", "energy"), _oscillator_csv, "states", _oscillator_json)
