"""Plain-float kernels of the phase flow, shared by ``dynamics`` and ``sympgeo oscillator``.

Each kernel takes and returns floats and builds no record, so this module
imports only :mod:`math`, :mod:`sys` and :mod:`sympgeo.errors`: an
``oscillator`` run loads it without ``core``, ``dynamics``,
``dataclasses`` or the crank and construction kernels of
:mod:`sympgeo._kernels`, and each formula has one copy, here:

* :data:`SPLITTINGS` holds each splitting method's row of ``(a, b)``
  stages, and :data:`METHODS` every method name, explicit Euler first;
* :func:`_check_oscillator` is the mass/stiffness rule of
  :class:`sympgeo.dynamics.OscillatorParams`, :func:`_check_run` the
  run-argument rule of :func:`sympgeo.dynamics.simulate` and of the CLI,
  :func:`_energy` the expression and message of
  :func:`sympgeo.dynamics.hamiltonian`, :func:`_omega` the body of
  ``OscillatorParams.omega`` and :func:`_orbit` that of
  :func:`sympgeo.dynamics.analytic_oscillator`, whose orbit the
  ``oscillator --svg`` plot draws.  The one deliberate second copy of a
  formula is the energy that :func:`sympgeo.dynamics.ellipse_residual`
  writes out inline, kept there for speed.

The step loops are written out from one template (:data:`_FLOW_TEMPLATE`)
by one builder (:func:`_build_flow`): the kick and drift statements of a
method's :data:`SPLITTINGS` row, the step sizes taken once per run, the
time stamp and the state-overflow check.  Every loop takes
``(q, p, t, m, k, dt, n_steps, append)`` and leaves the initial state to
its caller.  A caller's shape is only the statements run on each new state
and the names they read: :mod:`sympgeo.dynamics` builds a ``PhaseState``
record and appends it, and ``sympgeo oscillator`` appends the state's
``(t, q, p, energy)`` row.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidStepError, NumericalOverflowError

# A static type checker takes TYPE_CHECKING as true and reads the type-only
# imports; at run time they stay unevaluated, so no ``typing`` loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

EXPLICIT_EULER = "explicit_euler"
SYMPLECTIC_EULER = "symplectic_euler"
LEAPFROG = "leapfrog"

#: Kick/drift coefficients ``(a, b)`` per stage of each splitting method.
SPLITTINGS = {
    SYMPLECTIC_EULER: ((1.0, 1.0),),
    LEAPFROG: ((0.5, 1.0), (0.5, 0.0)),
}
METHODS = (EXPLICIT_EULER, *SPLITTINGS)


def _check_oscillator(mass: float, stiffness: float) -> None:
    """The rule of :class:`sympgeo.dynamics.OscillatorParams`: mass, then stiffness, finite and > 0.

    Raises :class:`ValueError` naming the first value that breaks it.
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and > 0, got {mass}")
    if not (math.isfinite(stiffness) and stiffness > 0.0):
        raise ValueError(f"stiffness must be finite and > 0, got {stiffness}")


def _energy(q: float, p: float, t: float, mass: float, stiffness: float) -> float:
    """Total energy ``p^2/(2m) + k*q^2/2`` of the state ``(q, p)`` stamped ``t``.

    The body of :func:`sympgeo.dynamics.hamiltonian` on plain floats.
    Raises :class:`NumericalOverflowError` naming ``t`` when the energy
    overflows.
    """
    energy = p * p / (2.0 * mass) + stiffness * q * q / 2.0
    if not math.isfinite(energy):
        raise NumericalOverflowError(f"energy overflows at t={t}")
    return energy


def _omega(mass: float, stiffness: float) -> float:
    """Natural angular frequency ``sqrt(stiffness/mass)`` of a valid mass and stiffness.

    The body of :attr:`sympgeo.dynamics.OscillatorParams.omega`.  When the
    ratio itself leaves the normal range (``stiffness=1e-300``,
    ``mass=1e300`` underflows it to 0.0), the root is taken of each
    operand instead; the result can then still be subnormal or infinite.
    """
    ratio = stiffness / mass
    if sys.float_info.min <= ratio < math.inf:  # the ratio is a normal float
        return math.sqrt(ratio)
    return math.sqrt(stiffness) / math.sqrt(mass)


def _orbit(t: float, q0: float, p0: float, t0: float, mass: float,
           w: float) -> tuple[float, float, float]:
    """``(q, p, stamp)`` of the closed-form state a time ``t`` after ``(q0, p0)`` stamped ``t0``.

    The body of :func:`sympgeo.dynamics.analytic_oscillator` on plain
    floats, for the mass ``mass`` and the angular frequency ``w`` of
    :func:`_omega`.  Raises :class:`ValueError` for a non-finite ``t`` and
    :class:`NumericalOverflowError` when ``mass*w`` is 0.0 or infinite, or
    when the state or ``w*t`` overflows.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    mw = mass * w
    if not 0.0 < mw < math.inf:
        raise NumericalOverflowError(f"m*omega = {mw} leaves the float range at t={t0 + t}")
    wt = w * t
    if math.isfinite(wt):
        cos_wt = math.cos(wt)
        sin_wt = math.sin(wt)
        q = q0 * cos_wt + p0 / mw * sin_wt
        p = p0 * cos_wt - mw * q0 * sin_wt
        stamp = t0 + t
        if math.isfinite(q) and math.isfinite(p) and math.isfinite(stamp):
            return q, p, stamp
    raise NumericalOverflowError(f"analytic state overflows at t={t0 + t}")


def _check_run(n_steps: int, dt: float, method: str) -> None:
    """The arguments of a fixed-step run: ``n_steps``, then ``dt``, then ``method``.

    Raises :class:`InvalidStepError` for a step count below 1 or a step
    size that is not finite and positive, and :class:`ValueError` for a
    method outside :data:`METHODS`.
    """
    if n_steps < 1:
        raise InvalidStepError(f"n_steps must be >= 1, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidStepError(f"dt must be finite and > 0, got {dt}")
    if method not in METHODS:
        raise ValueError(f"unknown integrator {method!r}; expected one of {METHODS}")


#: The source of every step loop.  :func:`_build_flow` fills in ``{bind}``,
#: the shape's names bound as locals once per run, ``{sizes}``, each
#: stage's step sizes taken once per run, ``{steps}``, the body of one
#: step, and ``{each}``, what becomes of each new state.  Every step runs
#: on plain floats, stamped with the running sum of ``dt``, and a state is
#: checked finite before its shape sees it.  The caller records the
#: initial state itself.
_FLOW_TEMPLATE = """\
def _flow(q, p, t, m, k, dt, n_steps, append):
    isfinite = math.isfinite
{bind}
{sizes}
    for _ in range(n_steps):
{steps}
        t = t + dt
        if not (isfinite(q) and isfinite(p) and isfinite(t)):
            raise NumericalOverflowError(f"phase state overflows at t={{t}}")
{each}
"""


def _build_flow(row: tuple[tuple[float, float], ...] | None, name: str, module: str,
                each: Sequence[str], names: dict,
                cache: dict | None = None) -> Callable[..., None]:
    """Compile the step loop of one method from its row, in one caller's shape.

    ``loop(q, p, t, m, k, dt, n_steps, append)`` steps the state ``(q, p)``
    stamped ``t``, with mass ``m`` and stiffness ``k``, ``n_steps`` times
    and runs the statements ``each`` on each new state; they see ``q``,
    ``p``, ``t``, ``m``, ``k`` and ``append``, and the locals that
    ``names`` maps to their values.  Those are taken from ``names`` when
    the loop is built and bound once per run.

    ``row`` is a sequence of ``(a, b)`` stages, each a kick
    ``p = p + kick_i * (-(k * q))`` and then a drift
    ``q = q + drift_i * (p / m)``, with ``kick_i = a*dt`` and
    ``drift_i = b*dt`` taken once per run; ``None`` is explicit Euler, one
    tuple assignment from the current field.  A zero coefficient writes no
    half-stage: adding ``0.0`` would turn a ``-0.0`` coordinate into
    ``+0.0``.  The test is on the coefficient, so a step size that
    underflows to 0.0 still runs.  Each coefficient enters the source as
    its ``repr``, which reads back as the same float.

    ``module`` is the caller's ``__name__``: the code is named
    ``<MODULE._flow NAME>`` in tracebacks and profiles.  With ``cache``,
    the :mod:`linecache` cache, the source is registered there under that
    name, so a traceback shows the failing line, coefficients included;
    without it, this module loads no ``linecache``.  Every call compiles
    anew.
    """
    sizes, steps = [], []
    if row is None:
        steps.append("q, p = q + dt * (p / m), p + dt * (-(k * q))")
    for i, (a, b) in enumerate(row or ()):
        if a:
            sizes.append(f"kick_{i} = {a!r} * dt")
            steps.append(f"p = p + kick_{i} * (-(k * q))")
        if b:
            sizes.append(f"drift_{i} = {b!r} * dt")
            steps.append(f"q = q + drift_{i} * (p / m)")
    bind = [f"{local} = _names[{local!r}]" for local in names]
    source = _FLOW_TEMPLATE.format(bind=_indent(bind, 4), sizes=_indent(sizes, 4),
                                   steps=_indent(steps, 8), each=_indent(each, 8))
    namespace = {"__name__": module, "math": math,
                 "NumericalOverflowError": NumericalOverflowError, "_names": dict(names)}
    filename = f"<{module}._flow {name}>"
    if cache is not None:
        # No modification time: linecache.checkcache keeps the entry.
        cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_flow"]


def _indent(lines: Sequence[str], width: int) -> str:
    """``lines`` as one block of source, each line indented by ``width`` spaces."""
    return "\n".join(" " * width + line for line in lines)
