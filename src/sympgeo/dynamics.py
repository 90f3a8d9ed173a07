"""Harmonic-oscillator phase space built on the planar vector algebra.

A phase point ``(q, p)`` is treated as a planar vector, and the flow
direction is literally the negated quarter-turn of the energy gradient:
the same ``tilde`` operator that rotates geometry rotates the gradient
onto the energy level sets here.  Three fixed-step integrators with
contrasting energy behavior are provided: the area-preserving pair stays
on (near) the level-set ellipse forever, while the explicit Euler scheme
spirals outward at an exactly geometric rate.

The area-preserving pair are splitting methods.  For the separable energy
the flow splits into a kick (``p`` moved by ``-dH/dq``) and a drift (``q``
moved by ``dH/dp``), and each method is a row of :data:`SPLITTINGS`: a
sequence of ``(a, b)`` stages, each a kick of ``a*dt`` followed by a drift
of ``b*dt``.  Explicit Euler is the method with no stages.

Each method's step loop is written out once from its row, at import, by
the template and builder of :mod:`sympgeo._flow`, with a kick statement
for each nonzero ``a`` and a drift statement for each nonzero ``b``, so
no step loops over stages; its source is registered with
:mod:`linecache`, so a traceback through it shows the failing line.
:func:`simulate` checks a run's arguments, starts its list of states with
the initial one and hands the list's ``append`` to that loop, which takes
the step sizes once per run and appends each new state, built as a slot
twin of :class:`PhaseState`; :func:`step` is a one-step :func:`simulate`.
:func:`ellipse_residual` keeps the last initial energy, so the residuals
of one trajectory take it once.  ``sympgeo oscillator`` runs a loop from
the same template and builder, with the same signature, on plain floats,
and never loads this module: the mass/stiffness rule, the energy, the
run-argument checks and, for its ``--svg`` plot,
:attr:`OscillatorParams.omega` and the orbit of
:func:`analytic_oscillator` are float kernels of :mod:`sympgeo._flow`
that both share.
"""

from __future__ import annotations

import linecache
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import _flow
# The method names and rows are public names of this module too.
from ._flow import (
    EXPLICIT_EULER,
    LEAPFROG,
    METHODS,
    SPLITTINGS,
    SYMPLECTIC_EULER,
    _check_oscillator,
    _check_run,
    _energy,
    _omega,
    _orbit,
)
from .core import Vec2, _slot_twin, _vec2, tilde
from .errors import NumericalOverflowError


@dataclass(frozen=True, slots=True)
class OscillatorParams:
    """Point mass on a linear spring."""

    mass: float
    stiffness: float

    def __post_init__(self) -> None:
        _check_oscillator(self.mass, self.stiffness)

    @property
    def omega(self) -> float:
        """Natural angular frequency ``sqrt(stiffness/mass)``.

        When the ratio itself leaves the normal range (``stiffness=1e-300``,
        ``mass=1e300`` underflows it to 0.0), the root is taken of each
        operand instead; the result can then still be subnormal or infinite.
        The body is the float kernel :func:`sympgeo._flow._omega`.
        """
        return _omega(self.mass, self.stiffness)


@dataclass(frozen=True, slots=True)
class PhaseState:
    """One phase-space point ``(q, p)`` with its time stamp."""

    q: float
    p: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and math.isfinite(self.p) and math.isfinite(self.t)):
            raise ValueError("phase-state fields must be finite")


_PhaseStateTwin = _slot_twin(PhaseState)


def _phase_state(q: float, p: float, t: float) -> PhaseState:
    """``PhaseState(q, p, t)`` for fields the caller has already checked finite.

    Built through the slot twin of :func:`~sympgeo.core._slot_twin`; the
    public constructor still validates.
    """
    s = _PhaseStateTwin()
    s.q = q
    s.p = p
    s.t = t
    s.__class__ = PhaseState
    return s


class Trajectory(NamedTuple):
    """A fixed-step run: the initial state plus one state per step."""

    params: OscillatorParams
    dt: float
    states: list[PhaseState]
    integrator: str


def hamiltonian(s: PhaseState, params: OscillatorParams) -> float:
    """Total energy ``p^2/(2m) + k*q^2/2``.

    Raises :class:`NumericalOverflowError` when the energy overflows.
    """
    return _energy(s.q, s.p, s.t, params.mass, params.stiffness)


def hamiltonian_gradient(s: PhaseState, params: OscillatorParams) -> Vec2:
    """Energy gradient ``(dH/dq, dH/dp) = (k*q, p/m)`` as a phase-plane vector.

    Raises :class:`NumericalOverflowError` when a component overflows.
    """
    dh_dq, dh_dp = params.stiffness * s.q, s.p / params.mass
    if not (math.isfinite(dh_dq) and math.isfinite(dh_dp)):
        raise NumericalOverflowError(f"energy gradient overflows at t={s.t}")
    # Both components were checked finite just above.
    return _vec2(dh_dq, dh_dp)


def hamiltonian_field(s: PhaseState, params: OscillatorParams) -> tuple[float, float]:
    """Flow direction ``(q_dot, p_dot)``: the negated quarter-turn of the gradient.

    ``-tilde((k*q, p/m))`` evaluates to ``(p/m, -k*q)``; the momentum
    component is Newton's law, and the field is everywhere orthogonal to
    the gradient, i.e. tangent to the energy level sets.  Raises
    :class:`NumericalOverflowError` when a gradient component overflows.
    """
    field = -tilde(hamiltonian_gradient(s, params))
    return (field.x, field.y)


def step(s: PhaseState, params: OscillatorParams, dt: float,
         method: str = LEAPFROG) -> PhaseState:
    """Advance one fixed step of size ``dt``: ``simulate(s, params, dt, 1, method).states[1]``.

    Checks ``dt`` and ``method`` as :func:`simulate` does, and raises
    :class:`NumericalOverflowError` when the new state overflows.
    """
    return simulate(s, params, dt, 1, method).states[1]


def simulate(initial: PhaseState, params: OscillatorParams, dt: float,
             n_steps: int, method: str = LEAPFROG) -> Trajectory:
    """Run ``n_steps`` fixed steps; the trajectory includes the initial state.

    * ``explicit_euler``: both coordinates from the current field
      ``(p/m, -k*q)``, the value of :func:`hamiltonian_field`.
    * a splitting method runs the stages of its :data:`SPLITTINGS` row in
      order; stage ``(a, b)`` kicks ``p += (a*dt)*(-k*q)`` and then drifts
      ``q += (b*dt)*(p/m)``.  ``symplectic_euler`` is one full kick and
      drift, ``leapfrog`` is half-kick, drift, half-kick (time-reversible).

    Each method's loop is written out once from its row (or from the field,
    for explicit Euler), as its own statements, so no step loops over stages.

    Every state stamp is the running sum of ``dt``.  Checks ``n_steps``,
    then ``dt``, then ``method`` (the rule of
    :func:`sympgeo._flow._check_run`) before the first step, and
    raises :class:`NumericalOverflowError` when a state overflows.
    ``states[0]`` is ``initial`` itself.
    """
    _check_run(n_steps, dt, method)
    states = [initial]
    _LOOPS[method](initial.q, initial.p, initial.t, params.mass, params.stiffness, dt, n_steps,
                   states.append)
    return Trajectory(params, dt, states, method)


#: What the record loop does with each new state, in the shape of
#: :func:`sympgeo._flow._build_flow`: build it through the slot twin, as
#: :func:`_phase_state` does, and append it.
_RECORD = ("# q, p and t were checked finite just above: _phase_state, inlined.",
           "s = twin()",
           "s.q = q",
           "s.p = p",
           "s.t = t",
           "s.__class__ = cls",
           "append(s)")


def _build_flow(row: tuple[tuple[float, float], ...] | None, name: str) -> Callable[..., None]:
    """Compile the record loop of one method from its row.

    :func:`sympgeo._flow._build_flow` in the shape :data:`_RECORD`:
    ``loop(q, p, t, m, k, dt, n_steps, append)`` passes each new
    :class:`PhaseState` to ``append``.  The code is named
    ``<sympgeo.dynamics._flow NAME>``, and its source is registered with
    :mod:`linecache` under that name; every call compiles anew, and
    :data:`_LOOPS` keeps one per method.
    """
    return _flow._build_flow(row, name, __name__, _RECORD,
                             {"twin": _PhaseStateTwin, "cls": PhaseState}, linecache.cache)


def analytic_oscillator(t: float, initial: PhaseState, params: OscillatorParams) -> PhaseState:
    """Closed-form state a time ``t`` after ``initial``.

        q(t) = q0*cos(w*t) + p0/(m*w)*sin(w*t)
        p(t) = p0*cos(w*t) - m*w*q0*sin(w*t)

    Conserves the energy exactly, so it doubles as the reference orbit for
    integrator error and drift measurements.  Wraps the float kernel
    :func:`sympgeo._flow._orbit`, which the ``oscillator --svg`` plot
    runs directly.  Raises :class:`NumericalOverflowError` when ``m*w`` is
    0.0 or infinite, or when the state or ``w*t`` overflows; a non-finite
    ``t`` is a ``ValueError``.
    """
    q, p, stamp = _orbit(t, initial.q, initial.p, initial.t, params.mass, params.omega)
    # The kernel checked q, p and the time stamp finite.
    return _phase_state(q, p, stamp)


#: The last finite ``(initial, params, H(initial))`` of :func:`ellipse_residual`.
_initial_energy: tuple = (None, None, 0.0)


def ellipse_residual(s: PhaseState, initial: PhaseState, params: OscillatorParams) -> float:
    """Energy offset ``H(s) - H(initial)`` from the level-set ellipse.

    ``H(s)`` is :func:`hamiltonian`'s expression, evaluated here in its
    operation order.  ``H(initial)`` is :func:`hamiltonian` itself, kept in
    a one-entry memo keyed by the identities of ``initial`` and ``params``,
    both frozen, so the residuals of one trajectory take it once.  Raises
    :class:`NumericalOverflowError` when an energy overflows, naming the
    time of ``s`` first; an overflowing initial energy is never kept.
    """
    global _initial_energy
    p, q = s.p, s.q
    energy = p * p / (2.0 * params.mass) + params.stiffness * q * q / 2.0
    if not math.isfinite(energy):
        raise NumericalOverflowError(f"energy overflows at t={s.t}")
    last_initial, last_params, initial_energy = _initial_energy
    if last_initial is not initial or last_params is not params:
        initial_energy = hamiltonian(initial, params)
        _initial_energy = (initial, params, initial_energy)
    return energy - initial_energy


def area_residual(params: OscillatorParams, dt: float, method: str = LEAPFROG) -> float:
    """Discrete area preservation of one step: ``symp(Phi(e1), Phi(e2)) - 1``.

    ``Phi`` is one :func:`step` of ``method`` and ``e1``, ``e2`` are the unit
    phase vectors ``(1, 0)`` and ``(0, 1)``.  Every step map of the linear
    oscillator is linear, so the signed area of the images is its
    determinant exactly, and the residual is 0 for a symplectic method
    (up to rounding) and ``(omega*dt)**2`` for explicit Euler.  The 1 is
    subtracted from ``q(Phi(e1))*p(Phi(e2))`` first: for small ``omega*dt``
    that product is near 1, so the subtraction is exact (Sterbenz's
    lemma) and no rounding of ``1 + residual`` is paid.
    Raises :class:`NumericalOverflowError` when the residual overflows.
    """
    a = step(PhaseState(1.0, 0.0), params, dt, method)
    b = step(PhaseState(0.0, 1.0), params, dt, method)
    residual = (a.q * b.p - 1.0) - a.p * b.q
    if not math.isfinite(residual):
        raise NumericalOverflowError(f"area residual overflows at dt={dt}")
    return residual


#: Each method's record loop: ``_LOOPS[method](q, p, t, m, k, dt, n_steps, append)``.
_LOOPS = {name: _build_flow(SPLITTINGS.get(name), name) for name in METHODS}
