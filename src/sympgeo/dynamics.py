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

One generator, ``_flow``, holds the step loop: it turns the row into those
step sizes once per run and yields the states one at a time.
:func:`simulate` collects them into a :class:`Trajectory`, :func:`step`
takes the one after its start, and ``sympgeo oscillator`` turns each into
its report row as it comes.  Each new state is built as a slot twin of
:class:`PhaseState`, and :func:`ellipse_residual` keeps the last initial
energy, so the residuals of one trajectory take it once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .core import _FLOAT_MIN, Vec2, _slot_twin, _vec2, tilde
from .errors import InvalidStepError, NumericalOverflowError

EXPLICIT_EULER = "explicit_euler"
SYMPLECTIC_EULER = "symplectic_euler"
LEAPFROG = "leapfrog"

#: Kick/drift coefficients ``(a, b)`` per stage of each splitting method.
SPLITTINGS = {
    SYMPLECTIC_EULER: ((1.0, 1.0),),
    LEAPFROG: ((0.5, 1.0), (0.5, 0.0)),
}
METHODS = (EXPLICIT_EULER, *SPLITTINGS)


@dataclass(frozen=True, slots=True)
class OscillatorParams:
    """Point mass on a linear spring."""

    mass: float
    stiffness: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be finite and > 0, got {self.mass}")
        if not (math.isfinite(self.stiffness) and self.stiffness > 0.0):
            raise ValueError(f"stiffness must be finite and > 0, got {self.stiffness}")

    @property
    def omega(self) -> float:
        """Natural angular frequency ``sqrt(stiffness/mass)``.

        When the ratio itself leaves the normal range (``stiffness=1e-300``,
        ``mass=1e300`` underflows it to 0.0), the root is taken of each
        operand instead; the result can then still be subnormal or infinite.
        """
        ratio = self.stiffness / self.mass
        if _FLOAT_MIN <= ratio < math.inf:
            return math.sqrt(ratio)
        return math.sqrt(self.stiffness) / math.sqrt(self.mass)


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
    energy = s.p * s.p / (2.0 * params.mass) + params.stiffness * s.q * s.q / 2.0
    if not math.isfinite(energy):
        raise NumericalOverflowError(f"energy overflows at t={s.t}")
    return energy


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
    """Advance one fixed step of size ``dt``: ``simulate(s, params, dt, 1, method)``.

    Raises :class:`NumericalOverflowError` when the new state overflows.
    """
    # Unpacking runs the one-step flow to its end, as crank_state does its
    # one-angle sweep, and builds no Trajectory or list.
    _, after = _flow(s, params, dt, 1, method)
    return after


def simulate(initial: PhaseState, params: OscillatorParams, dt: float,
             n_steps: int, method: str = LEAPFROG) -> Trajectory:
    """Run ``n_steps`` fixed steps; the trajectory includes the initial state.

    * ``explicit_euler``: both coordinates from the current field
      ``(p/m, -k*q)``, the value of :func:`hamiltonian_field`.
    * a splitting method runs the stages of its :data:`SPLITTINGS` row in
      order; stage ``(a, b)`` kicks ``p += (a*dt)*(-k*q)`` and then drifts
      ``q += (b*dt)*(p/m)``.  ``symplectic_euler`` is one full kick and
      drift, ``leapfrog`` is half-kick, drift, half-kick (time-reversible).

    Every state stamp is the running sum of ``dt``.
    Raises :class:`NumericalOverflowError` when a state overflows.
    """
    return Trajectory(params, dt, list(_flow(initial, params, dt, n_steps, method)), method)


def _flow(initial: PhaseState, params: OscillatorParams, dt: float, n_steps: int,
          method: str) -> Iterator[PhaseState]:
    """The step loop of :func:`simulate`: yields ``initial``, then each new state.

    The arguments are checked once, when the first state is asked for, and
    each stage's kick and drift step sizes ``a*dt`` and ``b*dt`` are
    computed once, before the first step.  Every step runs on plain floats
    and builds only its state, as :func:`_phase_state` does through the slot
    twin, stamped with the running sum of ``dt``.
    :func:`simulate`, :func:`step` and ``sympgeo oscillator`` all drain it.
    Raises :class:`NumericalOverflowError` when a state overflows.
    """
    if n_steps < 1:
        raise InvalidStepError(f"n_steps must be >= 1, got {n_steps}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidStepError(f"dt must be finite and > 0, got {dt}")
    if method not in METHODS:
        raise ValueError(f"unknown integrator {method!r}; expected one of {METHODS}")
    k, m = params.stiffness, params.mass
    euler = method == EXPLICIT_EULER
    # A zero coefficient skips its half-stage (None): adding ``0.0`` would
    # turn a ``-0.0`` coordinate into ``+0.0``.  The test is on the
    # coefficient, so a step size that underflows to 0.0 still runs.
    stages = [(a * dt if a else None, b * dt if b else None)
              for a, b in SPLITTINGS.get(method, ())]
    isfinite, twin, cls = math.isfinite, _PhaseStateTwin, PhaseState
    q, p, t = initial.q, initial.p, initial.t
    yield initial
    for _ in range(n_steps):
        if euler:
            q, p = q + dt * (p / m), p + dt * (-(k * q))
        for kick, drift in stages:
            if kick is not None:
                p = p + kick * (-(k * q))
            if drift is not None:
                q = q + drift * (p / m)
        t = t + dt
        if not (isfinite(q) and isfinite(p) and isfinite(t)):
            raise NumericalOverflowError(f"phase state overflows at t={t}")
        # q, p and t were checked finite just above: _phase_state, inlined.
        s = twin()
        s.q = q
        s.p = p
        s.t = t
        s.__class__ = cls
        yield s


def analytic_oscillator(t: float, initial: PhaseState, params: OscillatorParams) -> PhaseState:
    """Closed-form state a time ``t`` after ``initial``.

        q(t) = q0*cos(w*t) + p0/(m*w)*sin(w*t)
        p(t) = p0*cos(w*t) - m*w*q0*sin(w*t)

    Conserves the energy exactly, so it doubles as the reference orbit for
    integrator error and drift measurements.  Raises
    :class:`NumericalOverflowError` when ``m*w`` is 0.0 or infinite, or when
    the state or ``w*t`` overflows.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    w = params.omega
    mw = params.mass * w
    if not 0.0 < mw < math.inf:
        raise NumericalOverflowError(f"m*omega = {mw} leaves the float range "
                                     f"at t={initial.t + t}")
    wt = w * t
    if math.isfinite(wt):
        cos_wt = math.cos(wt)
        sin_wt = math.sin(wt)
        q = initial.q * cos_wt + initial.p / mw * sin_wt
        p = initial.p * cos_wt - mw * initial.q * sin_wt
        stamp = initial.t + t
        if math.isfinite(q) and math.isfinite(p) and math.isfinite(stamp):
            # q, p and the time stamp were checked finite just above.
            return _phase_state(q, p, stamp)
    raise NumericalOverflowError(f"analytic state overflows at t={initial.t + t}")


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
