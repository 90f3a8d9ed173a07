"""Polar-vector time derivatives and an inverted-slider-crank closed form.

The mechanism: a crank of fixed length spins about the origin at constant
rate ``phi_dot``; its tip carries a rod that slides through a pivot block
fixed at ``pivot_c``.  The rod length ``s`` from crank tip to pivot and
the rod orientation ``psi`` follow from the loop

    a_vec + s*e_psi - c = 0,

and differentiating that loop once and twice gives the rates and
accelerations without ever solving an equation system.

:func:`crank_sweep` and :func:`crank_state` share one loop over crank
angles on plain floats, a generator that yields each entry as it is
formed.  It reads the configuration once per call, forms the rod, its
rates and accelerations and the unwrapped rod angle in the operation
order of :func:`crank_position`, :func:`crank_velocity`,
:func:`crank_acceleration` and :func:`wrap_angle`, and builds each result
record directly, without re-validating components it has already checked
finite.  A non-finite result raises :class:`NumericalOverflowError`
instead of reaching a report.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .core import ATOL, Vec2, _vec2, tilde
from .errors import NumericalOverflowError, SingularPositionError


@dataclass(frozen=True, slots=True)
class PolarMotion:
    """Polar coordinates of a moving vector plus their time derivatives."""

    r: float
    r_dot: float
    r_ddot: float
    phi: float
    phi_dot: float
    phi_ddot: float

    def __post_init__(self) -> None:
        for name in ("r", "r_dot", "r_ddot", "phi", "phi_dot", "phi_ddot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"PolarMotion field {name} must be finite")


class PolarKinematics(NamedTuple):
    position: Vec2
    velocity: Vec2
    acceleration: Vec2


def polar_kinematics(m: PolarMotion) -> PolarKinematics:
    """Position, velocity, and acceleration of ``r*e_phi`` with moving r and phi.

    With ``e = (cos phi, sin phi)`` and its quarter-turn ``tilde(e)``:

        position     = r*e
        velocity     = r_dot*e + phi_dot*r*tilde(e)
        acceleration = (r_ddot - phi_dot^2*r)*e + (phi_ddot*r + 2*phi_dot*r_dot)*tilde(e)

    The tilde(e) components are the familiar transverse and Coriolis terms.
    Raises :class:`NumericalOverflowError` when a result overflows.
    """
    e = Vec2(math.cos(m.phi), math.sin(m.phi))
    te = tilde(e)
    try:
        position = e * m.r
        velocity = e * m.r_dot + te * (m.phi_dot * m.r)
        acceleration = (
            e * (m.r_ddot - m.phi_dot * m.phi_dot * m.r)
            + te * (m.phi_ddot * m.r + 2.0 * m.phi_dot * m.r_dot)
        )
    except ValueError as exc:
        # The fields are finite, so only an overflowed Vec2 component raises here.
        raise NumericalOverflowError(f"polar kinematics overflow at phi={m.phi}") from exc
    return PolarKinematics(position, velocity, acceleration)


@dataclass(frozen=True, slots=True)
class CrankConfig:
    """Crank of fixed length about the origin, pivot block at ``pivot_c``,
    driven at the constant angular rate ``phi_dot``."""

    crank_length: float
    pivot_c: Vec2
    phi_dot: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.crank_length) and self.crank_length > 0.0):
            raise ValueError(f"crank_length must be finite and > 0, got {self.crank_length}")
        if not math.isfinite(self.phi_dot):
            raise ValueError("phi_dot must be finite")

    def crank_vector(self, phi: float) -> Vec2:
        """Crank tip position a_vec for crank angle ``phi``."""
        return Vec2(*_tip(self.crank_length, phi))


class CrankPosition(NamedTuple):
    s: float
    e_psi: Vec2
    psi: float


class CrankRates(NamedTuple):
    s_dot: float
    psi_dot: float


class CrankAccel(NamedTuple):
    s_ddot: float
    psi_ddot: float


class CrankState(NamedTuple):
    """Full kinematic state of the rod at one crank angle."""

    phi: float
    s: float
    psi: float
    s_dot: float
    psi_dot: float
    s_ddot: float
    psi_ddot: float
    e_psi: Vec2


class SweepEntry(NamedTuple):
    """One sweep sample; ``state`` is None exactly when ``singular``.

    ``psi_unwrapped`` continues psi across the branch cut so plots of
    psi(phi) stay smooth; ``near_singular`` flags entries whose rod length
    falls below 1e-6 of the crank length, where the 1/s terms start
    amplifying roundoff.
    """

    phi: float
    singular: bool
    near_singular: bool
    state: CrankState | None
    psi_unwrapped: float | None


#: Rod lengths below this fraction of the crank length are flagged in sweeps.
NEAR_SINGULAR_FRACTION = 1e-6


def _singularity_floor(cfg: CrankConfig) -> float:
    """Rod length at or below which a position is singular.

    Relative to the mechanism's scale, the crank length plus the pivot
    distance, so a small but regular crank is not flagged singular.  Each
    term is scaled before the sum, and the pivot distance is taken of the
    halved pivot, so the floor stays finite where ``crank_length + |pivot|``
    or ``|pivot|`` itself overflows.  The halving is undone by the exact
    ``2.0 * ATOL``, so the pivot term is ``ATOL * |pivot|`` bit for bit
    wherever that is finite.
    """
    pivot = cfg.pivot_c
    return ATOL * cfg.crank_length + (2.0 * ATOL) * math.hypot(0.5 * pivot.x, 0.5 * pivot.y)


def _tip(length: float, phi: float) -> tuple[float, float]:
    """Crank tip ``a_vec`` as two floats."""
    return length * math.cos(phi), length * math.sin(phi)


def crank_position(cfg: CrankConfig, phi: float) -> CrankPosition:
    """Rod length, unit rod direction, and rod angle at crank angle ``phi``.

    Closes ``a_vec + s*e_psi = c``; raises :class:`SingularPositionError`
    when the crank tip lands on the pivot and the direction degenerates.
    """
    ax, ay = _tip(cfg.crank_length, phi)
    rx = cfg.pivot_c.x - ax
    ry = cfg.pivot_c.y - ay
    s = math.hypot(rx, ry)
    if not math.isfinite(s):
        raise NumericalOverflowError(f"rod length overflows at phi={phi}")
    if s <= _singularity_floor(cfg):
        raise SingularPositionError(f"rod length vanishes at phi={phi}")
    ex = rx / s
    ey = ry / s
    # s is finite and above the floor, so |ex|, |ey| <= 1.
    return CrankPosition(s, _vec2(ex, ey), math.atan2(ey, ex))


def crank_velocity(cfg: CrankConfig, phi: float, s: float, e_psi: Vec2) -> CrankRates:
    """Time rates of s and psi from the once-differentiated loop.

        s_dot   = phi_dot * dot(a_vec, tilde(e_psi))
        psi_dot = -phi_dot * dot(a_vec, e_psi) / s

    Projecting the loop rate onto e_psi isolates s_dot (an area with the
    crank vector); projecting onto tilde(e_psi) isolates psi_dot.
    """
    if s <= _singularity_floor(cfg):
        raise SingularPositionError("rates undefined at a singular position")
    ax, ay = _tip(cfg.crank_length, phi)
    ex, ey = e_psi.x, e_psi.y
    s_dot = cfg.phi_dot * (ax * -ey + ay * ex)
    psi_dot = -cfg.phi_dot * (ax * ex + ay * ey) / s
    if not (math.isfinite(s_dot) and math.isfinite(psi_dot)):
        raise NumericalOverflowError(f"rod rates overflow at phi={phi}")
    return CrankRates(s_dot, psi_dot)


def crank_acceleration(cfg: CrankConfig, s: float, s_dot: float, psi_dot: float) -> CrankAccel:
    """Second time derivatives of s and psi for a constant drive rate.

        s_ddot   = psi_dot * (psi_dot - phi_dot) * s
        psi_ddot = (phi_dot - 2*psi_dot) * s_dot / s

    Both follow from projecting the twice-differentiated loop onto e_psi
    and tilde(e_psi) and eliminating the crank projections with the rate
    expressions; phi_ddot = 0 is baked in.
    """
    if s <= _singularity_floor(cfg):
        raise SingularPositionError("accelerations undefined at a singular position")
    w = cfg.phi_dot
    s_ddot = psi_dot * (psi_dot - w) * s
    psi_ddot = (w - 2.0 * psi_dot) * s_dot / s
    if not (math.isfinite(s_ddot) and math.isfinite(psi_ddot)):
        raise NumericalOverflowError("rod accelerations overflow")
    return CrankAccel(s_ddot, psi_ddot)


def crank_state(cfg: CrankConfig, phi: float) -> CrankState:
    """Position, rates, and accelerations assembled for one crank angle.

    Raises :class:`SingularPositionError` at a singular angle and
    :class:`NumericalOverflowError` when a result overflows.
    """
    # Unpacking runs the one-angle sweep to its end.  A generator left
    # suspended by next() is closed by a GeneratorExit when it is freed,
    # which made each call about an eighth slower.
    (entry,) = _sweep(cfg, (phi,))
    if entry.singular:
        raise SingularPositionError(f"rod length vanishes at phi={phi}")
    return entry.state


def loop_residuals(cfg: CrankConfig, state: CrankState) -> tuple[float, float, float]:
    """Norms of the position, velocity, and acceleration loop closures.

    All three vanish identically for exact states, so the returned values
    measure the floating-point quality of the closed-form solution:

        position:     a_vec + s*e_psi - c
        velocity:     phi_dot*tilde(a_vec) + s_dot*e_psi + psi_dot*s*tilde(e_psi)
        acceleration: -phi_dot^2*a_vec + (s_ddot - psi_dot^2*s)*e_psi
                      + (psi_ddot*s + 2*psi_dot*s_dot)*tilde(e_psi)

    Raises :class:`NumericalOverflowError` when a closure overflows.
    """
    w = cfg.phi_dot
    phi, s, _, s_dot, psi_dot, s_ddot, psi_ddot, e_psi = state
    length = cfg.crank_length
    ax = length * math.cos(phi)
    ay = length * math.sin(phi)
    ex, ey = e_psi.x, e_psi.y
    # Coefficients of tilde(e_psi) in the velocity closure and of a_vec,
    # e_psi and tilde(e_psi) in the acceleration closure.
    vel_te = psi_dot * s
    acc_a = -w * w
    acc_e = s_ddot - psi_dot * psi_dot * s
    acc_te = psi_ddot * s + 2.0 * psi_dot * s_dot
    position = math.hypot(ax + ex * s - cfg.pivot_c.x, ay + ey * s - cfg.pivot_c.y)
    velocity = math.hypot(-ay * w + ex * s_dot + -ey * vel_te,
                          ax * w + ey * s_dot + ex * vel_te)
    acceleration = math.hypot(ax * acc_a + ex * acc_e + -ey * acc_te,
                              ay * acc_a + ey * acc_e + ex * acc_te)
    if not (math.isfinite(position) and math.isfinite(velocity) and math.isfinite(acceleration)):
        raise NumericalOverflowError(f"loop residuals overflow at phi={phi}")
    return (position, velocity, acceleration)


def crank_sweep(cfg: CrankConfig, phi_start: float, phi_end: float, steps: int) -> list[SweepEntry]:
    """Tabulate the full state at ``steps`` evenly spaced crank angles, inclusive.

    Singular angles become flagged entries instead of raising, so a sweep
    over a pivot lying exactly on the crank circle still reports every
    sample; overflow still raises :class:`NumericalOverflowError`.
    ``psi_unwrapped`` accumulates the rod angle continuously from
    the first non-singular entry.
    """
    return list(_sweep(cfg, _grid(phi_start, phi_end, steps)))


def _grid(phi_start: float, phi_end: float, steps: int) -> Iterator[float]:
    """The ``steps`` evenly spaced crank angles of a sweep, inclusive, one at a time."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    span = phi_end - phi_start
    last = steps - 1
    return (phi_start + span * (i / last) for i in range(steps))


def _sweep(cfg: CrankConfig, phis: Iterable[float]) -> Iterator[SweepEntry]:
    """The sweep entries at the crank angles ``phis``, in order, one at a time.

    Writes out :func:`crank_position`, :func:`crank_velocity`,
    :func:`crank_acceleration` and the :func:`wrap_angle` unwrap on floats,
    in their operation order, so each entry holds the same bits as that
    stepwise composition.  The overflow messages name ``phi``.
    """
    length = cfg.crank_length
    cx, cy = cfg.pivot_c.x, cfg.pivot_c.y
    w = cfg.phi_dot
    floor = _singularity_floor(cfg)
    near_length = NEAR_SINGULAR_FRACTION * length
    cos, sin, hypot, atan2 = math.cos, math.sin, math.hypot, math.atan2
    isfinite, remainder, tau, pi = math.isfinite, math.remainder, math.tau, math.pi
    new = tuple.__new__
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
            yield new(SweepEntry, (phi, True, True, None, None))
            continue
        ex = rx / s
        ey = ry / s
        psi = atan2(ey, ex)
        s_dot = w * (ax * -ey + ay * ex)
        psi_dot = -w * (ax * ex + ay * ey) / s
        if not (isfinite(s_dot) and isfinite(psi_dot)):
            raise NumericalOverflowError(f"rod rates overflow at phi={phi}")
        s_ddot = psi_dot * (psi_dot - w) * s
        psi_ddot = (w - 2.0 * psi_dot) * s_dot / s
        if not (isfinite(s_ddot) and isfinite(psi_ddot)):
            raise NumericalOverflowError(f"rod accelerations overflow at phi={phi}")
        if last_psi is None:
            unwrapped = psi
        else:
            turn = remainder(psi - last_psi, tau)
            unwrapped = last_unwrapped + (turn + tau if turn <= -pi else turn)
        last_psi = psi
        last_unwrapped = unwrapped
        # s is finite and above the floor, so |ex|, |ey| <= 1.
        state = new(CrankState, (phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, _vec2(ex, ey)))
        yield new(SweepEntry, (phi, False, s < near_length, state, unwrapped))
