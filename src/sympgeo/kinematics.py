"""Polar-vector time derivatives and an inverted-slider-crank closed form.

The mechanism: a crank of fixed length spins about the origin at constant
rate ``phi_dot``; its tip carries a rod that slides through a pivot block
fixed at ``pivot_c``.  The rod length ``s`` from crank tip to pivot and
the rod orientation ``psi`` follow from the loop

    a_vec + s*e_psi - c = 0,

and differentiating that loop once and twice gives the rates and
accelerations without ever solving an equation system.

:func:`crank_state` is the one per-angle entry point, and it and
:func:`crank_sweep` share one loop over crank angles on plain floats,
:func:`sympgeo._kernels._crank_rows`, which ``sympgeo crank`` runs too.
That kernel holds the only copy of the rod, rate and acceleration
formulas: it reads the configuration once per call and yields each row
as a plain tuple, and these two functions build each result record from
it directly, without re-validating components the kernel has already
checked finite.  :func:`loop_residuals` wraps the kernel
:func:`sympgeo._kernels._loop_closures`, and :class:`CrankConfig` checks
its fields by :func:`sympgeo._kernels._check_crank`, so each formula has
one copy.  A non-finite result raises :class:`NumericalOverflowError`
instead of reaching a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# NEAR_SINGULAR_FRACTION is re-exported: the flag's threshold, named here too.
from ._kernels import (
    NEAR_SINGULAR_FRACTION,
    _check_crank,
    _crank_rows,
    _grid,
    _loop_closures,
)
from .core import Vec2, _vec2, tilde
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
    # cos and sin of the finite phi are finite.
    e = _vec2(math.cos(m.phi), math.sin(m.phi))
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
        _check_crank(self.crank_length, self.phi_dot)

    def crank_vector(self, phi: float) -> Vec2:
        """Crank tip position a_vec for crank angle ``phi``."""
        length = self.crank_length
        return Vec2(length * math.cos(phi), length * math.sin(phi))


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


def crank_state(cfg: CrankConfig, phi: float) -> CrankState:
    """Position, rates, and accelerations of the rod at crank angle ``phi``.

    The position closes ``a_vec + s*e_psi = c``: ``s = |c - a_vec|``,
    ``e_psi = (c - a_vec)/s`` and ``psi`` the angle of ``e_psi`` in
    ``(-pi, pi]``.  The once-differentiated loop, projected onto
    ``e_psi`` and ``tilde(e_psi)``, gives each rate as a signed area with
    the crank vector:

        s_dot   = phi_dot * dot(a_vec, tilde(e_psi))
        psi_dot = -phi_dot * dot(a_vec, e_psi) / s

    The twice-differentiated loop, projected the same way with the crank
    projections eliminated by the rates, gives the accelerations for a
    constant drive rate (``phi_ddot = 0``):

        s_ddot   = psi_dot * (psi_dot - phi_dot) * s
        psi_ddot = (phi_dot - 2*psi_dot) * s_dot / s

    Raises :class:`SingularPositionError` when the crank tip lands on the
    pivot, where the rod length is at or below the singular floor and
    the direction degenerates, and :class:`NumericalOverflowError`
    naming ``phi`` when the rod length, its rates or its accelerations
    overflow.
    """
    pivot = cfg.pivot_c
    # Unpacking runs the one-angle kernel to its end.  A generator left
    # suspended by next() is closed by a GeneratorExit when it is freed,
    # which made each call about an eighth slower.
    ((_, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, ex, ey, _, _),) = _crank_rows(
        cfg.crank_length, pivot.x, pivot.y, cfg.phi_dot, (phi,))
    if s is None:
        raise SingularPositionError(f"rod length vanishes at phi={phi}")
    return tuple.__new__(CrankState, (phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot,
                                      _vec2(ex, ey)))


def loop_residuals(cfg: CrankConfig, state: CrankState) -> tuple[float, float, float]:
    """Norms of the position, velocity, and acceleration loop closures.

    All three vanish identically for exact states, so the returned values
    measure the floating-point quality of the closed-form solution:

        position:     a_vec + s*e_psi - c
        velocity:     phi_dot*tilde(a_vec) + s_dot*e_psi + psi_dot*s*tilde(e_psi)
        acceleration: -phi_dot^2*a_vec + (s_ddot - psi_dot^2*s)*e_psi
                      + (psi_ddot*s + 2*psi_dot*s_dot)*tilde(e_psi)

    Evaluated on plain floats by :func:`sympgeo._kernels._loop_closures`.
    Raises :class:`NumericalOverflowError` when a closure overflows.
    """
    phi, s, _, s_dot, psi_dot, s_ddot, psi_ddot, e_psi = state
    pivot = cfg.pivot_c
    return _loop_closures(cfg.crank_length, pivot.x, pivot.y, cfg.phi_dot, phi, s, s_dot,
                          psi_dot, s_ddot, psi_ddot, e_psi.x, e_psi.y)


def crank_sweep(cfg: CrankConfig, phi_start: float, phi_end: float, steps: int) -> list[SweepEntry]:
    """Tabulate the full state at ``steps`` evenly spaced crank angles, inclusive.

    Singular angles become flagged entries instead of raising, so a sweep
    over a pivot lying exactly on the crank circle still reports every
    sample; overflow still raises :class:`NumericalOverflowError`.
    ``psi_unwrapped`` accumulates the rod angle continuously from
    the first non-singular entry.

    Each entry is built from one row of :func:`sympgeo._kernels._crank_rows`,
    without re-validating the components the kernel has checked finite.
    """
    pivot = cfg.pivot_c
    rows = _crank_rows(cfg.crank_length, pivot.x, pivot.y, cfg.phi_dot,
                       _grid(phi_start, phi_end, steps))
    new = tuple.__new__
    entries = []
    append = entries.append
    for phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, ex, ey, unwrapped, near in rows:
        if s is None:
            append(new(SweepEntry, (phi, True, True, None, None)))
        else:
            state = new(CrankState, (phi, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, _vec2(ex, ey)))
            append(new(SweepEntry, (phi, False, near, state, unwrapped)))
    return entries
