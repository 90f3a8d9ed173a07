"""Mechanism layer: closed-form states checked against finite differences.

The finite-difference oracles differentiate only the position fields of
crank_state (s and psi), so the velocity and acceleration formulas are
tested against something they are not computed from.  Step sizes balance
truncation against roundoff: h = 1e-6 for first derivatives, h = 1e-4 for
second derivatives.
"""

import math
import random
import sys

import pytest

from sympgeo import (
    CrankConfig,
    CrankState,
    NumericalOverflowError,
    PolarMotion,
    SingularPositionError,
    SweepEntry,
    Vec2,
    crank_state,
    crank_sweep,
    dot,
    loop_residuals,
    norm,
    polar_kinematics,
    tilde,
    wrap_angle,
)
from sympgeo._kernels import _singularity_floor
from sympgeo.kinematics import NEAR_SINGULAR_FRACTION


# ------------------------------------------------------------------ polar


def test_polar_kinematics_statics():
    k = polar_kinematics(PolarMotion(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert k.position == Vec2(1.0, 0.0)
    assert k.velocity == Vec2(0.0, 0.0)
    assert k.acceleration == Vec2(0.0, 0.0)


def test_polar_kinematics_uniform_circular_motion():
    k = polar_kinematics(PolarMotion(1.0, 0.0, 0.0, 0.0, 1.0, 0.0))
    assert k.velocity == Vec2(0.0, 1.0)
    assert k.acceleration == Vec2(-1.0, 0.0)


def _polar_position(m, t):
    # Quadratic-in-time coefficients reproduce the instantaneous state at t=0.
    r = m.r + m.r_dot * t + 0.5 * m.r_ddot * t * t
    phi = m.phi + m.phi_dot * t + 0.5 * m.phi_ddot * t * t
    return Vec2(r * math.cos(phi), r * math.sin(phi))


def test_polar_kinematics_against_finite_differences():
    m = PolarMotion(2.0, 0.3, 0.1, math.pi / 6.0, 0.5, -0.2)
    k = polar_kinematics(m)

    h = 1e-5
    plus, minus = _polar_position(m, h), _polar_position(m, -h)
    fd_velocity = (plus - minus) / (2.0 * h)
    assert norm(fd_velocity - k.velocity) <= 1e-6

    h = 1e-4
    plus, minus = _polar_position(m, h), _polar_position(m, -h)
    fd_acceleration = (plus + minus - _polar_position(m, 0.0) * 2.0) / (h * h)
    assert norm(fd_acceleration - k.acceleration) <= 1e-5


def test_polar_kinematics_overflow_raises_a_typed_overflow():
    # The fields are finite; the centripetal term phi_dot**2 * r is not.
    with pytest.raises(NumericalOverflowError, match="polar kinematics overflow at phi=0.5"):
        polar_kinematics(PolarMotion(1e308, 0.0, 0.0, 0.5, 10.0, 0.0))


def test_polar_motion_rejects_non_finite_fields():
    with pytest.raises(ValueError):
        PolarMotion(1.0, 0.0, math.nan, 0.0, 0.0, 0.0)


# --------------------------------------------------------------- position


EXAMPLE = CrankConfig(crank_length=1.0, pivot_c=Vec2(3.0, 0.0), phi_dot=1.0)


def test_crank_position_anchors():
    state = crank_state(EXAMPLE, 0.0)
    assert state.s == 2.0
    assert state.e_psi == Vec2(1.0, 0.0)
    assert state.psi == 0.0

    state = crank_state(EXAMPLE, math.pi)
    assert state.s == pytest.approx(4.0, abs=1e-15)
    assert norm(state.e_psi - Vec2(1.0, 0.0)) <= 1e-15


def test_crank_position_singularity():
    cfg = CrankConfig(1.0, Vec2(1.0, 0.0), 1.0)
    with pytest.raises(SingularPositionError, match=r"^rod length vanishes at phi=0\.0$"):
        crank_state(cfg, 0.0)


def test_crank_config_validation():
    with pytest.raises(ValueError):
        CrankConfig(0.0, Vec2(1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        CrankConfig(1.0, Vec2(1.0, 0.0), math.inf)


# -------------------------------------------------------------- velocity


def test_crank_velocity_anchor():
    state = crank_state(EXAMPLE, 0.0)
    assert state.s_dot == 0.0
    assert state.psi_dot == -0.5


def test_crank_velocity_frozen_drive():
    state = crank_state(CrankConfig(1.0, Vec2(3.0, 0.0), 0.0), 0.7)
    assert state.s_dot == 0.0
    assert state.psi_dot == 0.0


def _position(cfg, phi):
    """The position fields ``(s, psi)`` of crank_state at ``phi``."""
    state = crank_state(cfg, phi)
    return state.s, state.psi


def _fd_rates(cfg, phi, h=1e-6):
    """First central differences of the position along phi(t) = phi + phi_dot*t."""
    sp, pp = _position(cfg, phi + h)
    sm, pm = _position(cfg, phi - h)
    s_dot = cfg.phi_dot * (sp - sm) / (2.0 * h)
    psi_dot = cfg.phi_dot * wrap_angle(pp - pm) / (2.0 * h)
    return s_dot, psi_dot


def _fd_accels(cfg, phi, h=1e-4):
    """Second central differences of the position (phi_ddot = 0)."""
    sp, pp = _position(cfg, phi + h)
    s0, p0 = _position(cfg, phi)
    sm, pm = _position(cfg, phi - h)
    rate2 = cfg.phi_dot * cfg.phi_dot
    s_ddot = rate2 * (sp - 2.0 * s0 + sm) / (h * h)
    psi_ddot = rate2 * (wrap_angle(pp - p0) - wrap_angle(p0 - pm)) / (h * h)
    return s_ddot, psi_ddot


def test_crank_velocity_against_finite_differences_random():
    rng = random.Random(1618)
    for _ in range(10):
        length = rng.uniform(0.5, 2.0)
        radius = length * rng.uniform(1.3, 3.0)
        theta = rng.uniform(0.0, math.tau)
        cfg = CrankConfig(length, Vec2(radius * math.cos(theta), radius * math.sin(theta)),
                          rng.uniform(0.5, 2.0))
        for k in range(24):
            phi = math.tau * k / 24.0
            state = crank_state(cfg, phi)
            fd_s_dot, fd_psi_dot = _fd_rates(cfg, phi)
            assert abs(state.s_dot - fd_s_dot) <= 1e-5
            assert abs(state.psi_dot - fd_psi_dot) <= 1e-5


# ------------------------------------------------------------ acceleration


def test_crank_acceleration_anchor_backed_by_finite_differences():
    # At phi=0 the rod length is s(phi) = sqrt(10 - 6*cos(phi)), whose
    # second derivative at 0 is 3*cos(0)*s(0)/s(0)^2 = 3/2 with phi_dot = 1.
    state = crank_state(EXAMPLE, 0.0)
    assert state.s_ddot == 1.5
    assert state.psi_ddot == 0.0

    fd_s_ddot, fd_psi_ddot = _fd_accels(EXAMPLE, 0.0)
    assert abs(fd_s_ddot - state.s_ddot) <= 1e-5
    assert abs(fd_psi_ddot - state.psi_ddot) <= 1e-5


def test_crank_acceleration_frozen_drive():
    state = crank_state(CrankConfig(1.0, Vec2(3.0, 0.0), 0.0), 1.1)
    assert state.s_ddot == 0.0
    assert state.psi_ddot == 0.0


def test_crank_acceleration_against_finite_differences_random():
    rng = random.Random(2718)
    for _ in range(10):
        length = rng.uniform(0.5, 2.0)
        radius = length * rng.uniform(1.3, 3.0)
        theta = rng.uniform(0.0, math.tau)
        cfg = CrankConfig(length, Vec2(radius * math.cos(theta), radius * math.sin(theta)),
                          rng.uniform(0.5, 2.0))
        for k in range(24):
            phi = math.tau * k / 24.0
            state = crank_state(cfg, phi)
            fd_s_ddot, fd_psi_ddot = _fd_accels(cfg, phi)
            assert abs(state.s_ddot - fd_s_ddot) <= 1e-3
            assert abs(state.psi_ddot - fd_psi_ddot) <= 1e-3


def test_loop_residuals_stay_at_roundoff():
    rng = random.Random(5309)
    for _ in range(50):
        length = rng.uniform(0.5, 2.0)
        radius = length * rng.uniform(1.2, 3.0)
        theta = rng.uniform(0.0, math.tau)
        cfg = CrankConfig(length, Vec2(radius * math.cos(theta), radius * math.sin(theta)),
                          rng.uniform(0.5, 2.0))
        state = crank_state(cfg, rng.uniform(0.0, math.tau))
        scale = (1.0 + length + radius) * (1.0 + cfg.phi_dot) ** 2
        for residual in loop_residuals(cfg, state):
            assert residual <= 1e-8 * scale


def _vec2_loop_residuals(cfg, state):
    """Reference: the three loop closures written out in Vec2 arithmetic."""
    a_vec = cfg.crank_vector(state.phi)
    e = state.e_psi
    te = tilde(e)
    position = a_vec + e * state.s - cfg.pivot_c
    velocity = tilde(a_vec) * cfg.phi_dot + e * state.s_dot + te * (state.psi_dot * state.s)
    acceleration = (
        a_vec * (-cfg.phi_dot * cfg.phi_dot)
        + e * (state.s_ddot - state.psi_dot * state.psi_dot * state.s)
        + te * (state.psi_ddot * state.s + 2.0 * state.psi_dot * state.s_dot)
    )
    return (norm(position), norm(velocity), norm(acceleration))


def _seeded_crank_angles():
    """Seeded configurations and angles, including pivots on or near the crank
    circle swept through the angles where the rod length nearly vanishes."""
    rng = random.Random(4242)
    for k in range(60):
        length = 10.0 ** rng.uniform(-3.0, 3.0)
        factor = (rng.uniform(1.05, 4.0), rng.uniform(0.05, 0.95), 1.0,
                  1.0 + rng.choice((1e-12, -1e-9, 1e-7)))[k % 4]
        theta = rng.uniform(-math.pi, math.pi)
        cfg = CrankConfig(length, Vec2(length * factor * math.cos(theta),
                                       length * factor * math.sin(theta)),
                          rng.choice((rng.uniform(-3.0, 3.0), 0.0, 10.0 ** rng.uniform(-3, 3))))
        angles = [rng.uniform(-10.0, 10.0) for _ in range(20)]
        angles += [theta + sign * 10.0 ** rng.uniform(-9.0, -2.0)
                   for sign in (-1.0, 1.0) for _ in range(10)]
        yield cfg, angles


def _stepwise_state(cfg, phi):
    """Reference: the rod state composed stage by stage in Vec2 arithmetic.

    The loop ``a + s*e = c`` closed for the rod, then each rate read off as
    a signed area with the crank vector and the accelerations from the
    rates, in the operation order of ``_kernels._crank_rows``.  None at a
    singular angle, where the rod length is at or below the kernel's floor.
    """
    w = cfg.phi_dot
    pivot = cfg.pivot_c
    a = cfg.crank_vector(phi)
    r = pivot - a
    s = norm(r)
    if s <= _singularity_floor(cfg.crank_length, pivot.x, pivot.y):
        return None
    e = r / s
    s_dot = w * dot(a, tilde(e))
    psi_dot = -w * dot(a, e) / s
    s_ddot = psi_dot * (psi_dot - w) * s
    psi_ddot = (w - 2.0 * psi_dot) * s_dot / s
    return CrankState(phi, s, wrap_angle(math.atan2(e.y, e.x)), s_dot, psi_dot, s_ddot,
                      psi_ddot, e)


#: Cranks whose rod points along the negative x-axis at the given angle, where
#: atan2 gives -pi: the pivot on the axis at pi, the pivot's signed zero at
#: 0, and a pivot whose y component ``-5e-324`` underflows to ``ey = -0.0``.
_ROD_ON_THE_BRANCH_CUT = [
    (CrankConfig(1.0, Vec2(-3.0, 0.0), 1.0), math.pi),
    (CrankConfig(1.0, Vec2(-3.0, -0.0), 1.0), 0.0),
    (CrankConfig(1.0, Vec2(-3.0, -5e-324), 1.0), 0.0),
]


@pytest.mark.parametrize("cfg, phi", _ROD_ON_THE_BRANCH_CUT)
def test_crank_psi_on_the_branch_cut_is_pi(cfg, phi):
    assert repr(crank_state(cfg, phi).psi) == repr(math.pi)


def test_crank_sweep_onto_the_branch_cut_ends_at_pi():
    cfg, phi = _ROD_ON_THE_BRANCH_CUT[0]
    last = crank_sweep(cfg, 0.0, phi, 2)[-1]
    assert last.state.psi == last.psi_unwrapped == math.pi


def test_crank_state_equals_the_stepwise_composition_bit_for_bit():
    checked = 0
    cases = [*_seeded_crank_angles(), *((cfg, [0.0, phi]) for cfg, phi in _ROD_ON_THE_BRANCH_CUT)]
    for cfg, angles in cases:
        for phi in angles:
            expected = _stepwise_state(cfg, phi)
            if expected is None:
                with pytest.raises(SingularPositionError):
                    crank_state(cfg, phi)
                continue
            # repr distinguishes -0.0 from 0.0, so equal reprs are equal bits.
            assert repr(crank_state(cfg, phi)) == repr(expected)
            checked += 1
        for entry in crank_sweep(cfg, angles[0], angles[-1], 41):
            if entry.state is not None:
                assert repr(entry.state) == repr(_stepwise_state(cfg, entry.phi))
    assert checked > 2000


def _reference_sweep(cfg, phi_start, phi_end, steps):
    """crank_sweep rebuilt from the stepwise reference and wrap_angle.

    Each angle is the weighted mean of the two ends, so the grid lands
    on both of them exactly.
    """
    entries = []
    last_psi = None
    last = steps - 1
    for i in range(steps):
        phi = phi_start * ((last - i) / last) + phi_end * (i / last)
        state = _stepwise_state(cfg, phi)
        if state is None:
            entries.append(SweepEntry(phi, True, True, None, None))
            continue
        if last_psi is None:
            unwrapped = state.psi
        else:
            unwrapped = last_unwrapped + wrap_angle(state.psi - last_psi)
        last_psi, last_unwrapped = state.psi, unwrapped
        near = state.s < NEAR_SINGULAR_FRACTION * cfg.crank_length
        entries.append(SweepEntry(phi, False, near, state, unwrapped))
    return entries


def _pinned_sweeps():
    """Seeded regular cranks, the pivot on the crank circle, a near-singular
    shifted grid, the same cranks scaled to 1e-150 and 1e150, and
    half-turn sweeps of the cranks in :data:`_ROD_ON_THE_BRANCH_CUT`.

    The singularity floor scales with the crank length and the pivot
    distance, so every scale flags the same rows.
    """
    rng = random.Random(7081)
    sweeps = []
    for k in range(6):
        length = rng.uniform(0.5, 2.0)
        factor = rng.uniform(1.15, 3.0) if k % 2 == 0 else rng.uniform(0.2, 0.85)
        theta = rng.uniform(0.0, math.tau)
        sweeps.append(((length, length * factor * math.cos(theta),
                        length * factor * math.sin(theta), rng.uniform(-2.0, 2.0)),
                       rng.uniform(-1.0, 1.0), 2.0 * math.tau, 241))
    length = rng.uniform(0.5, 2.0)
    sweeps.append(((length, length, 0.0, 1.5), 0.0, 2.0 * math.tau, 241))
    shift = rng.uniform(5e-8, 5e-7)
    sweeps.append(((length, length, 0.0, 1.5), shift, shift + 2.0 * math.tau, 241))
    for scale in (1e-150, 1e150):
        sweeps += [((length * scale, cx * scale, cy * scale, phi_dot), start, span, steps)
                   for (length, cx, cy, phi_dot), start, span, steps in sweeps[:8]]
    sweeps += [((cfg.crank_length, cfg.pivot_c.x, cfg.pivot_c.y, cfg.phi_dot), 0.0, math.pi, 3)
               for cfg, _ in _ROD_ON_THE_BRANCH_CUT]
    return sweeps


def test_crank_sweep_matches_the_per_angle_formulas():
    singular = near_singular = 0
    for (length, cx, cy, phi_dot), start, span, steps in _pinned_sweeps():
        cfg = CrankConfig(length, Vec2(cx, cy), phi_dot)
        got = crank_sweep(cfg, start, start + span, steps)
        want = _reference_sweep(cfg, start, start + span, steps)
        assert len(got) == len(want) == steps
        for entry, expected in zip(got, want):
            # repr distinguishes -0.0 from 0.0, so equal reprs are equal bits.
            assert repr(entry) == repr(expected)
            singular += entry.singular
            near_singular += entry.near_singular and not entry.singular
    # Three singular and three near-singular rows at each of the three scales.
    assert singular == 3 * 3
    assert near_singular == 3 * 3


def test_loop_residuals_equal_the_vec2_reference_bit_for_bit():
    for cfg, angles in _seeded_crank_angles():
        for phi in angles:
            try:
                state = crank_state(cfg, phi)
            except SingularPositionError:
                continue
            assert repr(loop_residuals(cfg, state)) == repr(_vec2_loop_residuals(cfg, state))


@pytest.mark.parametrize("cfg, phi", [
    (CrankConfig(1.0, Vec2(2.0, 0.0), 1e200), 0.3),   # accelerations overflow
    (CrankConfig(1e300, Vec2(2e300, 0.0), 1e10), 0.3),  # rates overflow
    (CrankConfig(1e308, Vec2(-1.5e308, 0.0), 1.0), 0.0),  # rod length overflows
])
def test_overflow_raises_a_typed_singularity(cfg, phi):
    with pytest.raises(NumericalOverflowError, match=f"at phi={phi}$") as state_error:
        crank_state(cfg, phi)
    # A sweep whose grid starts at phi stops there with the same message.
    with pytest.raises(NumericalOverflowError) as sweep_error:
        crank_sweep(cfg, phi, phi + 1.0, 3)
    assert str(sweep_error.value) == str(state_error.value)


def test_singularity_floor_survives_an_overflowing_mechanism_scale():
    # crank length + pivot distance overflows, but the rod length 5e307 does not.
    state = crank_state(CrankConfig(1e308, Vec2(1.5e308, 0.0), 0.1), 0.0)
    assert state.s == 5e307
    # |pivot| itself overflows, but the rod length (about 1.1e308) does not.
    cfg = CrankConfig(1e308, Vec2(1.5e308, 1.5e308), 0.01)
    entries = crank_sweep(cfg, 0.7, 0.9, 3)
    assert [entry.singular for entry in entries] == [False, False, False]
    assert all(math.isfinite(entry.state.s) for entry in entries)


def test_loop_residual_overflow_raises_a_typed_singularity():
    state = crank_state(EXAMPLE, 0.3)
    with pytest.raises(NumericalOverflowError):
        loop_residuals(EXAMPLE, state._replace(psi_dot=1e200))


# ------------------------------------------------------------------ sweep


def test_sweep_two_steps_reproduces_position_anchors():
    entries = crank_sweep(EXAMPLE, 0.0, math.pi, 2)
    assert len(entries) == 2
    assert entries[0].state.s == 2.0
    assert entries[1].state.s == pytest.approx(4.0, abs=1e-15)
    assert entries[0].phi == 0.0
    assert entries[1].phi == math.pi


def test_sweep_with_equal_endpoints_duplicates_the_state():
    entries = crank_sweep(EXAMPLE, 0.5, 0.5, 2)
    assert entries[0].state == entries[1].state


def test_sweep_over_a_span_beyond_the_float_range():
    # phi_end - phi_start overflows, yet every angle of the grid is finite:
    # the ends are exact, each angle lies between them and each state is
    # crank_state's at its angle.
    cfg = CrankConfig(1.0, Vec2(3.0, 0.0), 1.0)
    entries = crank_sweep(cfg, -1.7e308, 1.7e308, 3)
    assert [e.phi for e in entries] == [-1.7e308, 0.0, 1.7e308]
    assert all(e.state == crank_state(cfg, e.phi) for e in entries)
    top = sys.float_info.max
    for start, end in ((1.7e308, -1.7e308), (1e308, -top), (-top, top), (top, -1e308)):
        for steps in (2, 3, 7, 50):
            phis = [e.phi for e in crank_sweep(cfg, start, end, steps)]
            assert (phis[0], phis[-1]) == (start, end)
            assert all(min(start, end) <= phi <= max(start, end) for phi in phis)


def test_sweep_rejects_fewer_than_two_steps():
    with pytest.raises(ValueError):
        crank_sweep(EXAMPLE, 0.0, 1.0, 1)


def test_sweep_full_revolution_extremes():
    entries = crank_sweep(EXAMPLE, 0.0, math.tau, 361)
    lengths = [e.state.s for e in entries]
    assert max(lengths) == pytest.approx(4.0, abs=1e-12)
    assert lengths.index(max(lengths)) == 180
    assert min(lengths) == pytest.approx(2.0, abs=1e-12)
    assert lengths.index(min(lengths)) in (0, 360)
    assert all(not e.singular and not e.near_singular for e in entries)


def test_sweep_is_periodic_over_one_revolution():
    entries = crank_sweep(EXAMPLE, 0.0, math.tau, 73)
    first, last = entries[0].state, entries[-1].state
    assert abs(first.s - last.s) <= 1e-10
    assert abs(wrap_angle(first.psi - last.psi)) <= 1e-10
    assert abs(first.s_dot - last.s_dot) <= 1e-10
    assert abs(first.psi_dot - last.psi_dot) <= 1e-10


def test_sweep_flags_singular_samples_instead_of_raising():
    cfg = CrankConfig(1.0, Vec2(1.0, 0.0), 1.0)
    entries = crank_sweep(cfg, 0.0, math.tau, 9)
    assert entries[0].singular and entries[0].state is None
    assert entries[0].psi_unwrapped is None
    assert entries[-1].singular
    middle = entries[1:-1]
    assert all(not e.singular for e in middle)
    assert all(e.state is not None for e in middle)


def test_sweep_flags_near_singular_passes():
    cfg = CrankConfig(1.0, Vec2(1.0 + 5e-8, 0.0), 1.0)
    entries = crank_sweep(cfg, -0.1, 0.1, 21)
    closest = min(entries, key=lambda e: e.state.s)
    assert closest.near_singular and not closest.singular
    assert closest.state.s < NEAR_SINGULAR_FRACTION * cfg.crank_length
    assert not entries[0].near_singular
    assert not entries[-1].near_singular


def test_sweep_unwrapped_angle_is_continuous_when_pivot_is_inside():
    # Pivot inside the crank circle: the rod direction makes a full turn,
    # so the raw psi crosses the branch cut but the unwrapped track cannot jump.
    cfg = CrankConfig(1.0, Vec2(0.5, 0.0), 1.0)
    entries = crank_sweep(cfg, 0.0, math.tau, 361)
    unwrapped = [e.psi_unwrapped for e in entries]
    steps = [abs(b - a) for a, b in zip(unwrapped, unwrapped[1:])]
    assert max(steps) < 0.2
    total = unwrapped[-1] - unwrapped[0]
    assert abs(abs(total) - math.tau) <= 1e-9
    raw_jumps = [abs(b.state.psi - a.state.psi) for a, b in zip(entries, entries[1:])]
    assert max(raw_jumps) > 5.0


def test_sweep_unwrapped_matches_raw_psi_modulo_full_turns():
    cfg = CrankConfig(1.0, Vec2(0.4, 0.3), 1.3)
    for entry in crank_sweep(cfg, -2.0, 9.0, 97):
        assert abs(wrap_angle(entry.psi_unwrapped - entry.state.psi)) <= 1e-9
