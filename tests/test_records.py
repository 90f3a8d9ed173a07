"""Record types: validated inputs are frozen dataclasses, results are named tuples.

The pinned reprs below were taken while the six results were still frozen
dataclasses; a ``NamedTuple`` repr has the same text, so reports and repr
digests do not change.
"""

import dataclasses

import pytest

from sympgeo import (
    LEAPFROG,
    Circle,
    CrankConfig,
    CrankState,
    IdentityResiduals,
    Intersection,
    Line,
    OscillatorParams,
    PhaseState,
    Polar,
    PolarMotion,
    SweepEntry,
    Tangent,
    Trajectory,
    Vec2,
    circle_tangents,
    crank_state,
    crank_sweep,
    identity_residuals,
    intersect_lines,
    simulate,
)

CRANK = CrankConfig(1.0, Vec2(2.0, 0.0), 1.0)
CRANK_STATE_REPR = (
    "CrankState(phi=0.5, s=1.2205202794048566, psi=-0.40367895168554824, "
    "s_dot=0.7856084764736196, psi_dot=-0.5069345890554473, s_ddot=0.9323765157170856, "
    "psi_ddot=1.296260884419177, e_psi=Vec2(x=0.9196221128393985, y=-0.3928042382368098))"
)

RECORDS = {
    "IdentityResiduals": (
        IdentityResiduals,
        lambda: identity_residuals(Vec2(0.1, 0.7), Vec2(0.3, -1.9), Vec2(1.3, 0.2),
                                   Vec2(-2.2, 0.9)),
        "IdentityResiduals(jacobi=Vec2(x=1.6653345369377348e-16, y=0.0), "
        "grassmann_full=Vec2(x=0.0, y=-5.551115123125783e-17), lagrange=0.0, "
        "grassmann_reduced=Vec2(x=-2.7755575615628914e-17, y=0.0), "
        "binet_cauchy=-1.1102230246251565e-16)",
        ("jacobi", "grassmann_full", "lagrange", "grassmann_reduced", "binet_cauchy"),
    ),
    "Intersection": (
        Intersection,
        lambda: intersect_lines(Line(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                                Line(Vec2(1.0, 1.0), Vec2(0.0, 1.0))),
        "Intersection(point=Vec2(x=1.0, y=0.0), lam=1.0, mu=-1.0)",
        ("point", "lam", "mu"),
    ),
    "Tangent": (
        Tangent,
        lambda: circle_tangents(Circle(Vec2(0.0, 0.0), 1.0), Circle(Vec2(4.0, 0.0), 1.0))[0],
        "Tangent(touch1=Vec2(x=0.0, y=-1.0), touch2=Vec2(x=4.0, y=-1.0), "
        "direction_e=Vec2(x=0.0, y=-1.0), kind='outer', lam=4.0)",
        ("touch1", "touch2", "direction_e", "kind", "lam"),
    ),
    "CrankState": (
        CrankState,
        lambda: crank_state(CRANK, 0.5),
        CRANK_STATE_REPR,
        ("phi", "s", "psi", "s_dot", "psi_dot", "s_ddot", "psi_ddot", "e_psi"),
    ),
    "SweepEntry": (
        SweepEntry,
        lambda: crank_sweep(CRANK, 0.0, 0.5, 2)[1],
        "SweepEntry(phi=0.5, singular=False, near_singular=False, "
        f"state={CRANK_STATE_REPR}, psi_unwrapped=-0.40367895168554824)",
        ("phi", "singular", "near_singular", "state", "psi_unwrapped"),
    ),
    "Trajectory": (
        Trajectory,
        lambda: simulate(PhaseState(1.0, 0.0), OscillatorParams(1.0, 1.0), 0.5, 1, LEAPFROG),
        "Trajectory(params=OscillatorParams(mass=1.0, stiffness=1.0), dt=0.5, "
        "states=[PhaseState(q=1.0, p=0.0, t=0.0), PhaseState(q=0.875, p=-0.46875, t=0.5)], "
        "integrator='leapfrog')",
        ("params", "dt", "states", "integrator"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_results_are_immutable_named_tuples_with_pinned_reprs(name):
    cls, build, expected_repr, fields = RECORDS[name]
    record = build()
    assert type(record) is cls
    assert issubclass(cls, tuple)
    assert repr(record) == expected_repr
    assert cls._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    # The named-tuple widening: results unpack and compare like plain tuples.
    assert tuple(record) == record
    assert len(record) == len(fields)


@pytest.mark.parametrize("cls", [Vec2, Polar, Line, Circle, PolarMotion, CrankConfig,
                                 OscillatorParams, PhaseState])
def test_inputs_are_validated_frozen_slots_dataclasses(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in cls.__dict__
    assert "__post_init__" in cls.__dict__
