"""Builders of already-checked results, and the functions that use them.

Every build site that skips validation fills a plain twin class with the
record's slots (``core._slot_twin``) and then sets its ``__class__`` to
the frozen slots dataclass: ``core._vec2`` (which ``crank_sweep`` and
``crank_state`` call for each ``e_psi``, and ``tilde``, negation,
``from_polar``, ``inverse`` and ``polar_kinematics`` for the vectors
they derive), ``dynamics._phase_state``, the loop of
``_common_tangents`` and the record loops of ``dynamics._LOOPS``.  The
objects they build must be indistinguishable from the public
constructors', and every function that builds them must still return
only finite fields or raise :class:`NumericalOverflowError`.
"""

import copy
import dataclasses
import math
import pickle
import random
import sys

import pytest

from sympgeo import (
    METHODS,
    Circle,
    CoincidentCentersError,
    CrankConfig,
    IdentityResiduals,
    Intersection,
    Line,
    NumericalOverflowError,
    OscillatorParams,
    ParallelLinesError,
    PhaseState,
    Polar,
    PolarMotion,
    SingularPositionError,
    Tangent,
    Vec2,
    ZeroDirectionError,
    ZeroVectorError,
    analytic_oscillator,
    circle_tangents,
    crank_state,
    crank_sweep,
    from_polar,
    hamiltonian_gradient,
    identity_residuals,
    intersect_lines,
    inverse,
    point_circle_tangents,
    polar_kinematics,
    rotate,
    similarity,
    similarity_div,
    simulate,
    step,
    tilde,
)
from sympgeo.core import _vec2, _Vec2Twin
from sympgeo.dynamics import _phase_state, _PhaseStateTwin

_MAX = sys.float_info.max
_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min / 3.0, 1e-300, -1e300,
             _MAX, -_MAX)


def _floats(rng, n):
    """The specials, then ``n`` seeded floats of either sign with magnitudes 1e-300..1e300."""
    values = list(_SPECIALS)
    for _ in range(n):
        sign, exponent = rng.choice((-1.0, 1.0)), rng.randint(-300, 299)
        values.append(sign * rng.uniform(1.0, 10.0) * 10.0 ** exponent)
    return values


def _same_object(built, public):
    assert type(built) is type(public)
    assert built == public
    assert repr(built) == repr(public)
    assert hash(built) == hash(public)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(built, protocol))
        assert loaded == public and repr(loaded) == repr(public)


def test_vec2_builder_matches_the_public_constructor():
    rng = random.Random(8101)
    values = _floats(rng, 400)
    for _ in range(2000):
        x, y = rng.choice(values), rng.choice(values)
        _same_object(_vec2(x, y), Vec2(x, y))


def test_phase_state_builder_matches_the_public_constructor():
    rng = random.Random(8102)
    values = _floats(rng, 400)
    for _ in range(2000):
        q, p, t = rng.choice(values), rng.choice(values), rng.choice(values)
        _same_object(_phase_state(q, p, t), PhaseState(q, p, t))


def _same_built(built):
    """``built`` matches its public constructor, copies and all, and stays frozen."""
    cls = type(built)
    public = cls(**dataclasses.asdict(built))
    _same_object(built, public)
    for copied in (copy.copy(built), copy.deepcopy(built), dataclasses.replace(built)):
        _same_object(copied, public)
    for field in dataclasses.fields(built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field.name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, field.name)


def test_built_objects_stay_frozen():
    for built in (_vec2(1.0, -0.0), _phase_state(1.0, 2.0, 3.0)):
        _same_built(built)


def test_flow_and_sweep_results_match_the_public_constructors():
    params = OscillatorParams(1.3, 0.7)
    initial = PhaseState(0.75, -0.25, 0.5)
    built = [analytic_oscillator(2.5, initial, params)]
    for method in METHODS:
        built += simulate(initial, params, 0.125, 40, method).states[1:]
        built.append(step(initial, params, 0.125, method))
    # The pivot (1, 0) lies on the crank circle, so the rows at phi = 0, 2*pi
    # and 4*pi are singular and carry no state.
    for pivot in (Vec2(3.0, 0.5), Vec2(1.0, 0.0)):
        sweep = crank_sweep(CrankConfig(1.0, pivot, 2.0), 0.0, 4.0 * math.pi, 33)
        built += [entry.state.e_psi for entry in sweep if entry.state is not None]
    assert len(built) == 1 + 3 * 41 + 33 + 30
    for record in built:
        _same_built(record)


def test_derived_vectors_match_the_public_constructor():
    # tilde, negation, from_polar, inverse and polar_kinematics build their
    # vectors from checked components without validating them again.
    rng = random.Random(8105)
    values = _floats(rng, 300)
    # Both inverse paths: |a|^2 in the normal range, and rescaled outside it.
    built = [inverse(Vec2(3.0, 4.0)), inverse(Vec2(1e200, 0.0)), inverse(Vec2(3e-170, 4e-170))]
    for _ in range(150):
        a = Vec2(rng.choice(values), rng.choice(values))
        built += [tilde(a), -a, from_polar(Polar(rng.choice(values), rng.uniform(-7.0, 7.0)))]
        try:
            built.append(inverse(a))
        except (ZeroVectorError, NumericalOverflowError):
            pass
        motion = PolarMotion(*(rng.uniform(-3.0, 3.0) for _ in range(6)))
        built += polar_kinematics(motion)
    for vector in built:
        _same_built(vector)


def test_twins_share_the_layout_of_their_records():
    for twin, cls in ((_Vec2Twin, Vec2), (_PhaseStateTwin, PhaseState)):
        assert twin.__slots__ == cls.__slots__
        assert not hasattr(twin(), "__dict__")
    # Class assignment checks the layout: a Vec2 twin cannot become a PhaseState.
    v = _Vec2Twin()
    with pytest.raises(TypeError):
        v.__class__ = PhaseState


def _finite(result):
    """True when every float inside ``result``, ``Vec2`` and ``PhaseState`` included, is finite."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, (Vec2, PhaseState)):
        return all(math.isfinite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(_finite(item) for item in result)
    return True


def _outcomes(call, cases, degenerate=()):
    """Run ``call`` on each case; count results and typed overflows, failing on anything else."""
    returned = overflowed = 0
    for case in cases:
        try:
            result = call(*case)
        except NumericalOverflowError:
            overflowed += 1
        except degenerate:
            pass
        else:
            assert _finite(result), (case, result)
            returned += 1
    return returned, overflowed


def test_converted_functions_return_finite_fields_or_raise_a_typed_overflow():
    rng = random.Random(8103)
    values = _floats(rng, 300)

    def v():
        return rng.choice(values)

    def vec():
        return Vec2(v(), v())

    def positive():
        return abs(v()) or 1.0

    def state():
        return PhaseState(v(), v(), v())

    def params():
        return OscillatorParams(positive(), positive())

    def line():
        direction = vec()
        return Line(vec(), direction if direction != Vec2(0.0, 0.0) else Vec2(1.0, 0.0))

    n = 1500

    def cranks():
        return [(CrankConfig(positive(), vec(), v()), rng.uniform(-7.0, 7.0)) for _ in range(n)]

    rod_overflow = (CrankConfig(_MAX, Vec2(-_MAX, 0.0), 1.0), 0.0)
    checks = {
        "identity_residuals": (identity_residuals, [(vec(), vec(), vec(), vec()) for _ in range(n)],
                               ()),
        "intersect_lines": (intersect_lines, [(line(), line()) for _ in range(n)],
                            ParallelLinesError),
        "circle_tangents": (circle_tangents,
                            [(Circle(vec(), abs(v())), Circle(vec(), abs(v()))) for _ in range(n)],
                            CoincidentCentersError),
        "point_circle_tangents": (point_circle_tangents,
                                  [(vec(), Circle(vec(), abs(v()))) for _ in range(n)], ()),
        # A rod length overflows only when the crank tip and the pivot are both
        # near the largest float, on opposite sides; one such case is added.
        "crank_state": (crank_state, [*cranks(), rod_overflow], SingularPositionError),
        "hamiltonian_gradient": (hamiltonian_gradient,
                                 [(state(), params()) for _ in range(n)], ()),
        "analytic_oscillator": (analytic_oscillator,
                                [(v(), state(), params()) for _ in range(n)], ()),
        "simulate": (simulate, [(state(), params(), positive(), 3, rng.choice(METHODS))
                                for _ in range(n)], ()),
    }
    for name, (call, cases, degenerate) in checks.items():
        returned, overflowed = _outcomes(call, cases, degenerate)
        # Both outcomes occur, so neither branch is checked vacuously.
        assert returned > 0 and overflowed > 0, name


def test_overflowing_touch_point_raises_a_typed_overflow():
    # Finite centres 1e308 apart; the upper touch point of the first circle
    # lands at y = 1.7e308 + 0.5e308*sin(60 degrees), past the largest float.
    first = Circle(Vec2(0.0, 1.7e308), 0.5e308)
    second = Circle(Vec2(1e308, 1.7e308), 1.0)
    with pytest.raises(NumericalOverflowError, match="common tangent overflows"):
        circle_tangents(first, second)
    with pytest.raises(NumericalOverflowError, match="common tangent overflows"):
        point_circle_tangents(Vec2(1e308, 1.7e308), first)
    # Moved down, the same figure fits and every touch point is finite.
    lowered = [Circle(Vec2(c.center.x, 0.0), c.radius) for c in (first, second)]
    assert len(circle_tangents(*lowered)) == 4
    assert _finite(circle_tangents(*lowered))


def _same_vec2(v):
    """``v`` cannot be told apart from ``Vec2(v.x, v.y)``."""
    assert type(v) is Vec2
    public = Vec2(v.x, v.y)
    assert v == public and hash(v) == hash(public) and repr(v) == repr(public)
    for name in ("x", "y"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, 0.0)


def _same_record(record, cls):
    """A record built in place equals the one its class constructor builds, field by field."""
    assert type(record) is cls
    public = cls(*record)
    assert record == public and hash(record) == hash(public) and repr(record) == repr(public)
    for field in record:
        if isinstance(field, Vec2):
            _same_vec2(field)


def test_records_built_in_place_match_their_constructors():
    rng = random.Random(8104)
    values = [value for value in _floats(rng, 300) if abs(value) < 1e150]
    scales = (1e-150, 1.0, 1e150)

    def vec():
        return Vec2(rng.choice(values), rng.choice(values))

    seen = dict.fromkeys(("tangents", "point tangents", "intersections", "identities",
                          "vectors"), 0)
    for _ in range(1500):
        scale = rng.choice(scales)
        c1 = Circle(Vec2(rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale),
                    rng.uniform(0, 2) * scale)
        c2 = Circle(Vec2(rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale),
                    rng.choice((0.0, c1.radius, rng.uniform(0, 2) * scale)))
        try:
            tangents = circle_tangents(c1, c2)
        except CoincidentCentersError:
            tangents = []
        for t in tangents:
            _same_record(t, Tangent)
            seen["tangents"] += 1
        for t in point_circle_tangents(c2.center, c1):
            _same_record(t, Tangent)
            seen["point tangents"] += 1
        try:
            meet = intersect_lines(Line(vec(), vec()), Line(vec(), vec()))
        except (ParallelLinesError, NumericalOverflowError, ZeroDirectionError):
            pass
        else:
            _same_record(meet, Intersection)
            seen["intersections"] += 1
        try:
            residuals = identity_residuals(vec(), vec(), vec(), vec())
        except NumericalOverflowError:
            pass
        else:
            _same_record(residuals, IdentityResiduals)
            seen["identities"] += 1
        a, c, d = vec(), rng.uniform(-2, 2), rng.uniform(-2, 2)
        for call in (lambda: rotate(a, c), lambda: similarity(a, c, d),
                     lambda: similarity_div(a, c * scale, d * scale)):
            try:
                _same_vec2(call())
            except NumericalOverflowError:
                continue
            seen["vectors"] += 1
    assert min(seen.values()) > 0, seen
