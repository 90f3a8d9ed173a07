"""Phase-flow layer: hand-stepped updates, analytic orbit, energy behavior.

The single-step checks mirror the integrator arithmetic operation for
operation, so they assert exact float equality; everything trajectory-level
is compared against the closed-form orbit or an energy bound measured once
and frozen here.
"""

import inspect
import linecache
import math
import random
import re
import subprocess
import sys
import traceback
from array import array

import pytest

from sympgeo import (
    EXPLICIT_EULER,
    LEAPFROG,
    METHODS,
    SYMPLECTIC_EULER,
    InvalidStepError,
    NumericalOverflowError,
    OscillatorParams,
    PhaseState,
    Vec2,
    analytic_oscillator,
    area_residual,
    ellipse_residual,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_gradient,
    simulate,
    step,
    tilde,
)
from sympgeo import _run_flow, dynamics
from sympgeo.dynamics import SPLITTINGS

UNIT = OscillatorParams(mass=1.0, stiffness=1.0)


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_anchor_values():
    assert hamiltonian(PhaseState(0.0, 0.0), UNIT) == 0.0
    assert hamiltonian(PhaseState(1.0, 0.0), UNIT) == 0.5
    assert hamiltonian(PhaseState(1.0, 2.0), OscillatorParams(2.0, 8.0)) == 5.0


def test_gradient_and_field_anchor_values():
    s = PhaseState(1.0, 0.0)
    assert hamiltonian_gradient(s, UNIT) == Vec2(1.0, 0.0)
    assert hamiltonian_field(s, UNIT) == (0.0, -1.0)
    assert hamiltonian_field(PhaseState(0.0, 0.0), UNIT) == (0.0, 0.0)


def test_field_is_exactly_tangent_to_energy_levels():
    for q, p, m, k in [(1.0, 0.0, 1.0, 1.0), (0.3, -2.0, 2.0, 8.0),
                       (-7.5, 0.1, 0.5, 3.0), (1e-8, 1e8, 4.0, 0.25)]:
        s = PhaseState(q, p)
        params = OscillatorParams(m, k)
        g = hamiltonian_gradient(s, params)
        f = hamiltonian_field(s, params)
        assert f[0] * g.x + f[1] * g.y == 0.0


def test_field_is_the_negated_quarter_turn_of_the_gradient():
    rng = random.Random(8)
    for _ in range(5000):
        s = PhaseState(_coordinate(rng), _coordinate(rng))
        params = OscillatorParams(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3))
        f = -tilde(hamiltonian_gradient(s, params))
        assert repr(hamiltonian_field(s, params)) == repr((f.x, f.y))


@pytest.mark.parametrize("s, params", [
    (PhaseState(0.0, 1e200, 2.5), OscillatorParams(1e-300, 1.0)),   # p/m overflows
    (PhaseState(1e200, 0.0, 2.5), OscillatorParams(1.0, 1e300)),    # k*q overflows
])
def test_gradient_and_field_overflow_raise_a_typed_singularity(s, params):
    with pytest.raises(NumericalOverflowError, match="at t=2.5$"):
        hamiltonian_gradient(s, params)
    with pytest.raises(NumericalOverflowError, match="at t=2.5$"):
        hamiltonian_field(s, params)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, -2.0)
    assert OscillatorParams(2.0, 8.0).omega == 2.0


def test_omega_keeps_its_bits_and_survives_an_out_of_range_ratio():
    rng = random.Random(9)
    for _ in range(5000):
        m, k = 10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300)
        if sys.float_info.min <= k / m < math.inf:
            assert OscillatorParams(m, k).omega == math.sqrt(k / m)
    # k/m underflows to 0.0 and overflows to inf; each root is still representable.
    assert OscillatorParams(1e300, 1e-300).omega == math.sqrt(1e-300) / math.sqrt(1e300)
    assert OscillatorParams(1e-300, 1e300).omega == math.sqrt(1e300) / math.sqrt(1e-300)
    assert 0.0 < OscillatorParams(1e300, 1e-300).omega < 1e-299


def test_phase_state_rejects_non_finite():
    with pytest.raises(ValueError):
        PhaseState(math.nan, 0.0)


# ------------------------------------------------------------ single steps


def test_explicit_euler_hand_step():
    s1 = step(PhaseState(1.0, 0.0), UNIT, 0.1, EXPLICIT_EULER)
    assert s1.q == 1.0
    assert s1.p == -0.1
    assert s1.t == 0.1


def test_symplectic_euler_hand_step():
    s1 = step(PhaseState(1.0, 0.0), UNIT, 0.1, SYMPLECTIC_EULER)
    assert s1.p == -0.1
    assert s1.q == 1.0 + 0.1 * (-0.1 / 1.0)
    assert s1.q == pytest.approx(0.99, abs=1e-15)


def test_leapfrog_hand_step():
    q0, p0, dt, m, k = 0.7, -0.4, 0.05, 2.0, 3.0
    s1 = step(PhaseState(q0, p0), OscillatorParams(m, k), dt, LEAPFROG)
    p_half = p0 + 0.5 * dt * (-(k * q0))
    q1 = q0 + dt * (p_half / m)
    p1 = p_half + 0.5 * dt * (-(k * q1))
    assert s1.q == q1
    assert s1.p == p1


def test_fixed_point_is_preserved_by_every_method():
    origin = PhaseState(0.0, 0.0)
    for method in METHODS:
        s1 = step(origin, UNIT, 0.1, method)
        assert s1.q == 0.0 and s1.p == 0.0


def test_step_rejects_bad_dt_and_unknown_method():
    s = PhaseState(1.0, 0.0)
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(InvalidStepError):
            step(s, UNIT, dt)
    with pytest.raises(ValueError):
        step(s, UNIT, 0.1, "rk4")


def _coordinate(rng):
    roll = rng.random()
    if roll < 0.1:
        return 0.0
    if roll < 0.2:
        return -0.0
    if roll < 0.25:
        return rng.choice((1.0, -1.0)) * 5e-324
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-150, 150)


def test_explicit_euler_is_one_step_along_the_public_field():
    # step inlines the field; it must stay s + dt*hamiltonian_field(s) bit
    # for bit, signed zeros included.
    # Where the field overflows, step must overflow too.
    rng = random.Random(5)
    cases = [(PhaseState(_coordinate(rng), _coordinate(rng), rng.uniform(0.0, 10.0)),
              OscillatorParams(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)),
              10.0 ** rng.uniform(-6, 0)) for _ in range(20000)]
    cases += [(PhaseState(0.0, 1e200), OscillatorParams(1e-300, 1.0), 1e-6),
              (PhaseState(1e200, 0.0), OscillatorParams(1.0, 1e300), 1e-6)]
    overflowed = 0
    for s, params, dt in cases:
        try:
            q_dot, p_dot = hamiltonian_field(s, params)
        except NumericalOverflowError:
            overflowed += 1
            with pytest.raises(NumericalOverflowError):
                step(s, params, dt, EXPLICIT_EULER)
            continue
        expected = PhaseState(s.q + dt * q_dot, s.p + dt * p_dot, s.t + dt)
        got = step(s, params, dt, EXPLICIT_EULER)
        assert repr(got) == repr(expected)
    assert overflowed == 2


def _stepwise_splitting(initial, params, dt, n_steps, stages):
    """The states of a splitting run, stage by stage, or the overflow time."""
    k, m = params.stiffness, params.mass
    q, p, t = initial.q, initial.p, initial.t
    states = [initial]
    for _ in range(n_steps):
        for a, b in stages:
            if a:
                p = p + (a * dt) * (-(k * q))
            if b:
                q = q + (b * dt) * (p / m)
        t = t + dt
        if not (math.isfinite(q) and math.isfinite(p) and math.isfinite(t)):
            return states, t
        states.append(PhaseState(q, p, t))
    return states, None


# 0.5*5e-324 underflows to 0.0, yet a = 0.5 is not a zero coefficient: the
# half kick still runs and adds +0.0 to p = -0.0.
_TINY = [(PhaseState(-1.0, -0.0), UNIT, 5e-324, 1),
         (PhaseState(1.0, -0.0), UNIT, 5e-324, 2)]


def _splitting_cases():
    """Seeded ``(initial, params, dt, n_steps)`` cases for the splitting loops.

    Signed zeros and subnormals from ``_coordinate``, then the two
    ``_TINY`` underflow cases and two that overflow.
    """
    rng = random.Random(12)
    cases = [(PhaseState(_coordinate(rng), _coordinate(rng), rng.uniform(0.0, 10.0)),
              OscillatorParams(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)),
              10.0 ** rng.uniform(-6, 0), rng.randint(1, 4)) for _ in range(5000)]
    cases += _TINY
    cases += [(PhaseState(1e200, 0.0), OscillatorParams(1.0, 1e300), 1e-6, 3),
              (PhaseState(0.0, 1e200), OscillatorParams(1e-300, 1.0), 1.0, 3)]
    return cases


def _record_run(loop, initial, params, dt, n_steps):
    """The states of a record loop's run, ``initial`` first, as :func:`simulate` keeps them."""
    states = [initial]
    loop(initial.q, initial.p, initial.t, params.mass, params.stiffness, dt, n_steps,
         states.append)
    return states


def _assert_rows_match_the_records(records, rows):
    """The row loop ``rows`` of ``sympgeo oscillator`` against the record loop ``records``.

    Both are loops of one row, run on the same float arguments.  On every
    case of ``_splitting_cases``, and on two whose state overflows while
    its energy is finite, each packed row must be
    ``(s.t, s.q, s.p, hamiltonian(s, params))`` of a new record, bit for
    bit (compared as reprs, so signed zeros and subnormals count).  Where
    the records fail first in step order, by a state or by its energy, the
    row loop must raise the same error with the same message.
    """
    cases = _splitting_cases() + [(PhaseState(0.0, 0.0, 1.7e308), UNIT, 1e308, 2),
                                  (PhaseState(1e150, 0.0), UNIT, 1e200, 3)]
    failures = set()
    for initial, params, dt, n_steps in cases:
        args = (initial.q, initial.p, initial.t, params.mass, params.stiffness, dt, n_steps)
        states, failure = [], None
        try:
            records(*args, states.append)
        except NumericalOverflowError as exc:
            failure = exc
        want = []
        try:
            # Each state the loop appended comes before its overflow in step order.
            for s in states:
                want += (s.t, s.q, s.p, hamiltonian(s, params))
        except NumericalOverflowError as exc:
            failure = exc
        if failure is not None:
            want = (type(failure), str(failure))
            failures.add(str(failure).split(" overflows")[0])
        store = array("d")
        try:
            rows(*args, store.append)
        except NumericalOverflowError as exc:
            assert (type(exc), str(exc)) == want
        else:
            assert repr(store.tolist()) == repr(want)
    assert failures == {"energy", "phase state"}


@pytest.mark.parametrize("method", SPLITTINGS)
def test_splitting_rows_match_a_stepwise_reference(method):
    # simulate precomputes a*dt and b*dt; each state must keep the bits of
    # the stage-by-stage update, signed zeros and subnormals included.
    stages = SPLITTINGS[method]
    overflowed = 0
    for initial, params, dt, n_steps in _splitting_cases():
        want, overflow_t = _stepwise_splitting(initial, params, dt, n_steps, stages)
        if overflow_t is not None:
            overflowed += 1
            with pytest.raises(NumericalOverflowError, match=f"at t={overflow_t}$"):
                simulate(initial, params, dt, n_steps, method)
            continue
        got = simulate(initial, params, dt, n_steps, method).states
        assert repr(got) == repr(want)
    assert overflowed >= 2
    if method == LEAPFROG:
        assert repr(simulate(*_TINY[0], method).states[1].p) == "0.0"


@pytest.mark.parametrize("row", [
    ((0.5, 0.5), (0.0, 0.5), (0.5, 0.0)),      # zero kick in the middle, zero trailing drift
    ((0.0, 0.5), (1.0, 0.5)),                  # drift first
    ((0.5, 1.5), (-0.5, -1.0), (0.5, 0.5), (0.5, 0.0)),   # negative coefficients
    ((0.0, 0.0),),                              # no half-stage at all
], ids=["zero-kick-inside", "drift-first", "negative", "identity"])
def test_built_loops_match_a_stepwise_reference_for_any_row(row):
    # The loop builder takes a row, not a method, so a row that no method has
    # yet is written out by the same code and keeps the stage-by-stage bits.
    loops = dict(dynamics._LOOPS)
    loop = dynamics._build_flow(row, "synthetic")
    assert dynamics._LOOPS == loops
    assert loop.__code__.co_filename == "<sympgeo.dynamics._flow synthetic>"
    overflowed = 0
    for initial, params, dt, n_steps in _splitting_cases():
        want, overflow_t = _stepwise_splitting(initial, params, dt, n_steps, row)
        if overflow_t is not None:
            overflowed += 1
            with pytest.raises(NumericalOverflowError, match=f"at t={overflow_t}$"):
                _record_run(loop, initial, params, dt, n_steps)
            continue
        assert repr(_record_run(loop, initial, params, dt, n_steps)) == repr(want)
    assert overflowed >= 2 or not any(a or b for a, b in row)
    # Each kick of 0.5*5e-324 underflows to 0.0, yet a kick with a nonzero
    # coefficient still runs and adds +0.0 to p = -0.0.
    if {abs(a) for a, _ in row} <= {0.0, 0.5}:
        _, after = _record_run(loop, PhaseState(-1.0, -0.0), UNIT, 5e-324, 1)
        assert repr(after.p) == ("0.0" if any(a for a, _ in row) else "-0.0")
    # The CLI's row loop is written out by the same builder from the same row.
    _assert_rows_match_the_records(loop, _run_flow._build_rows(row, "synthetic"))
    assert dynamics._LOOPS == loops


@pytest.mark.parametrize("method", [*METHODS, "rk4", ["leapfrog"]])
def test_flow_checks_its_arguments_lazily_and_in_order(method):
    # simulate and step check n_steps, then dt, then the method, before the
    # first step.
    initial = PhaseState(1.0, 0.0)
    for n_steps, dt, error, message in [
            (0, -1.0, InvalidStepError, "n_steps must be >= 1, got 0"),
            (1, -1.0, InvalidStepError, "dt must be finite and > 0, got -1.0"),
            (1, math.nan, InvalidStepError, "dt must be finite and > 0, got nan")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            simulate(initial, UNIT, dt, n_steps, method)
        if n_steps == 1:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                step(initial, UNIT, dt, method)
    if method in METHODS:
        assert simulate(initial, UNIT, 0.5, 1, method).states[0] is initial
    else:
        message = f"unknown integrator {method!r}; expected one of {METHODS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(initial, UNIT, 0.5, 1, method)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(initial, UNIT, 0.5, method)


#: The positional parameters of every compiled step loop, record or row.
_LOOP_PARAMETERS = ["q", "p", "t", "m", "k", "dt", "n_steps", "append"]


def _assert_one_loop_signature(loop):
    """``loop`` takes exactly :data:`_LOOP_PARAMETERS`, positionally, and yields nothing."""
    parameters = inspect.signature(loop).parameters.values()
    assert [param.name for param in parameters] == _LOOP_PARAMETERS
    assert all(param.kind is param.POSITIONAL_OR_KEYWORD and param.default is param.empty
               for param in parameters)
    assert not inspect.isgeneratorfunction(loop)


@pytest.mark.parametrize("method", METHODS)
def test_each_loop_is_built_once_and_names_its_method(method):
    loop = dynamics._LOOPS[method]
    simulate(PhaseState(1.0, 0.0), UNIT, 0.5, 1, method)
    step(PhaseState(0.0, 1.0), UNIT, 0.25, method)
    assert dynamics._LOOPS[method] is loop
    assert loop.__module__ == "sympgeo.dynamics"
    assert loop.__code__.co_name == "_flow"
    _assert_one_loop_signature(loop)
    # An overflow inside the loop names the method in its innermost frame.
    with pytest.raises(NumericalOverflowError) as caught:
        simulate(PhaseState(1e200, 0.0), OscillatorParams(1.0, 1e300), 1.0, 3, method)
    tb = caught.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == f"<sympgeo.dynamics._flow {method}>"
    # The CLI builds its row loop per run, named after its own module, and
    # every row keeps the bits of the record loop's states and energies.
    rows = _run_flow._build_rows(SPLITTINGS.get(method), method)
    assert _run_flow._build_rows(SPLITTINGS.get(method), method) is not rows
    assert rows.__module__ == "sympgeo._run_flow"
    assert rows.__code__.co_filename == f"<sympgeo._run_flow._flow {method}>"
    assert rows.__code__.co_filename not in linecache.cache
    _assert_one_loop_signature(rows)
    _assert_rows_match_the_records(loop, rows)


@pytest.mark.parametrize("method", METHODS)
def test_a_traceback_through_a_loop_shows_the_failing_line(method):
    # The generated source is registered with linecache, so the innermost
    # frame of an overflow prints its raise statement.
    with pytest.raises(NumericalOverflowError) as caught:
        simulate(PhaseState(1e200, 0.0), OscillatorParams(1.0, 1e300), 1.0, 3, method)
    lines = "".join(traceback.format_exception(caught.value)).splitlines()
    head = f'  File "<sympgeo.dynamics._flow {method}>", line '
    frame = max(i for i, line in enumerate(lines) if line.startswith(head))
    assert lines[frame].endswith(", in _flow")
    assert lines[frame + 1].strip() == (
        'raise NumericalOverflowError(f"phase state overflows at t={t}")')


def test_loops_are_built_at_import():
    # Importing the module builds every method's loop, and no run builds
    # another.
    code = ("import sympgeo.dynamics as d\n"
            "assert list(d._LOOPS) == list(d.METHODS)\n"
            "loops = dict(d._LOOPS)\n"
            "unit = d.OscillatorParams(1.0, 1.0)\n"
            "for method in d.METHODS:\n"
            "    d.simulate(d.PhaseState(1.0, 0.0), unit, 0.5, 3, method)\n"
            "    d.step(d.PhaseState(0.0, 1.0), unit, 0.5, method)\n"
            "assert list(d._LOOPS) == list(loops)\n"
            "assert all(d._LOOPS[m] is loop for m, loop in loops.items())\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("s, params, dt", [
    (PhaseState(0.0, 1e200), OscillatorParams(1e-300, 1.0), 1.0),   # p/m overflows
    (PhaseState(1e200, 0.0), OscillatorParams(1.0, 1e300), 1.0),    # k*q overflows
    (PhaseState(0.0, 0.0, 1.7e308), UNIT, 1e308),                   # time stamp overflows
])
def test_step_overflow_raises_a_typed_singularity(method, s, params, dt):
    with pytest.raises(NumericalOverflowError, match=f"at t={s.t + dt}$"):
        step(s, params, dt, method)


def test_simulate_overflow_names_the_failing_time():
    # q reaches -1e300 on the second step, so the third kick overflows p.
    params = OscillatorParams(1.0, 1e300)
    with pytest.raises(NumericalOverflowError, match="at t=3.0$"):
        simulate(PhaseState(1.0, 0.0), params, 1.0, 10, EXPLICIT_EULER)


def test_energy_overflow_raises_a_typed_singularity():
    with pytest.raises(NumericalOverflowError, match="energy overflows at t=2.5"):
        hamiltonian(PhaseState(0.0, 1e200, 2.5), UNIT)
    with pytest.raises(NumericalOverflowError):
        hamiltonian(PhaseState(1.0, 1.0), OscillatorParams(1e-310, 1.0))
    with pytest.raises(NumericalOverflowError):
        ellipse_residual(PhaseState(1e200, 0.0), PhaseState(1.0, 0.0), UNIT)


def test_ellipse_residual_is_the_difference_of_the_public_energies():
    # ellipse_residual takes H(initial) through hamiltonian, once per
    # (initial, params); the bits and the overflow messages must stay those
    # of two hamiltonian calls.
    rng = random.Random(31)
    cases = [(PhaseState(_coordinate(rng), _coordinate(rng), rng.uniform(0.0, 10.0)),
              PhaseState(_coordinate(rng), _coordinate(rng), rng.uniform(10.0, 20.0)),
              OscillatorParams(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)))
             for _ in range(20000)]
    cases += [(PhaseState(0.0, 1e200, 1.5), PhaseState(1e200, 0.0, 2.5), UNIT),
              (PhaseState(0.5, 1.0, 1.5), PhaseState(1e200, 0.0, 2.5), UNIT),
              (PhaseState(0.0, 1e200, 1.5), PhaseState(1.0, 0.0, 2.5), UNIT)]
    raised = {"s": 0, "initial": 0}
    for s, initial, params in cases:
        try:
            hamiltonian(s, params)
        except NumericalOverflowError:
            raised["s"] += 1
            with pytest.raises(NumericalOverflowError, match=f"^energy overflows at t={s.t}$"):
                ellipse_residual(s, initial, params)
            continue
        try:
            want = hamiltonian(s, params) - hamiltonian(initial, params)
        except NumericalOverflowError:
            raised["initial"] += 1
            with pytest.raises(NumericalOverflowError,
                               match=f"^energy overflows at t={initial.t}$"):
                ellipse_residual(s, initial, params)
            continue
        assert repr(ellipse_residual(s, initial, params)) == repr(want)
    assert raised["s"] >= 2 and raised["initial"] >= 1



def test_ellipse_residual_keeps_one_initial_energy_per_initial_and_params():
    # The memo of the last initial energy is keyed by the identities of both
    # initial and params: interleaved streams must each get their own energy.
    other = OscillatorParams(mass=2.0, stiffness=0.5)
    first, second = PhaseState(1.0, 0.5), PhaseState(-0.25, 2.0, 1.0)
    equal = PhaseState(1.0, 0.5)  # equal to first, another object
    order = [(first, UNIT), (first, UNIT), (second, UNIT), (first, UNIT), (first, other),
             (second, other), (equal, UNIT), (first, other), (second, UNIT), (second, UNIT)]
    rng = random.Random(2301)
    for n in range(200):
        s = PhaseState(_coordinate(rng), _coordinate(rng), float(n))
        for initial, params in order:
            want = hamiltonian(s, params) - hamiltonian(initial, params)
            assert repr(ellipse_residual(s, initial, params)) == repr(want)
        # New starts, each dropped after its call, so the next may reuse its id.
        for _ in range(2):
            q0, p0 = _coordinate(rng), _coordinate(rng)
            want = hamiltonian(s, UNIT) - hamiltonian(PhaseState(q0, p0), UNIT)
            assert repr(ellipse_residual(s, PhaseState(q0, p0), UNIT)) == repr(want)


def test_ellipse_residual_never_keeps_an_overflowing_initial_energy():
    s = PhaseState(0.5, 1.0, 1.5)
    huge = PhaseState(1e200, 0.0, 2.5)
    for _ in range(3):
        with pytest.raises(NumericalOverflowError, match=r"^energy overflows at t=2\.5$"):
            ellipse_residual(s, huge, UNIT)
    initial = PhaseState(1.0, 0.0)
    want = hamiltonian(s, UNIT) - hamiltonian(initial, UNIT)
    assert repr(ellipse_residual(s, initial, UNIT)) == repr(want)
    # With the initial energy kept, an overflowing s is still named first.
    with pytest.raises(NumericalOverflowError, match=r"^energy overflows at t=3\.5$"):
        ellipse_residual(PhaseState(0.0, 1e200, 3.5), initial, UNIT)
    with pytest.raises(NumericalOverflowError, match=r"^energy overflows at t=3\.5$"):
        ellipse_residual(PhaseState(0.0, 1e200, 3.5), huge, UNIT)
    assert repr(ellipse_residual(s, initial, UNIT)) == repr(want)

# --------------------------------------------------------------- simulate


def test_simulate_composition_contract():
    initial = PhaseState(0.8, -0.3)
    params = OscillatorParams(1.5, 0.75)
    for method in METHODS:
        for n_steps in (1, 2, 7, 100):
            trajectory = simulate(initial, params, 0.1, n_steps, method)
            assert len(trajectory.states) == n_steps + 1
            current = initial
            for state in trajectory.states[1:]:
                current = step(current, params, 0.1, method)
                assert (state.q, state.p, state.t) == (current.q, current.p, current.t)
            assert trajectory.integrator == method
            assert trajectory.dt == 0.1


def test_simulate_time_stamps_are_uniform():
    trajectory = simulate(PhaseState(1.0, 0.0), UNIT, 0.01, 1000, SYMPLECTIC_EULER)
    for a, b in zip(trajectory.states, trajectory.states[1:]):
        assert abs((b.t - a.t) - 0.01) <= 1e-12 * 0.01 + 1e-14


def test_simulate_rejects_bad_arguments():
    s = PhaseState(1.0, 0.0)
    with pytest.raises(InvalidStepError):
        simulate(s, UNIT, -0.1, 10)
    with pytest.raises(InvalidStepError):
        simulate(s, UNIT, 0.1, 0)
    with pytest.raises(ValueError):
        simulate(s, UNIT, 0.1, 10, "rk4")


# ----------------------------------------------------------- analytic orbit


def test_analytic_oscillator_anchors():
    initial = PhaseState(1.0, 0.0)
    assert analytic_oscillator(0.0, initial, UNIT) == initial
    quarter = analytic_oscillator(math.pi / 2.0, initial, UNIT)
    assert abs(quarter.q) <= 1e-12
    assert quarter.p == pytest.approx(-1.0, abs=1e-12)


def test_analytic_oscillator_conserves_energy():
    initial = PhaseState(0.6, 1.1)
    h0 = hamiltonian(initial, UNIT)
    for i in range(100):
        t = 20.0 * i / 99.0
        s = analytic_oscillator(t, initial, UNIT)
        assert abs(ellipse_residual(s, initial, UNIT)) <= 1e-12 * h0 + 1e-15


def test_analytic_oscillator_overflow_raises_a_typed_singularity():
    # w = 1e150 makes p0/(m*w) overflow; w*t = inf leaves cos undefined.
    stiff = OscillatorParams(1e-300, 1.0)
    with pytest.raises(NumericalOverflowError, match="at t=1.0$"):
        analytic_oscillator(1.0, PhaseState(0.0, 1e300), stiff)
    with pytest.raises(NumericalOverflowError, match=r"at t=1e\+300$"):
        analytic_oscillator(1e300, PhaseState(1.0, 0.0), stiff)
    with pytest.raises(ValueError, match="t must be finite"):
        analytic_oscillator(math.nan, PhaseState(1.0, 0.0), UNIT)


def test_analytic_oscillator_with_an_extreme_omega():
    # omega = 1e-300 once k/m underflows: a quarter period is still finite.
    slow = OscillatorParams(1e300, 1e-300)
    initial = PhaseState(1.0, 1.0)
    assert analytic_oscillator(0.0, initial, slow) == initial
    quarter = analytic_oscillator(math.pi / 2.0 / slow.omega, initial, slow)
    assert quarter.q == pytest.approx(1.0, rel=1e-12)   # p0/(m*w) = 1
    assert quarter.p == pytest.approx(-1.0, rel=1e-12)  # -m*w*q0 = -1
    # omega = inf, since even sqrt(k)/sqrt(m) overflows: m*omega cannot be formed.
    stiff = OscillatorParams(5e-324, 1.7976931348623157e308)
    with pytest.raises(NumericalOverflowError, match="m\\*omega = inf .* at t=1.0$"):
        analytic_oscillator(1.0, PhaseState(1.0, 0.0), stiff)


def test_leapfrog_tracks_the_analytic_orbit_at_t_one():
    trajectory = simulate(PhaseState(1.0, 0.0), UNIT, 0.01, 100, LEAPFROG)
    final = trajectory.states[-1]
    assert abs(final.q - math.cos(1.0)) <= 1e-4


# ---------------------------------------------------------- area behavior


def linear_step_matrix(method, params, dt):
    """One-step map as a 2x2 matrix; valid because the flow is linear in (q, p)."""
    e1 = step(PhaseState(1.0, 0.0), params, dt, method)
    e2 = step(PhaseState(0.0, 1.0), params, dt, method)
    return ((e1.q, e2.q), (e1.p, e2.p))


def test_symplectic_methods_preserve_phase_area():
    params = OscillatorParams(2.0, 3.0)
    dt = 0.1
    for method in (SYMPLECTIC_EULER, LEAPFROG):
        (a, b), (c, d) = linear_step_matrix(method, params, dt)
        assert abs(a * d - b * c - 1.0) <= 1e-12


def test_explicit_euler_inflates_phase_area_by_known_factor():
    params = OscillatorParams(2.0, 3.0)
    dt = 0.1
    (a, b), (c, d) = linear_step_matrix(EXPLICIT_EULER, params, dt)
    expected = 1.0 + dt * dt * params.stiffness / params.mass
    assert abs((a * d - b * c) - expected) <= 1e-14


def test_area_residual_of_every_method():
    # Every SPLITTINGS row is a product of shears, so its step map preserves
    # area to rounding; explicit Euler's has determinant 1 + (omega*dt)**2.
    rng = random.Random(5150)
    for _ in range(2000):
        params = OscillatorParams(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3))
        dt = 10.0 ** rng.uniform(-4, 0) / params.omega
        for method in METHODS:
            residual = area_residual(params, dt, method)
            if method == EXPLICIT_EULER:
                expected = (params.omega * dt) ** 2
                assert abs(residual - expected) <= 1e-12 * expected
            else:
                assert method in SPLITTINGS
                assert abs(residual) <= 4 * sys.float_info.epsilon


def test_area_residual_overflow_raises_a_typed_singularity():
    # The step itself overflows: p = -dt*k = -1e310.
    with pytest.raises(NumericalOverflowError, match="phase state overflows"):
        area_residual(OscillatorParams(1.0, 1e300), 1e10, LEAPFROG)
    # The step is finite but the area is not: p*q = -1e300 * 1e200.
    with pytest.raises(NumericalOverflowError, match="area residual overflows at dt=1e\\+100$"):
        area_residual(OscillatorParams(1e-100, 1e200), 1e100, EXPLICIT_EULER)


def test_leapfrog_jacobian_by_finite_differences():
    params = OscillatorParams(1.3, 0.7)
    dt, h = 0.2, 1e-6
    base = PhaseState(0.4, -0.9)

    def advance(q, p):
        s = step(PhaseState(q, p), params, dt, LEAPFROG)
        return s.q, s.p

    qp, pp = advance(base.q + h, base.p)
    qm, pm = advance(base.q - h, base.p)
    dq_dq, dp_dq = (qp - qm) / (2 * h), (pp - pm) / (2 * h)
    qp, pp = advance(base.q, base.p + h)
    qm, pm = advance(base.q, base.p - h)
    dq_dp, dp_dp = (qp - qm) / (2 * h), (pp - pm) / (2 * h)
    det = dq_dq * dp_dp - dq_dp * dp_dq
    assert abs(det - 1.0) <= 1e-8


# --------------------------------------------------------- energy behavior


def max_relative_drift(method, dt, n_steps):
    initial = PhaseState(1.0, 0.0)
    h0 = hamiltonian(initial, UNIT)
    trajectory = simulate(initial, UNIT, dt, n_steps, method)
    return max(abs(ellipse_residual(s, initial, UNIT)) for s in trajectory.states) / h0


def test_energy_drift_trichotomy():
    dt, n = 0.05, 10_000

    # Explicit Euler: strict growth at every step.
    trajectory = simulate(PhaseState(1.0, 0.0), UNIT, dt, n, EXPLICIT_EULER)
    energies = [hamiltonian(s, UNIT) for s in trajectory.states]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert energies[-1] > 1e8 * energies[0]

    # Symplectic Euler: bounded oscillation, neither decaying nor growing.
    # The swing for this step size measures 0.02564*H0; 0.03 gives headroom.
    drift = max_relative_drift(SYMPLECTIC_EULER, dt, n)
    assert 0.001 < drift < 0.03

    # Leapfrog: bounded and an order smaller.
    assert max_relative_drift(LEAPFROG, dt, n) < 0.01


def test_explicit_euler_energy_growth_factor_is_exact_per_step():
    dt = 0.05
    factor = 1.0 + dt * dt * UNIT.stiffness / UNIT.mass
    trajectory = simulate(PhaseState(1.0, 0.0), UNIT, dt, 200, EXPLICIT_EULER)
    energies = [hamiltonian(s, UNIT) for s in trajectory.states]
    for a, b in zip(energies, energies[1:]):
        assert abs(b / a - factor) <= 1e-12


def test_leapfrog_long_run_stays_on_the_ellipse():
    initial = PhaseState(1.0, 0.0)
    h0 = hamiltonian(initial, UNIT)
    trajectory = simulate(initial, UNIT, 0.01, 10_000, LEAPFROG)
    worst = max(abs(ellipse_residual(s, initial, UNIT)) for s in trajectory.states)
    assert worst <= 1e-4 * h0


# -------------------------------------------------------------- convergence


def q_error_at_t_one(method, dt):
    n = round(1.0 / dt)
    trajectory = simulate(PhaseState(1.0, 0.0), UNIT, dt, n, method)
    return abs(trajectory.states[-1].q - math.cos(1.0))


def test_convergence_order_windows():
    ratio_se = q_error_at_t_one(SYMPLECTIC_EULER, 0.01) / q_error_at_t_one(SYMPLECTIC_EULER, 0.005)
    assert 1.8 <= ratio_se <= 2.2

    ratio_lf = q_error_at_t_one(LEAPFROG, 0.01) / q_error_at_t_one(LEAPFROG, 0.005)
    assert 3.6 <= ratio_lf <= 4.4
