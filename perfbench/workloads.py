"""The three workloads: seeded inputs, oracle answers, the stream and its checks.

Each workload builds every input and every reference answer from its
seed in ``__init__``, before anything is timed; the library only ever
receives the generated values.  ``run`` executes one unit of the stream
through a tracer (``NoTrace`` when untraced) and returns the raw outputs;
``check`` compares those outputs with the references and records the
outcome of every operation in a :class:`Tally`.

Why these three (see README.md): ``phase-flow`` loads ``dynamics`` and
its per-step state objects, ``crank-sweep`` loads ``kinematics``, the
JSON serialiser and ``svgplot``, and ``construct-mix`` loads per-call
construction and validation in ``core`` and ``geometry``, including the
typed-error paths at the edge of the input domain.  Each leaves the other
layers idle, so a change to one layer has a workload that exercises it
and one that bypasses it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from sympgeo import (
    ATOL,
    METHODS,
    Circle,
    CoincidentCentersError,
    CrankConfig,
    Line,
    OscillatorParams,
    ParallelLinesError,
    PhaseState,
    SingularityError,
    SympGeoError,
    Vec2,
    analytic_oscillator,
    circle_tangents,
    crank_state,
    crank_sweep,
    directed_angle,
    ellipse_residual,
    identity_residuals,
    intersect_lines,
    loop_residuals,
    point_circle_tangents,
    rotate,
    simulate,
    tangent_distance_error,
)
from sympgeo.svgplot import PALETTE, SvgPlot

import oracle

# README guarantee tolerances (guarantees 1, 4, 5 and 6).
IDENTITY_RTOL = 1e-9          # 1: * (1 + |a||b||c||d|)
TANGENT_RTOL = 1e-9           # 4: * (1 + |c2 - c1|)
LOOP_RTOL = 1e-8              # 5: * (1 + L + |c|) * (1 + |phi_dot|)^2
FD_RATE_TOL = 1e-5            # 5: rates against central differences
FD_ACCEL_TOL = 1e-3           # 5: accelerations against central differences
ENERGY_DRIFT_TOL = 1e-4       # 6: leapfrog |H - H0| / H0
POSITION_TOL = 1e-4           # 6: leapfrog position at omega*t = 1, per unit amplitude
INTERSECT_RTOL = 1e-8         # 3: * (1 + |exact|), times the condition number off the interior

#: The failure kinds the library is known to produce on each construct-mix
#: boundary family: the baseline listed in CHANGES.md.  Only these are
#: ``boundary`` failures, and only on their own family.
KNOWN_BOUNDARY_KINDS = {
    "tangent_outer": frozenset({"tangent_count"}),
    "tangent_inner": frozenset({"tangent_count"}),
    "point_on_circle": frozenset({"tangent_count"}),
    "identity_1e150": frozenset({"untyped_ValueError"}),
    "circles_1e155": frozenset({"untyped_ValueError"}),
    "lines_1e300": frozenset({"untyped_ValueError", "spurious_ParallelLinesError"}),
}


class Tally:
    """Outcomes of one checked pass over a stream.

    An operation that disagrees with its reference is recorded under one
    or more failure kinds.  When every kind is in ``known``, the kinds the
    library is known to produce on that input's family, the operation is a
    ``boundary`` failure: it counts against ``ops_ok_frac`` and is listed,
    but it is the measured state of the library, not a defect of the run.
    Every other failure is a ``gate`` failure and makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.gate: Counter = Counter()
        self.boundary: Counter = Counter()
        self.gate_ops = 0
        self.boundary_ops = 0
        self.worst = 0.0
        self.counts: Counter = Counter()

    def op(self, kinds: list[str], known: frozenset = frozenset()) -> None:
        self.attempted += 1
        if not kinds:
            return
        if known.issuperset(kinds):
            self.boundary_ops += 1
            self.boundary.update(kinds)
        else:
            self.gate_ops += 1
            self.gate.update(kinds)

    def ratio(self, residual: float, tolerance: float) -> float:
        """Record ``residual / tolerance`` in the worst ratio and return it."""
        r = residual / tolerance
        if not r <= self.worst:
            self.worst = r if r == r else math.inf
        return r

    def absorb(self, other: Tally) -> None:
        """Add another pass's operation outcomes (not its worst ratio)."""
        self.attempted += other.attempted
        self.gate_ops += other.gate_ops
        self.boundary_ops += other.boundary_ops
        self.gate.update(other.gate)
        self.boundary.update(other.boundary)

    def ok_frac(self) -> float:
        return 1.0 - (self.gate_ops + self.boundary_ops) / self.attempted


def outcome_kinds(expected, observed) -> list[str]:
    """Compare an observed result or exception with the expected outcome.

    ``expected`` is ``"result"``, an exception class that must be raised,
    or a tuple ``("result", cls)`` accepting either a result or ``cls``.
    """
    if isinstance(observed, SympGeoError):
        if isinstance(expected, type) and isinstance(observed, expected):
            return []
        if isinstance(expected, tuple) and isinstance(observed, expected[1]):
            return []
        return [f"spurious_{type(observed).__name__}"]
    if isinstance(observed, ValueError):
        return ["untyped_ValueError"]
    if isinstance(observed, Exception):
        return [f"crash_{type(observed).__name__}"]
    if isinstance(expected, type):
        return [f"missing_{expected.__name__}"]
    return []


def attempt(tr, name, fn, *args):
    """Call through the tracer; a raised exception becomes the outcome."""
    try:
        return tr.call(name, fn, *args)
    except Exception as exc:  # judged against the oracle by ``check``
        return exc


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# --------------------------------------------------------------------------
# phase-flow


@dataclass
class OscillatorUnit:
    params: OscillatorParams
    initial: PhaseState
    dt: float
    steps: int
    times: list[float]
    reference: list[tuple[float, float]]  # independent closed form at ``times``
    h0: float
    amplitude: float


class PhaseFlow:
    """Long ``simulate`` runs with all three methods, then energy and analytic checks.

    The item is one integration step.  ``dt`` is a fixed fraction of the
    period (``omega*dt = 0.01``), so every seed integrates the same number
    of steps per period and the energy-drift ratio depends on the method,
    not on the drawn mass and stiffness.
    """

    name = "phase-flow"
    OMEGA_DT = 0.01
    UNITS = 2
    STEPS = 4000
    CHECK_EVERY = 100  # analytic checkpoints, one per omega*t = 1
    cli_argv = ["oscillator", "--mass", "1.5", "--stiffness", "0.75", "--q0", "1",
                "--p0", "0.5", "--dt", "0.01", "--steps", "10000", "--method", "leapfrog",
                "--csv"]
    cli_format = "csv"
    cli_sha256 = "025f6d3c9fbf2d2afa9a5b06b0d9560b54fe417231ccb78f0d06dd3e8eb6a2fb"

    def __init__(self, seed: int) -> None:
        rng = _seeded(self.name, seed)
        steps = self.STEPS
        self.units = []
        for _ in range(self.UNITS):
            mass = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            stiffness = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            radius = rng.uniform(0.5, 2.0)
            angle = rng.uniform(0.0, math.tau)
            omega = math.sqrt(stiffness / mass)
            q0 = radius * math.cos(angle)
            p0 = radius * mass * omega * math.sin(angle)
            dt = self.OMEGA_DT / omega
            times = [k * dt for k in range(self.CHECK_EVERY, steps + 1, self.CHECK_EVERY)]
            reference = [
                (q0 * math.cos(omega * t) + p0 / (mass * omega) * math.sin(omega * t),
                 p0 * math.cos(omega * t) - mass * omega * q0 * math.sin(omega * t))
                for t in times
            ]
            self.units.append(OscillatorUnit(
                OscillatorParams(mass, stiffness), PhaseState(q0, p0, 0.0), dt, steps,
                times, reference, p0 * p0 / (2.0 * mass) + stiffness * q0 * q0 / 2.0,
                math.hypot(q0, p0 / (mass * omega))))

    def inputs(self) -> list:
        return [(u.params.mass, u.params.stiffness, u.initial.q, u.initial.p, u.dt, u.steps)
                for u in self.units]

    def items(self, unit: OscillatorUnit) -> int:
        return len(METHODS) * unit.steps

    def run(self, unit: OscillatorUnit, tr):
        token = tr.begin("phase-flow.item")
        try:
            runs = {}
            for method in METHODS:
                trajectory = tr.call_n(f"dynamics.simulate.{method}", unit.steps, simulate,
                                       unit.initial, unit.params, unit.dt, unit.steps, method)
                runs[method] = (trajectory, [
                    tr.call("dynamics.ellipse_residual", ellipse_residual, s, unit.initial,
                            unit.params)
                    for s in trajectory.states])
            analytic = [tr.call("dynamics.analytic_oscillator", analytic_oscillator, t,
                                unit.initial, unit.params)
                        for t in unit.times]
        finally:
            tr.end(token)
        return runs, analytic

    def check(self, unit: OscillatorUnit, output, tally: Tally) -> None:
        runs, analytic = output
        k = unit.params.stiffness
        m = unit.params.mass
        for method, (trajectory, residuals) in runs.items():
            kinds = []
            states = trajectory.states
            if len(states) != unit.steps + 1 or len(residuals) != len(states):
                tally.op(["trajectory_length"])
                continue
            for s, r in zip(states, residuals):
                own = s.p * s.p / (2.0 * m) + k * s.q * s.q / 2.0 - unit.h0
                if abs(r - own) > 1e-12 * unit.h0:
                    kinds.append("ellipse_residual_mismatch")
                    break
            if method == "explicit_euler":
                if not all(b > a for a, b in zip(residuals, residuals[1:])):
                    kinds.append("euler_energy_not_growing")
            if method == "leapfrog":
                drift = max(abs(r) for r in residuals) / unit.h0
                if tally.ratio(drift, ENERGY_DRIFT_TOL) > 1.0:
                    kinds.append("residual_energy_drift")
                q_ref = unit.reference[0][0]
                error = abs(states[self.CHECK_EVERY].q - q_ref) / unit.amplitude
                if tally.ratio(error, POSITION_TOL) > 1.0:
                    kinds.append("residual_position")
            tally.op(kinds)
        kinds = []
        p_scale = unit.amplitude * m * unit.params.omega
        for state, (q, p) in zip(analytic, unit.reference):
            if abs(state.q - q) > 1e-9 * unit.amplitude or abs(state.p - p) > 1e-9 * p_scale:
                kinds.append("analytic_mismatch")
                break
        tally.op(kinds)


# --------------------------------------------------------------------------
# crank-sweep

SWEEP_SERIES = ("s", "psi_unwrapped", "s_dot", "psi_dot", "s_ddot", "psi_ddot")


@dataclass
class SweepUnit:
    cfg: CrankConfig
    phi_start: float
    phi_end: float
    steps: int
    kind: str                       # "regular" or "singular"
    expect_singular: list[bool]
    expect_near: list[bool]
    loop_tol: float
    scattered: list[float] = field(default_factory=list)
    fd_reference: list[tuple] = field(default_factory=list)


def _rod(cfg_values: tuple[float, float, float], phi: float) -> tuple[float, float]:
    """Independent rod length and angle: the loop closed with ``math`` only."""
    length, cx, cy = cfg_values
    rx = cx - length * math.cos(phi)
    ry = cy - length * math.sin(phi)
    return math.hypot(rx, ry), math.atan2(ry, rx)


def _wrap(theta: float) -> float:
    wrapped = math.remainder(theta, math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


def _finite_differences(values: tuple, phi_dot: float, phi: float) -> tuple:
    """``(s_dot, psi_dot, s_ddot, psi_ddot)`` by central differences of ``_rod``."""
    h = 1e-6
    sp, pp = _rod(values, phi + h)
    sm, pm = _rod(values, phi - h)
    s_dot = phi_dot * (sp - sm) / (2 * h)
    psi_dot = phi_dot * _wrap(pp - pm) / (2 * h)
    h = 1e-4
    s0, p0 = _rod(values, phi)
    sp, pp = _rod(values, phi + h)
    sm, pm = _rod(values, phi - h)
    rate2 = phi_dot * phi_dot
    s_ddot = rate2 * (sp - 2.0 * s0 + sm) / (h * h)
    psi_ddot = rate2 * (_wrap(pp - p0) - _wrap(p0 - pm)) / (h * h)
    return s_dot, psi_dot, s_ddot, psi_ddot


class CrankSweep:
    """Full-turn sweeps of seeded regular cranks plus one with its pivot on the crank circle.

    The item is one crank angle.  The singular configuration has pivot
    ``(L, 0)``, exactly on the crank circle; it is swept once on a grid
    through ``phi = 2*pi*j`` (singular rows) and once shifted by a small
    seeded offset (near-singular rows whose ``1/s`` terms amplify
    roundoff).  The regular pivots lie at 1.15-3 or 0.2-0.85 crank lengths.
    """

    name = "crank-sweep"
    REGULAR = 3
    TURNS = 2
    STEPS_PER_TURN = 900
    SCATTERED = 60
    cli_argv = ["crank", "--length", "1.25", "--pivot", "2.5,0.75", "--phidot", "1.5",
                "--from", "0", "--to", "12.566370614359172", "--steps", "2001",
                "--svg", "perfbench/_work/crank.svg"]
    cli_format = "json"
    cli_sha256 = "79e6200140e89484c4303e60c1907fc9fd633fec09928288ae642429049cd561"

    def __init__(self, seed: int) -> None:
        rng = _seeded(self.name, seed)
        steps = self.TURNS * self.STEPS_PER_TURN + 1
        span = self.TURNS * math.tau
        self.units = []
        for i in range(self.REGULAR):
            length = rng.uniform(0.5, 2.0)
            factor = rng.uniform(1.15, 3.0) if i % 2 == 0 else rng.uniform(0.2, 0.85)
            theta = rng.uniform(0.0, math.tau)
            phi_dot = rng.uniform(0.5, 2.0)
            pivot = Vec2(length * factor * math.cos(theta), length * factor * math.sin(theta))
            values = (length, pivot.x, pivot.y)
            scattered = [rng.uniform(0.0, math.tau) for _ in range(self.SCATTERED)]
            self.units.append(SweepUnit(
                CrankConfig(length, pivot, phi_dot), 0.0, span, steps, "regular",
                [False] * steps, [False] * steps, self._loop_tol(values, phi_dot),
                scattered,
                [(_rod(values, phi), _finite_differences(values, phi_dot, phi))
                 for phi in scattered]))
        length = rng.uniform(0.5, 2.0)
        phi_dot = rng.uniform(0.5, 2.0)
        offset = rng.uniform(5e-8, 5e-7)
        floor = ATOL * (1.0 + length)
        for start in (0.0, offset):
            distances = [abs(_wrap(start + span * (k / (steps - 1)))) for k in range(steps)]
            self.units.append(SweepUnit(
                CrankConfig(length, Vec2(length, 0.0), phi_dot), start, start + span, steps,
                "singular",
                [d * length <= floor for d in distances],
                [d < 1e-6 for d in distances],
                self._loop_tol((length, length, 0.0), phi_dot)))

    @staticmethod
    def _loop_tol(values: tuple, phi_dot: float) -> float:
        length, cx, cy = values
        return LOOP_RTOL * (1.0 + length + math.hypot(cx, cy)) * (1.0 + abs(phi_dot)) ** 2

    def inputs(self) -> list:
        return [(u.cfg.crank_length, u.cfg.pivot_c.x, u.cfg.pivot_c.y, u.cfg.phi_dot,
                 u.phi_start, u.phi_end, u.steps, tuple(u.scattered)) for u in self.units]

    def items(self, unit: SweepUnit) -> int:
        return unit.steps

    def run(self, unit: SweepUnit, tr):
        token = tr.begin("crank-sweep.item")
        try:
            cfg = unit.cfg
            entries = tr.call_n(f"kinematics.crank_sweep.{unit.kind}", unit.steps,
                                crank_sweep, cfg, unit.phi_start, unit.phi_end, unit.steps)
            residuals = [tr.call("kinematics.loop_residuals", loop_residuals, cfg, e.state)
                         for e in entries if e.state is not None]
            states = [tr.call("kinematics.crank_state", crank_state, cfg, phi)
                      for phi in unit.scattered]
            plot = SvgPlot("slider-crank sweep")
            for name, color in zip(SWEEP_SERIES, PALETTE):
                runs: list[list[tuple[float, float]]] = [[]]
                for e in entries:
                    if e.state is None:
                        if runs[-1]:
                            runs.append([])
                        continue
                    value = (e.psi_unwrapped if name == "psi_unwrapped"
                             else getattr(e.state, name))
                    runs[-1].append((e.phi, value))
                for points in runs:
                    if len(points) >= 2:
                        plot.polyline(points, color=color, label=name)
            svg = tr.call("svgplot.SvgPlot.to_svg", plot.to_svg)
        finally:
            tr.end(token)
        return entries, residuals, states, len(svg.encode())

    def check(self, unit: SweepUnit, output, tally: Tally) -> None:
        entries, residuals, states, svg_bytes = output
        tally.counts["svg_bytes"] += svg_bytes
        tally.counts["svg_calls"] += 1
        if len(entries) != unit.steps:
            tally.op(["sweep_length"])
            return
        for e, singular, near in zip(entries, unit.expect_singular, unit.expect_near):
            tally.counts["singular_rows"] += e.singular
            tally.counts["near_singular_rows"] += e.near_singular
            kinds = []
            if e.singular != singular or e.near_singular != near:
                kinds.append("singular_flag")
            tally.op(kinds)
        regular = [e for e in entries if e.state is not None]
        if len(residuals) != len(regular):
            tally.op(["residual_count"])
            return
        for r in residuals:
            worst = max(r)
            tally.op(["residual_loop_closure"]
                     if tally.ratio(worst, unit.loop_tol) > 1.0 else [])
        for st, ((s_ref, psi_ref), fd) in zip(states, unit.fd_reference):
            kinds = []
            if abs(st.s - s_ref) > 1e-12 * (1.0 + s_ref) or abs(_wrap(st.psi - psi_ref)) > 1e-12:
                kinds.append("position_mismatch")
            rates = max(abs(st.s_dot - fd[0]), abs(st.psi_dot - fd[1])) / FD_RATE_TOL
            accels = max(abs(st.s_ddot - fd[2]), abs(st.psi_ddot - fd[3])) / FD_ACCEL_TOL
            if tally.ratio(max(rates, accels), 1.0) > 1.0:
                kinds.append("residual_finite_difference")
            tally.op(kinds)


# --------------------------------------------------------------------------
# construct-mix

INTERIOR_FAMILIES = ("identity", "intersect", "disjoint", "overlapping", "contained",
                     "point", "rotate", "angle")
BOUNDARY_FAMILIES = ("tangent_outer", "tangent_inner", "point_on_circle", "parallel",
                     "near_parallel", "coincident", "identity_1e150", "identity_1e-150",
                     "circles_1e150", "circles_1e155", "lines_1e300")
LINE_FAMILIES = ("intersect", "parallel", "near_parallel", "lines_1e300")


@dataclass
class Construction:
    family: str
    args: tuple
    expected: object                 # "result", an exception class, or ("result", cls)
    count: int | None = None         # expected tangent entries
    reference: float = 0.0           # tolerance scale, or the reference angle
    exact: tuple | None = None       # exact (lam, mu, px, py) of a line intersection


def _vec(rng: random.Random, span: float) -> tuple[float, float]:
    return (rng.uniform(-span, span), rng.uniform(-span, span))


def _direction(rng: random.Random) -> tuple[float, float]:
    angle = rng.uniform(0.0, math.tau)
    return (math.cos(angle), math.sin(angle))


class ConstructMix:
    """A seeded stream of small independent constructions.

    The item is one construction.  Interior items cycle through eight
    families in fixed proportion; every ``BOUNDARY_EVERY``-th item is
    taken from the boundary slice instead (exact tangencies rotated
    through seeded angles, parallel and near-parallel lines, coincident
    centres, magnitudes near 1e+-150 and 1e300), whose expected outcomes
    come from the exact-rational oracle.
    """

    name = "construct-mix"
    ITEMS = 8000
    CHUNK = 500
    BOUNDARY_EVERY = 25
    cli_argv = ["identities", "--samples", "6000", "--seed", "11", "--csv"]
    cli_format = "csv"
    cli_sha256 = "5ebb783a3561ba636d166e327e673db12a293ebce253f2bb53dd60957bdad895"

    def __init__(self, seed: int) -> None:
        rng = _seeded(self.name, seed)
        items = []
        for i in range(self.ITEMS):
            if i % self.BOUNDARY_EVERY == self.BOUNDARY_EVERY - 1:
                k = i // self.BOUNDARY_EVERY
                family = BOUNDARY_FAMILIES[k % len(BOUNDARY_FAMILIES)]
                items.append(self._boundary(family, rng))
            else:
                items.append(self._interior(INTERIOR_FAMILIES[i % len(INTERIOR_FAMILIES)], rng))
        self.units = [items[i:i + self.CHUNK] for i in range(0, self.ITEMS, self.CHUNK)]

    # -- input generation -------------------------------------------------

    def _circles(self, family: str, rng: random.Random, scale: float = 1.0) -> Construction:
        r1, r2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        if family in ("disjoint", "circles_1e150", "circles_1e155"):
            d = (r1 + r2) * rng.uniform(1.05, 3.0)
        elif family == "overlapping":
            lo, hi = abs(r1 - r2), r1 + r2
            d = lo + (hi - lo) * rng.uniform(0.1, 0.9)
        elif family == "contained":
            r2 = r1 * rng.uniform(0.2, 0.5)
            d = abs(r1 - r2) * rng.uniform(0.05, 0.9)
        elif family == "tangent_outer":
            d = r1 + r2
        else:  # tangent_inner
            while r1 == r2:
                r2 = rng.uniform(0.2, 2.0)
            d = abs(r1 - r2)
        ux, uy = _direction(rng)
        x1, y1 = _vec(rng, 5.0)
        c1 = (x1 * scale, y1 * scale, r1 * scale)
        c2 = ((x1 + d * ux) * scale, (y1 + d * uy) * scale, r2 * scale)
        count = oracle.tangent_entries(ATOL, c1, c2)
        expected = CoincidentCentersError if count is None else "result"
        circles = (Circle(Vec2(c1[0], c1[1]), c1[2]), Circle(Vec2(c2[0], c2[1]), c2[2]))
        return Construction(family, circles, expected, count, 1.0 + d * scale)

    def _identity(self, family: str, rng: random.Random, scale: float) -> Construction:
        vectors = [tuple(c * scale for c in _vec(rng, 10.0)) for _ in range(4)]
        expected = "result" if oracle.products_fit(vectors) else ("result", SingularityError)
        norms = [math.hypot(*v) for v in vectors]
        tol = IDENTITY_RTOL * (1.0 + norms[0] * norms[1] * norms[2] * norms[3])
        return Construction(family, tuple(Vec2(*v) for v in vectors), expected,
                            reference=tol)

    def _lines(self, family: str, rng: random.Random, u: tuple, v: tuple) -> Construction:
        """Two lines; off the interior family the tolerance grows with the condition number."""
        a, b = _vec(rng, 5.0), _vec(rng, 5.0)
        lines = (Line(Vec2(*a), Vec2(*u)), Line(Vec2(*b), Vec2(*v)))
        if oracle.parallel(ATOL, u, v):
            return Construction(family, lines, ParallelLinesError)
        exact = oracle.intersection(a, u, b, v)
        expected = "result" if exact is not None else ("result", SingularityError)
        reference = 1.0 if family == "intersect" else oracle.condition(u, v)
        return Construction(family, lines, expected, reference=reference, exact=exact)

    def _point(self, family: str, rng: random.Random, factor: float) -> Construction:
        cx, cy = _vec(rng, 5.0)
        r = rng.uniform(0.2, 2.0)
        ux, uy = _direction(rng)
        p = (cx + r * factor * ux, cy + r * factor * uy)
        count = oracle.point_tangent_entries(ATOL, p, (cx, cy, r))
        return Construction(family, (Vec2(*p), Circle(Vec2(cx, cy), r), Circle(Vec2(*p), 0.0)),
                            "result", count, 1.0 + r * factor)

    def _interior(self, family: str, rng: random.Random) -> Construction:
        if family == "identity":
            return self._identity(family, rng, 1.0)
        if family == "intersect":
            while True:
                u, v = _vec(rng, 3.0), _vec(rng, 3.0)
                cross = u[0] * v[1] - u[1] * v[0]
                if abs(cross) > 1e-3 * math.hypot(*u) * math.hypot(*v):
                    return self._lines(family, rng, u, v)
        if family in ("disjoint", "overlapping", "contained"):
            return self._circles(family, rng)
        if family == "point":
            factor = rng.uniform(1.05, 3.0) if rng.random() < 0.5 else rng.uniform(0.1, 0.9)
            return self._point(family, rng, factor)
        a = _vec(rng, 10.0)
        while a == (0.0, 0.0):
            a = _vec(rng, 10.0)
        if family == "rotate":
            return Construction(family, (Vec2(*a), rng.uniform(-10.0, 10.0)), "result")
        b = _vec(rng, 10.0)
        reference = _wrap(math.atan2(b[1], b[0]) - math.atan2(a[1], a[0]))
        return Construction(family, (Vec2(*a), Vec2(*b)), "result", reference=reference)

    def _boundary(self, family: str, rng: random.Random) -> Construction:
        if family in ("tangent_outer", "tangent_inner"):
            return self._circles(family, rng)
        if family == "point_on_circle":
            return self._point(family, rng, 1.0)
        if family == "parallel":
            u = _vec(rng, 3.0)
            k = rng.choice((-2.0, -1.0, 0.5, 4.0))
            return self._lines(family, rng, u, (u[0] * k, u[1] * k))
        if family == "near_parallel":
            u = _direction(rng)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -9.0)
            return self._lines(family, rng, u, (u[0] - eps * u[1], u[1] + eps * u[0]))
        if family == "coincident":
            c = _vec(rng, 5.0)
            r1, r2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            return Construction(family, (Circle(Vec2(*c), r1), Circle(Vec2(*c), r2)),
                                CoincidentCentersError)
        if family == "identity_1e150":
            return self._identity(family, rng, 1e150)
        if family == "identity_1e-150":
            return self._identity(family, rng, 1e-150)
        if family == "circles_1e150":
            return self._circles(family, rng, 1e150)
        if family == "circles_1e155":
            return self._circles(family, rng, 1e155)
        # lines_1e300: perpendicular-ish directions of magnitude 1e300
        u = _direction(rng)
        turn = rng.uniform(0.3, math.pi - 0.3)
        v = (u[0] * math.cos(turn) - u[1] * math.sin(turn),
             u[0] * math.sin(turn) + u[1] * math.cos(turn))
        return self._lines(family, rng, (u[0] * 1e300, u[1] * 1e300),
                           (v[0] * 1e300, v[1] * 1e300))

    def inputs(self) -> list:
        return [(c.family, repr(c.args)) for unit in self.units for c in unit]

    # -- stream -------------------------------------------------------------

    def items(self, unit: list[Construction]) -> int:
        return len(unit)

    def run(self, unit: list[Construction], tr):
        outputs = []
        for c in unit:
            token = tr.begin("construct-mix.item")
            try:
                family = c.family
                if family.startswith("identity"):
                    res = attempt(tr, "core.identity_residuals", identity_residuals, *c.args)
                    if not isinstance(res, Exception):
                        res = attempt(tr, "core.IdentityResiduals.magnitudes", res.magnitudes)
                elif family in LINE_FAMILIES:
                    res = attempt(tr, "geometry.intersect_lines", intersect_lines, *c.args)
                elif family in ("point", "point_on_circle"):
                    p, circle, point = c.args
                    res = attempt(tr, "geometry.point_circle_tangents", point_circle_tangents,
                                  p, circle)
                    if not isinstance(res, Exception):
                        res = _with_distances(tr, res, circle, point)
                elif family == "rotate":
                    res = attempt(tr, "core.rotate", rotate, *c.args)
                elif family == "angle":
                    res = attempt(tr, "core.directed_angle", directed_angle, *c.args)
                else:
                    res = attempt(tr, "geometry.circle_tangents", circle_tangents, *c.args)
                    if not isinstance(res, Exception):
                        res = _with_distances(tr, res, *c.args)
            finally:
                tr.end(token)
            outputs.append(res)
        return outputs

    def check(self, unit: list[Construction], outputs, tally: Tally) -> None:
        for c, res in zip(unit, outputs):
            kinds = outcome_kinds(c.expected, res)
            if not kinds and not isinstance(res, Exception):
                kinds = self._check_result(c, res, tally)
            tally.op(kinds, KNOWN_BOUNDARY_KINDS.get(c.family, frozenset()))

    def _check_result(self, c: Construction, res, tally: Tally) -> list[str]:
        family = c.family
        if family.startswith("identity"):
            worst = max(res.values())
            return ["residual_identity"] if tally.ratio(worst, c.reference) > 1.0 else []
        if family in LINE_FAMILIES:
            if c.exact is None:
                return []
            tol = INTERSECT_RTOL * c.reference
            got = (res.lam, res.mu, res.point.x, res.point.y)
            # ``not <=`` so that a NaN fails too
            if any(not abs(g - e) <= tol * (1.0 + abs(e)) for g, e in zip(got, c.exact)):
                return ["residual_intersection"]
            return []
        if family == "rotate":
            a = c.args[0]
            before, after = math.hypot(a.x, a.y), math.hypot(res.x, res.y)
            return ["rotate_norm"] if abs(after - before) > 1e-12 * before else []
        if family == "angle":
            return ["angle_mismatch"] if abs(_wrap(res - c.reference)) > 1e-12 else []
        tangents, errors = res
        tally.counts["tangents_returned"] += len(tangents)
        tally.counts["tangents_expected"] += c.count
        kinds = []
        if len(tangents) != c.count:
            kinds.append("tangent_count")
        if errors and tally.ratio(max(errors), TANGENT_RTOL * c.reference) > 1.0:
            kinds.append("residual_tangent_distance")
        return kinds


def _with_distances(tr, tangents, c1, c2):
    """``(tangents, distance errors)``, or the first exception a distance call raised."""
    errors = [attempt(tr, "geometry.tangent_distance_error", tangent_distance_error, t, c1, c2)
              for t in tangents]
    raised = next((e for e in errors if isinstance(e, Exception)), None)
    return (tangents, errors) if raised is None else raised


WORKLOADS = {cls.name: cls for cls in (PhaseFlow, CrankSweep, ConstructMix)}
