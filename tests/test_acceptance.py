"""End-to-end acceptance gate.

One test per advertised guarantee (the README lists the same seven), each
at its stated tolerance and runtime budget, each printing a single
PASS/FAIL verdict line.  Run ``pytest tests/test_acceptance.py -v -s`` to
see the checklist; the module-level suites carry the finer diagnostics.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from sympgeo import (
    Circle,
    CrankConfig,
    PhaseState,
    Vec2,
    analytic_oscillator,
    circle_tangents,
    crank_state,
    dot,
    hamiltonian,
    identity_residuals,
    intersect_lines,
    jacobi_triangle_residual,
    loop_residuals,
    norm,
    simulate,
    symp,
    tangent_distance_error,
    tilde,
    wrap_angle,
)
from sympgeo.dynamics import EXPLICIT_EULER, LEAPFROG, SYMPLECTIC_EULER, OscillatorParams
from sympgeo.geometry import Line


def verdict(label: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "" if elapsed is None else f"  [{elapsed:.3f}s]"
    print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"acceptance {label} failed"


def random_vec(rng, span=10.0):
    return Vec2(rng.uniform(-span, span), rng.uniform(-span, span))


def test_acceptance_01_identity_residuals_on_10000_quadruples():
    rng = random.Random(1)
    start = time.perf_counter()
    ok = True
    for _ in range(10_000):
        a, b, c, d = (random_vec(rng) for _ in range(4))
        bound = 1e-9 * (1.0 + norm(a) * norm(b) * norm(c) * norm(d))
        if any(v > bound for v in identity_residuals(a, b, c, d).magnitudes().values()):
            ok = False
    elapsed = time.perf_counter() - start
    verdict("1 (five identities, 10000 quadruples, scaled 1e-9)", ok and elapsed < 1.0, elapsed)


def test_acceptance_02_product_structure_compatibility():
    rng = random.Random(2)
    ok = True
    for _ in range(10_000):
        a, b = random_vec(rng), random_vec(rng)
        ta, tb = tilde(a), tilde(b)
        pairs = (
            (dot(ta, tb), dot(a, b)),
            (symp(ta, tb), symp(a, b)),
            (dot(a, b), symp(a, tb)),
        )
        for lhs, rhs in pairs:
            if abs(lhs - rhs) > 1e-12 * max(1e-300, abs(lhs), abs(rhs)):
                ok = False
    verdict("2 (quarter-turn compatibility, 10000 pairs, 1e-12 relative)", ok)


def test_acceptance_03_intersection_agrees_with_linear_solver():
    rng = random.Random(3)
    cases = []
    while len(cases) < 1000:
        p1, u = random_vec(rng), random_vec(rng)
        p2, v = random_vec(rng), random_vec(rng)
        if abs(symp(u, v)) <= 1e-3 * norm(u) * norm(v):
            continue
        cases.append((p1, u, p2, v))

    start = time.perf_counter()
    points = []
    ok = True
    for p1, u, p2, v in cases:
        hit = intersect_lines(Line(p1, u), Line(p2, v))
        points.append((hit.point.x, hit.point.y))
        a = p2 - p1
        bound = 1e-9 * (1.0 + norm(u) * norm(v) * norm(a))
        if norm(jacobi_triangle_residual(u, v, a)) > bound:
            ok = False

    matrices = np.array([[[u.x, -v.x], [u.y, -v.y]] for _, u, _, v in cases])
    rhs = np.array([[p2.x - p1.x, p2.y - p1.y] for p1, _, p2, _ in cases])
    lam_mu = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
    anchors = np.array([[p1.x, p1.y] for p1, _, _, _ in cases])
    directions = np.array([[u.x, u.y] for _, u, _, _ in cases])
    oracle_points = anchors + lam_mu[:, :1] * directions
    gap = float(np.max(np.abs(np.asarray(points) - oracle_points)))
    elapsed = time.perf_counter() - start

    ok = ok and gap <= 1e-8
    verdict("3 (1000 intersections vs 2x2 solve, 1e-8 abs)", ok and elapsed < 1.0, elapsed)


N_ORACLE_ANGLES = 1_000_000
_THETA = np.linspace(0.0, math.tau, N_ORACLE_ANGLES, endpoint=False)
_COS, _SIN = np.cos(_THETA), np.sin(_THETA)


def oracle_tangent_count(c1: Circle, c2: Circle) -> int:
    """Count tangents by sign changes of the center-distance defect over a
    dense sweep of candidate touch angles on the first circle."""
    ax = c2.center.x - c1.center.x
    ay = c2.center.y - c1.center.y
    below = np.signbit(np.abs(ax * _COS + ay * _SIN - c1.radius) - c2.radius)
    return int(np.count_nonzero(below != np.roll(below, 1)))


def test_acceptance_04_tangent_distances_and_counts():
    # Hand anchor first: unit circles four apart, outer pair y = +-1.
    c1, c2 = Circle(Vec2(0.0, 0.0), 1.0), Circle(Vec2(4.0, 0.0), 1.0)
    anchor_tangents = circle_tangents(c1, c2)
    outer_y = sorted(t.touch1.y for t in anchor_tangents if t.kind == "outer")
    ok = (len(anchor_tangents) == 4
          and abs(outer_y[0] + 1.0) <= 1e-12 and abs(outer_y[1] - 1.0) <= 1e-12
          and all(abs(t.touch2.y - t.touch1.y) <= 1e-12
                  for t in anchor_tangents if t.kind == "outer"))

    rng = random.Random(4)
    mismatches = 0
    worst_error = 0.0
    for case in range(1000):
        r1, r2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        family = case % 3
        if family == 0:
            d = (r1 + r2) * rng.uniform(1.05, 3.0)
        elif family == 1:
            lo, hi = abs(r1 - r2), r1 + r2
            d = lo + (hi - lo) * rng.uniform(0.1, 0.9)
        else:
            r2 = r1 * rng.uniform(0.2, 0.5)
            d = abs(r1 - r2) * rng.uniform(0.05, 0.9)
        angle = rng.uniform(0.0, math.tau)
        center1 = random_vec(rng, span=5.0)
        c1 = Circle(center1, r1)
        c2 = Circle(center1 + Vec2(d * math.cos(angle), d * math.sin(angle)), r2)
        tangents = circle_tangents(c1, c2)
        if len(tangents) != oracle_tangent_count(c1, c2):
            mismatches += 1
        for t in tangents:
            worst_error = max(worst_error, tangent_distance_error(t, c1, c2) / (1.0 + d))

    ok = ok and mismatches == 0 and worst_error <= 1e-9
    verdict("4 (1000 circle pairs: counts vs dense oracle, distances 1e-9 scaled)", ok)


def test_acceptance_05_crank_derivatives_and_loop_closures():
    rng = random.Random(5)
    configs = []
    for i in range(20):
        length = rng.uniform(0.5, 2.0)
        factor = rng.uniform(1.15, 3.0) if i % 2 == 0 else rng.uniform(0.2, 0.85)
        theta = rng.uniform(0.0, math.tau)
        pivot = Vec2(length * factor * math.cos(theta), length * factor * math.sin(theta))
        configs.append(CrankConfig(length, pivot, rng.uniform(0.5, 2.0)))

    start = time.perf_counter()
    ok = True
    for cfg in configs:
        rate2 = cfg.phi_dot * cfg.phi_dot
        scale = (1.0 + cfg.crank_length + norm(cfg.pivot_c)) * (1.0 + abs(cfg.phi_dot)) ** 2
        for k in range(361):
            phi = math.tau * k / 360.0
            state = crank_state(cfg, phi)

            # The oracles difference only the position fields s and psi.
            h = 1e-6
            plus, minus = crank_state(cfg, phi + h), crank_state(cfg, phi - h)
            if abs(state.s_dot - cfg.phi_dot * (plus.s - minus.s) / (2 * h)) > 1e-5:
                ok = False
            psi_fd = cfg.phi_dot * wrap_angle(plus.psi - minus.psi) / (2 * h)
            if abs(state.psi_dot - psi_fd) > 1e-5:
                ok = False

            h = 1e-4
            plus, minus = crank_state(cfg, phi + h), crank_state(cfg, phi - h)
            if abs(state.s_ddot - rate2 * (plus.s - 2.0 * state.s + minus.s) / (h * h)) > 1e-3:
                ok = False
            psi_fd = rate2 * (wrap_angle(plus.psi - state.psi)
                              - wrap_angle(state.psi - minus.psi)) / (h * h)
            if abs(state.psi_ddot - psi_fd) > 1e-3:
                ok = False

            if any(r > 1e-8 * scale for r in loop_residuals(cfg, state)):
                ok = False
    elapsed = time.perf_counter() - start
    verdict("5 (20 cranks x 361 angles: FD 1e-5/1e-3, closures 1e-8 scaled)",
            ok and elapsed < 2.0, elapsed)


def test_acceptance_06_oscillator_accuracy_and_energy_behavior():
    params = OscillatorParams(1.0, 1.0)
    initial = PhaseState(1.0, 0.0)
    h0 = hamiltonian(initial, params)
    start = time.perf_counter()

    final = simulate(initial, params, 0.01, 100, LEAPFROG).states[-1]
    q_ok = abs(final.q - analytic_oscillator(1.0, initial, params).q) <= 1e-4

    long_run = simulate(initial, params, 0.01, 100_000, LEAPFROG)
    drift = max(abs(hamiltonian(s, params) - h0) for s in long_run.states)
    drift_ok = drift <= 1e-4 * h0

    euler_run = simulate(initial, params, 0.01, 100_000, EXPLICIT_EULER)
    energies = [hamiltonian(s, params) for s in euler_run.states]
    growth_ok = all(b > a for a, b in zip(energies, energies[1:]))

    def q_error(method, dt):
        run = simulate(initial, params, dt, round(1.0 / dt), method)
        return abs(run.states[-1].q - math.cos(1.0))

    ratio_se = q_error(SYMPLECTIC_EULER, 0.01) / q_error(SYMPLECTIC_EULER, 0.005)
    ratio_lf = q_error(LEAPFROG, 0.01) / q_error(LEAPFROG, 0.005)
    order_ok = 1.8 <= ratio_se <= 2.2 and 3.6 <= ratio_lf <= 4.4

    elapsed = time.perf_counter() - start
    verdict("6 (leapfrog accuracy/drift, Euler growth, convergence orders)",
            q_ok and drift_ok and growth_ok and order_ok and elapsed < 5.0, elapsed)


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "sympgeo", *argv],
                          capture_output=True, timeout=60)


def test_acceptance_07_cli_determinism_and_exit_codes():
    start = time.perf_counter()

    argv = ["identities", "--samples", "200", "--seed", "123"]
    first, second = run_cli(argv), run_cli(argv)
    deterministic = (first.returncode == 0 and first.stdout == second.stdout
                     and first.stdout != b"")
    schema_ok = list(json.loads(first.stdout)) == ["subcommand", "input", "results", "residuals"]

    matrix = [
        (["tangents", "--c1", "0,0,1", "--c2", "4,0,1"], 0),
        (["identities", "--samples", "0"], 1),
        (["intersect", "--a", "0,0", "--u", "1,1", "--b", "1,0", "--v", "1,1"], 2),
        (["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1",
          "--p0", "0", "--dt=-0.1", "--steps", "10", "--method", "leapfrog"], 3),
    ]
    codes_ok = all(run_cli(args).returncode == expected for args, expected in matrix)

    elapsed = time.perf_counter() - start
    verdict("7 (byte-stable seeded JSON, exit codes 0/1/2/3)",
            deterministic and schema_ok and codes_ok and elapsed < 2.0, elapsed)
