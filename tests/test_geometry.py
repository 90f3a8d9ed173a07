"""Constructions layer: anchored figures plus randomized oracle comparisons."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sympgeo import (
    ATOL,
    Circle,
    CoincidentCentersError,
    DegenerateDenominatorError,
    Line,
    NumericalOverflowError,
    ParallelLinesError,
    Tangent,
    Vec2,
    ZeroDirectionError,
    circle_tangents,
    collinearity_residual,
    cross_ratio,
    dot,
    intersect_lines,
    is_collinear,
    jacobi_triangle_residual,
    norm,
    point_circle_tangents,
    project_point_onto_line,
    simple_ratio,
    symp,
    tangent_distance_error,
)

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.builds(Vec2, coords, coords)


def shoelace_doubled_area(a, b, c):
    """Independent signed-area oracle with a different grouping of terms."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


# ----------------------------------------------------------- collinearity


def test_collinearity_residual_anchor_values():
    assert collinearity_residual(Vec2(0.0, 1.0), Vec2(1.0, 1.0), Vec2(3.0, 1.0)) == 0.0
    assert collinearity_residual(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == 1.0


def test_collinearity_residual_flips_sign_under_swap():
    a, b, c = Vec2(0.2, -1.0), Vec2(3.0, 0.5), Vec2(-1.0, 4.0)
    assert collinearity_residual(a, c, b) == -collinearity_residual(a, b, c)


@given(points, points, points)
def test_collinearity_residual_matches_shoelace(a, b, c):
    scale = 1.0 + max(norm(a), norm(b), norm(c)) ** 2
    assert abs(collinearity_residual(a, b, c) - shoelace_doubled_area(a, b, c)) <= 1e-9 * scale


@pytest.mark.parametrize("a, b, c", [
    (Vec2(0.0, 0.0), Vec2(1e200, 1e200), Vec2(1e200, 1e200)),
    (Vec2(1e300, 1e300), Vec2(-1e300, 1e300), Vec2(1e300, -1e300)),
    (Vec2(1e308, 1e308), Vec2(-1e308, 1e308), Vec2(1e308, -1e308)),
], ids=["coincident-1e200", "triangle-1e300", "triangle-1e308"])
def test_collinearity_residual_overflow_is_typed(a, b, c):
    # Finite points whose areas overflow: the sum would be NaN or infinite.
    with pytest.raises(NumericalOverflowError, match="collinearity residual overflows"):
        collinearity_residual(a, b, c)


def test_is_collinear_anchor_values():
    assert is_collinear(Vec2(0.0, 1.0), Vec2(1.0, 1.0), Vec2(3.0, 1.0))
    assert not is_collinear(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    assert is_collinear(Vec2(0.0, 1.0), Vec2(1.0, 1.0 + 1e-12), Vec2(3.0, 1.0))


@pytest.mark.parametrize("k", [-15, -40, -60])
def test_is_collinear_verdicts_hold_at_small_scales(k):
    # The scale is the figure's own, with no floor at 1.0.
    s = 2.0 ** k
    assert not is_collinear(Vec2(0.0, 0.0), Vec2(s, 0.0), Vec2(0.0, s))
    assert is_collinear(Vec2(0.0, 0.0), Vec2(s, 0.0), Vec2(2.0 * s, 0.0))
    # A needle with a vertex at the origin: every point is within s*1e-25
    # of one line.
    assert is_collinear(Vec2(0.0, 0.0), Vec2(s, 0.0), Vec2(0.0, s * 1e-25))


@pytest.mark.parametrize("k", [-540, -560, -600])
def test_is_collinear_verdicts_hold_where_the_edge_products_underflow(k):
    # symp and every product of two edge lengths round to 0.0 unscaled.
    s = 2.0 ** k
    assert not is_collinear(Vec2(0.0, 0.0), Vec2(s, 0.0), Vec2(0.0, s))
    assert is_collinear(Vec2(0.0, 0.0), Vec2(s, 0.0), Vec2(2.0 * s, 0.0))


def test_is_collinear_verdicts_hold_where_the_edge_products_overflow():
    assert not is_collinear(Vec2(1e200, 0.0), Vec2(-1e200, 0.0), Vec2(0.0, 1e200))
    assert is_collinear(Vec2(1e200, 0.0), Vec2(-1e200, 0.0), Vec2(0.0, 0.0))
    # Here the edge differences overflow too.
    assert not is_collinear(Vec2(-1.5e308, 0.0), Vec2(1.5e308, 0.0), Vec2(0.0, 1.5e308))
    assert is_collinear(Vec2(-1.5e308, 0.0), Vec2(0.0, 0.0), Vec2(1.5e308, 0.0))


def test_is_collinear_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        is_collinear(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0), tol=-1.0)


@given(points, points, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_points_on_a_parametrized_line_are_collinear(a, d, t):
    if norm(d) < 1e-3 or norm(a) > 50.0:
        return
    b = a + d
    c = a + d * t
    assert is_collinear(a, b, c, tol=1e-7)


# ------------------------------------------------------------ simple ratio


def test_simple_ratio_anchor():
    a, b, c = Vec2(0.0, 1.0), Vec2(1.0, 1.0), Vec2(3.0, 1.0)
    assert simple_ratio(a, b, c) == 0.5


def test_simple_ratio_is_invariant_under_scaling_the_middle_point():
    a, c = Vec2(0.0, 1.0), Vec2(3.0, 1.0)
    assert simple_ratio(a, Vec2(2.0, 2.0), c) == 0.5


def test_simple_ratio_of_coincident_endpoints_is_zero():
    b, c = Vec2(1.0, 1.0), Vec2(3.0, 1.0)
    assert simple_ratio(b, b, c) == 0.0


def test_simple_ratio_degenerate_denominator():
    with pytest.raises(DegenerateDenominatorError):
        simple_ratio(Vec2(1.0, 0.0), Vec2(2.0, 0.0), Vec2(4.0, 0.0))


@pytest.mark.parametrize("a, b, c", [
    # Both areas overflow: inf / -inf is NaN.
    (Vec2(1e300, 1e300), Vec2(1e300, -1e300), Vec2(1e300, 1e300)),
    # Only the denominator 1e310 overflows: 1e308 / inf is 0.0, not 0.01.
    (Vec2(1e8, 0.0), Vec2(0.0, 1e300), Vec2(-1e10, 0.0)),
    # Finite areas 1e300 and 1e-10, but the ratio 1e310 overflows.
    (Vec2(1.0, 0.0), Vec2(0.0, 1e300), Vec2(-1e-310, 0.0)),
])
def test_simple_ratio_overflow_raises_a_typed_overflow(a, b, c):
    with pytest.raises(NumericalOverflowError, match="simple ratio overflows"):
        simple_ratio(a, b, c)


# ------------------------------------------------------------- cross ratio


def test_cross_ratio_anchor():
    a, b, c, d = (Vec2(float(i), 1.0) for i in range(4))
    assert cross_ratio(a, b, c, d) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_cross_ratio_with_c_equal_a_is_zero():
    a, b, d = Vec2(0.0, 1.0), Vec2(1.0, 1.0), Vec2(3.0, 1.0)
    assert cross_ratio(a, b, a, d) == 0.0


def test_cross_ratio_swap_of_last_pair_inverts():
    a, b, c, d = Vec2(0.0, 1.0), Vec2(1.0, 1.0), Vec2(2.0, 1.0), Vec2(5.0, 1.0)
    assert cross_ratio(a, b, d, c) == pytest.approx(1.0 / cross_ratio(a, b, c, d), rel=1e-12)


def test_cross_ratio_degenerate_denominator():
    a = Vec2(1.0, 1.0)
    with pytest.raises(DegenerateDenominatorError):
        cross_ratio(a, a, Vec2(2.0, 2.0), a)


@pytest.mark.parametrize("a, b, c, d", [
    # symp(b, c) and symp(b, d) overflow.
    (Vec2(1e300, 0.0), Vec2(0.0, 1e300), Vec2(1e300, 1e300), Vec2(-1e300, 1e300)),
    # Every area is +-1e200, finite, but both products overflow; the ratio is -1.
    (Vec2(1e100, 0.0), Vec2(0.0, 1e100), Vec2(-1e100, 1e100), Vec2(1e100, 1e100)),
])
def test_cross_ratio_overflow_raises_a_typed_overflow(a, b, c, d):
    with pytest.raises(NumericalOverflowError, match="cross ratio overflows"):
        cross_ratio(a, b, c, d)


def test_cross_ratio_is_translation_invariant_for_collinear_points():
    # The four points ride one line; the reference origin moves instead.
    rng = random.Random(7)
    for _ in range(100):
        anchor = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        direction = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if norm(direction) < 0.1 or norm(anchor) < 0.1:
            continue
        ts = sorted(rng.uniform(-4, 4) for _ in range(4))
        if min(b - a for a, b in zip(ts, ts[1:])) < 0.05:
            continue
        quad = [anchor + direction * t for t in ts]
        shift = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
        shifted = [p + shift for p in quad]
        base = cross_ratio(*quad)
        moved = cross_ratio(*shifted)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ intersection


def test_intersect_lines_anchor():
    l1 = Line(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    l2 = Line(Vec2(2.0, 2.0), Vec2(0.0, 1.0))
    hit = intersect_lines(l1, l2)
    assert hit.point == Vec2(2.0, 0.0)
    assert hit.lam == 2.0
    assert hit.mu == -2.0


def test_intersect_lines_parallel_raises():
    l1 = Line(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    l2 = Line(Vec2(1.0, 0.0), Vec2(1.0, 1.0))
    with pytest.raises(ParallelLinesError):
        intersect_lines(l1, l2)


def test_intersect_lines_anchor_point_on_first_line():
    l1 = Line(Vec2(-1.0, 2.0), Vec2(2.0, 0.5))
    l2 = Line(l1.at(1.5), Vec2(0.3, -1.0))
    hit = intersect_lines(l1, l2)
    assert norm(hit.point - l1.at(1.5)) <= 1e-12
    assert abs(hit.mu) <= 1e-12


def test_line_rejects_zero_direction():
    with pytest.raises(ZeroDirectionError):
        Line(Vec2(1.0, 1.0), Vec2(0.0, 0.0))


def test_line_point_overflow_raises_a_typed_overflow():
    line = Line(Vec2(0.0, 0.0), Vec2(1e300, 0.0))
    assert line.at(1e8) == Vec2(1e308, 0.0)
    with pytest.raises(NumericalOverflowError, match="at t=10000000000.0 overflows"):
        line.at(1e10)
    # A non-finite parameter is invalid input, not an overflow.
    with pytest.raises(ValueError, match="must be finite"):
        Line(Vec2(0.0, 0.0), Vec2(0.0, 1.0)).at(math.inf)


@given(points, points, points, points)
def test_intersect_lines_closure(p1, d1, p2, d2):
    if norm(d1) < 1e-3 or norm(d2) < 1e-3:
        return
    l1, l2 = Line(p1, d1), Line(p2, d2)
    try:
        hit = intersect_lines(l1, l2)
    except ParallelLinesError:
        return
    scale = 1.0 + abs(hit.lam) * norm(d1) + abs(hit.mu) * norm(d2) + norm(p1) + norm(p2)
    assert norm(hit.point - l2.at(hit.mu)) <= 1e-7 * scale


def _unscaled_intersection(l1, l2):
    """The closed form on the directions as given, as written before rescaling."""
    u, v = l1.direction, l2.direction
    denominator = symp(u, v)
    if abs(denominator) <= ATOL * norm(u) * norm(v):
        raise ParallelLinesError("parallel")
    a = l2.point - l1.point
    lam = -symp(v, a) / denominator
    return l1.point + u * lam, lam, symp(a, u) / denominator


def test_intersect_lines_rescaling_keeps_interior_results_bit_for_bit():
    rng = random.Random(31)
    outcomes = set()
    for i in range(20000):
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        u = Vec2(rng.uniform(-3.0, 3.0) * scale, rng.uniform(-3.0, 3.0) * scale)
        if i % 3 == 0:  # exactly parallel
            v = u * rng.choice((-2.0, 0.5, 4.0))
        elif i % 3 == 1:  # near-parallel
            eps = 10.0 ** rng.uniform(-15.0, -9.0)
            v = Vec2(u.x - eps * u.y, u.y + eps * u.x)
        else:
            v = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        l1 = Line(Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)), u)
        l2 = Line(Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)), v)
        try:
            expected = _unscaled_intersection(l1, l2)
        except ParallelLinesError:
            with pytest.raises(ParallelLinesError):
                intersect_lines(l1, l2)
            outcomes.add("parallel")
            continue
        assert repr(tuple(intersect_lines(l1, l2))) == repr(expected)
        outcomes.add("point")
    assert outcomes == {"parallel", "point"}


def test_intersect_lines_with_directions_near_the_overflow_limit():
    # symp(u, v) and |u||v| overflow unscaled: these lines were reported parallel.
    rng = random.Random(1300)
    for _ in range(2000):
        angle = rng.uniform(-math.pi, math.pi)
        turn = angle + rng.uniform(0.3, math.pi - 0.3)
        u = Vec2(math.cos(angle) * 1e300, math.sin(angle) * 1e300)
        v = Vec2(math.cos(turn) * 1e300, math.sin(turn) * 1e300)
        p = Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        q = Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        hit = intersect_lines(Line(p, u), Line(q, v))
        # Exact solution in rationals: p + lam*u == q + mu*v.
        fu, fv = (Fraction(u.x), Fraction(u.y)), (Fraction(v.x), Fraction(v.y))
        ax, ay = Fraction(q.x) - Fraction(p.x), Fraction(q.y) - Fraction(p.y)
        den = fu[0] * fv[1] - fu[1] * fv[0]
        lam = (ax * fv[1] - ay * fv[0]) / den
        mu = (ax * fu[1] - ay * fu[0]) / den
        exact = (lam, mu, Fraction(p.x) + fu[0] * lam, Fraction(p.y) + fu[1] * lam)
        condition = math.sqrt((fu[0] ** 2 + fu[1] ** 2) * (fv[0] ** 2 + fv[1] ** 2) / den ** 2)
        for got, want in zip((hit.lam, hit.mu, hit.point.x, hit.point.y), exact):
            assert abs(got - float(want)) <= 1e-8 * condition * (1.0 + abs(float(want)))


def test_intersect_lines_overflow_raises_a_typed_singularity():
    # The anchor offset 2e308 overflows, but the meeting point (0, 1e308) exists.
    hit = intersect_lines(Line(Vec2(-1e308, 0.0), Vec2(1.0, 1.0)),
                          Line(Vec2(1e308, 0.0), Vec2(1.0, -1.0)))
    assert hit == (Vec2(0.0, 1e308), 1e308, -1e308)
    # The halved offset is finite, but lam = 3.4e308 leaves the float range.
    with pytest.raises(NumericalOverflowError, match="intersection overflows"):
        intersect_lines(Line(Vec2(-1.7e308, 0.0), Vec2(1.0, 1e-300)),
                        Line(Vec2(1.7e308, 0.0), Vec2(1.0, -1.0)))
    # Tiny directions: lam = 1e310 leaves the float range.
    with pytest.raises(NumericalOverflowError, match="intersection overflows"):
        intersect_lines(Line(Vec2(0.0, 0.0), Vec2(1e-300, 0.0)),
                        Line(Vec2(1e10, 1.0), Vec2(0.0, 1.0)))


def test_intersect_lines_over_a_large_offset_and_a_direction_far_from_unit_scale():
    # mu's quotient on the unscaled offset, 3.4e308, overflows before 2**-kv
    # brings it back to 8e7; these lines were reported as overflowing.
    hit = intersect_lines(Line(Vec2(8e307, 0.0), Vec2(1.0, 1.0)),
                          Line(Vec2(-8e307, 0.0), Vec2(3e300, 1e300)))
    assert repr(tuple(hit)) == repr((Vec2(1.6e308, 8e307), 8e307, 8e7))
    rng = random.Random(2800)
    largest = Fraction(sys.float_info.max)
    met = 0
    for _ in range(500):
        p = Vec2(rng.uniform(1e307, 8e307), rng.uniform(-1e307, 1e307))
        q = Vec2(-rng.uniform(1e307, 8e307), rng.uniform(-1e307, 1e307))
        angle = rng.uniform(-math.pi, math.pi)
        turn = angle + rng.uniform(0.3, math.pi - 0.3)
        scale = rng.choice((1e-300, 1e200, 1e300))
        u = Vec2(math.cos(angle), math.sin(angle))
        v = Vec2(math.cos(turn) * scale, math.sin(turn) * scale)
        # Exact solution in rationals: p + lam*u == q + mu*v.
        fu, fv = (Fraction(u.x), Fraction(u.y)), (Fraction(v.x), Fraction(v.y))
        ax, ay = Fraction(q.x) - Fraction(p.x), Fraction(q.y) - Fraction(p.y)
        den = fu[0] * fv[1] - fu[1] * fv[0]
        lam = (ax * fv[1] - ay * fv[0]) / den
        mu = (ax * fu[1] - ay * fu[0]) / den
        exact = (lam, mu, Fraction(p.x) + fu[0] * lam, Fraction(p.y) + fu[1] * lam)
        if any(abs(want) > largest for want in exact):
            with pytest.raises(NumericalOverflowError, match="intersection overflows"):
                intersect_lines(Line(p, u), Line(q, v))
            continue
        hit = intersect_lines(Line(p, u), Line(q, v))
        met += 1
        condition = math.sqrt((fu[0] ** 2 + fu[1] ** 2) * (fv[0] ** 2 + fv[1] ** 2) / den ** 2)
        for got, want in zip((hit.lam, hit.mu, hit.point.x, hit.point.y), exact):
            assert abs(Fraction(got) - want) <= Fraction(1e-8 * condition) * (1 + abs(want))
    assert met >= 250


def test_jacobi_triangle_residual_anchor():
    assert jacobi_triangle_residual(Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(3.0, -4.0)) == Vec2(0.0, 0.0)
    u, v = Vec2(2.0, 1.0), Vec2(-1.0, 3.0)
    assert jacobi_triangle_residual(u, v, Vec2(0.0, 0.0)) == Vec2(0.0, 0.0)


def test_jacobi_triangle_residual_overflow_raises_a_typed_overflow():
    with pytest.raises(NumericalOverflowError, match="Jacobi triangle residual overflows"):
        jacobi_triangle_residual(Vec2(1e300, 0.0), Vec2(0.0, 1e300), Vec2(1e300, 1e300))


def test_jacobi_triangle_residual_random_sweep():
    rng = random.Random(4242)
    for _ in range(1000):
        u, v, a = (Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3))
        bound = 1e-9 * (1.0 + norm(u) * norm(v) * norm(a))
        assert norm(jacobi_triangle_residual(u, v, a)) <= bound


# -------------------------------------------------------------- projection


def test_project_point_onto_line_anchors():
    x_axis = Line(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    assert project_point_onto_line(Vec2(2.0, 3.0), x_axis) == Vec2(2.0, 0.0)

    diag = Line(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    foot = project_point_onto_line(Vec2(1.0, 1.0), diag)
    assert norm(foot - Vec2(1.0, 1.0)) <= 1e-12


@given(points, points, points)
def test_projection_residual_is_perpendicular(p, anchor, d):
    if norm(d) < 1e-3:
        return
    line = Line(anchor, d)
    foot = project_point_onto_line(p, line)
    scale = 1.0 + (norm(p) + norm(anchor) + norm(d)) ** 2
    assert abs(dot(p - foot, d)) <= 1e-7 * scale


# ---------------------------------------------------------------- tangents


SQRT3 = math.sqrt(3.0)


def test_circle_tangents_unit_circles_at_distance_four():
    c1 = Circle(Vec2(0.0, 0.0), 1.0)
    c2 = Circle(Vec2(4.0, 0.0), 1.0)
    tangents = circle_tangents(c1, c2)
    assert [t.kind for t in tangents] == ["outer", "outer", "inner", "inner"]

    low, high = tangents[0], tangents[1]
    assert low.lam == 4.0 and high.lam == -4.0
    assert norm(low.direction_e - Vec2(0.0, -1.0)) <= 1e-12
    assert norm(low.touch1 - Vec2(0.0, -1.0)) <= 1e-12
    assert norm(low.touch2 - Vec2(4.0, -1.0)) <= 1e-12
    assert norm(high.touch1 - Vec2(0.0, 1.0)) <= 1e-12
    assert norm(high.touch2 - Vec2(4.0, 1.0)) <= 1e-12

    inner_plus = tangents[2]
    assert inner_plus.lam == pytest.approx(2.0 * SQRT3, rel=1e-15)
    assert norm(inner_plus.touch1 - Vec2(0.5, -SQRT3 / 2.0)) <= 1e-12

    for t in tangents:
        assert abs(norm(t.direction_e) - 1.0) <= 1e-12
        assert tangent_distance_error(t, c1, c2) <= 1e-9 * 5.0


def test_circle_tangents_overlapping_circles_have_two_outer():
    tangents = circle_tangents(Circle(Vec2(0.0, 0.0), 1.0), Circle(Vec2(1.0, 0.0), 1.0))
    assert len(tangents) == 2
    assert all(t.kind == "outer" for t in tangents)


def test_circle_tangents_containment_has_none():
    tangents = circle_tangents(Circle(Vec2(0.0, 0.0), 3.0), Circle(Vec2(1.0, 0.0), 1.0))
    assert tangents == []
    # The rescaled reach 1.7e308 * 2**9 overflows to inf: still containment.
    assert circle_tangents(Circle(Vec2(0.0, 0.0), 1.7e308), Circle(Vec2(1e-3, 0.0), 0.0)) == []


def test_circle_tangents_coincident_centers_raise():
    with pytest.raises(CoincidentCentersError):
        circle_tangents(Circle(Vec2(1.0, 2.0), 1.0), Circle(Vec2(1.0, 2.0), 2.0))


@pytest.mark.parametrize("k", [-20, -40, -60, -200, 200])
def test_disjoint_circles_keep_four_tangents_at_every_power_of_two_scale(k):
    # Only an exactly zero center offset coincides, so the verdict scales.
    def tangents(s):
        return circle_tangents(Circle(Vec2(0.0, 0.0), s / 4), Circle(Vec2(s, 0.0), s / 4))

    s = 2.0 ** k
    base, scaled = tangents(1.0), tangents(s)
    assert len(scaled) == 4
    assert [t.touch1 for t in scaled] == [t.touch1 * s for t in base]
    assert [t.touch2 for t in scaled] == [t.touch2 * s for t in base]
    assert [t.lam for t in scaled] == [t.lam * s for t in base]


def test_point_outside_a_tiny_circle_gets_two_tangents():
    assert len(point_circle_tangents(Vec2(1e-13, 0.0), Circle(Vec2(0.0, 0.0), 1e-14))) == 2


def test_subnormal_center_offsets_get_their_tangents():
    # 2**-k for such an offset exceeds the float range.
    unit = Circle(Vec2(0.0, 0.0), 1.0)
    assert point_circle_tangents(Vec2(1e-320, 0.0), unit) == []
    assert len(point_circle_tangents(Vec2(5e-321, 0.0), Circle(Vec2(0.0, 0.0), 1e-321))) == 2
    tangents = circle_tangents(unit, Circle(Vec2(1e-320, 0.0), 1.0))
    assert [(t.kind, t.lam) for t in tangents] == [("outer", 1e-320), ("outer", -1e-320)]
    # The unit figure at 2**-1074: the inner reach adds the two radii of one
    # subnormal step exactly, so every direction is the unit figure's.
    tiny = circle_tangents(Circle(Vec2(0.0, 0.0), 5e-324), Circle(Vec2(1e-322, 0.0), 5e-324))
    base = circle_tangents(unit, Circle(Vec2(20.0, 0.0), 1.0))
    assert [t.direction_e for t in tiny] == [t.direction_e for t in base]
    assert [t.lam for t in tiny] == [t.lam * 2.0 ** -1074 for t in base]


def test_circle_rejects_negative_radius():
    with pytest.raises(ValueError):
        Circle(Vec2(0.0, 0.0), -1.0)


def test_externally_tangent_circles_report_a_doubled_inner_tangent():
    # Radicand exactly zero for the inner family: both lam signs survive.
    tangents = circle_tangents(Circle(Vec2(0.0, 0.0), 1.0), Circle(Vec2(3.0, 0.0), 2.0))
    inner = [t for t in tangents if t.kind == "inner"]
    assert len(inner) == 2
    assert inner[0].lam == 0.0 and inner[1].lam == -0.0
    assert norm(inner[0].touch1 - inner[1].touch1) <= 1e-12


def test_point_circle_tangents_anchor():
    unit = Circle(Vec2(0.0, 0.0), 1.0)
    p = Vec2(2.0, 0.0)
    tangents = point_circle_tangents(p, unit)
    assert len(tangents) == 2
    touches = sorted((t.touch1 for t in tangents), key=lambda v: v.y)
    assert norm(touches[0] - Vec2(0.5, -SQRT3 / 2.0)) <= 1e-12
    assert norm(touches[1] - Vec2(0.5, SQRT3 / 2.0)) <= 1e-12
    for t in tangents:
        assert abs(dot(t.touch1 - p, t.touch1 - unit.center)) <= 1e-12
        assert abs(norm(t.touch1 - unit.center) - 1.0) <= 1e-12
        assert norm(t.touch2 - p) <= 1e-12


def test_point_circle_tangents_inside_and_on_the_circle():
    unit = Circle(Vec2(0.0, 0.0), 1.0)
    assert point_circle_tangents(Vec2(0.3, 0.1), unit) == []
    assert point_circle_tangents(unit.center, unit) == []
    on = point_circle_tangents(Vec2(1.0, 0.0), unit)
    assert len(on) == 2
    assert all(t.lam == 0.0 for t in on)
    assert all(norm(t.touch1 - Vec2(1.0, 0.0)) <= 1e-12 for t in on)


def test_circle_tangents_near_the_overflow_limit():
    # dot(a, a) of this offset is about 1.7e311: the power-of-two rescale
    # keeps it in range, so the figure gets its four tangents.
    c1 = Circle(Vec2(0.0, 0.0), 1e155)
    c2 = Circle(Vec2(4e155, 1e155), 0.7e155)
    tangents = circle_tangents(c1, c2)
    assert [t.kind for t in tangents] == ["outer", "outer", "inner", "inner"]
    bound = 1e-9 * (1.0 + norm(c2.center - c1.center))
    for t in tangents:
        assert abs(norm(t.direction_e) - 1.0) <= 1e-12
        assert tangent_distance_error(t, c1, c2) <= bound


def test_scaled_figures_keep_their_tangent_directions_exactly():
    c1 = Circle(Vec2(0.25, -1.5), 1.0)
    c2 = Circle(Vec2(4.0, 0.75), 0.625)
    base = circle_tangents(c1, c2)
    for k in (-30, 60, 300, 500):
        s = 2.0 ** k
        scaled = circle_tangents(Circle(c1.center * s, c1.radius * s),
                                 Circle(c2.center * s, c2.radius * s))
        assert [t.direction_e for t in scaled] == [t.direction_e for t in base]
        assert [t.lam for t in scaled] == [t.lam * s for t in base]


def test_circle_tangents_meet_over_a_center_offset_beyond_the_float_range():
    # |a| is about 1.9e308 with both components finite, so r1 + r2 = 1.8e308
    # overflows; the inner pair is still real, with lam = +-sqrt(32)*1e307.
    tangents = circle_tangents(Circle(Vec2(-5e307, -8e307), 5e307),
                               Circle(Vec2(5e307, 8e307), 1.3e308))
    assert [t.kind for t in tangents] == ["outer", "outer", "inner", "inner"]
    assert [t.lam for t in tangents[2:]] == [5.656854249492377e+307, -5.656854249492377e+307]


def _scaled_tangents(tangents, s):
    """Each tangent's ``(kind, direction_e, lam, touch1, touch2)`` with the lengths
    times ``s``, or ``"overflow"`` where one of those is not finite."""
    rows = [(t.kind, t.direction_e.x, t.direction_e.y, t.lam * s, t.touch1.x * s,
             t.touch1.y * s, t.touch2.x * s, t.touch2.y * s) for t in tangents]
    return rows if all(math.isfinite(v) for row in rows for v in row[1:]) else "overflow"


def test_tangents_scale_by_a_power_of_two_up_to_the_overflow_limit():
    # At 2**k the figure's tangents are its unit-scale ones times 2**k, bit
    # for bit, wherever those stay finite; otherwise the call raises.  Near
    # the top of the range the center offset can overflow, or r1 + r2, or
    # |a| while both offset components stay finite.
    def outcome(construct, *args):
        try:
            return _scaled_tangents(construct(*args), 1.0)
        except NumericalOverflowError:
            return "overflow"

    rng = random.Random(29)
    for _ in range(3000):
        x1, y1, x2, y2 = [rng.uniform(-1.2, 1.2) for _ in range(4)]
        r1, r2 = [0.0 if rng.random() < 0.3 else rng.uniform(0.0, 2.0) for _ in range(2)]
        if x1 == x2 and y1 == y2:
            continue
        base = circle_tangents(Circle(Vec2(x1, y1), r1), Circle(Vec2(x2, y2), r2))
        base_points = point_circle_tangents(Vec2(x2, y2), Circle(Vec2(x1, y1), r1))
        for k in (1021, 1022, 1023):
            s = 2.0 ** k
            c1 = Circle(Vec2(x1 * s, y1 * s), r1 * s)
            assert (outcome(circle_tangents, c1, Circle(Vec2(x2 * s, y2 * s), r2 * s))
                    == _scaled_tangents(base, s))
            assert (outcome(point_circle_tangents, Vec2(x2 * s, y2 * s), c1)
                    == _scaled_tangents(base_points, s))


def test_circle_tangents_overflow_raises_a_typed_singularity():
    with pytest.raises(NumericalOverflowError):  # the offset overflows, and so does lam = |a|
        circle_tangents(Circle(Vec2(-1.5e308, 0.0), 1.0), Circle(Vec2(1.5e308, 0.0), 1.0))
    with pytest.raises(NumericalOverflowError):  # lam = |a| exceeds the float range
        circle_tangents(Circle(Vec2(0.0, 0.0), 0.0), Circle(Vec2(1.7e308, 1.7e308), 0.0))
    with pytest.raises(NumericalOverflowError):  # a touch point
        circle_tangents(Circle(Vec2(1.5e308, 0.0), 0.5e308), Circle(Vec2(1.5e308, -1e308), 0.0))
    with pytest.raises(NumericalOverflowError):
        point_circle_tangents(Vec2(1.5e308, 0.0), Circle(Vec2(-1.5e308, 0.0), 1.0))


def test_tangent_distance_overflow_raises_a_typed_singularity():
    t = Tangent(Vec2(-1.5e308, 0.0), Vec2(-1.5e308, 1.0), Vec2(0.0, 1.0), "outer", 0.0)
    # (c1 - touch1).x overflows and meets e.x == 0: the NaN must not hide in max().
    with pytest.raises(NumericalOverflowError):
        tangent_distance_error(t, Circle(Vec2(1.5e308, 0.0), 1.0),
                               Circle(Vec2(-1.5e308, 1.0), 1.0))


def brute_force_tangent_count(c1, c2, samples=100_000):
    """Sample candidate touch angles on circle 1 and count sign changes of
    the distance defect on circle 2; each simple zero is one tangent."""
    ax, ay = c2.center.x - c1.center.x, c2.center.y - c1.center.y
    signs = []
    for i in range(samples):
        theta = math.tau * i / samples
        f = abs(ax * math.cos(theta) + ay * math.sin(theta) - c1.radius) - c2.radius
        signs.append(f < 0.0)
    return sum(signs[i] != signs[i - 1] for i in range(samples))


def test_tangent_count_trichotomy_against_brute_force():
    import numpy as np

    theta = np.linspace(0.0, math.tau, 100_000, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    def count(c1, c2):
        ax, ay = c2.center.x - c1.center.x, c2.center.y - c1.center.y
        below = np.signbit(np.abs(ax * cos_t + ay * sin_t - c1.radius) - c2.radius)
        return int(np.count_nonzero(below != np.roll(below, 1)))

    rng = random.Random(31)
    for trial in range(60):
        r1 = rng.uniform(0.3, 2.0)
        r2 = rng.uniform(0.3, 2.0)
        if trial % 3 == 0:
            d = (r1 + r2) * rng.uniform(1.1, 3.0)
        elif trial % 3 == 1:
            lo, hi = abs(r1 - r2), r1 + r2
            d = lo + (hi - lo) * rng.uniform(0.15, 0.85)
        else:
            r2 = r1 * rng.uniform(0.2, 0.45)
            d = abs(r1 - r2) * rng.uniform(0.1, 0.8)
        angle = rng.uniform(0.0, math.tau)
        c1 = Circle(Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), r1)
        c2 = Circle(c1.center + Vec2(d * math.cos(angle), d * math.sin(angle)), r2)
        tangents = circle_tangents(c1, c2)
        assert len(tangents) == count(c1, c2)
        for t in tangents:
            assert tangent_distance_error(t, c1, c2) <= 1e-9 * (1.0 + d)


def test_brute_force_counter_agrees_with_itself_on_anchors():
    assert brute_force_tangent_count(Circle(Vec2(0.0, 0.0), 1.0),
                                     Circle(Vec2(4.0, 0.0), 1.0), samples=10_000) == 4
    assert brute_force_tangent_count(Circle(Vec2(0.0, 0.0), 1.0),
                                     Circle(Vec2(1.0, 0.0), 1.0), samples=10_000) == 2
    assert brute_force_tangent_count(Circle(Vec2(0.0, 0.0), 3.0),
                                     Circle(Vec2(1.0, 0.0), 1.0), samples=10_000) == 0
