"""Algebra layer: exactness properties, anchored values, identity residual bounds.

Several assertions use ``==`` on floats on purpose: negation, operand
swaps inside IEEE multiplication and addition, and sign-symmetric
rounding make those particular rewrites exact, and the library relies
on that (symp(a, a) must vanish identically, not merely approximately).
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sympgeo import (
    ATOL,
    IdentityResiduals,
    NumericalOverflowError,
    Polar,
    Vec2,
    ZeroVectorError,
    close,
    directed_angle,
    dot,
    from_polar,
    identity_residuals,
    inverse,
    norm,
    rotate,
    similarity,
    similarity_div,
    symp,
    tilde,
    to_polar,
    wrap_angle,
)
from sympgeo.errors import DegenerateScaleError

# Bounded so pairwise products stay far from the float overflow threshold.
finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
# Tighter bound for expressions with products of four operands.
small = st.floats(min_value=-1e60, max_value=1e60, allow_nan=False)
vecs = st.builds(Vec2, finite, finite)
small_vecs = st.builds(Vec2, small, small)


# ---------------------------------------------------------------- tilde/symp


def test_tilde_anchor_values():
    assert tilde(Vec2(1.0, 0.0)) == Vec2(0.0, 1.0)
    assert tilde(Vec2(0.0, 0.0)) == Vec2(0.0, 0.0)
    assert tilde(Vec2(3.0, -2.0)) == Vec2(2.0, 3.0)


@given(vecs)
def test_tilde_twice_is_negation(a):
    assert tilde(tilde(a)) == -a


@given(vecs)
def test_tilde_preserves_norm(a):
    assert norm(tilde(a)) == norm(a)


def test_symp_anchor_values():
    assert symp(Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == 1.0
    assert symp(Vec2(2.0, 0.0), Vec2(1.0, 3.0)) == 6.0


@given(vecs)
def test_symp_self_is_exactly_zero(a):
    assert symp(a, a) == 0.0


@given(vecs, vecs)
def test_symp_antisymmetry_is_exact(a, b):
    assert symp(a, b) == -symp(b, a)


@given(vecs, vecs)
def test_symp_is_dot_with_tilde(a, b):
    """The defining compatibility: both products come from the same bilinear form."""
    assert symp(a, b) == dot(tilde(a), b)


@given(vecs, vecs)
def test_dot_is_symp_with_tilded_second_argument(a, b):
    assert dot(a, b) == symp(a, tilde(b))


@given(vecs, vecs)
def test_quarter_turn_preserves_both_products(a, b):
    assert dot(tilde(a), tilde(b)) == dot(a, b)
    assert symp(tilde(a), tilde(b)) == symp(a, b)


def test_dot_anchor_values():
    assert dot(Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == 0.0
    assert dot(Vec2(1.0, 1.0), Vec2(1.0, 1.0)) == 2.0
    assert dot(Vec2(3.0, -2.0), Vec2(4.0, 5.0)) == 2.0


# ------------------------------------------------------------------- Vec2


def test_vec2_rejects_non_finite_components():
    with pytest.raises(ValueError):
        Vec2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, math.inf)


def test_vec2_arithmetic():
    a = Vec2(1.0, 2.0)
    b = Vec2(3.0, -4.0)
    assert a + b == Vec2(4.0, -2.0)
    assert a - b == Vec2(-2.0, 6.0)
    assert -a == Vec2(-1.0, -2.0)
    assert a * 2.0 == Vec2(2.0, 4.0)
    assert 2.0 * a == Vec2(2.0, 4.0)
    assert a / 2.0 == Vec2(0.5, 1.0)


def test_scaling_from_either_side_is_the_same_product():
    # Signed zeros, ints, subnormals and magnitudes near the overflow limit.
    pool = (0.0, -0.0, 0, 1, -3, 7, 5e-324, -5e-324, 2.5e-310, 1e300, -1.7e300, 3e8, 0.1)
    rng = random.Random(2801)
    raised = 0
    for _ in range(2000):
        s = rng.choice(pool) * rng.choice((1, 1.0, 1.5, -2.0))
        v = Vec2(rng.choice(pool) * rng.uniform(0.5, 2.0), rng.choice(pool))
        try:
            right = repr(v * s)
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as info:
                s * v
            assert str(info.value) == str(exc)
            continue
        assert repr(s * v) == right
    assert raised > 0


def test_norm_anchor_values():
    assert norm(Vec2(3.0, 4.0)) == 5.0
    assert norm(Vec2(0.0, 0.0)) == 0.0
    assert norm(Vec2(1.0, 1.0)) == math.sqrt(2.0)


# ---------------------------------------------------------------- inverse


def test_inverse_anchor_values():
    assert inverse(Vec2(2.0, 0.0)) == Vec2(0.5, 0.0)
    assert inverse(Vec2(1.0, 1.0)) == Vec2(0.5, 0.5)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroVectorError):
        inverse(Vec2(0.0, 0.0))


@given(st.builds(Vec2,
                 st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
                 st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)))
def test_inverse_contract(a):
    if a.x == 0.0 and a.y == 0.0:
        return
    if norm(a) < 1e-8:
        return
    assert close(dot(a, inverse(a)), 1.0)


def test_inverse_at_the_ends_of_the_float_range():
    # dot(a, a) overflows for 1e200 and underflows to 0.0 for (3e-170, 4e-170).
    assert inverse(Vec2(1e200, 0.0)) == Vec2(1e-200, 0.0)
    a = Vec2(3e-170, 4e-170)
    assert inverse(a) == Vec2(1.2e169, 1.6e169)
    assert close(dot(a, inverse(a)), 1.0)
    big = Vec2(-1.5e308, 1e308)
    assert close(dot(big, inverse(big)), 1.0)
    with pytest.raises(NumericalOverflowError):
        inverse(Vec2(1e-320, 0.0))


# ------------------------------------------------------------------ polar


def test_to_polar_anchor_values():
    p = to_polar(Vec2(0.0, 2.0))
    assert p.magnitude == 2.0
    assert close(p.angle, math.pi / 2.0)
    q = to_polar(Vec2(1.0, 1.0))
    assert close(q.magnitude, math.sqrt(2.0))
    assert close(q.angle, math.pi / 4.0)


def test_from_polar_anchor():
    v = from_polar(Polar(1.0, math.pi))
    assert close(v.x, -1.0)
    assert abs(v.y) < 1e-15


def test_to_polar_zero_raises():
    with pytest.raises(ZeroVectorError):
        to_polar(Vec2(0.0, 0.0))


def test_to_polar_magnitude_overflow_raises_a_typed_overflow():
    assert to_polar(Vec2(1.7e308, 0.0)).magnitude == 1.7e308
    with pytest.raises(NumericalOverflowError, match="magnitude of"):
        to_polar(Vec2(1.7e308, 1.7e308))


def test_polar_normalizes_angle():
    assert Polar(1.0, 3.0 * math.pi).angle == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        Polar(math.inf, 0.0)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_polar_roundtrip(magnitude, angle):
    v = from_polar(Polar(magnitude, angle))
    back = from_polar(to_polar(v))
    assert close(back.x, v.x, scale=magnitude)
    assert close(back.y, v.y, scale=magnitude)


# ------------------------------------------------------------- wrap_angle


def test_wrap_angle_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_wrap_angle_rejects_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match=f"^angle must be finite, got {theta}$"):
        wrap_angle(theta)


def test_wrap_angle_keeps_the_bits_of_the_unguarded_rule():
    rng = random.Random(3902)
    thetas = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.0, -0.0, 5e-324]
    thetas += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 300) for _ in range(2000)]
    for theta in thetas:
        wrapped = math.remainder(theta, math.tau)
        expected = wrapped + math.tau if wrapped <= -math.pi else wrapped
        assert repr(wrap_angle(theta)) == repr(expected), theta


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_wrap_angle_lands_in_halfopen_interval(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi


@given(st.floats(min_value=-math.pi + 1e-9, max_value=math.pi - 1e-9),
       st.integers(min_value=-20, max_value=20))
def test_wrap_angle_removes_whole_turns(theta, k):
    assert close(wrap_angle(theta + k * math.tau), theta, atol=1e-12, scale=50.0)


# --------------------------------------------------------- directed angle


def test_directed_angle_anchor_values():
    e1 = Vec2(1.0, 0.0)
    e2 = Vec2(0.0, 1.0)
    assert close(directed_angle(e1, e2), math.pi / 2.0)
    assert close(directed_angle(e2, e1), -math.pi / 2.0)
    assert close(directed_angle(e1, Vec2(1.0, 1.0)), math.pi / 4.0)


def test_directed_angle_zero_vector_raises():
    with pytest.raises(ZeroVectorError):
        directed_angle(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    with pytest.raises(ZeroVectorError):
        directed_angle(Vec2(1.0, 0.0), Vec2(0.0, 0.0))


def test_directed_angle_at_the_ends_of_the_float_range():
    # symp and dot overflow (inf and NaN) for the first pair and underflow
    # to 0.0 for the second; each angle is a quarter turn.
    assert directed_angle(Vec2(1e308, 1e308), Vec2(-1e308, 1e308)) == math.pi / 2.0
    assert directed_angle(Vec2(1e-170, 0.0), Vec2(0.0, -1e-170)) == -math.pi / 2.0
    assert close(directed_angle(Vec2(1e308, 0.0), Vec2(1e308, 1e308)), math.pi / 4.0)
    assert directed_angle(Vec2(-1e-200, 0.0), Vec2(1e-200, 0.0)) == math.pi


@given(st.builds(Vec2,
                 st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
                 st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)),
       st.builds(Vec2,
                 st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
                 st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)))
def test_directed_angle_antisymmetric_off_the_branch_point(a, b):
    if norm(a) < 1e-6 or norm(b) < 1e-6:
        return
    theta = directed_angle(a, b)
    if abs(abs(theta) - math.pi) < 1e-9:
        return
    assert close(directed_angle(b, a), -theta, atol=1e-12, scale=math.pi)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_directed_angle_ignores_magnitudes(s, t):
    a = Vec2(1.0, 2.0)
    b = Vec2(-3.0, 1.0)
    assert close(directed_angle(a * s, b * t), directed_angle(a, b),
                 atol=1e-12, scale=math.pi)


# ------------------------------------------------------------- similarity


def test_similarity_anchor_values():
    a = Vec2(2.0, 1.0)
    assert similarity(a, 1.0, 0.0) == a
    assert similarity(Vec2(1.0, 0.0), 0.0, 1.0) == Vec2(0.0, 1.0)
    assert similarity(a, 3.0, 2.0) == Vec2(4.0, 7.0)


@given(st.builds(Vec2,
                 st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
                 st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)),
       st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
       st.floats(min_value=-1e100, max_value=1e100, allow_nan=False))
def test_similarity_matches_complex_multiplication_exactly(a, c, d):
    z = complex(a.x, a.y) * complex(c, d)
    got = similarity(a, c, d)
    assert got.x == z.real
    assert got.y == z.imag


def test_similarity_div_anchor_values():
    a = Vec2(2.0, 1.0)
    assert similarity_div(a, 1.0, 0.0) == a
    assert similarity_div(Vec2(0.0, 1.0), 0.0, 1.0) == Vec2(1.0, 0.0)
    undone = similarity_div(Vec2(4.0, 7.0), 3.0, 2.0)
    assert undone.x == 2.0
    assert undone.y == 1.0


def test_similarity_div_zero_scale_raises():
    with pytest.raises(DegenerateScaleError):
        similarity_div(Vec2(1.0, 1.0), 0.0, 0.0)
    with pytest.raises(DegenerateScaleError):
        similarity_div(Vec2(1.0, 1.0), -0.0, 0.0)


def test_similarity_overflow_raises_a_typed_overflow():
    with pytest.raises(NumericalOverflowError, match="similarity of"):
        similarity(Vec2(1e308, 1e308), 2.0, 0.0)
    # A scale that is not finite is invalid input, not an overflow.
    with pytest.raises(ValueError, match="similarity scale must be finite"):
        similarity(Vec2(1.0, 1.0), math.nan, 0.0)


def test_rotate_overflow_raises_a_typed_overflow():
    # The rotated x stays finite (about 9.9e307); y leaves the float range.
    with pytest.raises(NumericalOverflowError, match="similarity of"):
        rotate(Vec2(1.5e308, 1.5e308), 0.3)


def test_similarity_div_at_the_ends_of_the_float_range():
    # c*c + d*d underflows to 0, but the quotient is finite.
    assert similarity_div(Vec2(1.0, 2.0), 1e-200, 0.0) == Vec2(1e200, 2e200)
    # c*c + d*d overflows; the quotient is representable.
    assert similarity_div(Vec2(1.0, 1.0), 1e200, 0.0) == Vec2(1e-200, 1e-200)
    # A numerator that overflows with a finite quotient.
    big = sys.float_info.max
    assert similarity_div(Vec2(big, big), 1.0, 1.0) == Vec2(big, 0.0)
    # Numerators that underflow although the quotient is normal.
    got = similarity_div(Vec2(1e-300, 0.0), 1e-100, 0.0)
    assert math.isclose(got.x, 1e-200, rel_tol=1e-15) and got.y == 0.0
    got = similarity_div(Vec2(3e-300, 4e-300), 1e-100, 1e-100)
    assert math.isclose(got.x, 3.5e-200, rel_tol=1e-15)
    assert math.isclose(got.y, 0.5e-200, rel_tol=1e-15)
    # The quotient itself leaves the float range.
    with pytest.raises(NumericalOverflowError, match="similarity quotient"):
        similarity_div(Vec2(1e300, 1e300), 1e-10, 0.0)
    with pytest.raises(ValueError, match="similarity scale must be finite"):
        similarity_div(Vec2(1.0, 1.0), math.inf, 0.0)


def _exact_quotient(a, c, d):
    """``(a.x + i*a.y) / (c + i*d)`` in exact rational arithmetic."""
    s = Fraction(c) ** 2 + Fraction(d) ** 2
    return ((Fraction(c) * Fraction(a.x) + Fraction(d) * Fraction(a.y)) / s,
            (Fraction(c) * Fraction(a.y) - Fraction(d) * Fraction(a.x)) / s)


def test_similarity_div_is_accurate_across_the_float_range():
    rng = random.Random(1515)

    def value(low, high):
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(low, high)

    returned = overflowed = 0
    # The scale spans the whole float range.  Within 1e+-100 the vector
    # makes no product underflow where c*c + d*d is normal; at 1e+-300 it
    # makes numerators underflow that a scale below 1 then magnifies.
    for exponents in [(-100, 99)] * 3000 + [(-300, 299)] * 3000:
        a = Vec2(value(*exponents), value(*exponents))
        c, d = value(-320, 307), value(-320, 307)
        exact = _exact_quotient(a, c, d)
        bound = Fraction(sys.float_info.max)
        try:
            got = similarity_div(a, c, d)
        except NumericalOverflowError:
            # Raised only when a component is out of range, allowing one rounding.
            assert max(abs(exact[0]), abs(exact[1])) > bound * (1 - Fraction(1, 2 ** 50))
            overflowed += 1
            continue
        returned += 1
        scale = max(abs(exact[0]), abs(exact[1]))
        for component, want in zip((got.x, got.y), exact):
            # A few roundings relative to the larger component, or the
            # subnormal spacing where the result underflows.
            assert abs(Fraction(component) - want) <= scale * Fraction(1, 2 ** 50) + Fraction(5e-324)
    assert returned > 0 and overflowed > 0


@given(st.builds(Vec2,
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_similarity_roundtrip(a, c, d):
    if c * c + d * d < 1e-6:
        return
    back = similarity_div(similarity(a, c, d), c, d)
    assert close(back.x, a.x, scale=norm(a) + 1.0)
    assert close(back.y, a.y, scale=norm(a) + 1.0)


def test_rotate_anchor_values():
    assert rotate(Vec2(1.0, 0.0), math.pi / 2.0).y == pytest.approx(1.0, abs=1e-15)
    a = Vec2(-2.5, 7.0)
    assert rotate(a, 0.0) == a
    r = rotate(Vec2(1.0, 1.0), math.pi / 4.0)
    assert abs(r.x) <= ATOL
    assert close(r.y, math.sqrt(2.0))


@given(st.builds(Vec2,
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_rotate_preserves_norm(a, phi):
    assert close(norm(rotate(a, phi)), norm(a), scale=norm(a) + 1.0)


# -------------------------------------------------------------- identities


def test_identity_residuals_zero_quadruple_is_exactly_zero():
    z = Vec2(0.0, 0.0)
    r = identity_residuals(z, z, z, z)
    assert r.jacobi == z
    assert r.grassmann_full == z
    assert r.lagrange == 0.0
    assert r.grassmann_reduced == z
    assert r.binet_cauchy == 0.0


def test_lagrange_residual_vanishes_on_orthonormal_pair():
    r = identity_residuals(Vec2(1.0, 0.0), Vec2(0.0, 1.0),
                           Vec2(1.0, 1.0), Vec2(1.0, -1.0))
    assert r.lagrange == 0.0


def test_identity_residuals_magnitudes_keys():
    z = Vec2(0.0, 0.0)
    mags = identity_residuals(z, z, z, z).magnitudes()
    assert list(mags) == ["jacobi", "grassmann_full", "lagrange",
                          "grassmann_reduced", "binet_cauchy"]
    assert isinstance(identity_residuals(z, z, z, z), IdentityResiduals)


def test_identity_residuals_seeded_sweep_stays_within_scaled_bound():
    import random

    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c, d = (Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
                      for _ in range(4))
        tol = 1e-9 * (1.0 + norm(a) * norm(b) * norm(c) * norm(d))
        for value in identity_residuals(a, b, c, d).magnitudes().values():
            assert value <= tol


@pytest.mark.parametrize("scale", [
    1e80,   # every residual but Lagrange fits; symp(a, b) ** 2 overflows
    1e120,  # the cubic Jacobi terms already overflow
])
def test_identity_residual_overflow_raises_a_typed_singularity(scale):
    a, b, c, d = (Vec2(x * scale, y * scale)
                  for x, y in ((1.0, 2.0), (-3.0, 1.0), (2.5, -0.5), (0.75, 4.0)))
    with pytest.raises(NumericalOverflowError, match="identity residuals overflow"):
        identity_residuals(a, b, c, d)


@given(small_vecs, small_vecs, small_vecs, small_vecs)
def test_identity_residuals_scale_with_their_own_operands(a, b, c, d):
    """Each residual is bounded by the norms its identity actually touches.

    A combined product-of-all-four bound would be wrong here: with c = 0
    the grassmann_reduced residual still carries the full a, b magnitudes.
    """
    r = identity_residuals(a, b, c, d)
    na, nb, nc, nd = norm(a), norm(b), norm(c), norm(d)
    assert norm(r.jacobi) <= 1e-9 * (1.0 + na * nb * nc)
    assert norm(r.grassmann_full) <= 1e-9 * (1.0 + na * nb * nc)
    assert abs(r.lagrange) <= 1e-9 * (1.0 + (na * nb) ** 2)
    assert norm(r.grassmann_reduced) <= 1e-9 * (1.0 + na * na * nb)
    assert abs(r.binet_cauchy) <= 1e-9 * (1.0 + na * nb * nc * nd)


# ------------------------------------------------------------------ close


def test_close_uses_larger_operand_as_default_scale():
    assert close(1e9, 1e9 + 0.5)
    assert not close(1.0, 1.1)
    assert close(0.0, 5e-13)
    assert not close(0.0, 5e-12)
