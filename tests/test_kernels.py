"""Bit-for-bit guard of the float kernels behind the constructions.

``identity_residuals``, ``circle_tangents``, ``point_circle_tangents`` and
``tangent_distance_error`` run on plain floats in the operation order of
their ``Vec2`` formulas.  The digest below was taken from the ``Vec2``
implementations over the same seeded corpus, so any change in a last bit,
a signed zero or an error type shows up here.

A second corpus pins the results that are assembled in place:
``intersect_lines``, ``rotate``, ``similarity``, ``directed_angle`` and
``IdentityResiduals.magnitudes``, over signed zeros and magnitudes from
1e-150 to 1e300.  Its digest was taken before those records were built
in place, and moved once since: when ``intersect_lines`` learned to meet
over a large offset and a direction far from unit scale, exactly two
near-parallel pairs went from ``NumericalOverflowError`` to an
``Intersection`` that agrees with an exact rational solve to about 1e-7
relative.
"""

import hashlib
import math
import random

from sympgeo import (
    Circle,
    Line,
    Vec2,
    circle_tangents,
    directed_angle,
    identity_residuals,
    intersect_lines,
    point_circle_tangents,
    rotate,
    similarity,
    tangent_distance_error,
)

SPANS = (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5)
CORPUS_SHA256 = "bd744ed1f766b71ededb5125d3189ec95fc33b30f01498e74a7253a55c97e3c2"
WIDE_SPANS = (1e-150, 1e-3, 1.0, 1e3, 1e50, 1e150, 1e300)
RECORDS_SHA256 = "c17ea5155373459c3f72a7ad94ea106d0aa08a7abe422a050aeb138aa79f7c1a"


def _coordinate(rng, span):
    roll = rng.random()
    if roll < 0.05:
        return 0.0
    if roll < 0.1:
        return -0.0
    return rng.uniform(-span, span)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error type is part of the pinned behaviour
        return type(exc).__name__


def corpus_lines(seed, count):
    """Reprs (or error names) of every kernel on a seeded mix of inputs.

    Spans run from 1e-3 to 1e5, about a tenth of the coordinates are
    signed zeros, radii include zero and equal pairs, and a fifth of the
    circle pairs are exactly tangent on dyadic values.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        span = rng.choice(SPANS)
        a, b, c, d = (Vec2(_coordinate(rng, span), _coordinate(rng, span)) for _ in range(4))
        lines.append(_outcome(identity_residuals, a, b, c, d))
        r1 = rng.uniform(0.0, span)
        r2 = rng.choice((0.0, r1, rng.uniform(0.0, span)))
        c1 = Circle(Vec2(_coordinate(rng, span), _coordinate(rng, span)), r1)
        c2 = Circle(Vec2(_coordinate(rng, span), _coordinate(rng, span)), r2)
        if rng.random() < 0.2:
            r1, r2 = rng.randint(1, 16) / 8.0, rng.randint(0, 16) / 8.0
            reach = rng.choice((r1 + r2, abs(r1 - r2)))
            x, y = rng.randint(-8, 8) / 4.0, rng.randint(-8, 8) / 4.0
            c1 = Circle(Vec2(x, y), r1)
            c2 = Circle(Vec2(x, y + reach) if rng.random() < 0.5 else Vec2(x - reach, y), r2)
        pair = _outcome(circle_tangents, c1, c2)
        p = Vec2(_coordinate(rng, span), _coordinate(rng, span))
        lines += [pair, _outcome(point_circle_tangents, p, c1)]
        if pair != "CoincidentCentersError":
            lines += [_outcome(tangent_distance_error, t, c1, c2)
                      for t in circle_tangents(c1, c2)]
        lines += [_outcome(tangent_distance_error, t, c1, Circle(p, 0.0))
                  for t in point_circle_tangents(p, c1)]
    return lines


def test_seeded_corpus_digest_is_pinned():
    lines = corpus_lines(4, 3000)
    assert len(lines) == 22692
    assert sum(line == "CoincidentCentersError" for line in lines) == 18
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORPUS_SHA256


def _meet(a, u, b, v):
    return intersect_lines(Line(a, u), Line(b, v))


def _magnitudes(a, b, c, d):
    return identity_residuals(a, b, c, d).magnitudes()


def record_lines(seed, count):
    """Reprs (or error names) of the in-place records on a seeded mix of inputs.

    Spans run from 1e-150 to 1e300 and about a tenth of the coordinates
    are signed zeros.  Similarity coefficients are drawn so that no result
    overflows.  Every item adds a near-parallel line pair and a pair of
    opposite vectors on the x axis with ``-0.0`` components, whose
    ``atan2`` is ``-pi``.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        span = rng.choice(WIDE_SPANS)
        a, b, u, v = (Vec2(_coordinate(rng, span), _coordinate(rng, span)) for _ in range(4))
        lines.append(_outcome(_meet, a, u, b, v))
        skew = rng.choice((0.0, 1e-9, 1e-6)) * span
        lines.append(_outcome(_meet, a, u, b, Vec2(u.x * 3.0, u.y * 3.0 + skew)))
        phi = rng.choice((0.0, -0.0, math.pi, -math.pi, rng.uniform(-7.0, 7.0)))
        lines.append(_outcome(rotate, a, phi))
        scale = rng.choice([s for s in WIDE_SPANS if s * span <= 1e300])
        lines.append(_outcome(similarity, b, _coordinate(rng, scale), _coordinate(rng, scale)))
        lines.append(_outcome(directed_angle, a, b))
        x, y = rng.uniform(0.0, span), rng.uniform(0.0, span)
        lines.append(_outcome(directed_angle, Vec2(x, -0.0), Vec2(-y, -0.0)))
        lines.append(_outcome(_magnitudes, a, b, u, v))
    return lines


def test_record_corpus_digest_is_pinned():
    lines = record_lines(15, 2000)
    assert len(lines) == 14000
    assert lines.count(repr(math.pi)) >= 2000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RECORDS_SHA256
