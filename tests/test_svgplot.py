"""Plot writer: structural checks, and the rule that only finite numbers are written."""

import hashlib
import itertools
import math
import random
import xml.etree.ElementTree as ET

import pytest

from sympgeo.errors import NumericalOverflowError
from sympgeo.svgplot import HEIGHT, MARGIN, PALETTE, WIDTH, SvgPlot


def test_empty_plot_is_still_a_valid_document():
    text = SvgPlot().to_svg()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert f'viewBox="0 0 {WIDTH} {HEIGHT}"' in text
    # Its span is not finite, yet it renders as before plots with an
    # overflowing span began to raise.
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "8d661bad0dd97fa29c10211bb07de82d20cf640901fb3421608cc55b3217f99e")
    assert (hashlib.sha256(SvgPlot("empty & titled").to_svg().encode()).hexdigest()
            == "0162bdd173afcf6f936dd18645425bbadfc7f6809abe4e0e64b3ca71b4c93ee1")


def test_polyline_and_shapes_are_emitted():
    plot = SvgPlot("demo")
    plot.polyline([(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)], label="track")
    plot.circle(0.5, 0.5, 0.25, label="disc")
    plot.segment(0.0, 1.0, 2.0, 1.0)
    plot.marker(1.0, 0.0)
    text = plot.to_svg()
    assert "<polyline" in text
    assert "<circle" in text
    assert "track" in text and "disc" in text and "demo" in text


def test_points_land_inside_the_margin_box():
    plot = SvgPlot()
    plot.polyline([(-37.5, 4.0), (12.0, -9.25), (80.0, 2.0)])
    text = plot.to_svg()
    start = text.index('points="') + len('points="')
    coords = text[start:text.index('"', start)].split()
    for pair in coords:
        x, y = map(float, pair.split(","))
        assert MARGIN - 1.0 <= x <= WIDTH - MARGIN + 1.0
        assert MARGIN - 1.0 <= y <= HEIGHT - MARGIN + 1.0


def test_write_creates_the_file(tmp_path):
    plot = SvgPlot("file")
    plot.marker(0.0, 0.0)
    target = tmp_path / "out.svg"
    plot.write(str(target))
    assert target.read_text() == plot.to_svg()


def test_mixed_plot_digest_is_pinned():
    plot = SvgPlot("mixed shapes")
    plot.polyline([(-1.5, 0.25), (0.0, 1.0), (2.25, -0.75)], label="first")
    plot.polyline([(0.5, -2.0), (1.0, 3.5)], label="second")
    plot.polyline([(3.0, 1.0), (4.0, 2.0), (5.0, 0.0)], color="#000000", width=0.8)
    plot.circle(1.0, 0.5, 1.25, label="disc")
    plot.segment(-1.0, -1.0, 4.5, 2.5, color="#d62728", label="chord")
    plot.marker(2.0, 2.0, label="point")
    digest = hashlib.sha256(plot.to_svg().encode()).hexdigest()
    assert digest == "6cbdeaec95c019b247d5b5264870ff7234cea14125b8093a5d0daf8c5154362a"


# Edge coordinates: NaN, signed zeros and magnitudes at both ends of the float
# range; the largest float overflows the span.
_EDGES = (math.nan, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308)
# Texts and colours with "%" and "{}", which a formatting template must not eat.
_TEXTS = ("", "corpus", "50% <done>", "{braces}")
_COLORS = (None, None, "#000000", "rgb(10%,20%,30%)")


def _corpus_plot(rng: random.Random) -> tuple[SvgPlot, list[str]]:
    """One seeded plot mixing all four shapes in one of five regimes.

    Also returns the calls that the plot rejected for non-finite data, as
    ``"<call index> <shape>"``; the draws do not depend on them.
    """
    regime = rng.choice(("one point", "zero span", "edges", "many series", "scaled"))
    plot = SvgPlot(rng.choice(_TEXTS))
    rejected: list[str] = []
    calls = itertools.count()

    def draw(shape, *args, **kwargs):
        index = next(calls)
        try:
            shape(*args, **kwargs)
        except ValueError:
            rejected.append(f"{index} {shape.__name__}")

    if regime == "one point":
        if rng.random() < 0.5:
            draw(plot.marker, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), label="only")
        else:
            draw(plot.polyline, [(rng.choice(_EDGES), rng.uniform(-3.0, 3.0))])
        return plot, rejected
    factor = rng.choice((1.0, 1e-300, 1e300, 1e-160)) if regime == "scaled" else 1.0
    fixed = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))

    def value(axis):
        if regime == "zero span":
            return fixed[axis]
        if regime == "edges" and rng.random() < 0.3:
            return rng.choice(_EDGES)
        return rng.uniform(-3.0, 3.0) * factor

    def point():
        return (value(0), value(1))

    if regime == "many series":
        for i in range(rng.randint(9, 20)):
            draw(plot.polyline, [point() for _ in range(rng.randint(0, 4))],
                 label=rng.choice((None, f"s{i}")))
    for _ in range(rng.randint(0, 12)):
        label = rng.choice((None, "", "a%b", "{label}"))
        color = rng.choice(_COLORS)
        width = rng.choice((1.6, 0.8, 2))
        shape = rng.randrange(4)
        if shape == 0:
            draw(plot.polyline, [point() for _ in range(rng.randint(0, 6))], color=color,
                 width=width, label=label)
        elif shape == 1:
            radius = value(0) if regime == "edges" else abs(rng.uniform(0.0, 2.0) * factor)
            draw(plot.circle, *point(), radius, color=color or "#333333", width=width,
                 label=label)
        elif shape == 2:
            draw(plot.segment, *point(), *point(), color=color or "#333333", width=width,
                 label=label)
        else:
            draw(plot.marker, *point(), color=color or "#000000", label=label)
    return plot, rejected


def _corpus_texts():
    """Per corpus plot: its rejected calls and its document, or the overflow message."""
    rng = random.Random(20241)
    for _ in range(300):
        plot, rejected = _corpus_plot(rng)
        try:
            text = plot.to_svg()
        except NumericalOverflowError as exc:
            yield rejected, None, str(exc)
        else:
            yield rejected, text, None


def test_seeded_corpus_digest_is_pinned():
    digest = hashlib.sha256()
    for rejected, text, overflow in _corpus_texts():
        digest.update(repr((rejected, text, overflow)).encode())
    assert digest.hexdigest() == "9c7231535a41499a266d518816dee0fa815b6a7b40c6327f08c5238b6b465a7b"


def test_every_corpus_plot_is_well_formed_xml():
    # A plot whose span overflows raises instead; every other one renders
    # with finite screen coordinates only.
    rendered = 0
    for _, text, _ in _corpus_texts():
        if text is None:
            continue
        rendered += 1
        ET.fromstring(text)
        assert "nan" not in text and "inf" not in text
    assert 0 < rendered < 300


def test_text_and_colours_are_escaped():
    plot = SvgPlot('a & b < "c" > d')
    plot.marker(0.0, 0.0, color='red" onload="x', label="<tag> & more")
    root = ET.fromstring(plot.to_svg())
    ns = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(ns + "text")] == ['a & b < "c" > d', "<tag> & more"]
    assert root.find(ns + "circle").get("fill") == 'red" onload="x'


def test_polyline_takes_a_one_shot_iterator():
    rng = random.Random(77)
    points = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(50)]
    from_list, from_generator = SvgPlot("track"), SvgPlot("track")
    from_list.polyline(points, label="points")
    from_generator.polyline((p for p in points), label="points")
    # An empty iterator draws nothing and takes no palette colour.
    from_list.polyline([])
    from_generator.polyline(iter(()))
    from_list.polyline(points[:3])
    from_generator.polyline(iter(points[:3]))
    assert from_generator.to_svg() == from_list.to_svg()
    assert from_list.to_svg().count("<polyline") == 2


def test_non_finite_data_is_rejected_and_leaves_the_plot_unchanged():
    reference = SvgPlot("rejects")
    reference.polyline([(0.0, 0.0), (1.0, 2.0)])
    reference.polyline([(2.0, 1.0), (3.0, 0.5)])
    plot = SvgPlot("rejects")
    plot.polyline([(0.0, 0.0), (1.0, 2.0)])
    bad = (math.nan, math.inf, -math.inf)
    calls = [(plot.polyline, ([(0.5, 0.5), (1.0, v), (2.0, 0.0)],)) for v in bad]
    calls += [(plot.polyline, ([(v, 0.5), (1.0, 1.0)],)) for v in bad]
    calls += [(plot.circle, (0.0, 0.0, v)) for v in bad]
    calls += [(plot.circle, (v, 0.0, 1.0)) for v in bad]
    calls += [(plot.segment, (0.0, 0.0, 1.0, v)) for v in bad]
    calls += [(plot.marker, (v, 0.0)) for v in bad]
    for shape, args in calls:
        with pytest.raises(ValueError, match="plot data must be finite"):
            shape(*args, label="rejected")
    # No bound, shape, legend entry or palette colour was taken.
    plot.polyline([(2.0, 1.0), (3.0, 0.5)])
    assert plot.to_svg() == reference.to_svg()


@pytest.mark.parametrize("draw", [
    lambda plot: plot.polyline([(-1e308, 0.0), (1e308, 1.0)]),
    lambda plot: plot.circle(0.0, 1e308, 1e308),
    lambda plot: (plot.marker(0.0, -1.7e308), plot.marker(0.0, 1.7e308)),
], ids=["polyline", "circle", "markers"])
def test_an_overflowing_span_raises_a_typed_overflow(draw):
    plot = SvgPlot("too wide")
    draw(plot)
    with pytest.raises(NumericalOverflowError, match="plot span overflows"):
        plot.to_svg()


def _polylines(plot):
    rng = random.Random(5)
    plot.polyline([(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(600)],
                  label="first")
    plot.polyline([(0.0, 1.0), (3.5, -2.5)], color="#123456", width=0.8, label="second")


def _circles(plot):
    plot.circle(0.0, 0.0, 1.0, label="unit")
    plot.circle(2.5, -1.0, -0.5, color="#2ca02c", width=2.0)


def _segments(plot):
    plot.segment(-1.0, 0.0, 1.0, 0.0, label="axis")
    plot.segment(0.25, -3.0, 0.5, 3.0, color="#d62728", width=1.2)


def _markers(plot):
    plot.marker(0.0, 0.0, label="origin")
    plot.marker(-2.0, 1.5, color="#333333")


def _escaped(plot):
    plot.title = 'a & b < "c" > d'
    plot.marker(0.0, 0.0, color='red" onload="x', label="<tag> & more")
    plot.segment(0.0, 0.0, 1.0, 1.0, label='"quoted" & <b>')


@pytest.mark.parametrize("build", [
    lambda plot: None, _polylines, _circles, _segments, _markers, _escaped,
    lambda plot: [draw(plot) for draw in (_polylines, _circles, _segments, _markers)],
], ids=["empty", "polylines", "circles", "segments", "markers", "escaped", "mixed"])
def test_write_writes_exactly_to_svg(tmp_path, build):
    # The file is written in pieces; its bytes are those of the joined document.
    plot = SvgPlot("pieces")
    build(plot)
    target = tmp_path / "plot.svg"
    plot.write(str(target))
    assert target.read_bytes() == plot.to_svg().encode("utf-8")


@pytest.mark.parametrize("draw", [
    lambda plot: plot.polyline([(-1e308, 0.0), (1e308, 1.0)]),
    lambda plot: plot.circle(0.0, 1e308, 1e308),
    lambda plot: (plot.marker(0.0, -1.7e308), plot.marker(0.0, 1.7e308)),
], ids=["polyline", "circle", "markers"])
def test_an_overflowing_span_writes_no_file(tmp_path, draw):
    plot = SvgPlot("too wide")
    draw(plot)
    target = tmp_path / "plot.svg"
    with pytest.raises(NumericalOverflowError, match="plot span overflows"):
        plot.write(str(target))
    assert not target.exists()


def _reference_svg(plot, calls):
    """``plot``'s document rendered the old way, as an independent check.

    Every shape formats its own x again, "%.2f,%.2f" per point, under the
    same ``_transform()``.  ``calls`` lists the ``(shape, args, color,
    width, label)`` calls that built ``plot``, with plain colours and labels.
    """
    scale, offset_x, offset_y = plot._transform()

    def sx(x):
        return "%.2f" % (offset_x + (x - plot._min_x) * scale)

    def sy(y):
        return "%.2f" % (HEIGHT - (offset_y + (y - plot._min_y) * scale))

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>']
    if plot._min_x <= 0.0 <= plot._max_x:
        lines.append(f'<line x1="{sx(0.0)}" y1="{MARGIN:.2f}" x2="{sx(0.0)}" '
                     f'y2="{HEIGHT - MARGIN:.2f}" stroke="#cccccc" stroke-width="1"/>')
    if plot._min_y <= 0.0 <= plot._max_y:
        lines.append(f'<line x1="{MARGIN:.2f}" y1="{sy(0.0)}" x2="{WIDTH - MARGIN:.2f}" '
                     f'y2="{sy(0.0)}" stroke="#cccccc" stroke-width="1"/>')
    legend = []
    for shape, args, color, width, label in calls:
        stroke = f'stroke="{color}" stroke-width="{width}"/>'
        if shape == "polyline":
            points = " ".join(f"{sx(x)},{sy(y)}" for x, y in args[0])
            lines.append(f'<polyline points="{points}" fill="none" {stroke}')
        elif shape == "circle":
            cx, cy, r = args
            lines.append(f'<circle cx="{sx(cx)}" cy="{sy(cy)}" r="{r * scale:.2f}" '
                         f'fill="none" {stroke}')
        elif shape == "segment":
            x1, y1, x2, y2 = args
            lines.append(f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{sx(x2)}" y2="{sy(y2)}" '
                         f'{stroke}')
        else:
            x, y = args
            lines.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="3.5" fill="{color}"/>')
        if label:
            legend.append((label, color))
    if plot.title:
        lines.append(f'<text x="{WIDTH / 2:.0f}" y="26" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16" fill="#222222">'
                     f'{plot.title}</text>')
    for i, (label, color) in enumerate(legend):
        y = 46 + 18 * i
        lines.append(f'<rect x="12" y="{y - 9}" width="14" height="4" fill="{color}"/>')
        lines.append(f'<text x="32" y="{y}" font-family="sans-serif" font-size="12" '
                     f'fill="#222222">{label}</text>')
    return "\n".join(lines) + "\n</svg>\n"


def _six_curves_over_one_column():
    # As the crank plot draws them: one list of x floats shared by six
    # curves, each split into runs around a gap.
    rng = random.Random(21)
    phi = [0.01 * i for i in range(400)]
    calls = []
    for k, color in enumerate(PALETTE[:6]):
        column = [rng.uniform(-3.0, 3.0) * (k + 1) for _ in phi]
        for run in (slice(0, 180), slice(181, 400)):
            calls.append(("polyline", (list(zip(phi[run], column[run])),), color, 1.6,
                          None if run.start else f"curve {k}"))
    return calls


def _equal_columns_of_distinct_floats():
    xs = [0.37 * i - 5.0 for i in range(50)]
    copies = [float(repr(x)) for x in xs]
    assert all(a is not b and a == b for a, b in zip(xs, copies))
    return [("polyline", (list(zip(xs, [math.sin(x) for x in xs])),), "#1f77b4", 1.6, "sin"),
            ("polyline", (list(zip(copies, [math.cos(x) for x in xs])),), "#d62728", 0.8,
             "cos")]


def _columns_differing_in_the_last_element():
    xs = [0.5 * i for i in range(20)]
    return [("polyline", (list(zip(xs, xs)),), "#1f77b4", 1.6, "first"),
            ("polyline", (list(zip(xs[:-1] + [xs[-1] + 0.25], xs)),), "#d62728", 1.6,
             "last moved"),
            ("polyline", (list(zip(xs[:-1] + [-xs[-1]], xs)),), "#2ca02c", 1.6, None)]


def _negative_zero_first():
    return [("polyline", ([(-0.0, 1.0), (2.0, -1.0)],), "#1f77b4", 1.6, "negative zero"),
            ("polyline", ([(0.0, -2.0), (2.0, 0.5)],), "#d62728", 1.6, "positive zero"),
            ("marker", (-0.0, 0.0), "#000000", None, None),
            ("marker", (0.0, 1.5), "#333333", None, None)]


def _positive_zero_first():
    return _negative_zero_first()[::-1]


def _shapes_sharing_a_polyline_x():
    return [("polyline", ([(1.0, 0.0), (3.5, 2.0)],), "#1f77b4", 1.6, "two points"),
            ("segment", (1.0, -1.0, 3.5, 1.0), "#d62728", 1.2, "segment"),
            ("polyline", ([(1.0, 2.5)],), "#2ca02c", 1.6, None),
            ("marker", (1.0, -0.5), "#000000", None, "marker"),
            ("circle", (1.0, 1.0, 0.75), "#333333", 2.0, "circle"),
            ("circle", (3.5, 0.0, -0.5), "#9467bd", 1.6, None),
            ("segment", (3.5, 2.0, 1.0, 0.0), "#333333", 1.6, None)]


@pytest.mark.parametrize("build", [
    _six_curves_over_one_column, _equal_columns_of_distinct_floats,
    _columns_differing_in_the_last_element, _negative_zero_first, _positive_zero_first,
    _shapes_sharing_a_polyline_x,
], ids=["six-curves", "equal-columns", "last-element", "negative-zero-first",
        "positive-zero-first", "shared-x"])
def test_shared_x_columns_match_a_per_shape_reference(tmp_path, build):
    calls = build()
    plot = SvgPlot("shared columns")
    for shape, args, color, width, label in calls:
        if shape == "marker":
            plot.marker(*args, color=color, label=label)
        else:
            getattr(plot, shape)(*args, color=color, width=width, label=label)
    text = plot.to_svg()
    assert text == _reference_svg(plot, calls)
    # The formatted columns live for one render only.
    assert plot.to_svg() == text
    target = tmp_path / "plot.svg"
    plot.write(str(target))
    assert target.read_bytes() == text.encode("utf-8")
