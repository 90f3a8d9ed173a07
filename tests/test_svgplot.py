"""Plot writer: structural checks only, since plots carry no numeric contract."""

import hashlib

from sympgeo.svgplot import HEIGHT, MARGIN, WIDTH, SvgPlot


def test_empty_plot_is_still_a_valid_document():
    text = SvgPlot().to_svg()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert f'viewBox="0 0 {WIDTH} {HEIGHT}"' in text


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
