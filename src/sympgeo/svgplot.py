"""Dependency-free SVG charts.

Collects polylines, circles, segments, and markers in data coordinates,
then scales everything uniformly into a fixed 800x600 view box on save.
Good enough for construction diagrams, sweep curves, and phase portraits;
plots are a convenience here, never load-bearing.

Each shape keeps a head, a two-stage ``%`` format over its data columns:
``%.2f`` for each x and ``%%.2f`` for each y (and a circle's radius).  A
render formats the screen xs into a head once per distinct head and x
column, which leaves a template holding only the y fields, and then
formats each shape's screen ys into its template.  So curves drawn over
one shared column, such as the six crank curves over the crank angle,
format that column once.
Colours, labels and the title never pass through a ``%`` format.  Only
finite numbers are written: a shape whose data hold a NaN or an infinity
is rejected with :class:`ValueError`, and saving a plot whose data span
overflows raises :class:`~sympgeo.errors.NumericalOverflowError`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .errors import NumericalOverflowError

WIDTH = 800
HEIGHT = 600
MARGIN = 54.0

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

#: Escapes for text and attribute values written into the document.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


class SvgPlot:
    """Accumulate shapes in data space; emit a scaled SVG document."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        # Per shape: its two-stage head, "%.2f" for each screen x and "%%.2f"
        # for each screen y (then the scaled radius); its x and y data
        # columns, its radius or None, and the closing text.
        self._shapes: list[tuple[str, tuple[float, ...], tuple[float, ...], float | None,
                                 str]] = []
        self._legend: list[tuple[str, str]] = []
        self._series = 0
        self._min_x = self._min_y = math.inf
        self._max_x = self._max_y = -math.inf

    def _record(self, head: str, tail: str, xs: tuple[float, ...], ys: tuple[float, ...],
                color: str, label: str | None, radius: float | None = None) -> None:
        """Check the data, grow the bounds and keep the shape and its legend entry.

        The bounds grow over the columns ``xs``, ``ys``, widened by
        ``radius`` for a circle.  ``tail`` holds one ``%s`` for the colour,
        filled here once escaped.  Raises :class:`ValueError`, leaving the
        plot unchanged, when the data hold a NaN or an infinity.
        """
        min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
        # min and max see an infinity, and a NaN that they pass over makes its
        # column's sum NaN (a sum that overflows stays infinite), so no
        # Python-level work is done per point.
        if not (-math.inf < min_x and max_x < math.inf and -math.inf < min_y
                and max_y < math.inf and not math.isnan(sum(xs))
                and not math.isnan(sum(ys))
                and (radius is None or math.isfinite(radius))):
            raise ValueError("plot data must be finite")
        if radius is not None:
            # A circle covers its centre widened by |r|; r may be negative.
            pad = abs(radius)
            min_x, max_x, min_y, max_y = min_x - pad, max_x + pad, min_y - pad, max_y + pad
        self._min_x = min(self._min_x, min_x)
        self._min_y = min(self._min_y, min_y)
        self._max_x = max(self._max_x, max_x)
        self._max_y = max(self._max_y, max_y)
        color = color.translate(_XML_ESCAPES)
        self._shapes.append((head, xs, ys, radius, tail % color))
        if label:
            self._legend.append((label.translate(_XML_ESCAPES), color))

    def polyline(self, points: Iterable[tuple[float, float]], color: str | None = None,
                 width: float = 1.6, label: str | None = None) -> None:
        """Connect ``points``, ``(x, y)`` pairs in order, with a line.

        ``points`` may be any iterable, a one-shot iterator included; no
        points draw nothing.  A point with more than two coordinates is
        drawn at its first two.  Raises :class:`ValueError`, leaving the
        plot unchanged, when a point has fewer than two.
        """
        points = list(points)
        if not points:
            return
        try:
            # Neither column makes a GC-tracked object per point.
            xs = tuple(map(itemgetter(0), points))
            ys = tuple(map(itemgetter(1), points))
        except IndexError:
            raise ValueError("plot points need two coordinates") from None
        self._record('<polyline points="' + ("%.2f,%%.2f " * len(xs))[:-1],
                     f'" fill="none" stroke="%s" stroke-width="{width}"/>', xs, ys,
                     PALETTE[self._series % len(PALETTE)] if color is None else color, label)
        if color is None:
            self._series += 1

    def circle(self, cx: float, cy: float, r: float, color: str = "#333333",
               width: float = 1.6, label: str | None = None) -> None:
        self._record('<circle cx="%.2f" cy="%%.2f" r="%%.2f"',
                     f' fill="none" stroke="%s" stroke-width="{width}"/>',
                     (cx,), (cy,), color, label, r)

    def segment(self, x1: float, y1: float, x2: float, y2: float,
                color: str = "#333333", width: float = 1.6,
                label: str | None = None) -> None:
        self._record('<line x1="%.2f" y1="%%.2f" x2="%.2f" y2="%%.2f"',
                     f' stroke="%s" stroke-width="{width}"/>', (x1, x2), (y1, y2), color, label)

    def marker(self, x: float, y: float, color: str = "#000000",
               label: str | None = None) -> None:
        """Small dot of fixed screen size at a data point."""
        self._record('<circle cx="%.2f" cy="%%.2f"', ' r="3.5" fill="%s"/>',
                     (x,), (y,), color, label)

    def _transform(self) -> tuple[float, float, float]:
        """Uniform scale plus offsets mapping data space into the view box.

        Raises :class:`NumericalOverflowError` when the data span of a
        non-empty plot overflows.
        """
        span_x = self._max_x - self._min_x
        span_y = self._max_y - self._min_y
        if not (math.isfinite(span_x) and math.isfinite(span_y)):
            if self._shapes:
                raise NumericalOverflowError(
                    f"plot span overflows: x from {self._min_x} to {self._max_x}, "
                    f"y from {self._min_y} to {self._max_y}")
            return 1.0, MARGIN, HEIGHT - MARGIN
        scale_x = (WIDTH - 2.0 * MARGIN) / span_x if span_x > 0.0 else math.inf
        scale_y = (HEIGHT - 2.0 * MARGIN) / span_y if span_y > 0.0 else math.inf
        scale = min(scale_x, scale_y)
        if not math.isfinite(scale):
            scale = 1.0
        offset_x = MARGIN + ((WIDTH - 2.0 * MARGIN) - span_x * scale) / 2.0
        offset_y = MARGIN + ((HEIGHT - 2.0 * MARGIN) - span_y * scale) / 2.0
        return scale, offset_x, offset_y

    def _pieces(self, scale: float, offset_x: float, offset_y: float) -> Iterator[str]:
        """The document in pieces, under the transform ``_transform()`` gave."""
        min_x, min_y = self._min_x, self._min_y
        # SVG y grows downward; data y grows upward.
        x0 = offset_x + (0.0 - min_x) * scale
        y0 = HEIGHT - (offset_y + (0.0 - min_y) * scale)
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
               f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n')
        if math.isfinite(self._min_x):
            if self._min_x <= 0.0 <= self._max_x:
                yield (f'<line x1="{x0:.2f}" y1="{MARGIN:.2f}" x2="{x0:.2f}" '
                       f'y2="{HEIGHT - MARGIN:.2f}" stroke="#cccccc" stroke-width="1"/>\n')
            if self._min_y <= 0.0 <= self._max_y:
                yield (f'<line x1="{MARGIN:.2f}" y1="{y0:.2f}" x2="{WIDTH - MARGIN:.2f}" '
                       f'y2="{y0:.2f}" stroke="#cccccc" stroke-width="1"/>\n')
        # Each distinct (head, x column) is formatted once per render, into a
        # template that keeps only the "%.2f" y fields; every shape with an
        # equal head and column fills its own ys into it.  Equal columns give
        # bitwise-equal screen x, since x - min_x >= 0 and offset_x > 0, so
        # even a -0.0 keyed as 0.0 is exact.
        templates: dict[tuple[str, tuple[float, ...]], str] = {}
        for head, xs, ys, radius, tail in self._shapes:
            template = templates.get((head, xs))
            if template is None:
                template = templates[head, xs] = head % tuple(
                    [offset_x + (x - min_x) * scale for x in xs])
            screen = [HEIGHT - (offset_y + (y - min_y) * scale) for y in ys]
            if radius is not None:
                screen.append(radius * scale)
            yield template % tuple(screen)
            yield tail + "\n"
        if self.title:
            yield (f'<text x="{WIDTH / 2:.0f}" y="26" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="16" fill="#222222">'
                   f'{self.title.translate(_XML_ESCAPES)}</text>\n')
        for i, (label, color) in enumerate(self._legend):
            y = 46 + 18 * i
            yield (f'<rect x="12" y="{y - 9}" width="14" height="4" fill="{color}"/>\n'
                   f'<text x="32" y="{y}" font-family="sans-serif" font-size="12" '
                   f'fill="#222222">{label}</text>\n')
        yield "</svg>\n"

    def to_svg(self) -> str:
        return "".join(self._pieces(*self._transform()))

    def write(self, path: str) -> None:
        transform = self._transform()  # before opening, so a failed render leaves no file
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(self._pieces(*transform))
