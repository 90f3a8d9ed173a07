"""Calibrate timings against the host's current speed.

On a shared host the speed of the CPU drifts: on a 2-CPU Xeon host
running Python 3.11, the same pass over a stream took anywhere from
0.17 s to 0.31 s in back-to-back 20-second runs, with no change to the
code.  So every timed sample is bracketed by runs of a fixed reference
kernel, and the sample is scaled by ``NOMINAL_S`` over the mean of the
two reference times around it.  A calibrated time is the time the sample
would have taken on a host where the kernel takes ``NOMINAL_S``: a change
to sympgeo moves it, and a change in the host's speed cancels.  In that
comparison the calibrated medians of six runs spread by 5% where the raw
medians spread by 37%.

The kernel is pure Python with the instruction mix of the library's hot
paths: small slotted objects, float arithmetic, method calls, ``math``
calls and dict stores.  It depends on nothing in sympgeo, so the
calibration is the same on every commit.
"""

from __future__ import annotations

import math
import statistics
import time

#: Nominal duration of one kernel run; calibrated times are seconds at this speed.
NOMINAL_S = 0.05
_ITERATIONS = 60_000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def add(self, other: _Point) -> _Point:
        return _Point(self.x + other.x, self.y + other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def _kernel() -> float:
    acc = _Point(0.0, 0.0)
    total = 0.0
    table: dict[int, float] = {}
    for i in range(_ITERATIONS):
        p = _Point(i * 0.5, 1.0 - i)
        acc = acc.add(p)
        total += p.norm()
        table[i & 255] = total
    return total + acc.x


def reference_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Timeline:
    """Named timed samples, each bracketed by reference-kernel runs."""

    def __init__(self) -> None:
        self._refs = [reference_seconds()]
        self._samples: list[tuple[str, float]] = []

    def add(self, name: str, seconds: float) -> None:
        self._samples.append((name, seconds))
        self._refs.append(reference_seconds())

    def raw(self, name: str) -> list[float]:
        return [s for n, s in self._samples if n == name]

    def calibrated(self, name: str) -> list[float]:
        return [s * NOMINAL_S / ((self._refs[i] + self._refs[i + 1]) / 2.0)
                for i, (n, s) in enumerate(self._samples) if n == name]

    def median(self, name: str) -> float:
        """Median calibrated seconds of the samples called ``name``."""
        return statistics.median(self.calibrated(name))
