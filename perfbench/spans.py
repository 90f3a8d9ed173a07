"""Span recording around calls into the library, and the per-layer summary.

Spans are taken in the benchmark's own files, around each call into a
public sympgeo function; nothing inside the library is instrumented.
A span is ``(id, name, start_ns, end_ns, parent_id, request_id, work,
raised)``.  Item spans (one per stream item or CLI call) are the roots;
the layer calls made for that item are their children and share the
item's request id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns


class NoTrace:
    """Pass-through used by untraced runs: one extra call frame, no records."""

    def call(self, name, fn, *args):
        return fn(*args)

    def call_n(self, name, work, fn, *args):
        return fn(*args)

    def begin(self, name):
        return None

    def end(self, token):
        pass


class Tracer:
    """In-memory span recorder with the same interface as :class:`NoTrace`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next_id = 0
        self._parent = None
        self._request = None

    def begin(self, name):
        sid = self._next_id
        self._next_id += 1
        if self._parent is None:
            self._request = sid
        token = (sid, name, perf_counter_ns(), self._parent)
        self._parent = sid
        return token

    def end(self, token):
        sid, name, start, parent = token
        self.spans.append((sid, name, start, perf_counter_ns(), parent, self._request, 1, False))
        self._parent = parent

    def call(self, name, fn, *args):
        return self.call_n(name, 1, fn, *args)

    def call_n(self, name, work, fn, *args):
        sid = self._next_id
        self._next_id += 1
        raised = False
        start = perf_counter_ns()
        try:
            return fn(*args)
        except BaseException:
            raised = True
            raise
        finally:
            self.spans.append(
                (sid, name, start, perf_counter_ns(), self._parent, self._request, work, raised))


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns).

    Children of one parent run one after another, so their durations add.
    """
    covered: dict[int, int] = {}
    for _, _, start, end, parent, _, _, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0) for sid, _, start, end, *_ in spans}


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples beyond it.

    Below 21 samples that statistic would sit at or under the median, so
    the maximum is returned instead; the caller reports the sample count
    beside it.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def layer_summary(spans: list[tuple], layers: dict[str, tuple[str, float, int]]) -> dict:
    """Per-layer metrics from span self times.

    ``layers`` maps a span name to ``(suffix, scale, batch)``: the headline
    metric is ``<name>.<suffix>``, the median over fixed-size batches of
    ``batch`` consecutive spans of self time per unit of work, times
    ``scale`` (1e-3 gives microseconds, 1e-6 milliseconds); a name with
    fewer than ``batch`` spans forms one batch of all of them.  Each name
    also gets ``batch_ms_p50``, ``batch_ms_tail`` and ``batch_n``.
    """
    own = self_times(spans)
    by_name: dict[str, list[tuple[int, int]]] = {}
    for sid, name, _, _, _, _, work, _ in spans:
        if name in layers:
            by_name.setdefault(name, []).append((own[sid], work))
    metrics = {}
    for name, (suffix, scale, batch) in layers.items():
        rows = by_name.get(name)
        if not rows:
            raise RuntimeError(f"no spans named {name}")
        batch = min(batch, len(rows))
        batches = [rows[i:i + batch] for i in range(0, len(rows) - batch + 1, batch)]
        per_unit = [sum(ns for ns, _ in b) / sum(w for _, w in b) * scale for b in batches]
        batch_ms = [sum(ns for ns, _ in b) * 1e-6 for b in batches]
        metrics[f"{name}.{suffix}"] = statistics.median(per_unit)
        metrics[f"{name}.batch_ms_p50"] = statistics.median(batch_ms)
        metrics[f"{name}.batch_ms_tail"] = tail(batch_ms)
        metrics[f"{name}.batch_n"] = len(batches)
    return metrics


def raised_fraction(spans: list[tuple], name: str) -> float:
    """Share of the spans called ``name`` whose call raised."""
    flags = [s[7] for s in spans if s[1] == name]
    if not flags:
        raise RuntimeError(f"no spans named {name}")
    return sum(flags) / len(flags)
