"""Run one sympgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload phase-flow --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``./src`` and the CLI children get the same directory on PYTHONPATH.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary, including
every failure by kind, goes to stderr.  ``--out FILE`` also appends the
full record (environment, failures by kind, raw median seconds) as one
JSON line, which is what ``compare.py`` reads.  README.md describes the
workloads and metrics.

The benchmark is stdlib-only and uses no threads or pools: the stream
runs in this process, and CLI children are spawned one at a time by the
small ``launcher.py`` process and reaped with ``os.wait4``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Minimum samples of each end-to-end timing, however short the window.
MIN_PASSES = 3
#: Minimum of in-process ``cli.main`` calls and of CLI spawns in a traced run.
CLI_REPEATS = 5
#: Cap on traced passes per stream, which bounds the spans kept in memory.
TRACED_PASSES = 8
#: Seed of the fixed panel that ``accuracy_ratio`` is taken on.
PANEL_SEED = 0
SETUP_ARGV = ["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1", "--v", "1,1"]
SETUP_SHA256 = "1370fd3b9eabf82a6080e6aaaef6e1a64f90f12ab740ec00fd7303f67a4eef58"

#: Span name -> (metric suffix, ns scale, batch size) for the traced run.
LAYERS = {
    "core.identity_residuals": ("us_per_call", 1e-3, 100),
    "core.IdentityResiduals.magnitudes": ("us_per_call", 1e-3, 100),
    "core.rotate": ("us_per_call", 1e-3, 100),
    "core.directed_angle": ("us_per_call", 1e-3, 100),
    "geometry.intersect_lines": ("us_per_call", 1e-3, 100),
    "geometry.circle_tangents": ("us_per_call", 1e-3, 100),
    "geometry.point_circle_tangents": ("us_per_call", 1e-3, 100),
    "geometry.tangent_distance_error": ("us_per_call", 1e-3, 100),
    "kinematics.crank_sweep.regular": ("us_per_angle", 1e-3, 1),
    "kinematics.crank_sweep.singular": ("us_per_angle", 1e-3, 1),
    "kinematics.crank_state": ("us_per_call", 1e-3, 20),
    "kinematics.loop_residuals": ("us_per_call", 1e-3, 100),
    "dynamics.simulate.explicit_euler": ("us_per_step", 1e-3, 1),
    "dynamics.simulate.symplectic_euler": ("us_per_step", 1e-3, 1),
    "dynamics.simulate.leapfrog": ("us_per_step", 1e-3, 1),
    "dynamics.ellipse_residual": ("us_per_call", 1e-3, 100),
    "dynamics.analytic_oscillator": ("us_per_call", 1e-3, 10),
    "svgplot.SvgPlot.to_svg": ("ms", 1e-6, 1),
    "cli.main": ("ms", 1e-6, 1),
}


def _env() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------------
# CLI children


class Launcher:
    """Handle on ``launcher.py``, the small process that spawns and measures CLI calls."""

    def __enter__(self) -> Launcher:
        WORK.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py"), str(SRC)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def spawn(self, argv: list[str], fmt: str) -> dict:
        """One CLI call: ``wall_s``, ``rss_mb``, ``code``, ``digest`` and ``bytes``."""
        self.proc.stdin.write(json.dumps({"argv": argv, "fmt": fmt}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI launcher exited early")
        return json.loads(line)


def checked_spawn(launcher: Launcher, argv: list[str], fmt: str, expected: str,
                  tally) -> tuple:
    """Spawn the CLI once and count it as an operation of ``tally``.

    It fails on a nonzero exit code or a stdout digest other than
    ``expected``; a failure is recorded, never raised.  Returns wall
    seconds, peak RSS in MB and stdout bytes.
    """
    r = launcher.spawn(argv, fmt)
    kinds = []
    if r["code"] != 0:
        kinds.append(f"cli_exit_{r['code']}")
    elif r["digest"] != expected:
        kinds.append("cli_digest")
    tally.op(kinds)
    return r["wall_s"], r["rss_mb"], r["bytes"]


def traced_cli_main(argv: list[str], tr, tally) -> None:
    """One in-process ``sympgeo.cli.main(argv)`` call, stdout captured, as a request.

    It is an operation of ``tally`` that fails on a nonzero exit code or
    an exception, which is recorded, never raised.
    """
    from sympgeo import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        token = tr.begin("cli.request")
        try:
            code = tr.call("cli.main", cli.main, list(argv))
            kinds = [] if code == 0 else [f"cli_main_exit_{code}"]
        except Exception as exc:
            kinds = [f"crash_{type(exc).__name__}"]
        finally:
            tr.end(token)
    tally.op(kinds)


# --------------------------------------------------------------------------
# In-process stream


def checked_pass(workload, tr, tally) -> None:
    """Run and check every unit; an unexpected exception fails its unit, not the run."""
    for unit in workload.units:
        try:
            workload.check(unit, workload.run(unit, tr), tally)
        except Exception as exc:
            tally.op([f"crash_{type(exc).__name__}"])


def one_pass(workload, tr) -> float:
    """Seconds taken by one full pass over the stream."""
    gc.collect()
    start = time.perf_counter()
    for unit in workload.units:
        try:
            workload.run(unit, tr)
        except Exception:  # already a failure of the checked pass
            pass
    return time.perf_counter() - start


def timed_passes(workload, tr, seconds: float, limit: int) -> list[float]:
    """Pass times for ``seconds``: at least ``MIN_PASSES``, at most ``limit``."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or (time.perf_counter() < deadline and len(times) < limit):
        times.append(one_pass(workload, tr))
    return times


def stream_items(workload) -> int:
    return sum(workload.items(u) for u in workload.units)


def report_failures(tally, out) -> None:
    for label, counter in (("gate", tally.gate), ("boundary", tally.boundary)):
        for kind, n in sorted(counter.items()):
            print(f"  {label} failure {kind}: {n}", file=out)


# --------------------------------------------------------------------------


def run_untraced(launcher, workloads, name: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics, each the median of calibrated samples spread over the window.

    One cycle is a pass over the in-process stream, one set-up probe spawn
    and one spawn of the workload's CLI call, so every metric samples the
    same stretch of the host's drifting speed; each sample is calibrated
    against the reference kernel run on either side of it
    (``calibration.py``).  Returns the tally, the metrics and the raw
    (uncalibrated) median seconds.
    """
    cls = workloads.WORKLOADS[name]
    wl = cls(seed)
    tally = workloads.Tally()
    tr = spans.NoTrace()
    checked_pass(wl, tr, tally)
    panel = workloads.Tally()
    checked_pass(cls(PANEL_SEED), tr, panel)
    tally.absorb(panel)
    launcher.spawn(SETUP_ARGV, "json")
    launcher.spawn(wl.cli_argv, wl.cli_format)
    timeline = calibration.Timeline()
    peaks = []
    deadline = time.perf_counter() + seconds
    while len(peaks) < MIN_PASSES or time.perf_counter() < deadline:
        timeline.add("pass", one_pass(wl, tr))
        timeline.add("setup", checked_spawn(launcher, SETUP_ARGV, "json", SETUP_SHA256,
                                            tally)[0])
        wall, peak, _ = checked_spawn(launcher, wl.cli_argv, wl.cli_format, wl.cli_sha256,
                                      tally)
        timeline.add("cli", wall)
        peaks.append(peak)
    metrics = {
        "setup_s": (timeline.median("setup"), "s"),
        "lib_items_per_s": (stream_items(wl) / timeline.median("pass"), "1/s"),
        "cli_wall_s": (timeline.median("cli"), "s"),
        "cli_peak_rss_mb": (statistics.median(peaks), "MB"),
        "lib_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_ratio": (panel.worst, "ratio"),
        "ops_ok_frac": (tally.ok_frac(), "frac"),
    }
    raw = {name: statistics.median(timeline.raw(name)) for name in ("pass", "setup", "cli")}
    return tally, metrics, raw


def run_traced(launcher, workloads, name: str, seed: int, seconds: float) -> tuple:
    """Per-layer metrics: every layer is walked, so every traced run reports all of them.

    All three streams get a checked pass.  Half the window alternates
    untraced and traced passes over the named workload's stream
    (``trace.overhead_frac``); the other half runs the other two streams
    traced.  Traced passes are capped at ``TRACED_PASSES``
    per stream to bound the spans held in memory.  The named workload's CLI
    call supplies the ``cli.*`` metrics: for the rest of the window, traced
    in-process calls alternate with spawns, at least ``CLI_REPEATS`` each.
    """
    tally = workloads.Tally()
    tracer = spans.Tracer()
    plain = spans.NoTrace()
    streams = {n: cls(seed) for n, cls in workloads.WORKLOADS.items()}
    for wl in streams.values():
        checked_pass(wl, plain, tally)
    own = streams.pop(name)
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or (time.perf_counter() < start + seconds / 2
                                       and len(traced) < TRACED_PASSES):
        untraced.append(one_pass(own, plain))
        traced.append(one_pass(own, tracer))
    for wl in streams.values():
        timed_passes(wl, tracer, seconds / 4, TRACED_PASSES)
    traced_cli_main(own.cli_argv, plain, tally)
    launcher.spawn(own.cli_argv, own.cli_format)
    runs = []
    while len(runs) < CLI_REPEATS or time.perf_counter() < start + seconds:
        traced_cli_main(own.cli_argv, tracer, tally)
        runs.append(checked_spawn(launcher, own.cli_argv, own.cli_format, own.cli_sha256,
                                  tally))
    metrics = {k: (v, _layer_unit(k)) for k, v in
               spans.layer_summary(tracer.spans, LAYERS).items()}
    main_ms = metrics["cli.main.ms"][0]
    c = tally.counts
    metrics.update({
        "svgplot.SvgPlot.to_svg.bytes": (c["svg_bytes"] / c["svg_calls"], "bytes"),
        "geometry.intersect_lines.raised": (
            spans.raised_fraction(tracer.spans, "geometry.intersect_lines"), "frac"),
        "geometry.circle_tangents.tangents_per_expected": (
            c["tangents_returned"] / c["tangents_expected"], "ratio"),
        "kinematics.crank_sweep.singular_rows": (c["singular_rows"], "count"),
        "kinematics.crank_sweep.near_singular_rows": (c["near_singular_rows"], "count"),
        "cli.startup.ms": (statistics.median(r[0] for r in runs) * 1e3 - main_ms, "ms"),
        "cli.stdout_bytes": (statistics.median(r[2] for r in runs), "bytes"),
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0, "frac"),
    })
    return tally, metrics, {}


def _layer_unit(metric: str) -> str:
    if metric.endswith("batch_n"):
        return "count"
    if metric.endswith(("batch_ms_p50", "batch_ms_tail", ".ms")):
        return "ms"
    return "us"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record as one JSON line")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sympgeo" / "__init__.py").is_file():
        print(f"perfbench: no sympgeo sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with Launcher() as launcher:
        return _run(launcher, args)


def _run(launcher: Launcher, args: argparse.Namespace) -> int:
    import sympgeo

    if Path(sympgeo.__file__).resolve().parent != (SRC / "sympgeo").resolve():
        print(f"perfbench: imported sympgeo from {sympgeo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    if args.trace:
        tally, metrics, raw = run_traced(launcher, workloads, args.workload, args.seed,
                                         args.seconds)
    else:
        tally, metrics, raw = run_untraced(launcher, workloads, args.workload, args.seed,
                                           args.seconds)
    result = {
        "correct": tally.gate_ops == 0,
        "attempted": tally.attempted,
        "failed": tally.gate_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} ops, {tally.gate_ops} gate failures, "
          f"{tally.boundary_ops} boundary failures", file=sys.stderr)
    report_failures(tally, sys.stderr)
    if args.out:
        env = _env()
        env["loadavg_1m"] = [load_start, os.getloadavg()[0]]
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": result,
                  "raw_median_s": raw,
                  "failures": {"gate": dict(tally.gate), "boundary": dict(tally.boundary)}}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
