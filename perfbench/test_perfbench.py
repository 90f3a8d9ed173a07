"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Run from the repository root.  Each end-to-end test spawns a handful of
short CLI children, so the file takes tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """Tiny workloads; construct-mix still holds every boundary family twice."""
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "CLI_REPEATS", 2)
    monkeypatch.setattr(workloads.PhaseFlow, "STEPS", 100)
    monkeypatch.setattr(workloads.CrankSweep, "STEPS_PER_TURN", 18)
    monkeypatch.setattr(workloads.CrankSweep, "SCATTERED", 2)
    cm = workloads.ConstructMix
    monkeypatch.setattr(cm, "ITEMS", 2 * cm.BOUNDARY_EVERY * len(workloads.BOUNDARY_FAMILIES))
    monkeypatch.setattr(cm, "CHUNK", 100)


def _result(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(quick, name, trace):
    result = _result(["--workload", name, "--seed", "3", "--seconds", "0.05",
                      "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_names_are_unique(section):
    names = [m["name"] for m in SPEC[section]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(quick, name):
    cls = workloads.WORKLOADS[name]
    assert cls(5).inputs() == cls(5).inputs()
    assert cls(5).inputs() != cls(6).inputs()


def test_corrupted_digest_is_a_failure_not_a_crash(quick):
    tally = workloads.Tally()
    with run.Launcher() as launcher:
        run.checked_spawn(launcher, run.SETUP_ARGV, "json", "0" * 64, tally)
    assert tally.gate == {"cli_digest": 1}
    assert tally.attempted == 1 and tally.ok_frac() == 0.0


def _construct_mix_unit(family: str):
    """A construct-mix unit holding ``family``, and the index of its first item."""
    wl = workloads.ConstructMix(5)
    for unit in wl.units:
        for i, c in enumerate(unit):
            if c.family == family:
                return wl, unit, i
    raise AssertionError(f"no {family} item")


def test_wrong_tangent_count_is_a_failure_not_a_crash(quick):
    wl, unit, i = _construct_mix_unit("disjoint")
    unit[i].count += 2
    tally = workloads.Tally()
    wl.check(unit, wl.run(unit, spans.NoTrace()), tally)
    assert tally.gate["tangent_count"] == 1
    assert tally.attempted == len(unit)


def test_wrong_intersection_is_a_failure(quick):
    wl, unit, i = _construct_mix_unit("intersect")
    lam, mu, px, py = unit[i].exact
    unit[i].exact = (lam, mu, px + 1e-6 * (1.0 + abs(px)), py)
    tally = workloads.Tally()
    wl.check(unit, wl.run(unit, spans.NoTrace()), tally)
    assert tally.gate == {"residual_intersection": 1}


def test_missing_typed_error_on_a_boundary_input_fails_the_gate(quick):
    wl, unit, i = _construct_mix_unit("parallel")
    outputs = wl.run(unit, spans.NoTrace())
    assert isinstance(outputs[i], workloads.ParallelLinesError)
    outputs[i] = object()  # as if intersect_lines returned for parallel lines
    tally = workloads.Tally()
    wl.check(unit, outputs, tally)
    assert tally.gate["missing_ParallelLinesError"] == 1 and tally.gate_ops >= 1


def test_only_known_kinds_on_their_family_are_boundary():
    known = workloads.KNOWN_BOUNDARY_KINDS
    tally = workloads.Tally()
    tally.op(["tangent_count"], known["tangent_outer"])
    tally.op(["untyped_ValueError"], known["lines_1e300"])
    tally.op(["tangent_count", "residual_tangent_distance"], known["tangent_inner"])
    tally.op(["untyped_ValueError"], known["tangent_outer"])
    tally.op(["crash_TypeError"], known["lines_1e300"])
    tally.op(["missing_ParallelLinesError"], known.get("parallel", frozenset()))
    tally.op([], known["tangent_outer"])
    assert tally.boundary_ops == 2 and tally.gate_ops == 4
    assert tally.ok_frac() == pytest.approx(1 / 7)


def _boom(*args):
    raise RuntimeError("boom")


def test_raising_call_is_a_failure_not_a_crash(quick, monkeypatch):
    monkeypatch.setattr(workloads, "simulate", _boom)
    tracer = spans.Tracer()
    tally = workloads.Tally()
    run.checked_pass(workloads.PhaseFlow(5), tracer, tally)
    assert tally.gate["crash_RuntimeError"] == len(workloads.PhaseFlow(5).units)
    assert tracer._parent is None
    run.one_pass(workloads.PhaseFlow(5), tracer)

    monkeypatch.setattr(workloads, "tangent_distance_error", _boom)
    wl, unit, _ = _construct_mix_unit("disjoint")
    tally = workloads.Tally()
    outputs = wl.run(unit, tracer)
    wl.check(unit, outputs, tally)
    raised = sum(isinstance(res, RuntimeError) for res in outputs)
    assert raised >= sum(c.family == "disjoint" for c in unit)
    assert tally.gate["crash_RuntimeError"] == raised
    assert tally.attempted == len(unit)
    assert tracer._parent is None


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    token = tracer.begin("item")
    tracer.call("child", sum, [1, 2])
    tracer.end(token)
    child, item = tracer.spans
    own = spans.self_times(tracer.spans)
    assert child[4] == item[0] and child[5] == item[5]
    assert own[item[0]] == (item[3] - item[2]) - (child[3] - child[2])


def test_tail_keeps_ten_samples_beyond_it():
    assert spans.tail(list(range(100))) == 89
    assert spans.tail(list(range(21))) == 10
    assert spans.tail([3.0, 1.0, 2.0]) == 3.0


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
