"""Command-line layer: exit codes, schema, determinism, CSV and SVG output."""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest

from sympgeo import cli, dynamics
from sympgeo.cli import main
from sympgeo.core import Vec2, identity_residuals, norm
from sympgeo.dynamics import OscillatorParams, PhaseState, hamiltonian, simulate
from sympgeo.errors import DegeneracyError, SingularityError
from sympgeo.geometry import Line, intersect_lines


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_json(out)


def run_csv(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# -------------------------------------------------------------- exit codes


def test_exit_code_zero_on_success():
    assert main(["identities", "--samples", "10"]) == 0


def test_exit_code_one_on_usage_errors(capsys):
    assert main(["bogus"]) == 1
    assert main(["identities", "--samples", "0"]) == 1
    assert main(["intersect", "--a", "1,2"]) == 1
    assert main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1",
                 "--p0", "0", "--dt", "0.1", "--steps", "10", "--method", "rk4"]) == 1
    capsys.readouterr()
    crank = ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1", "--from", "0",
             "--to", "1"]
    for argv, shown in ((["identities", "--samples", "2.5"], "'2.5'"),
                        (crank + ["--steps", "x"], "'x'")):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"expected an integer, got {shown}" in err


def test_exit_code_one_on_invalid_values(capsys):
    # Well-formed command line, but the sweep needs at least two samples.
    assert main(["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1",
                 "--from", "0", "--to", "0", "--steps", "1"]) == 1
    capsys.readouterr()


def test_exit_code_two_on_degenerate_geometry(capsys):
    assert main(["intersect", "--a", "0,0", "--u", "1,1",
                 "--b", "1,0", "--v", "1,1"]) == 2
    assert main(["tangents", "--c1", "0,0,1", "--c2", "0,0,2"]) == 2
    capsys.readouterr()


def test_exit_code_three_on_numerical_singularity(capsys):
    assert main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1",
                 "--p0", "0", "--dt=-0.1", "--steps", "10", "--method", "leapfrog"]) == 3
    capsys.readouterr()


def test_exit_code_three_on_crank_overflow(capsys):
    code = main(["crank", "--length", "1", "--pivot", "2,0", "--phidot", "1e200",
                 "--from", "0", "--to", "1", "--steps", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical singularity" in err and "overflow" in err
    assert "phi=" in err


@pytest.mark.parametrize("span", ["1e80", "1e120"])
def test_exit_code_three_on_identity_overflow(capsys, span):
    # 1e80 overflows symp(a, b) ** 2, 1e120 already the cubic Jacobi terms.
    assert main(["identities", "--range", span, "--samples", "5", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "numerical singularity: identity residuals overflow" in err


@pytest.mark.parametrize("span", ["inf", "-inf", "nan"])
def test_identity_range_must_be_finite(capsys, span):
    assert main(["identities", f"--range={span}", "--samples", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --range: expected a finite number, got '{span}'" in captured.err


_CRANK_FLAGS = {"--length": "1", "--phidot": "1", "--from": "0", "--to": "1"}
_OSCILLATOR_FLAGS = {"--mass": "1", "--stiffness": "1", "--q0": "1", "--p0": "0", "--dt": "0.1"}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("subcommand, flag", [
    *(("crank", flag) for flag in _CRANK_FLAGS),
    *(("oscillator", flag) for flag in _OSCILLATOR_FLAGS),
])
def test_float_flags_must_be_finite(capsys, subcommand, flag, value):
    if subcommand == "crank":
        flags, rest = _CRANK_FLAGS, ["--pivot", "3,0", "--steps", "3"]
    else:
        flags, rest = _OSCILLATOR_FLAGS, ["--steps", "3", "--method", "leapfrog"]
    argv = [subcommand, *rest]
    for name, default in flags.items():
        argv.append(f"{name}={value if name == flag else default}")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a finite number, got '{value}'" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["intersect", "--a", "inf,0", "--u", "1,0", "--b", "0,1", "--v", "0,1"],
     "argument --a: expected a finite number, got 'inf'"),
    (["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1", "--v", "1,x"],
     "argument --v: expected a number, got 'x'"),
    (["crank", "--length", "1", "--pivot", "nan,1", "--phidot", "1", "--from", "0", "--to", "1",
      "--steps", "3"], "argument --pivot: expected a finite number, got 'nan'"),
    (["tangents", "--c1", "inf,0,1", "--c2", "4,0,1"],
     "argument --c1: expected a finite number, got 'inf'"),
    (["tangents", "--c1", "0,0,1", "--c2", "1,x,1"], "argument --c2: expected a number, got 'x'"),
])
def test_vector_flags_share_the_number_rule(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("c1, message", [
    ("0,0", "argument --c1: expected x,y,r, got '0,0'"),
    ("0,0,-1", "sympgeo: invalid value: circle radius must be finite and >= 0, got -1.0"),
])
def test_circle_flags_keep_their_shape_and_radius_rules(capsys, c1, message):
    assert main(["tangents", "--c1", c1, "--c2", "4,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("span", ["1e308", "-1e308", "8.98846567431158e307"])
def test_exit_code_three_on_identity_range_overflow(capsys, span):
    # The draws ``-span + 2*span*random()`` overflow from |span| > max/2 on,
    # although the range itself is a finite float.
    assert main(["identities", f"--range={span}", "--samples", "5", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical singularity: identity sample range overflows" in captured.err


def test_largest_identity_range_draws_finite_samples(capsys):
    # max/2 is the largest range whose draws stay finite; its residuals overflow.
    span = repr(sys.float_info.max / 2)
    assert main(["identities", f"--range={span}", "--samples", "5", "--seed", "1"]) == 3
    assert "numerical singularity: identity residuals overflow" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["euler", "symplectic-euler", "leapfrog"])
def test_exit_code_three_on_oscillator_state_overflow(capsys, method):
    # Every energy is finite before the step that overflows the state.
    code = main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1e150",
                 "--p0", "0", "--dt", "1e200", "--steps", "3", "--method", method, "--csv"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical singularity: phase state overflows at t=1e+200" in captured.err


@pytest.mark.parametrize("extra", [[], ["--csv"]])
def test_exit_code_three_on_oscillator_energy_overflow(capsys, extra):
    code = main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "0",
                 "--p0", "1e200", "--dt", "1e-3", "--steps", "2", "--method", "leapfrog",
                 *extra])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical singularity: energy overflows at t=0.0" in captured.err


@pytest.mark.parametrize("dt, shown", [(["--dt=-0.01"], "-0.01"), (["--dt", "0"], "0.0")])
@pytest.mark.parametrize("output", ["json", "csv", "svg"])
def test_exit_code_three_on_an_invalid_oscillator_step(tmp_path, capsys, dt, shown, output):
    svg = tmp_path / "phase.svg"
    extra = {"json": [], "csv": ["--csv"], "svg": ["--svg", str(svg)]}[output]
    code = main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
                 *dt, "--steps", "10", "--method", "leapfrog", *extra])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"numerical singularity: dt must be finite and > 0, got {shown}" in captured.err
    assert not svg.exists()


def test_the_first_overflow_in_step_order_ends_an_oscillator_run(capsys):
    # The energy overflows at t=28, the state only at t=1052: the run stops at t=28.
    code = main(["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "0",
                 "--p0", "1e150", "--dt", "1", "--steps", "2000", "--method", "euler", "--csv"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical singularity: energy overflows at t=28.0" in captured.err


def test_an_error_outside_the_failure_families_escapes_main(monkeypatch):
    def fail(args):
        raise RuntimeError("not a failure family")

    monkeypatch.setattr(cli, "_run_intersect", fail)
    with pytest.raises(RuntimeError, match="not a failure family"):
        main(["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1", "--v", "0,1"])


def test_intersect_at_the_overflow_limit(capsys):
    # Perpendicular directions of magnitude 1e300 were reported parallel.
    code, report = run_json(capsys, ["intersect", "--a", "0,0", "--u", "1e300,0",
                                     "--b", "1,1", "--v", "0,1e300"])
    assert code == 0
    assert report["results"]["point"] == pytest.approx([1.0, 0.0], abs=1e-15)
    assert report["results"]["lambda"] == pytest.approx(1e-300, rel=1e-15, abs=0)
    # The anchor offset 2e308 overflows, but the lines meet at (0, 1e308).
    code, report = run_json(capsys, ["intersect", "--a=-1e308,0", "--u", "1,1",
                                     "--b", "1e308,0", "--v", "1,-1"])
    assert code == 0
    assert report["results"]["point"] == [0.0, 1e308]
    assert report["results"]["lambda"] == 1e308
    assert report["results"]["mu"] == -1e308
    assert report["residuals"]["loop_closure"] == 0.0


@pytest.mark.parametrize("separate, joined", [
    (["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from", "-1e-3",
      "--to", "1", "--steps", "5", "--csv"],
     ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from=-1e-3",
      "--to", "1", "--steps", "5", "--csv"]),
    (["crank", "--length", "1", "--pivot", "-.5,-2", "--phidot", "-2", "--from", "-.25",
      "--to", "-1E1", "--steps", "5", "--csv"],
     ["crank", "--length", "1", "--pivot=-.5,-2", "--phidot=-2", "--from=-.25",
      "--to=-1E1", "--steps", "5", "--csv"]),
    (["intersect", "--a", "-1,0", "--u", "1,1", "--b", "1,0", "--v", "1,-1"],
     ["intersect", "--a=-1,0", "--u", "1,1", "--b", "1,0", "--v", "1,-1"]),
    (["intersect", "--a", "-1e308,0", "--u", "1,1", "--b", "1e308,0", "--v", "1,-1"],
     ["intersect", "--a=-1e308,0", "--u", "1,1", "--b", "1e308,0", "--v", "1,-1"]),
])
def test_negative_values_parse_as_separate_arguments(capsys, separate, joined):
    outputs = []
    for argv in (separate, joined):
        assert main(argv) == 0
        outputs.append(strip_timing(capsys.readouterr().out.encode()))
    assert outputs[0] == outputs[1]


def test_oscillator_svg_with_an_extreme_omega(tmp_path, capsys):
    # k/m = 1e-600 underflows; omega = 1e-300 still gives a finite period.
    path = tmp_path / "phase.svg"
    base = ["oscillator", "--q0", "1", "--p0", "1", "--dt", "1", "--steps", "2",
            "--method", "leapfrog", "--svg", str(path)]
    assert main(base + ["--mass", "1e300", "--stiffness", "1e-300"]) == 0
    capsys.readouterr()
    assert "</svg>" in path.read_text()
    # omega is subnormal here, so 2*pi/omega overflows.
    code = main(base + ["--mass", "1.7976931348623157e308", "--stiffness", "5e-324"])
    assert code == 3
    assert "numerical singularity: phase-portrait period overflows" in capsys.readouterr().err


def test_tangents_near_the_overflow_limit(capsys):
    code, report = run_json(capsys, ["tangents", "--c1", "0,0,1e155",
                                     "--c2", "4e155,1e155,0.7e155"])
    assert code == 0
    assert report["results"]["count"] == 4
    bound = 1e-9 * (1.0 + math.hypot(4e155, 1e155))
    assert report["residuals"]["max_tangency_error"] <= bound


def test_tangents_over_a_center_offset_beyond_the_float_range(capsys):
    # The center offset 1.81e308 overflows, so it is formed at half size.
    code, report = run_json(capsys, ["tangents", "--c1=-9e307,0,1.7e308",
                                     "--c2", "9.1e307,0,1e300"])
    assert code == 0
    assert report["results"]["count"] == 4


def test_tangent_distances_over_a_center_offset_beyond_the_float_range(capsys):
    # Each center's offset from a touch point overflows, so the distance
    # error is formed over the halved offset.
    code, report = run_json(capsys, ["tangents", "--c1=-5e307,-8e307,5e307",
                                     "--c2", "5e307,8e307,1.3e308"])
    assert code == 0
    assert report["results"]["count"] == 4
    assert report["residuals"]["max_tangency_error"] == 2.9937604643020797e+292


def test_tangents_of_tiny_circles_with_distinct_centers(capsys):
    # Centers 1e-13 apart are distinct: only an exactly zero offset coincides.
    code, report = run_json(capsys, ["tangents", "--c1", "0,0,1e-14", "--c2", "1e-13,0,1e-14"])
    assert code == 0
    assert report["results"]["count"] == 4


def test_tangents_of_circles_at_a_subnormal_offset(capsys):
    # Equal unit circles 1e-320 apart: two outer tangents, no inner one.
    code, report = run_json(capsys, ["tangents", "--c1", "0,0,1", "--c2", "1e-320,0,1"])
    assert code == 0
    assert report["results"]["count"] == 2


def test_containment_is_success_not_an_error(capsys):
    code, report = run_json(capsys, ["tangents", "--c1", "0,0,3", "--c2", "1,0,1"])
    assert code == 0
    assert report["results"]["count"] == 0
    assert report["results"]["tangents"] == []


# ------------------------------------------------------------ JSON schema


JSON_REPORT_ARGV = {
    "identities": ["identities", "--samples", "20", "--seed", "3"],
    "intersect": ["intersect", "--a", "0,0", "--u", "1,0", "--b", "2,2", "--v", "0,1"],
    "tangents": ["tangents", "--c1", "0,0,1e155", "--c2", "4e155,1e155,0.7e155"],
    "crank": ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1",
              "--from", "0", "--to", "6.283185307179586", "--steps", "9"],
    "oscillator": ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "0",
                   "--p0", "1e150", "--dt", "1e-3", "--steps", "5", "--method", "euler"],
}


@pytest.mark.parametrize("subcommand", JSON_REPORT_ARGV)
def test_json_reports_hold_only_finite_numbers(capsys, subcommand):
    # strict_json raises on NaN or Infinity, which are not valid JSON.
    code, report = run_json(capsys, JSON_REPORT_ARGV[subcommand])
    assert code == 0
    assert report["subcommand"] == subcommand
    with pytest.raises(ValueError, match="Infinity"):
        strict_json('{"energy": Infinity}')


def test_report_key_order(capsys):
    _, report = run_json(capsys, ["identities", "--samples", "5"])
    assert list(report) == ["subcommand", "input", "results", "residuals", "wall_time_ms"]


# Each subcommand's ``input`` section: every run argument in usage order,
# an ``--svg`` path and the sign of ``-0.0`` included.
INPUT_ECHO_ARGV = {
    "identities": ["identities", "--samples", "5", "--seed", "1", "--range=-0.0"],
    "intersect": ["intersect", "--a=-1,0", "--u", "1,1", "--b", "1,0", "--v", "1,-1"],
    "tangents": ["tangents", "--c1", "0,0,1", "--c2", "4,0,1", "--svg", "PATH"],
    "crank": ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from=-0.0",
              "--to", "90", "--steps", "5", "--degrees", "--svg", "PATH"],
    "oscillator": ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
                   "--dt", "0.1", "--steps", "10", "--method", "leapfrog", "--svg", "PATH"],
}
INPUT_ECHO = {
    "identities": [("samples", 5), ("seed", 1), ("range", -0.0)],
    "intersect": [("a", [-1.0, 0.0]), ("u", [1.0, 1.0]), ("b", [1.0, 0.0]),
                  ("v", [1.0, -1.0])],
    "tangents": [("c1", [0.0, 0.0, 1.0]), ("c2", [4.0, 0.0, 1.0]), ("svg", "PATH")],
    "crank": [("length", 1.0), ("pivot", [3.0, 0.0]), ("phidot", 1.0), ("from", -0.0),
              ("to", 90.0), ("steps", 5), ("degrees", True), ("svg", "PATH")],
    "oscillator": [("mass", 1.0), ("stiffness", 1.0), ("q0", 1.0), ("p0", 0.0), ("dt", 0.1),
                   ("steps", 10), ("method", "leapfrog"), ("svg", "PATH")],
}


@pytest.mark.parametrize("subcommand", INPUT_ECHO_ARGV)
def test_input_echo_is_pinned(tmp_path, capsys, subcommand):
    path = str(tmp_path / "out.svg")
    argv = [path if arg == "PATH" else arg for arg in INPUT_ECHO_ARGV[subcommand]]
    code, report = run_json(capsys, argv)
    assert code == 0
    echo = [(key, path if value == "PATH" else value) for key, value in INPUT_ECHO[subcommand]]
    assert list(report["input"].items()) == echo
    # ``-0.0 == 0.0``, so the sign is checked apart.
    for key, value in echo:
        if isinstance(value, float):
            assert math.copysign(1.0, report["input"][key]) == math.copysign(1.0, value)


def test_intersect_anchor_report(capsys):
    code, report = run_json(capsys, ["intersect", "--a", "0,0", "--u", "1,0",
                                     "--b", "2,2", "--v", "0,1"])
    assert code == 0
    assert report["results"]["point"] == [2.0, 0.0]
    assert report["results"]["lambda"] == 2.0
    assert report["results"]["mu"] == -2.0
    assert report["residuals"]["loop_closure"] <= 1e-12
    assert report["input"] == {"a": [0.0, 0.0], "u": [1.0, 0.0],
                               "b": [2.0, 2.0], "v": [0.0, 1.0]}


# ``intersect`` runs on the float kernel ``_meet`` and builds no record; the
# reference is the record path it replaced, ``intersect_lines`` on two
# ``Line``s and the loop closure as a ``Vec2`` expression.

_LINE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, -1.0, 3.0, 1e150, 1e300, -1e300, 1.7e308)


def _line_value(rng):
    value = rng.choice(_LINE_VALUES)
    return -value if rng.random() < 0.5 else value


def _intersect_case(rng):
    """Anchors and directions ``(a, u, b, v)``, a fifth of the pairs parallel,
    a fifth near-parallel and a tenth with a zero direction."""
    a, u, b, v = [(_line_value(rng), _line_value(rng)) for _ in range(4)]
    roll = rng.random()
    if roll < 0.4:
        if roll < 0.2:
            scale = _line_value(rng)
            near = (u[0] * scale, u[1] * scale)
        else:
            near = (u[0] * (1.0 + rng.choice((1e-15, 1e-12, 1e-9))), u[1])
        if math.isfinite(near[0]) and math.isfinite(near[1]):
            v = near
    elif roll < 0.5:
        zero = (rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
        if rng.random() < 0.5:
            u = zero
        else:
            v = zero
    return a, u, b, v


def _reference_intersect(a, u, b, v):
    """``(exit code, intersection or error message, loop closure)`` by the record
    path; the closure is None where its ``Vec2`` expression is not finite."""
    try:
        result = intersect_lines(Line(Vec2(*a), Vec2(*u)), Line(Vec2(*b), Vec2(*v)))
    except DegeneracyError as exc:
        return 2, f"geometric degeneracy: {exc}", None
    except SingularityError as exc:
        return 3, f"numerical singularity: {exc}", None
    a, u, b, v = Vec2(*a), Vec2(*u), Vec2(*b), Vec2(*v)
    k = 1.0 if math.isfinite(b.x - a.x) and math.isfinite(b.y - a.y) else 0.5
    try:
        closure = norm((b * k - a * k) + v * (result.mu * k) - u * (result.lam * k)) / k
    except ValueError:
        return 0, result, None
    return 0, result, closure if math.isfinite(closure) else None


@pytest.mark.parametrize("seed", [5, 17])
def test_intersect_matches_the_record_path(capsys, monkeypatch, seed):
    # One parser serves every run: building it costs ten times the run.
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    rng = random.Random(seed)
    codes = []
    for _ in range(1000):
        a, u, b, v = _intersect_case(rng)
        argv = ["intersect"] + [f"--{name}={x!r},{y!r}"
                                for name, (x, y) in zip("aubv", (a, u, b, v))]
        code = main(argv)
        captured = capsys.readouterr()
        expected, result, closure = _reference_intersect(a, u, b, v)
        codes.append(expected)
        if expected == 0 and closure is None:
            # The record path's closure overflows: a typed overflow, not a ValueError.
            assert code == 3, argv
            assert "loop closure of the line intersection overflows" in captured.err
            continue
        assert code == expected, argv
        if code:
            assert captured.out == ""
            assert result in captured.err, argv
            continue
        report = strict_json(captured.out)
        got = report["results"]
        assert [repr(c) for c in got["point"]] == [repr(result.point.x), repr(result.point.y)]
        assert repr(got["lambda"]) == repr(result.lam), argv
        assert repr(got["mu"]) == repr(result.mu), argv
        assert repr(report["residuals"]["loop_closure"]) == repr(closure), argv
    # The seeded mix reaches every exit path.
    assert {0, 2, 3} <= set(codes)


def test_intersect_over_a_large_offset_and_a_direction_far_from_unit_scale(capsys):
    # mu's quotient on the unscaled offset overflowed; the closure, whose
    # unit-scale terms overflow, is formed at half scale.
    code, report = run_json(capsys, ["intersect", "--a", "8e307,0", "--u", "1,1",
                                     "--b", "-8e307,0", "--v", "3e300,1e300"])
    assert code == 0
    assert report["results"] == {"point": [1.6e308, 8e307], "lambda": 8e307, "mu": 8e7}
    assert math.isfinite(report["residuals"]["loop_closure"])


def test_exit_code_three_on_a_loop_closure_overflow(capsys, monkeypatch):
    # No input found makes the closure overflow once ``_meet`` succeeds, so
    # the kernel is stood in for: ``v*mu`` is 1e309.
    monkeypatch.setattr(cli, "_meet", lambda *args: (0.0, 0.0, 0.0, 1e308))
    assert main(["intersect", "--a", "0,0", "--u", "0,1", "--b", "0,0", "--v", "10,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical singularity: loop closure of the line intersection overflows" in captured.err


def test_tangents_anchor_report(capsys):
    _, report = run_json(capsys, ["tangents", "--c1", "0,0,1", "--c2", "4,0,1"])
    assert report["results"]["count"] == 4
    kinds = [t["kind"] for t in report["results"]["tangents"]]
    assert kinds == ["outer", "outer", "inner", "inner"]
    assert report["residuals"]["max_tangency_error"] <= 1e-9 * 5.0


def test_identities_zero_range_has_exactly_zero_residuals(capsys):
    code, report = run_json(capsys, ["identities", "--samples", "100", "--range", "0"])
    assert code == 0
    assert report["results"]["within_tolerance"] is True
    assert all(v == 0.0 for v in report["residuals"].values())


def test_identities_seeded_run_stays_within_documented_bound(capsys):
    code, report = run_json(capsys, ["identities", "--samples", "1000", "--seed", "42"])
    assert code == 0
    bound = 1e-9 * (1.0 + 10.0 ** 4)
    assert all(v <= bound for v in report["residuals"].values())


def test_identities_over_tolerance_exits_three_with_its_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "IDENTITY_RTOL", 0.0)
    argv = ["identities", "--samples", "50", "--seed", "3"]
    code, report = run_json(capsys, argv)
    assert code == 3
    assert report["results"]["within_tolerance"] is False
    assert max(report["residuals"].values()) > 0.0
    code, text = run_csv(capsys, argv + ["--csv"])
    assert code == 3
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["identity", "max_residual"]
    assert [(name, float(value)) for name, value in rows[1:]] == list(report["residuals"].items())


def _reference_identities(samples, seed, span):
    """The identity fuzz run on the public record path: ``Vec2``s, records and ``norm``."""
    rng = random.Random(seed)
    maxima = dict.fromkeys(
        ("jacobi", "grassmann_full", "lagrange", "grassmann_reduced", "binet_cauchy"), 0.0)
    within = True
    for _ in range(samples):
        a, b, c, d = [Vec2(rng.uniform(-span, span), rng.uniform(-span, span))
                      for _ in range(4)]
        tol = cli.IDENTITY_RTOL * (1.0 + norm(a) * norm(b) * norm(c) * norm(d))
        for name, value in identity_residuals(a, b, c, d).magnitudes().items():
            if value > maxima[name]:
                maxima[name] = value
            if value > tol:
                within = False
    return maxima, within


@pytest.mark.parametrize("span", [0.0, -0.0, -7.5, 1e-150, 1e-160, 10.0, 1e75])
@pytest.mark.parametrize("seed", [3, 29])
def test_identities_runner_matches_the_record_path(span, seed):
    maxima, within = _reference_identities(400, seed, span)
    result = cli._run_identities(argparse.Namespace(samples=400, seed=seed, range=span))
    assert [(name, repr(value)) for name, value in result.rows] == \
        [(name, repr(value)) for name, value in maxima.items()]
    assert result.residuals == maxima
    assert result.results["within_tolerance"] is within
    assert result.exit_code == (0 if within else 3)


def test_oscillator_report_shape(capsys):
    code, report = run_json(capsys, [
        "oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
        "--dt", "0.01", "--steps", "628", "--method", "leapfrog"])
    assert code == 0
    assert len(report["results"]["states"]) == 629
    final = report["results"]["final"]
    assert final["t"] == pytest.approx(6.28, abs=1e-9)
    assert final["q"] == pytest.approx(1.0, abs=1e-3)
    assert report["residuals"]["max_energy_drift"] >= 0.0


def test_crank_report_flags_singular_rows(capsys):
    code, report = run_json(capsys, [
        "crank", "--length", "1", "--pivot", "1,0", "--phidot", "1",
        "--from", "0", "--to", "6.283185307179586", "--steps", "9"])
    assert code == 0
    rows = report["results"]["entries"]
    assert rows[0]["singular"] is True
    assert rows[0]["s"] is None
    assert rows[4]["singular"] is False
    assert rows[4]["s"] == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------------- determinism


def run_subprocess(argv):
    return subprocess.run([sys.executable, "-m", "sympgeo", *argv],
                          capture_output=True, timeout=60)


def strip_timing(raw: bytes) -> bytes:
    return b"\n".join(line for line in raw.splitlines()
                      if b'"wall_time_ms"' not in line)


def test_identical_invocations_are_byte_identical_apart_from_timing():
    argv = ["identities", "--samples", "50", "--seed", "7"]
    first = run_subprocess(argv)
    second = run_subprocess(argv)
    assert first.returncode == 0 and second.returncode == 0
    assert strip_timing(first.stdout) == strip_timing(second.stdout)
    assert first.stdout != b""


def test_csv_output_is_fully_byte_identical():
    argv = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1",
            "--from", "0", "--to", "6.283185307179586", "--steps", "37", "--csv"]
    first = run_subprocess(argv)
    second = run_subprocess(argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


# The benchmark's crank-sweep and phase-flow argv (perfbench), less --steps
# and, for the phase flow, --method.
_CRANK_SWEEP_ARGV = ["crank", "--length", "1.25", "--pivot", "2.5,0.75", "--phidot", "1.5",
                     "--from", "0", "--to", "12.566370614359172"]
_PHASE_FLOW_ARGV = ["oscillator", "--mass", "1.5", "--stiffness", "0.75", "--q0", "1",
                    "--p0", "0.5", "--dt", "0.01"]
_OSCILLATOR_ARGV = _PHASE_FLOW_ARGV + ["--method", "leapfrog"]
# The benchmark's sweep length and --svg path, which the JSON report echoes.
_BENCHMARK_SVG = ["--steps", "2001", "--svg", "perfbench/_work/crank.svg"]
# Two turns with the pivot on the crank circle, less --steps: singular rows
# at 0, 2pi and 4pi split each SVG curve.
_ON_CIRCLE_ARGV = ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1",
                   "--from", "0", "--to", "12.566370614359172"]
_CRANK_ON_CIRCLE = _ON_CIRCLE_ARGV + ["--steps", "17"]
_CRANK_REGULAR = ["crank", "--length", "1.25", "--pivot", "2.5,0.75", "--phidot", "1.5",
                  "--from", "0", "--to", "6.283185307179586", "--steps", "181"]
_CRANK_DEGREES = ["crank", "--length", "1", "--pivot", "3,0.5", "--phidot", "2",
                  "--from", "-90", "--to", "270", "--steps", "91", "--degrees"]
# Singular rows at 0, 360 and 720 degrees among converted regular rows.
_CRANK_DEGREE_TURNS = ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1",
                       "--from", "0", "--to", "720", "--steps", "2001", "--degrees"]
_CRANK_SMALL = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--steps", "73"]
_OSCILLATOR_SMALL = ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1",
                     "--p0", "0", "--dt", "0.05", "--steps", "200"]

# Every pinned CLI output: ``(argv, target, sha256)``.  The target is
# "stdout", taken after ``strip_timing`` for a JSON report, or "svg", the
# file that ``--svg`` names.  A deliberate output change re-pins here and
# in perfbench's ``cli_sha256``.
PINNED_OUTPUTS = {
    "identities-json-seed-42": (
        ["identities", "--samples", "1000", "--seed", "42"], "stdout",
        "b2ebd6a55c1952d2c73f3504cb29a398a98ca2a2439da50aeb2471f5f8b020eb"),
    "identities-json-subnormal-products": (
        ["identities", "--samples", "200", "--seed", "5", "--range", "1e-160"], "stdout",
        "52fd2fbc7635912fd573cce383552e977151c78fecd35a059319f5093841833f"),
    "identities-csv": (
        ["identities", "--samples", "6000", "--seed", "11", "--csv"], "stdout",
        "5ebb783a3561ba636d166e327e673db12a293ebce253f2bb53dd60957bdad895"),
    "intersect-json": (
        ["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1", "--v", "1,1"], "stdout",
        "9b4dbedf93e08b7dca791aa54bfc44e58051a7dee580073dd6c0d7f1329d8797"),
    "tangents-json-four-tangents": (
        ["tangents", "--c1", "0,0,1", "--c2", "4,0,1"], "stdout",
        "5f3282e917a91b83a6c4d02690e05d4b1acc2600b1182b90fa2d990b5f6d3f13"),
    "tangents-json-tangent-pair": (
        ["tangents", "--c1", "0,0,1", "--c2", "3,0,2"], "stdout",
        "82f64a1866fcd247d51cee351cca9cf3e552ecebcec18343e8151c308848355b"),
    "tangents-svg": (
        ["tangents", "--c1", "0,0,1", "--c2", "4,0,1", "--svg", "tangents.svg"], "svg",
        "73706c693486acb292c166290b9d6d6563fa1e1ee221d3496478932109aeadc9"),
    "crank-json-regular": (
        _CRANK_REGULAR, "stdout",
        "ee81d1f7819c90eb7eeb4002380fca0c4295b853c086b11796497692588412b5"),
    "crank-json-pivot-on-circle": (
        _CRANK_ON_CIRCLE, "stdout",
        "055c9710a9c0b8e6a02a488069f77039302dafa4276060d4d674b99ba771e9b6"),
    "crank-json-degrees": (
        _CRANK_DEGREES, "stdout",
        "cae0890a400638ce19e9a00005374e35334e781b06d48322b87644c7b0234f90"),
    "crank-csv-regular": (
        _CRANK_REGULAR + ["--csv"], "stdout",
        "8eead8cf5c0cb130b3776591013908e02e242fcc462c1fd067209ed7b3a34758"),
    "crank-csv-pivot-on-circle": (
        _CRANK_ON_CIRCLE + ["--csv"], "stdout",
        "4f3db82a54ec52155ddf33314657a74a5f714af77778e1539dfa234bdbeb6312"),
    "crank-csv-degrees": (
        _CRANK_DEGREES + ["--csv"], "stdout",
        "21233c547e87f47de437dd20a33227c6b465b853ee12e0f41631fc950c87dde2"),
    "crank-svg-regular": (
        _CRANK_REGULAR + ["--svg", "crank.svg"], "svg",
        "3b568085a87014dd662e750cae80f84525c143d210fccddb873d8a30411d0139"),
    "crank-svg-pivot-on-circle": (
        _CRANK_ON_CIRCLE + ["--svg", "crank.svg"], "svg",
        "e8687590559b12197c82f6b5c13dfca55729839ae9f8526620e7a64a38f68da6"),
    "crank-svg-degrees": (
        _CRANK_DEGREES + ["--svg", "crank.svg"], "svg",
        "77228dbd66ff59d4a6d5d0f113daa195b26b4e08c6f2cf718fe2017e72e807fe"),
    "crank-svg-one-turn": (
        _CRANK_SMALL + ["--from", "0", "--to", "6.283185307179586", "--svg", "crank.svg"], "svg",
        "2beb43696091b47bc5e7285a77a178ed7fe3c11598d431585045113a9e5bc6d4"),
    "crank-svg-one-turn-degrees": (
        _CRANK_SMALL + ["--from", "0", "--to", "360", "--degrees", "--svg", "crank.svg"], "svg",
        "384b5ba4f16cb7571c82e0894f2333c081bc88a044ef81fe150af2ff29629702"),
    # The benchmark's crank sweeps: 2,001 rows, written in several chunks.
    "crank-json-benchmark": (
        _CRANK_SWEEP_ARGV + _BENCHMARK_SVG, "stdout",
        "51ac69932f955d93d17236c1f914c87bdf74d8f7a47b960080af914adef424c8"),
    "crank-svg-benchmark": (
        _CRANK_SWEEP_ARGV + _BENCHMARK_SVG, "svg",
        "eccda83f18cb62543b7ec9688be353d3fcd7eaf0048841d529d0fe02fd8404af"),
    "crank-csv-benchmark": (
        _CRANK_SWEEP_ARGV + ["--steps", "2001", "--csv"], "stdout",
        "c71e3a912eab07996cc869e532ba563b35e6dd56b64c08d88a37a8477015b13a"),
    "crank-json-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + _BENCHMARK_SVG, "stdout",
        "1508a14eaaba11e5340634d4b1c066aa005280d24045531b59710f5f8a6953c9"),
    "crank-svg-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + _BENCHMARK_SVG, "svg",
        "849287c357c7667b1ff45fc8a6901df6c78fbf758f96d3b549bd91863626e44c"),
    "crank-csv-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + ["--steps", "2001", "--csv"], "stdout",
        "9ed7cdc9a5d8d18f6e7ce4da493ab7f51d713db4623ccd992e289376be0fd413"),
    "crank-json-degree-turns": (
        _CRANK_DEGREE_TURNS, "stdout",
        "4117894b88a18986e48b7843a309229db47905730a4c9f4e3d356b6db784bccb"),
    "crank-csv-degree-turns": (
        _CRANK_DEGREE_TURNS + ["--csv"], "stdout",
        "d151393e5aa97ccc8005eea4864a29ff44b98ef6cda5904aa2dc999b3f12b333"),
    "oscillator-json-leapfrog": (
        _OSCILLATOR_ARGV + ["--steps", "10000"], "stdout",
        "f69bd4beef6074168ce734f9a58771bf9b9d51b59701fb9d2fc0687f776af13f"),
    "oscillator-json-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "euler"], "stdout",
        "40b9f85f6f0cff204e987cb27378ac8dc84d934325a661c962db58002e25ab17"),
    "oscillator-json-symplectic-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "symplectic-euler"], "stdout",
        "9b2eb6b652b66bd5ab9e7fd21eec14d92a1f9bedcda0ac9ede52000ede28cfa1"),
    "oscillator-csv-leapfrog": (
        _OSCILLATOR_ARGV + ["--steps", "10000", "--csv"], "stdout",
        "025f6d3c9fbf2d2afa9a5b06b0d9560b54fe417231ccb78f0d06dd3e8eb6a2fb"),
    "oscillator-csv-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "euler", "--csv"], "stdout",
        "7ad8d728d28d0224bb558f6fd7229b8b23df91b201b4d5ca9c365fa29b1e2744"),
    "oscillator-csv-symplectic-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "symplectic-euler", "--csv"],
        "stdout", "1256440aeb74498656e49a4089369d651a3bf980ed61e9749eecddff1bf9cdc4"),
    # 10,001 states drawn from the packed rows.
    "oscillator-svg-benchmark": (
        _OSCILLATOR_ARGV + ["--steps", "10000", "--svg", "phase.svg"], "svg",
        "4f7ed4b67952d1c0ab22a65120b9b8a2f629b341580896685a3b2c6cc4ee0994"),
    "oscillator-svg-symplectic-euler": (
        _OSCILLATOR_SMALL + ["--method", "symplectic-euler", "--svg", "phase.svg"], "svg",
        "87f8b5843fca9fc6d23f9ef5a4334969a0584e1ef89b1304aa784931ca2c5f18"),
    "oscillator-svg-euler": (
        _OSCILLATOR_SMALL + ["--method", "euler", "--svg", "phase.svg"], "svg",
        "942d6ad63e915cb007b1677e61afc9c90c962414043352c130ddfb66b3ee1231"),
    "oscillator-svg-leapfrog": (
        _OSCILLATOR_SMALL + ["--method", "leapfrog", "--svg", "phase.svg"], "svg",
        "1281477bc95ced32ee42d230c1e0b3c5c1b07cbda70f0b620ddd21bdd389a080"),
}


@pytest.mark.parametrize("case", PINNED_OUTPUTS)
def test_pinned_output(tmp_path, monkeypatch, capsys, case):
    # Run from an empty directory, so that a relative --svg path is echoed
    # and written the same way wherever the suite runs.
    argv, target, digest = PINNED_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    if "--svg" in argv:
        svg = tmp_path / argv[argv.index("--svg") + 1]
        svg.parent.mkdir(parents=True, exist_ok=True)
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    if target == "svg":
        out = svg.read_bytes()
    elif "--csv" not in argv:
        out = strip_timing(out)
    assert hashlib.sha256(out).hexdigest() == digest


# ----------------------------------------------------------- row writers

# Each tabular subcommand keeps one row per sample, ``crank`` and
# ``oscillator`` as packed floats; the JSON and CSV writers format them from
# per-row templates.  The references below are the generic encoders those
# templates replace, fed the rows as tuples.

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1.0 / 3.0)


def _float(rng):
    if rng.random() < 0.4:
        return rng.choice(_EXTREMES)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)


def _crank_rows(rng, n):
    """``n`` packed crank rows, as ``sympgeo crank`` keeps them.

    The flags are 0.0 or 1.0; a singular row's seven state cells hold
    arbitrary floats, which no writer may read.
    """
    store = array("d")
    for _ in range(n):
        singular = rng.random() < 0.2
        store.extend([_float(rng) for _ in range(8)])
        store.extend((1.0, 1.0) if singular else (0.0, float(rng.random() < 0.3)))
    return cli._row_view(store, 10)


def _oscillator_rows(rng, n):
    """``n`` packed ``(t, q, p, energy)`` rows, as ``sympgeo oscillator`` keeps them."""
    return cli._row_view(array("d", [_float(rng) for _ in range(4 * n)]), 4)


def _tuples(rows):
    """The rows as tuples; a packed row view is unpacked.

    A packed crank row gets its flags as booleans and, if singular, None
    in its seven state cells.
    """
    if not isinstance(rows, memoryview):
        return rows
    if rows.ndim == 2 and rows.shape[1] == 10:
        return [(row[0],) + (None,) * 7 + (True, True) if row[8]
                else tuple(row[:8]) + (False, bool(row[9])) for row in rows.tolist()]
    return [tuple(row) for row in rows.tolist()]


def _envelope(subcommand, rng, array):
    """Report envelope with strings that an unescaped splice would trip on."""
    results = {"final": {"t": _float(rng), "q": -0.0}} if subcommand == "oscillator" else {}
    results[array] = []
    return {
        "subcommand": subcommand,
        "input": {"svg": f'x", "{array}": []', "degrees": True, "pivot": [_float(rng), 0.0],
                  "none": None},
        "results": results,
        "residuals": {"max": _float(rng), "zero": -0.0},
        "wall_time_ms": 1.25,
    }


def _full_report(envelope, array, rows):
    report = copy.deepcopy(envelope)
    rows = _tuples(rows)
    if array == "entries":
        report["results"][array] = [dict(zip(cli._CRANK_COLUMNS, row)) for row in rows]
    else:
        report["results"][array] = [list(row[:3]) for row in rows]
    return report


def _reference_csv(columns, rows):
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return value
        return format(value, ".17g")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows([cell(v) for v in row] for row in _tuples(rows))
    return buffer.getvalue()


@pytest.mark.parametrize("subcommand, array, make_rows", [
    ("crank", "entries", _crank_rows),
    ("oscillator", "states", _oscillator_rows),
])
def test_row_writers_match_the_generic_encoders(subcommand, array, make_rows):
    rng = random.Random(subcommand)
    table = {"crank": cli._CRANK_TABLE, "oscillator": cli._OSCILLATOR_TABLE}[subcommand]
    chunk = cli._CHUNK
    # Row counts on both sides of each chunk seam, as well as within one chunk.
    for n in (0, 1, 2, 7, 200, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        chunks = -(-n // chunk)
        for _ in range(5):
            rows = make_rows(rng, n)
            envelope = _envelope(subcommand, rng, array)
            expected = json.dumps(_full_report(envelope, array, rows), indent=2)
            pieces = list(cli._json_pieces(envelope, table, rows))
            assert "".join(pieces) == expected
            assert len(pieces) == (chunks + 2 if n else 1)
            pieces = list(cli._csv_pieces(table, rows))
            assert "".join(pieces) == _reference_csv(table.columns, rows)
            assert len(pieces) == chunks + 1


def test_row_writers_match_the_generic_encoders_on_degree_rows():
    args = cli._build_parser().parse_args(
        ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1", "--from", "-90",
         "--to", "630", "--steps", "41", "--degrees"])
    result = cli._run_crank(args)
    rows = result.rows.tolist()
    assert any(row[8] for row in rows) and not all(row[8] for row in rows)
    table = cli._CRANK_TABLE
    envelope = {"subcommand": "crank", "input": cli._echo(args), "results": result.results,
                "residuals": result.residuals, "wall_time_ms": 1.25}
    expected = json.dumps(_full_report(envelope, "entries", result.rows), indent=2)
    assert "".join(cli._json_pieces(envelope, table, result.rows)) == expected
    assert ("".join(cli._csv_pieces(table, result.rows))
            == _reference_csv(table.columns, result.rows))


def test_csv_runs_never_call_json_dumps(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a CSV run called json.dumps")

    monkeypatch.setattr(cli.json, "dumps", forbidden)
    for argv in (["identities", "--samples", "5"],
                 ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1",
                  "--from", "0", "--to", "6.283185307179586", "--steps", "9"],
                 ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1",
                  "--p0", "0", "--dt", "0.1", "--steps", "10", "--method", "euler"]):
        assert main(argv + ["--csv"]) == 0
        assert capsys.readouterr().out.count("\r\n") >= 6


class _Sink(io.TextIOBase):
    """A text stream that discards what is written to it."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("argv, bytes_per_row", [
    (_CRANK_SWEEP_ARGV + ["--csv"], 128),
    (_CRANK_SWEEP_ARGV + ["--svg", "{tmp}/crank.svg"], 600),
    (_OSCILLATOR_ARGV + ["--csv"], 64),
    (_OSCILLATOR_ARGV, 64),
], ids=["crank", "crank-json-svg", "oscillator", "oscillator-json"])
def test_csv_peak_memory_is_bounded_by_the_rows(argv, bytes_per_row, tmp_path):
    # A run holds its rows and one chunk of row texts at a time: not the
    # sweep entries or trajectory states, nor the whole report text.  A
    # crank row is ten packed floats (80 bytes) and an oscillator row four
    # (32 bytes), CSV or JSON.  With --svg a crank run also holds the six
    # curves of the plot, which share one phi float per row, and as the SVG
    # is written one shape's text at a time and one template of screen-x
    # texts per distinct x column, which the six curves share.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    rows = 20000
    with contextlib.redirect_stdout(_Sink()):
        # A short run first, so the peak below counts no import.
        assert main(argv + ["--steps", "3"]) == 0
        tracemalloc.start()
        try:
            assert main(argv + ["--steps", str(rows)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bytes_per_row * rows


# --------------------------------------------------------------------- CSV


def test_crank_csv_round_trips_at_full_precision(capsys):
    code, text = run_csv(capsys, ["crank", "--length", "1", "--pivot", "3,0",
                                  "--phidot", "1", "--from", "0", "--to", "6.2",
                                  "--steps", "25", "--csv"])
    assert code == 0
    assert "\r\n" in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["phi", "s", "psi", "psi_unwrapped", "s_dot",
                       "psi_dot", "s_ddot", "psi_ddot", "singular", "near_singular"]
    assert len(rows) == 26
    for row in rows[1:]:
        for cell in row[:8]:
            assert format(float(cell), ".17g") == cell
        assert row[8] == "false" and row[9] == "false"


def test_crank_csv_tiny_regular_crank_has_regular_rows(capsys):
    # The rod never gets shorter than one crank length; the singularity
    # floor scales with the mechanism, so no row is flagged.
    code, text = run_csv(capsys, ["crank", "--length", "1e-150", "--pivot", "2e-150,0",
                                  "--phidot", "1", "--from", "0", "--to", "1",
                                  "--steps", "3", "--csv"])
    assert code == 0
    rows = list(csv.reader(text.splitlines()))[1:]
    assert len(rows) == 3
    for row in rows:
        assert row[8:] == ["false", "false"]
        assert all(cell != "" for cell in row[:8])
        assert float(row[1]) >= 1e-150


def test_crank_csv_blanks_singular_cells(capsys):
    code, text = run_csv(capsys, _CRANK_ON_CIRCLE + ["--csv"])
    assert code == 0
    singular = [row for row in csv.reader(text.splitlines()[1:]) if row[8] == "true"]
    assert len(singular) == 3
    for row in singular:
        assert row[0] != "" and all(cell == "" for cell in row[1:8])


@pytest.mark.parametrize("method", dynamics.METHODS)
@pytest.mark.parametrize("steps", [1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1,
                                   2 * cli._CHUNK + 1])
def test_oscillator_rows_match_one_simulate_call_across_chunk_seams(capsys, method, steps):
    # The CLI writes its rows _CHUNK at a time from the one step loop; every
    # row must be the state of a single simulate call over the whole run, bit
    # for bit, on both sides of each chunk seam.
    params = OscillatorParams(1.5, 0.75)
    states = simulate(PhaseState(1.0, 0.5, 0.0), params, 0.01, steps, method).states
    rows = [(s.t, s.q, s.p, hamiltonian(s, params)) for s in states]
    name = next(k for k, v in cli._METHOD_NAMES.items() if v == method)
    argv = ["oscillator", "--mass", "1.5", "--stiffness", "0.75", "--q0", "1", "--p0", "0.5",
            "--dt", "0.01", "--steps", str(steps), "--method", name]
    code, text = run_csv(capsys, argv + ["--csv"])
    assert code == 0
    assert text == _reference_csv(("t", "q", "p", "energy"), rows)
    code, report = run_json(capsys, argv)
    assert code == 0
    # Compared as text, so that a -0.0 cannot pass for 0.0.
    assert (json.dumps(report["results"]["states"])
            == json.dumps([list(row[:3]) for row in rows]))
    assert report["results"]["final"] == dict(zip(("t", "q", "p", "energy"), rows[-1]))


def test_oscillator_evaluates_each_energy_once(capsys, monkeypatch):
    calls = []

    def counting_hamiltonian(state, params):
        calls.append(state)
        return hamiltonian(state, params)

    monkeypatch.setattr(dynamics, "hamiltonian", counting_hamiltonian)
    base = ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
            "--dt", "0.1", "--steps", "200", "--method", "leapfrog"]
    for extra in ([], ["--csv"]):
        calls.clear()
        assert main(base + extra) == 0
        capsys.readouterr()
        assert 0 < len(calls) <= 201


def test_oscillator_csv_shape(capsys):
    code, text = run_csv(capsys, ["oscillator", "--mass", "1", "--stiffness", "1",
                                  "--q0", "1", "--p0", "0", "--dt", "0.1",
                                  "--steps", "10", "--method", "euler", "--csv"])
    assert code == 0
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["t", "q", "p", "energy"]
    assert len(rows) == 12
    assert float(rows[1][1]) == 1.0


def test_identities_csv_lists_the_five_families(capsys):
    _, text = run_csv(capsys, ["identities", "--samples", "20", "--csv"])
    rows = list(csv.reader(text.splitlines()))
    assert [r[0] for r in rows[1:]] == ["jacobi", "grassmann_full", "lagrange",
                                        "grassmann_reduced", "binet_cauchy"]


# ----------------------------------------------------------------- degrees


# A finite rod acceleration above ~3.1e306 rad/s^2 overflows in degrees.
_DEGREES_OVERFLOW = ["crank", "--length", "1", "--pivot", "2,0", "--phidot", "2e153",
                     "--from", "0", "--to", "90", "--steps", "3", "--degrees"]


@pytest.mark.parametrize("extra", [["--csv"], [], ["--svg", "PATH"]], ids=["csv", "json", "svg"])
def test_exit_code_three_on_a_degrees_overflow(tmp_path, capsys, extra):
    path = tmp_path / "crank.svg"
    code = main(_DEGREES_OVERFLOW + [str(path) if arg == "PATH" else arg for arg in extra])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical singularity: rod angle rates overflow in degrees at phi=45.0" \
        in captured.err
    assert not path.exists()
    # In radians the same sweep is finite.
    radians = [arg for arg in _DEGREES_OVERFLOW if arg != "--degrees"]
    assert main(radians + ["--csv"]) == 0
    assert "inf" not in capsys.readouterr().out


def test_crank_degrees_matches_radians(capsys):
    base = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--steps", "13"]
    _, rad = run_json(capsys, base + ["--from", "0", "--to", str(2.0 * math.pi)])
    _, deg = run_json(capsys, base + ["--from", "0", "--to", "360", "--degrees"])
    scale = math.pi / 180.0
    for row_r, row_d in zip(rad["results"]["entries"], deg["results"]["entries"]):
        assert row_d["phi"] * scale == pytest.approx(row_r["phi"], abs=1e-9)
        assert row_d["s"] == pytest.approx(row_r["s"], abs=1e-12)
        assert row_d["s_dot"] == pytest.approx(row_r["s_dot"], abs=1e-12)
        assert row_d["psi"] * scale == pytest.approx(row_r["psi"], abs=1e-9)
        assert row_d["psi_dot"] * scale == pytest.approx(row_r["psi_dot"], abs=1e-9)


# --------------------------------------------------------------------- SVG


def test_exit_code_three_on_an_overflowing_svg_span(tmp_path, capsys):
    # The tangents are finite, but the diagram spans x from -1e308 to 1.5e308.
    path = tmp_path / "tangents.svg"
    code = main(["tangents", "--c1", "0,0,1e308", "--c2", "1e308,0,5e307", "--svg", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical singularity: plot span overflows" in captured.err
    assert captured.out == ""
    assert not path.exists()


def test_exit_code_three_on_an_overflowing_tangent_segment(tmp_path, capsys):
    # The tangents are finite, but each outer segment reaches 15% of lam
    # (about 1.7e308) past the second touch point, beyond the largest float.
    path = tmp_path / "tangents.svg"
    argv = ["tangents", "--c1", "0,0,1", "--c2", "1.7e308,0,1"]
    assert main(argv) == 0
    capsys.readouterr()
    code = main(argv + ["--svg", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical singularity: tangent segment overflows" in captured.err
    assert captured.out == ""
    assert not path.exists()


def test_crank_svg_splits_curves_at_singular_rows(tmp_path, capsys):
    path = tmp_path / "crank.svg"
    assert main(_CRANK_ON_CIRCLE + ["--svg", str(path)]) == 0
    capsys.readouterr()
    # Six curves, each split in two at the singular middle row.
    assert path.read_text().count("<polyline") == 12


def test_svg_write_failure_exits_with_usage_code(tmp_path, capsys):
    bad = tmp_path / "missing" / "out.svg"
    crank = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from", "0",
             "--to", "1", "--steps", "5"]
    oscillator = ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
                  "--dt", "0.1", "--steps", "10", "--method", "leapfrog"]
    for argv in (["tangents", "--c1", "0,0,1", "--c2", "4,0,1"],
                 crank, crank + ["--csv"], oscillator, oscillator + ["--csv"]):
        code = main(argv + ["--svg", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "sympgeo: cannot write output:" in captured.err


# ------------------------------------------------------------ error contract

# Every numeric option of the seeded fuzz is drawn from these values; a
# radius from their magnitudes and -1, so the radius rule is reached.
_FUZZ_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-13, 1e-8, 0.5, 1.0, -1.0, 2.0, 3.0, 7.0,
                1e150, 1e160, 1e300, -1e300, 1.7e308)
_FUZZ_RADII = tuple(sorted({abs(v) for v in _FUZZ_VALUES})) + (-1.0,)
#: The domain rules a valid-looking command line may break, exiting 1.
_DOMAIN_MESSAGES = ("invalid value: crank_length must be", "invalid value: mass must be",
                    "invalid value: stiffness must be", "invalid value: steps must be >= 2",
                    "invalid value: circle radius must be")


def _fuzz_argv(rng):
    """One command line: 1 to 20 steps or samples, ``--csv`` and ``--degrees`` at
    random, every number from :data:`_FUZZ_VALUES`."""
    def value():
        return repr(rng.choice(_FUZZ_VALUES))

    def pair():
        return f"{value()},{value()}"

    def circle():
        return f"{pair()},{rng.choice(_FUZZ_RADII)!r}"

    subcommand = rng.choice(("identities", "intersect", "tangents", "crank", "oscillator"))
    if subcommand == "identities":
        argv = [f"--samples={rng.randint(1, 20)}", f"--seed={rng.randint(0, 99)}",
                f"--range={value()}"]
    elif subcommand == "intersect":
        argv = [f"--{name}={pair()}" for name in "aubv"]
    elif subcommand == "tangents":
        argv = [f"--c1={circle()}", f"--c2={circle()}"]
    elif subcommand == "crank":
        argv = [f"--length={value()}", f"--pivot={pair()}", f"--phidot={value()}",
                f"--from={value()}", f"--to={value()}", f"--steps={rng.randint(1, 20)}"]
        if rng.random() < 0.5:
            argv.append("--degrees")
    else:
        argv = [f"--{name}={value()}" for name in ("mass", "stiffness", "q0", "p0", "dt")]
        argv += [f"--steps={rng.randint(1, 20)}",
                 f"--method={rng.choice(sorted(cli._METHOD_NAMES))}"]
    if subcommand in ("identities", "crank", "oscillator") and rng.random() < 0.5:
        argv.append("--csv")
    return [subcommand] + argv


def _check_csv(text, subcommand):
    """Each row of a ``--csv`` report has the header's width and finite numbers;
    only a singular crank row leaves its state cells empty."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert rows
    for row in rows:
        assert len(row) == len(header)
        cells = row
        if subcommand == "identities":
            cells = row[1:]
        elif subcommand == "crank":
            assert row[-2:] in (["false", "false"], ["false", "true"], ["true", "true"])
            cells = row[:1] if row[-2] == "true" else row[:-2]
            assert row[1:-2] == [""] * 7 or row[-2] == "false"
        assert all(math.isfinite(float(cell)) for cell in cells)


@pytest.mark.parametrize("seed", [28])
def test_the_error_contract_holds_over_a_seeded_fuzz(capsys, monkeypatch, seed):
    # One parser serves every run: building it costs ten times the run.
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    rng = random.Random(seed)
    codes, rules = [], set()
    for index in range(2000):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the contract is that none escapes
            pytest.fail(f"run {index} {argv} raised {exc!r}")
        out, err = capsys.readouterr()
        codes.append(code)
        if code == 0:
            if "--csv" in argv:
                _check_csv(out, argv[0])
            else:
                strict_json(out)
            continue
        assert out == "", (index, argv)
        if code == 1:
            broken = [m for m in _DOMAIN_MESSAGES if m in err]
            assert "usage: sympgeo" in err or broken, (index, argv, err)
            rules.update(broken)
    # The mix reaches every exit code and every listed rule, the radius rule included.
    assert set(codes) == {0, 1, 2, 3}
    assert rules == set(_DOMAIN_MESSAGES)


# ------------------------------------------------------------------ module


def test_module_entry_point_runs():
    result = run_subprocess(["identities", "--samples", "5"])
    assert result.returncode == 0
    assert b'"subcommand": "identities"' in result.stdout
