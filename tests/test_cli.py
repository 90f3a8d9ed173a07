"""Command-line layer: exit codes, schema, determinism, CSV and SVG output."""

import argparse
import ast
import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest

from sympgeo import _flow, _run_flow, _run_kernels, cli, dynamics
from sympgeo.cli import main
from sympgeo._kernels import _grid
from sympgeo.core import (
    Vec2,
    directed_angle,
    identity_residuals,
    norm,
    to_polar,
    wrap_angle,
)
from sympgeo.dynamics import (
    OscillatorParams,
    PhaseState,
    analytic_oscillator,
    hamiltonian,
    simulate,
)
from sympgeo.errors import (
    DegeneracyError,
    NumericalOverflowError,
    SingularityError,
    SingularPositionError,
)
from sympgeo.geometry import Circle, Line, circle_tangents, intersect_lines, tangent_distance_error
from sympgeo.kinematics import (
    NEAR_SINGULAR_FRACTION,
    CrankConfig,
    crank_state,
    crank_sweep,
    loop_residuals,
)


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


#: stderr of one top-level and one subcommand usage error, as argparse
#: writes them at a width of 80 columns: the usage line, then one
#: ``PROG: error: MESSAGE`` line.
_USAGE_ERRORS = (
    ([], "usage: sympgeo [-h] {identities,intersect,tangents,crank,oscillator} ...\n"
         "sympgeo: error: the following arguments are required: subcommand\n"),
    (["intersect", "--a", "1", "--u", "1,0", "--b", "0,1", "--v", "0,1"],
     "usage: sympgeo intersect [-h] --a A --u U --b B --v V\n"
     "sympgeo intersect: error: argument --a: expected x,y, got '1'\n"),
)


@pytest.mark.parametrize(("argv", "stderr"), _USAGE_ERRORS, ids=["top-level", "subcommand"])
def test_usage_errors_keep_their_stderr_bytes(capsys, monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", stderr)


def test_help_exits_zero(capsys):
    assert main(["crank", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sympgeo crank [-h]")


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


@pytest.mark.parametrize("ends, phis", [
    (["--from=-1.7e308", "--to", "1.7e308"], [-1.7e308, 0.0, 1.7e308]),
    (["--from", "1.7e308", "--to=-1.7e308"], [1.7e308, 0.0, -1.7e308]),
])
def test_crank_sweeps_a_span_beyond_the_float_range(capsys, ends, phis):
    # --to minus --from overflows; every grid angle is still finite.
    code, text = run_csv(capsys, ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1",
                                  *ends, "--steps", "3", "--csv"])
    assert code == 0
    assert [float(row[0]) for row in list(csv.reader(text.splitlines()))[1:]] == phis


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

    monkeypatch.setattr(_run_kernels, "_run_intersect", fail)
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
        outputs.append(capsys.readouterr().out)
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
    assert list(report) == ["subcommand", "input", "results", "residuals"]


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
    monkeypatch.setattr(_run_kernels, "_meet", lambda *args: (0.0, 0.0, 0.0, 1e308))
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
    monkeypatch.setattr(_run_kernels, "IDENTITY_RTOL", 0.0)
    argv = ["identities", "--samples", "50", "--seed", "3"]
    line = "sympgeo: numerical singularity: an identity residual exceeds its tolerance\n"
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == line
    report = strict_json(out)
    assert report["results"]["within_tolerance"] is False
    assert max(report["residuals"].values()) > 0.0
    assert main(argv + ["--csv"]) == 3
    text, err = capsys.readouterr()
    assert err == line
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
        tol = _run_kernels.IDENTITY_RTOL * (1.0 + norm(a) * norm(b) * norm(c) * norm(d))
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
    result = _run_kernels._run_identities(argparse.Namespace(samples=400, seed=seed, range=span))
    assert [(name, repr(value)) for name, value in result.rows] == \
        [(name, repr(value)) for name, value in maxima.items()]
    assert result.residuals == maxima
    assert result.results["within_tolerance"] is within
    assert result.failure is None if within else isinstance(result.failure, SingularityError)


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


def test_oscillator_drift_is_the_largest_energy_deviation():
    # The report's max_energy_drift, taken from the energy column's extremes,
    # is the float that a fold of |e - e0| over the column gives.
    rng = random.Random(3903)
    methods = sorted(cli._METHOD_NAMES)
    returned = 0
    for run in range(600):
        mass, stiffness = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
        q0, p0 = (0.0, 0.0) if run % 7 == 0 else (rng.uniform(-2, 2), rng.uniform(-2, 2))
        dt = rng.uniform(0.01, 2.0) / math.sqrt(stiffness / mass)
        args = argparse.Namespace(mass=mass, stiffness=stiffness, q0=q0, p0=p0, dt=dt,
                                  steps=rng.randint(1, 400), method=methods[run % 3])
        try:
            result = _run_flow._run_oscillator(args)
        except NumericalOverflowError:
            continue
        energies = [row[3] for row in result.rows.tolist()]
        drift = 0.0
        for energy in energies:
            if abs(energy - energies[0]) > drift:
                drift = abs(energy - energies[0])
        assert repr(result.residuals["max_energy_drift"]) == repr(drift), args
        returned += 1
    assert returned > 500


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


def run_subprocess(argv, stdout=subprocess.PIPE, **kwargs):
    """``python -m sympgeo ARGV`` in a child, stderr captured, bounded by a timeout."""
    return subprocess.run([sys.executable, "-m", "sympgeo", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60, **kwargs)


def test_identical_invocations_are_byte_identical_apart_from_timing():
    # The JSON report carries no timing field, so its whole stdout repeats.
    argv = ["identities", "--samples", "50", "--seed", "7"]
    first = run_subprocess(argv)
    second = run_subprocess(argv)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
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
# "stdout" or "svg", the file that ``--svg`` names; the digest is that of its
# raw bytes.  This table is the one place a CLI digest is written: a
# deliberate output change re-pins here, and for a benchmark row also in
# perfbench's ``cli_sha256`` or ``SETUP_SHA256``, which
# test_benchmark_cli_pins_hold_and_repeat_a_pinned_row ties to its row.
# test_pinned_output runs every row in process; run as a script, this module
# runs every row through an installed command (see ``_main``).
PINNED_OUTPUTS = {
    "identities-json-seed-42": (
        ["identities", "--samples", "1000", "--seed", "42"], "stdout",
        "00ba10ccbf96f7bdd7211c3044bcc59d8b2e78838a54ca32cac703721a0af554"),
    "identities-json-subnormal-products": (
        ["identities", "--samples", "200", "--seed", "5", "--range", "1e-160"], "stdout",
        "d44a59edfe15f43da3229a5959eb794e6bcbfb3bbc47172a3db1cecff2501d37"),
    "identities-csv": (
        ["identities", "--samples", "6000", "--seed", "11", "--csv"], "stdout",
        "5ebb783a3561ba636d166e327e673db12a293ebce253f2bb53dd60957bdad895"),
    "intersect-json": (
        ["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1", "--v", "1,1"], "stdout",
        "1370fd3b9eabf82a6080e6aaaef6e1a64f90f12ab740ec00fd7303f67a4eef58"),
    "tangents-json-four-tangents": (
        ["tangents", "--c1", "0,0,1", "--c2", "4,0,1"], "stdout",
        "b3eed343cd330aef5c569573eac183528c8644fbc6d43baf80bb6c6b33d810b6"),
    "tangents-json-tangent-pair": (
        ["tangents", "--c1", "0,0,1", "--c2", "3,0,2"], "stdout",
        "1644e0e67dd2fed058d7e84c89896a15804389d8d9777de23e2f0073f105aa50"),
    "tangents-svg": (
        ["tangents", "--c1", "0,0,1", "--c2", "4,0,1", "--svg", "tangents.svg"], "svg",
        "73706c693486acb292c166290b9d6d6563fa1e1ee221d3496478932109aeadc9"),
    "crank-json-regular": (
        _CRANK_REGULAR, "stdout",
        "012772bb3db7b28628e6ecdcc4727555f81f61415812389db6c752e227119145"),
    "crank-json-pivot-on-circle": (
        _CRANK_ON_CIRCLE, "stdout",
        "244d79bfbb242678abed943d0fe6e22de5f7a863a3a698a45ac1acac824f171b"),
    "crank-json-degrees": (
        _CRANK_DEGREES, "stdout",
        "b0e3cdab5ecfdeba398e068a9222443bf6e93cd21f3d2fb1171221b32e04ab71"),
    "crank-csv-regular": (
        _CRANK_REGULAR + ["--csv"], "stdout",
        "8eead8cf5c0cb130b3776591013908e02e242fcc462c1fd067209ed7b3a34758"),
    "crank-csv-pivot-on-circle": (
        _CRANK_ON_CIRCLE + ["--csv"], "stdout",
        "4f3db82a54ec52155ddf33314657a74a5f714af77778e1539dfa234bdbeb6312"),
    "crank-csv-degrees": (
        _CRANK_DEGREES + ["--csv"], "stdout",
        "9a8b240a85cea5e483a8e69eed0981cd351cc96d592f6f3dd9748f58f057a6e8"),
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
        "79e6200140e89484c4303e60c1907fc9fd633fec09928288ae642429049cd561"),
    "crank-svg-benchmark": (
        _CRANK_SWEEP_ARGV + _BENCHMARK_SVG, "svg",
        "eccda83f18cb62543b7ec9688be353d3fcd7eaf0048841d529d0fe02fd8404af"),
    "crank-csv-benchmark": (
        _CRANK_SWEEP_ARGV + ["--steps", "2001", "--csv"], "stdout",
        "c71e3a912eab07996cc869e532ba563b35e6dd56b64c08d88a37a8477015b13a"),
    "crank-json-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + _BENCHMARK_SVG, "stdout",
        "05ea5ea6a501af9299eb062fd69b770ca2f62e256804ae429310623f15531603"),
    "crank-svg-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + _BENCHMARK_SVG, "svg",
        "849287c357c7667b1ff45fc8a6901df6c78fbf758f96d3b549bd91863626e44c"),
    "crank-csv-benchmark-pivot-on-circle": (
        _ON_CIRCLE_ARGV + ["--steps", "2001", "--csv"], "stdout",
        "9ed7cdc9a5d8d18f6e7ce4da493ab7f51d713db4623ccd992e289376be0fd413"),
    "crank-json-degree-turns": (
        _CRANK_DEGREE_TURNS, "stdout",
        "0be55e8f1076ee33057330699b5d95ac9d4a164b392e569d756be93e902fa248"),
    "crank-csv-degree-turns": (
        _CRANK_DEGREE_TURNS + ["--csv"], "stdout",
        "fd25abf244f4472c44d7954166b23c97cdfdbe94cc7e92317cdf916458308d5f"),
    "oscillator-json-leapfrog": (
        _OSCILLATOR_ARGV + ["--steps", "10000"], "stdout",
        "dd1c44144668d6d47c7388a727681ac690c53f492da49705d63a10b3ab9db5fb"),
    "oscillator-json-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "euler"], "stdout",
        "45658a0def170fa3cd10e67a8fcefd4ccd8bb92ed5da1c240302ab1662f38953"),
    "oscillator-json-symplectic-euler": (
        _PHASE_FLOW_ARGV + ["--steps", "10000", "--method", "symplectic-euler"], "stdout",
        "1ae5fafd2af9d5f00788784dcb2205daf12ecf0bcf9920df4178ced8a4896aeb"),
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


def pinned_digest(argv, target, run):
    """SHA-256 of the ``target`` of one PINNED_OUTPUTS row.

    ``run(argv)`` runs the CLI in the current directory and returns its
    stdout as bytes.  The current directory is a fresh empty one, holding
    the ``--svg`` file's directory, so that a relative ``--svg`` path is
    echoed and written the same way wherever the digest is taken.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        try:
            if "--svg" in argv:
                svg = Path(argv[argv.index("--svg") + 1])
                svg.parent.mkdir(parents=True, exist_ok=True)
            out = run(argv)
            if target == "svg":
                out = svg.read_bytes()
        finally:
            os.chdir(cwd)
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("case", PINNED_OUTPUTS)
def test_pinned_output(capsys, case):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    argv, target, digest = PINNED_OUTPUTS[case]
    assert pinned_digest(argv, target, run) == digest


def mismatched_rows(command, rows):
    """Names of the ``rows`` whose digest differs when run through ``command``.

    ``command`` is the argv prefix of the CLI, such as ``["sympgeo"]``; a run
    that exits nonzero counts as a mismatch.  Its stderr is passed through.
    """
    def run(argv):
        return subprocess.run([*command, *argv], stdout=subprocess.PIPE, check=True).stdout

    mismatched = []
    for case, (argv, target, digest) in rows.items():
        try:
            if pinned_digest(argv, target, run) == digest:
                continue
        except subprocess.CalledProcessError:
            pass
        mismatched.append(case)
    return mismatched


def _main(command):
    """Check every PINNED_OUTPUTS row through ``command``; the exit status.

    ``python tests/test_cli.py sympgeo`` checks the installed console script.
    """
    mismatched = mismatched_rows(command, PINNED_OUTPUTS)
    for case in mismatched:
        print(f"digest differs: {case}", file=sys.stderr)
    print(f"{len(PINNED_OUTPUTS) - len(mismatched)} of {len(PINNED_OUTPUTS)} pinned outputs match")
    return 1 if mismatched else 0


def _module_command(monkeypatch):
    """``python -m sympgeo`` from any directory, on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "sympgeo"]


def test_a_wrong_pinned_digest_is_named(monkeypatch):
    rows = {case: PINNED_OUTPUTS[case] for case in ("intersect-json", "tangents-svg")}
    command = _module_command(monkeypatch)
    assert mismatched_rows(command, rows) == []
    argv, target, digest = rows["tangents-svg"]
    rows["tangents-svg"] = argv, target, digest[::-1]
    assert mismatched_rows(command, rows) == ["tangents-svg"]
    # A failed run is a mismatch too.
    rows["intersect-json"] = ["intersect", "--a", "0,0"], "stdout", digest
    assert mismatched_rows(command, rows) == ["intersect-json", "tangents-svg"]


def test_the_script_entry_names_every_mismatched_row(monkeypatch):
    # A command that fails at once matches no row.
    _module_command(monkeypatch)
    result = subprocess.run([sys.executable, __file__, sys.executable, "-S", "-c",
                             "raise SystemExit(4)"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [f"digest differs: {case}" for case in PINNED_OUTPUTS]
    assert result.stdout == f"0 of {len(PINNED_OUTPUTS)} pinned outputs match\n"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The PINNED_OUTPUTS row whose run each benchmark CLI pin repeats: each
#: workload's, and the setup probe of ``run.py``.
BENCHMARK_ROWS = {"phase-flow": "oscillator-csv-leapfrog",
                  "crank-sweep": "crank-json-benchmark",
                  "construct-mix": "identities-csv",
                  "setup": "intersect-json"}


def _literals(statements, names):
    """``{name: value}`` of the literal assignments to ``names`` among ``statements``."""
    return {target.id: ast.literal_eval(statement.value)
            for statement in statements if isinstance(statement, ast.Assign)
            for target in statement.targets
            if isinstance(target, ast.Name) and target.id in names}


def _benchmark_cli_pins():
    """``{workload: (argv, sha256)}`` of perfbench's workload classes, and of
    ``run.py``'s setup probe under ``"setup"``, read from their source without
    importing them."""
    pins = {}
    for node in ast.parse((PERFBENCH / "workloads.py").read_text()).body:
        if isinstance(node, ast.ClassDef):
            fields = _literals(node.body, ("name", "cli_argv", "cli_sha256"))
            if "cli_argv" in fields:
                pins[fields["name"]] = fields["cli_argv"], fields["cli_sha256"]
    setup = _literals(ast.parse((PERFBENCH / "run.py").read_text()).body,
                      ("SETUP_ARGV", "SETUP_SHA256"))
    pins["setup"] = setup["SETUP_ARGV"], setup["SETUP_SHA256"]
    return pins


def test_benchmark_cli_pins_hold_and_repeat_a_pinned_row():
    # A deliberate output change that re-pins PINNED_OUTPUTS but not
    # perfbench's cli_sha256 or SETUP_SHA256 fails here.  Both pin the raw
    # stdout, and test_pinned_output runs each row.
    pins = _benchmark_cli_pins()
    assert sorted(pins) == sorted(BENCHMARK_ROWS)
    parser = cli._build_parser()
    for workload, (argv, digest) in pins.items():
        row_argv, target, row_digest = PINNED_OUTPUTS[BENCHMARK_ROWS[workload]]
        assert (target, digest) == ("stdout", row_digest), workload
        # The same run as the row's, whatever the order of its options.
        assert parser.parse_args(argv) == parser.parse_args(row_argv), workload


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
    }


def _full_report(envelope, array, rows):
    report = copy.deepcopy(envelope)
    rows = _tuples(rows)
    if array == "entries":
        report["results"][array] = [dict(zip(_run_kernels._CRANK_COLUMNS, row)) for row in rows]
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
    table = {"crank": _run_kernels._CRANK_TABLE,
             "oscillator": _run_flow._OSCILLATOR_TABLE}[subcommand]
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
    result = _run_kernels._run_crank(args)
    rows = result.rows.tolist()
    assert any(row[8] for row in rows) and not all(row[8] for row in rows)
    table = _run_kernels._CRANK_TABLE
    envelope = {"subcommand": "crank", "input": cli._echo(args), "results": result.results,
                "residuals": result.residuals}
    expected = json.dumps(_full_report(envelope, "entries", result.rows), indent=2)
    assert "".join(cli._json_pieces(envelope, table, result.rows)) == expected
    assert ("".join(cli._csv_pieces(table, result.rows))
            == _reference_csv(table.columns, result.rows))


def test_csv_runs_never_call_json_dumps(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a CSV run called json.dumps")

    # cli imports json inside the JSON writer, so the patch goes on the module itself.
    monkeypatch.setattr(json, "dumps", forbidden)
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


@pytest.mark.parametrize("span, psi", [(["--to", "3.141592653589793"], "3.1415926535897931"),
                                       (["--to", "180", "--degrees"], "180")])
def test_crank_csv_rod_along_the_negative_x_axis_reports_a_half_turn(capsys, span, psi):
    # The rod points along the negative x-axis, where atan2 gives -pi; the
    # reported angle is its (-pi, pi] value.
    argv = ["crank", "--length", "1", "--pivot=-3,0", "--phidot", "1", "--from", "0",
            "--steps", "2", "--csv"]
    code, text = run_csv(capsys, argv + span)
    assert code == 0
    rows = list(csv.DictReader(text.splitlines()))
    assert rows[1]["psi"] == rows[1]["psi_unwrapped"] == psi


#: Components of the angle-range test's vectors and pivots beside random
#: draws: signed zeros, the smallest subnormals and small integers.
_ANGLE_COMPONENTS = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 3.0, -3.0)


def test_every_reported_angle_lies_in_the_half_open_range(capsys):
    # directed_angle, to_polar, crank_state, crank_sweep and the crank CSV
    # report every angle in (-pi, pi], or (-180, 180] with --degrees, over
    # signed zeros, subnormals, axis-aligned pivots and angles k*pi/2.
    rng = random.Random(37)

    def component():
        return rng.choice(_ANGLE_COMPONENTS) if rng.random() < 0.75 else rng.uniform(-4.0, 4.0)

    def vector():
        while True:
            v = Vec2(component(), component())
            if v.x != 0.0 or v.y != 0.0:
                return v

    for _ in range(3000):
        a, b = vector(), vector()
        assert -math.pi < to_polar(a).angle <= math.pi, a
        assert -math.pi < directed_angle(a, b) <= math.pi, (a, b)
    axis_pivots = [Vec2(c, z) for c in (-3.0, -1.0, 1.0, 3.0) for z in _ANGLE_COMPONENTS[:4]]
    axis_pivots += [Vec2(p.y, p.x) for p in axis_pivots]
    pivots = axis_pivots + [Vec2(component(), component()) for _ in range(32)]
    quarter_turns = [k * math.pi / 2.0 for k in range(-4, 5)]
    for pivot in pivots:
        cfg = CrankConfig(rng.choice((1.0, 3.0, rng.uniform(0.5, 2.0))), pivot,
                          rng.choice((1.0, -1.0, rng.uniform(-2.0, 2.0))))
        for phi in quarter_turns + [rng.uniform(-10.0, 10.0) for _ in range(4)]:
            try:
                psi = crank_state(cfg, phi).psi
            except SingularPositionError:
                continue
            assert -math.pi < psi <= math.pi, (cfg, phi)
        k_start, k_end = rng.randrange(-4, 5), rng.randrange(-4, 5)
        for entry in crank_sweep(cfg, quarter_turns[k_start + 4], quarter_turns[k_end + 4], 9):
            assert entry.singular or -math.pi < entry.state.psi <= math.pi, (cfg, entry)
        degrees = rng.random() < 0.5
        quarter, half_turn = (90.0, 180.0) if degrees else (math.pi / 2.0, math.pi)
        argv = ["crank", "--length", repr(cfg.crank_length), f"--pivot={pivot.x!r},{pivot.y!r}",
                "--phidot", repr(cfg.phi_dot), f"--from={k_start * quarter!r}",
                f"--to={k_end * quarter!r}", "--steps", "9", "--csv"]
        code, text = run_csv(capsys, argv + ["--degrees"] * degrees)
        assert code == 0
        for row in csv.DictReader(text.splitlines()):
            assert row["singular"] == "true" or -half_turn < float(row["psi"]) <= half_turn, argv


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
    # The row loop takes each energy from the float kernel that hamiltonian
    # wraps; each run builds its loop from cli's binding of that kernel.
    calls = []

    def counting_energy(q, p, t, mass, stiffness):
        calls.append(t)
        return _flow._energy(q, p, t, mass, stiffness)

    monkeypatch.setattr(_run_flow, "_energy", counting_energy)
    base = ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
            "--dt", "0.1", "--steps", "200", "--method", "leapfrog"]
    for extra in ([], ["--csv"]):
        calls.clear()
        assert main(base + extra) == 0
        capsys.readouterr()
        assert len(calls) == 201


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


@pytest.mark.parametrize(("pivot", "phidot", "start", "message"), [
    ("2,0", "1e200", "30", "rod accelerations overflow at phi=30.0"),
    ("2,0", "2e153", "0", "rod angle rates overflow in degrees at phi=45.0"),
    # The first row is singular, so the second fails.
    ("1,0", "1e200", "0", "rod accelerations overflow at phi=45.0"),
], ids=["kernel", "rates", "second-row"])
def test_a_degrees_failure_names_its_grid_angle(capsys, pivot, phidot, start, message):
    argv = ["crank", "--length", "1", "--pivot", pivot, "--phidot", phidot, "--from", start,
            "--to", "90", "--steps", "3", "--degrees", "--csv"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


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


def _phi_texts(capsys, argv):
    """The ``phi`` cells of a ``crank --csv`` run, as printed."""
    assert main(argv + ["--csv"]) == 0
    return [line.split(",", 1)[0] for line in capsys.readouterr().out.splitlines()[1:]]


def test_crank_grids_keep_equal_ends_constant_and_degree_ends_exact(capsys):
    # Equal ends give --from on every row, in crank_sweep and in the CLI; a
    # degree grid is built in degrees, so it ends exactly on --to; an
    # unequal radian grid is the weighted mean of its ends, bit for bit.
    # The first case of each kind is a known miss of the plain weighted mean.
    rng = random.Random(40)
    cfg = CrankConfig(1.0, Vec2(3.0, 0.0), 1.0)
    crank = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1"]
    equal = [(-7.31, 56)] + [(round(rng.uniform(-10.0, 10.0), 2), rng.randint(2, 60))
                             for _ in range(30)]
    for end, steps in equal:
        assert [entry.phi for entry in crank_sweep(cfg, end, end, steps)] == [end] * steps
        argv = crank + [f"--from={end!r}", f"--to={end!r}", "--steps", str(steps)]
        assert _phi_texts(capsys, argv) == [format(end, ".17g")] * steps
    degrees = [(116.9, -491.9, 29)] + [(round(rng.uniform(-720.0, 720.0), 1),
                                        round(rng.uniform(-720.0, 720.0), 1), rng.randint(2, 60))
                                       for _ in range(30)]
    for start, end, steps in degrees:
        argv = crank + [f"--from={start!r}", f"--to={end!r}", "--steps", str(steps), "--degrees"]
        texts = _phi_texts(capsys, argv)
        assert (texts[0], texts[-1]) == (format(start, ".17g"), format(end, ".17g"))
    for _ in range(30):
        start, end = round(rng.uniform(-10.0, 10.0), 2), round(rng.uniform(-10.0, 10.0), 2)
        steps = rng.randint(2, 60)
        last = steps - 1
        mean = [start * ((last - i) / last) + end * (i / last) for i in range(steps)]
        assert [entry.phi for entry in crank_sweep(cfg, start, end, steps)] == mean
        argv = crank + [f"--from={start!r}", f"--to={end!r}", "--steps", str(steps)]
        assert _phi_texts(capsys, argv) == [format(phi, ".17g") for phi in mean]


def _crank_runner_rows(argv):
    """``sympgeo crank``'s packed rows and residual maxima, or its error's class and message.

    A singular row is kept as ``(phi, singular, near_singular)``, the only
    cells a writer reads of it.
    """
    args = cli._build_parser().parse_args(cli._join_negative_values(argv))
    try:
        result = _run_kernels._run_crank(args)
    except (ValueError, NumericalOverflowError) as exc:
        return type(exc), str(exc)
    rows = [tuple(row[:1] + row[8:] if row[8] else row) for row in result.rows.tolist()]
    return rows, list(result.residuals.values())


def _crank_record_rows(argv):
    """What :func:`_crank_runner_rows` must give, rebuilt from the library's records.

    In radians, the ``crank_sweep`` records over the same grid.  In
    degrees, the grid is built in degrees, and each angle's record is
    ``crank_state`` at that angle in radians, with ``psi_unwrapped``
    accumulated through ``wrap_angle`` from the first regular row and the
    near-singular flag of its rod length.  Each record is packed as the
    runner packs it (the grid angle, the other angles and angular rates
    converted, flags as 0.0 and 1.0), with the maxima of
    ``loop_residuals`` over the regular records and the degree rates
    checked as the runner checks them.  Each figure whose sweep overflows
    does so at its first angle, so the library's first error is the first
    in step order too.
    """
    args = cli._build_parser().parse_args(cli._join_negative_values(argv))
    unit = math.pi / 180.0 if args.degrees else 1.0
    start, end, steps = getattr(args, "from"), args.to, args.steps
    try:
        cfg = CrankConfig(args.length, Vec2(*args.pivot), args.phidot)
        if args.degrees:
            sweep, last = [], None
            for angle in _grid(start, end, steps):
                try:
                    state = crank_state(cfg, angle * unit)
                except SingularPositionError:
                    sweep.append((angle, None, True, None))
                    continue
                unwrapped = (state.psi if last is None
                             else last[1] + wrap_angle(state.psi - last[0]))
                last = state.psi, unwrapped
                sweep.append((angle, state, state.s < NEAR_SINGULAR_FRACTION * args.length,
                              unwrapped))
        else:
            sweep = [(entry.phi, entry.state, entry.near_singular, entry.psi_unwrapped)
                     for entry in crank_sweep(cfg, start, end, steps)]
        rows, maxima = [], [0.0, 0.0, 0.0]
        for angle, state, near_singular, unwrapped in sweep:
            if state is None:
                rows.append((angle, 1.0, 1.0))
                continue
            maxima = [max(m, c) for m, c in zip(maxima, loop_residuals(cfg, state))]
            _, s, psi, s_dot, psi_dot, s_ddot, psi_ddot, _ = state
            if not (math.isfinite(psi_dot / unit) and math.isfinite(psi_ddot / unit)):
                raise NumericalOverflowError(
                    f"rod angle rates overflow in degrees at phi={angle}")
            rows.append((angle, s, psi / unit, unwrapped / unit, s_dot, psi_dot / unit, s_ddot,
                         psi_ddot / unit, 0.0, float(near_singular)))
    except (ValueError, NumericalOverflowError) as exc:
        return type(exc), str(exc)
    return rows, maxima


def _crank_parity_argvs():
    """Seeded cranks in radians and degrees, pivots on and near the crank
    circle, a span beyond the float range, and one figure per failure."""
    rng = random.Random(3340)
    argvs = []
    for k in range(40):
        length = 10.0 ** rng.uniform(-3.0, 3.0)
        factor = rng.uniform(1.05, 4.0) if k % 2 else rng.uniform(0.05, 0.95)
        theta = rng.uniform(-math.pi, math.pi)
        phi_dot = rng.choice((rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)))
        start = rng.uniform(-10.0, 10.0)
        end = start + rng.uniform(-20.0, 20.0)
        degrees = k % 4 < 2
        if degrees:
            start, end = math.degrees(start), math.degrees(end)
        argvs.append(["crank", f"--length={length!r}",
                      f"--pivot={length * factor * math.cos(theta)!r},"
                      f"{length * factor * math.sin(theta)!r}",
                      f"--phidot={phi_dot!r}", f"--from={start!r}", f"--to={end!r}",
                      "--steps", str(rng.randint(2, 60))] + ["--degrees"] * degrees)
    on_circle = ["crank", "--length", "1", "--pivot", "1,0", "--phidot", "1"]
    regular = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1"]
    return argvs + [
        # On the grid: singular rows at 0, 2*pi and 4*pi; shifted: near-singular rows.
        on_circle + ["--from", "0", "--to", "12.566370614359172", "--steps", "9"],
        on_circle + ["--from", "1e-7", "--to", "12.566370714359172", "--steps", "9"],
        on_circle + ["--from=-90", "--to", "630", "--steps", "41", "--degrees"],
        regular + ["--from=-1.7e308", "--to", "1.7e308", "--steps", "3"],
        regular + ["--from", "1.7e308", "--to=-1.7e308", "--steps", "4", "--degrees"],
        # Rod length, rates, accelerations and degree rates overflow.
        ["crank", "--length", "1e308", "--pivot=-1.5e308,0", "--phidot", "1", "--from", "0",
         "--to", "1", "--steps", "3"],
        ["crank", "--length", "1e300", "--pivot", "2e300,0", "--phidot", "1e10",
         "--from", "0.3", "--to", "1", "--steps", "3"],
        ["crank", "--length", "1", "--pivot", "2,0", "--phidot", "1e200", "--from", "0.3",
         "--to", "1", "--steps", "3"],
        _DEGREES_OVERFLOW,
        # The crank length's rule comes before the step count's.
        ["crank", "--length", "0", "--pivot", "3,0", "--phidot", "1", "--from", "0",
         "--to", "1", "--steps", "1"],
        regular + ["--from", "0", "--to", "1", "--steps", "1"],
    ]


def test_crank_rows_match_the_library_records():
    # Every packed cell and residual maximum of the runner, which runs on
    # the float kernels, equals the library records' by repr (so signed
    # zeros count), and each failure has the same class and message.
    errors, singular, near_singular = set(), 0, 0
    for argv in _crank_parity_argvs():
        got = _crank_runner_rows(argv)
        assert repr(got) == repr(_crank_record_rows(argv)), argv
        if isinstance(got[0], type):
            errors.add(got[1].split(" at phi=")[0].split(", got")[0])
            continue
        singular += sum(len(row) == 3 for row in got[0])
        near_singular += sum(len(row) == 10 and row[9] == 1.0 for row in got[0])
    assert singular >= 5 and near_singular >= 3
    assert errors == {"rod length overflows", "rod rates overflow", "rod accelerations overflow",
                      "rod angle rates overflow in degrees", "crank_length must be finite and > 0",
                      "steps must be >= 2"}


def _tangents_runner_report(argv):
    """``sympgeo tangents``'s ``results`` and ``residuals``, or its error's class and message."""
    args = cli._build_parser().parse_args(cli._join_negative_values(argv))
    try:
        result = _run_kernels._run_tangents(args)
    except (DegeneracyError, SingularityError, ValueError) as exc:
        return type(exc), str(exc)
    return result.results, result.residuals


def _tangents_record_report(argv):
    """What :func:`_tangents_runner_report` must give, rebuilt from the library's records.

    The two ``Circle`` records, first then second, their
    ``circle_tangents`` and the largest ``tangent_distance_error``.
    """
    args = cli._build_parser().parse_args(cli._join_negative_values(argv))
    try:
        c1, c2 = [Circle(Vec2(x, y), r) for x, y, r in (args.c1, args.c2)]
        tangents = circle_tangents(c1, c2)
        errors = [tangent_distance_error(t, c1, c2) for t in tangents]
    except (DegeneracyError, SingularityError, ValueError) as exc:
        return type(exc), str(exc)
    entries = [{"kind": t.kind, "lambda": t.lam, "touch1": [t.touch1.x, t.touch1.y],
                "touch2": [t.touch2.x, t.touch2.y], "e": [t.direction_e.x, t.direction_e.y]}
               for t in tangents]
    return ({"count": len(tangents), "tangents": entries},
            {"max_tangency_error": max([0.0] + errors)})


_TANGENT_VALUES = (0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-13, 0.5, 1.0, -1.0, 2.0, 3.0, 1e155,
                   -1e155, 1e300, 9e307, 1.7e308, -1.7e308)


def _tangent_parity_argvs():
    """Seeded figures over unit-free spans and over extreme values, and one
    figure per boundary: tangency, zero radii, containment, coincident
    centres, offsets beyond the float range and a subnormal offset."""
    rng = random.Random(3601)
    argvs = []
    for k in range(300):
        if k % 3:
            span = 10.0 ** rng.uniform(-8.0, 8.0)
            centers = [rng.uniform(-span, span) for _ in range(4)]
            radii = [rng.uniform(0.0, span) if rng.random() < 0.9 else 0.0 for _ in range(2)]
        else:
            centers = [rng.choice(_TANGENT_VALUES) for _ in range(4)]
            radii = [abs(rng.choice(_TANGENT_VALUES)) for _ in range(2)]
        (x1, y1, x2, y2), (r1, r2) = centers, radii
        argvs.append(["tangents", f"--c1={x1!r},{y1!r},{r1!r}", f"--c2={x2!r},{y2!r},{r2!r}"])
    figures = [
        ("0,0,1", "3,0,2"),  # internally tangent: one outer pair, coincident
        ("0,0,1", "2,0,1"),  # externally tangent
        ("0,0,0", "3,0,0"),  # two points
        ("0,0,1", "3,0,0"),  # a point and a circle
        ("0,0,0", "0.5,0,1"),  # a point inside a circle
        ("0,0,3", "1,0,1"),  # containment
        ("0,0,1", "0,0,2"),  # coincident centres
        ("-0.0,0,1", "0,-0.0,1"),  # coincident up to the sign of zero
        ("0,0,-1", "3,0,-2"),  # the first circle's radius fails first
        ("0,0,1", "3,0,-2"),
        ("-1.7e308,0,1", "1.7e308,0,1"),  # lam overflows
        ("-1.7e308,-1.7e308,1e308", "1.7e308,1.7e308,1e308"),
        ("-9e307,0,1.7e308", "9.1e307,0,1e300"),  # offset formed at half size
        ("-5e307,-8e307,5e307", "5e307,8e307,1.3e308"),  # distances over the halved offset
        ("0,1.7e308,0.5e308", "1e308,1.7e308,1"),  # a touch point overflows
        ("0,0,1", "1e-320,0,1"),  # subnormal offset
        ("0,0,1e-14", "1e-13,0,1e-14"),
    ]
    return argvs + [["tangents", f"--c1={c1}", f"--c2={c2}"] for c1, c2 in figures]


def test_tangents_runner_matches_the_library_records():
    # Every entry and the largest tangency error of the runner, which runs
    # on the float kernels, equal the library records' by repr (so signed
    # zeros count), and each failure has the same class and message.
    counts, errors = set(), set()
    for argv in _tangent_parity_argvs():
        got = _tangents_runner_report(argv)
        assert repr(got) == repr(_tangents_record_report(argv)), argv
        if isinstance(got[0], type):
            errors.add(got[1].split(", got")[0])
        else:
            counts.add(got[0]["count"])
    assert counts == {0, 2, 4}
    assert errors == {"circle centers coincide; tangent directions undefined",
                      "circle radius must be finite and >= 0", "common tangent overflows"}


def _orbit_outcome(call):
    try:
        return repr(call())
    except (ValueError, NumericalOverflowError) as exc:
        return type(exc).__name__, str(exc)


def test_orbit_kernel_matches_analytic_oscillator():
    # The plot of ``oscillator --svg`` runs the float kernels; each state,
    # omega and failure equals the library's records' bit for bit.
    rng = random.Random(3602)
    extremes = (5e-324, 1e-300, 1.0, 1e300, 1.7e308)

    def magnitude():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    messages = set()
    for _ in range(3000):
        mass, stiffness = [rng.choice(extremes) if rng.random() < 0.2 else magnitude()
                           for _ in range(2)]
        q0, p0, t0 = [rng.choice((-1.0, 1.0)) * magnitude() if rng.random() < 0.5
                      else rng.uniform(-5.0, 5.0) for _ in range(3)]
        t = rng.choice((rng.uniform(-50.0, 50.0), magnitude(), math.inf, math.nan))
        params, state = OscillatorParams(mass, stiffness), PhaseState(q0, p0, t0)
        w = _flow._omega(mass, stiffness)
        assert repr(w) == repr(params.omega)
        got = _orbit_outcome(lambda: _flow._orbit(t, q0, p0, t0, mass, w))
        want = _orbit_outcome(lambda: dataclasses.astuple(analytic_oscillator(t, state, params)))
        assert got == want, (t, q0, p0, t0, mass, stiffness)
        if isinstance(got, tuple):
            messages.add(got[1].split(" = ")[0].split(" at t=")[0].split(", got")[0])
    assert messages == {"t must be finite", "m*omega", "analytic state overflows"}


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


def assert_one_line(stderr, line):
    """``stderr`` is the single line ``line`` followed by details: no traceback, and
    no message from the flush at interpreter exit."""
    text = stderr.decode()
    assert text.startswith(line) and text.count("\n") == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text


_CRANK_CSV_ARGV = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from", "0",
                   "--to", "1", "--steps", "5", "--csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["intersect", "--a", "0,0", "--u", "1,0", "--b", "0,1",
                                   "--v", "0,1"], _CRANK_CSV_ARGV], ids=["json", "csv"])
def test_a_full_device_on_stdout_exits_one(argv):
    with open("/dev/full", "wb") as full:
        result = run_subprocess(argv, stdout=full)
    assert result.returncode == 1
    assert_one_line(result.stderr, "sympgeo: cannot write output: ")


def test_a_pipe_closed_early_exits_one():
    argv = _PHASE_FLOW_ARGV + ["--method", "leapfrog", "--steps", "200000", "--csv"]
    with subprocess.Popen([sys.executable, "-m", "sympgeo", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        try:
            assert child.stdout.readline() == b"t,q,p,energy\r\n"
            child.stdout.close()
            _, stderr = child.communicate(timeout=60)
        finally:
            child.kill()
    assert child.returncode == 1
    assert_one_line(stderr, "sympgeo: cannot write output: ")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux only")
def test_memory_exhaustion_exits_three():
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (80 * 2**20, 80 * 2**20))

    # Thirty million packed rows need about 1 GB, twelve times the limit.
    argv = _PHASE_FLOW_ARGV + ["--method", "leapfrog", "--steps", "30000000", "--csv"]
    result = run_subprocess(argv, preexec_fn=limit)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == b"sympgeo: out of memory\n"


# ------------------------------------------------------------ error contract

# Every numeric option of the seeded fuzz is drawn from these values; a
# radius from their magnitudes and -1, so the radius rule is reached.
_FUZZ_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-13, 1e-8, 0.5, 1.0, -1.0, 2.0, 3.0, 7.0,
                1e150, 1e160, 1e300, -1e300, 1.7e308, -1.7e308)
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


@pytest.mark.parametrize("seed", [28, 1])
def test_the_error_contract_holds_over_a_seeded_fuzz(tmp_path, capsys, monkeypatch, seed):
    # One parser serves every run: building it costs ten times the run.
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    rng = random.Random(seed)
    codes, rules = [], set()
    for index in range(2000):
        argv = _fuzz_argv(rng)
        # Every third run that can plot draws its diagram; chosen by index, so
        # the draws of later runs stay as they are.
        svg = None
        if argv[0] in ("tangents", "crank", "oscillator") and index % 3 == 0:
            svg = tmp_path / f"{index}.svg"
            argv += ["--svg", str(svg)]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the contract is that none escapes
            pytest.fail(f"run {index} {argv} raised {exc!r}")
        out, err = capsys.readouterr()
        codes.append(code)
        if svg is not None:
            # A failed run writes no file; a plot holds only finite numbers.
            assert svg.exists() == (code == 0), (index, argv)
            if code == 0:
                assert not re.search(r"\b(?:nan|inf)\b", svg.read_text(), re.IGNORECASE), (
                    index, argv)
        if code == 0:
            if "--csv" in argv:
                _check_csv(out, argv[0])
            else:
                strict_json(out)
            continue
        assert out == "", (index, argv)
        # A failure names the values it met; none of them is a NaN.
        assert not re.search(r"\bnan\b", err), (index, argv, err)
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


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
