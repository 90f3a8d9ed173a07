"""Import contract: the lazy ``sympgeo`` namespace and the layers each CLI run loads."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sympgeo

#: ``sympgeo.__all__`` as it stood when every layer was imported eagerly.
PUBLIC_NAMES = [
    "ATOL", "RTOL", "IdentityResiduals", "Polar", "Vec2", "close", "directed_angle", "dot",
    "from_polar", "identity_residuals", "inverse", "norm", "rotate", "similarity",
    "similarity_div", "symp", "tilde", "to_polar", "wrap_angle", "EXPLICIT_EULER", "LEAPFROG",
    "METHODS", "SYMPLECTIC_EULER", "OscillatorParams", "PhaseState", "Trajectory",
    "analytic_oscillator", "area_residual", "ellipse_residual", "hamiltonian",
    "hamiltonian_field", "hamiltonian_gradient", "simulate", "step", "SympGeoError",
    "DegeneracyError", "SingularityError", "ZeroVectorError", "DegenerateScaleError",
    "DegenerateDenominatorError", "ParallelLinesError", "CoincidentCentersError",
    "ZeroDirectionError", "SingularPositionError", "InvalidStepError", "NumericalOverflowError",
    "Circle", "Intersection", "Line", "Tangent", "circle_tangents", "collinearity_residual",
    "cross_ratio", "intersect_lines", "is_collinear", "jacobi_triangle_residual",
    "point_circle_tangents", "project_point_onto_line", "simple_ratio", "tangent_distance_error",
    "CrankAccel", "CrankConfig", "CrankPosition", "CrankRates", "CrankState", "PolarKinematics",
    "PolarMotion", "SweepEntry", "crank_acceleration", "crank_position", "crank_state",
    "crank_sweep", "crank_velocity", "loop_residuals", "polar_kinematics", "__version__",
]

#: Defining modules of the public names that carry no ``__module__``.
CONSTANT_OWNERS = {
    "ATOL": "sympgeo.core", "RTOL": "sympgeo.core", "EXPLICIT_EULER": "sympgeo.dynamics",
    "LEAPFROG": "sympgeo.dynamics", "METHODS": "sympgeo.dynamics",
    "SYMPLECTIC_EULER": "sympgeo.dynamics",
}


def loaded_modules(code, *argv):
    """Sorted ``sympgeo*`` modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sympgeo'))))")
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_all_is_unchanged():
    assert sympgeo.__all__ == PUBLIC_NAMES
    assert len(set(sympgeo.__all__)) == 76


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES[:-1]:
        value = getattr(sympgeo, name)
        owner = CONSTANT_OWNERS.get(name) or value.__module__
        assert owner.startswith("sympgeo."), name
        assert value is getattr(importlib.import_module(owner), name), name
        assert getattr(sympgeo, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sympgeo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert namespace["__version__"] == sympgeo.__version__


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(sympgeo))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(sympgeo, "no_such_name")
    assert not hasattr(sympgeo, "svg")


def test_import_loads_no_layer():
    assert loaded_modules("import sympgeo") == ["sympgeo"]


def test_layer_resolves_after_plain_import():
    code = "import sympgeo\nassert sympgeo.kinematics.__name__ == 'sympgeo.kinematics'"
    assert loaded_modules(code) == ["sympgeo", "sympgeo._kernels", "sympgeo.core",
                                    "sympgeo.errors", "sympgeo.kinematics"]


def test_cli_methods_name_the_dynamics_methods():
    from sympgeo import cli
    from sympgeo.dynamics import METHODS

    assert sorted(cli._METHOD_NAMES.values()) == sorted(METHODS)


_CLI_BASE = ["sympgeo", "sympgeo._kernels", "sympgeo.cli", "sympgeo.errors"]
_RUN_MAIN = ("import contextlib, io, sys\nfrom sympgeo.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(sys.argv[1:]) == 0")


@pytest.mark.parametrize("argv, layers", [
    (["identities", "--samples", "5"], []),
    (["intersect", "--a", "0,0", "--u", "1,0", "--b", "1,1", "--v", "0,1"], []),
    (["tangents", "--c1", "0,0,1", "--c2", "4,0,1"], ["core", "geometry"]),
    (["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from", "0",
      "--to", "1", "--steps", "5", "--csv"], ["core", "kinematics"]),
    (["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0", "--dt", "0.1",
      "--steps", "5", "--method", "leapfrog"], ["core", "dynamics"]),
    (["tangents", "--c1", "0,0,1", "--c2", "4,0,1", "--svg", "{svg}"],
     ["core", "geometry", "svgplot"]),
], ids=["identities", "intersect", "tangents", "crank", "oscillator", "tangents-svg"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    argv = [arg.format(svg=tmp_path / "t.svg") for arg in argv]
    expected = sorted(_CLI_BASE + [f"sympgeo.{layer}" for layer in layers])
    assert loaded_modules(_RUN_MAIN, *argv) == expected


def test_kernel_subcommands_load_no_dataclass_machinery():
    # -S keeps site-packages out, so only the interpreter's start-up and the
    # two runs can have loaded a module.
    src = str(Path(sympgeo.__file__).resolve().parent.parent)
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              "import contextlib, io\nfrom sympgeo.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['identities', '--samples', '5']) == 0\n"
              "    assert main(['intersect', '--a', '0,0', '--u', '1,0', '--b', '1,1',"
              " '--v', '0,1']) == 0\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_parsing_builds_no_record():
    # Circle options parse to floats; the records are built by the runner.
    src = str(Path(sympgeo.__file__).resolve().parent.parent)
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              "from sympgeo import cli\n"
              "args = cli._build_parser().parse_args(['tangents', '--c1', '0,0,1',"
              " '--c2', '4,0,-1'])\n"
              "assert args.c1 == (0.0, 0.0, 1.0) and args.c2 == (4.0, 0.0, -1.0), args\n"
              "print(sorted({'sympgeo.core', 'sympgeo.geometry', 'dataclasses'}"
              " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
