"""Import contract: the lazy ``sympgeo`` namespace and the layers each CLI run loads."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sympgeo
from test_svgplot import FOUR_SHAPES_SHA256

#: ``sympgeo.__all__`` as it stood when every layer was imported eagerly, less the
#: stepwise crank functions and their three result types, whose values
#: ``crank_state`` returns.
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
    "CrankConfig", "CrankState", "PolarKinematics", "PolarMotion", "SweepEntry", "crank_state",
    "crank_sweep", "loop_residuals", "polar_kinematics", "__version__",
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
    assert len(set(sympgeo.__all__)) == 70


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


_CLI_BASE = ["sympgeo", "sympgeo.cli", "sympgeo.errors"]
#: Each runner module with the kernel module it runs on.
_KERNELS = ["_kernels", "_run_kernels"]
_FLOW = ["_flow", "_run_flow"]
#: The standard-library modules whose loading the subcommand table pins.
_PINNED_STDLIB = ("dataclasses", "inspect", "json", "linecache", "random", "tokenize", "typing")
# -S keeps site-packages out, so only the interpreter's start-up and the run
# can have loaded a module.  The probe records the name of every code object
# the run compiles through a wrapped ``compile``, and prints its findings
# with repr, since importing json to print them would load it.
_RUN_MAIN = ("import sys\nsys.path.insert(0, sys.argv.pop(1))\n"
             "import builtins, contextlib, io\n"
             "compiled = []\n"
             "def compile(source, filename, *args, _compile=builtins.compile, **kwargs):\n"
             "    compiled.append(filename)\n"
             "    return _compile(source, filename, *args, **kwargs)\n"
             "builtins.compile = compile\n"
             "from sympgeo.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(sys.argv[1:]) == 0\n"
             "print(repr((sorted(m for m in sys.modules if m.startswith('sympgeo')),\n"
             "            sorted(set(" + repr(_PINNED_STDLIB) + ") & set(sys.modules)),\n"
             "            sorted(f for f in compiled\n"
             "                   if isinstance(f, str) and f.startswith('<sympgeo.')))))")

_CRANK = ["crank", "--length", "1", "--pivot", "3,0", "--phidot", "1", "--from", "0",
          "--to", "1", "--steps", "5"]
_OSCILLATOR = ["oscillator", "--mass", "1", "--stiffness", "1", "--q0", "1", "--p0", "0",
               "--dt", "0.1", "--steps", "5", "--method", "leapfrog"]
_LOOP = ["<sympgeo._run_flow._flow leapfrog>"]


@pytest.mark.parametrize("argv, layers, stdlib, loops", [
    (["identities", "--samples", "5"], _KERNELS, ["json", "random"], []),
    (["intersect", "--a", "0,0", "--u", "1,0", "--b", "1,1", "--v", "0,1"], _KERNELS, ["json"],
     []),
    (["tangents", "--c1", "0,0,1", "--c2", "4,0,1"], _KERNELS, ["json"], []),
    (_CRANK + ["--csv"], _KERNELS, [], []),
    (_OSCILLATOR, _FLOW, ["json"], _LOOP),
    (["tangents", "--c1", "0,0,1", "--c2", "4,0,1", "--svg", "{svg}"], _KERNELS + ["svgplot"],
     ["json"], []),
    (_OSCILLATOR + ["--csv"], _FLOW, [], _LOOP),
    (_OSCILLATOR + ["--svg", "{svg}"], _FLOW + ["svgplot"], ["json"], _LOOP),
    (_CRANK, _KERNELS, ["json"], []),
    (_CRANK + ["--svg", "{svg}"], _KERNELS + ["svgplot"], ["json"], []),
    (["identities", "--samples", "5", "--csv"], _KERNELS, ["random"], []),
], ids=["identities", "intersect", "tangents", "crank", "oscillator", "tangents-svg",
        "oscillator-csv", "oscillator-svg", "crank-json", "crank-svg", "identities-csv"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, layers, stdlib, loops):
    # Every run loads cli, errors, its runner module and that runner's
    # kernel module, --svg adds svgplot and a JSON report adds json: no
    # oscillator run loads _kernels or another runner, no other run loads
    # _flow, and no subcommand, and no plot, loads a record layer,
    # dataclasses, inspect, linecache or typing.  Only identities draws
    # with random.  The oscillator compiles only its one row loop for its
    # method, --svg or not.
    argv = [arg.format(svg=tmp_path / "t.svg") for arg in argv]
    src = str(Path(sympgeo.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-S", "-c", _RUN_MAIN, src, *argv],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    modules, loaded, compiled = ast.literal_eval(result.stdout.splitlines()[-1])
    assert modules == sorted(_CLI_BASE + [f"sympgeo.{layer}" for layer in layers])
    assert loaded == stdlib
    assert compiled == loops


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


def test_every_module_imports_from_the_standard_library_alone():
    # -S keeps site-packages out, so any third-party import fails here.  A
    # plain ``import sympgeo`` loads no layer, so every module (the float
    # kernels too) is imported and every public name resolved explicitly;
    # importing sympgeo.dynamics compiles every integrator's step loop.  One
    # plot of all four shapes runs the two-stage SVG render, whose digest
    # test_svgplot.py pins as FOUR_SHAPES_SHA256.
    src = str(Path(sympgeo.__file__).resolve().parent.parent)
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              "import hashlib\n"
              "import sympgeo._kernels, sympgeo.core, sympgeo.errors, sympgeo.geometry\n"
              "import sympgeo.kinematics, sympgeo.dynamics, sympgeo.svgplot, sympgeo.cli\n"
              "import sympgeo._flow, sympgeo._run_kernels, sympgeo._run_flow\n"
              "for name in sympgeo.__all__:\n"
              "    getattr(sympgeo, name)\n"
              "from sympgeo.svgplot import SvgPlot\n"
              "plot = SvgPlot('stdlib only')\n"
              "plot.polyline([(0.0, 0.0), (1.0, 2.0), (2.5, -0.5)], label='curve')\n"
              "plot.circle(0.5, 0.5, 0.25, label='circle')\n"
              "plot.segment(0.0, 1.0, 2.0, 0.0)\n"
              "plot.marker(1.0, 1.0)\n"
              "print(hashlib.sha256(plot.to_svg().encode()).hexdigest())")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == FOUR_SHAPES_SHA256
