"""Planar symplectic geometry toolkit.

Four layers, each built on the one below:

* :mod:`sympgeo.core`: the quarter-turn operator, perp-dot product, polar
  form, similarity transforms, and the classical product identities;
* :mod:`sympgeo.geometry`: closed-form constructions (line intersection,
  projection, ratios, common circle tangents) as signed-area quotients;
* :mod:`sympgeo.kinematics`: polar time derivatives and the inverted
  slider crank solved by differentiating one vector loop;
* :mod:`sympgeo.dynamics`: harmonic-oscillator phase flow where the same
  quarter-turn operator implements Hamilton's equations, with contrasting
  fixed-step integrators.

The ``sympgeo`` command line drives all of it and emits deterministic
JSON/CSV reports plus optional SVG plots.

``import sympgeo`` loads no layer: each public name, and each layer module,
is imported on first access (PEP 562), so a program pays only for the
layers it uses.
"""

import importlib

#: Public names by the submodule that defines them.
_EXPORTS = {
    "core": (
        "ATOL", "RTOL", "IdentityResiduals", "Polar", "Vec2", "close", "directed_angle",
        "dot", "from_polar", "identity_residuals", "inverse", "norm", "rotate", "similarity",
        "similarity_div", "symp", "tilde", "to_polar", "wrap_angle",
    ),
    "dynamics": (
        "EXPLICIT_EULER", "LEAPFROG", "METHODS", "SYMPLECTIC_EULER", "OscillatorParams",
        "PhaseState", "Trajectory", "analytic_oscillator", "area_residual", "ellipse_residual",
        "hamiltonian", "hamiltonian_field", "hamiltonian_gradient", "simulate", "step",
    ),
    "errors": (
        "SympGeoError", "DegeneracyError", "SingularityError", "ZeroVectorError",
        "DegenerateScaleError", "DegenerateDenominatorError", "ParallelLinesError",
        "CoincidentCentersError", "ZeroDirectionError", "SingularPositionError",
        "InvalidStepError", "NumericalOverflowError",
    ),
    "geometry": (
        "Circle", "Intersection", "Line", "Tangent", "circle_tangents", "collinearity_residual",
        "cross_ratio", "intersect_lines", "is_collinear", "jacobi_triangle_residual",
        "point_circle_tangents", "project_point_onto_line", "simple_ratio",
        "tangent_distance_error",
    ),
    "kinematics": (
        "CrankConfig", "CrankState", "PolarKinematics", "PolarMotion", "SweepEntry",
        "crank_state", "crank_sweep", "loop_residuals", "polar_kinematics",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
