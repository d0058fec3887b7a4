"""Singular boundary value problems of equivariant harmonic self-maps on
cohomogeneity-one spheres and rotation groups: classification of the
harmonic k-maps and their degrees, ODE residual evaluation in closed and
raw-sum form, trigonometric identity oracles, and a double-shooting solver.

The names in ``__all__`` are re-exported lazily (PEP 562): the first
access to ``cohom1.solve`` imports ``cohom1.solver``.  Importing the
package imports no submodule, and the integer classification modules
``actions`` and ``classify`` import no numpy.
"""

import importlib

__version__ = "0.1.0"

#: The submodule that defines each re-exported name.
_EXPORTS = {
    name: module
    for module, names in {
        "actions": (
            "ActionDescriptor", "Space", "Tangential", "admissible_k",
            "degree_of_k_map", "make_action", "strict_triples",
            "tangential_vanishes",
        ),
        "classify": (
            "HarmonicityVerdict", "examples_table", "is_harmonic_k_map",
            "is_linear_solution", "linear_residual_oracle",
        ),
        "ode": (
            "BvpSpec", "TensionSample", "closed_tension", "closed_tension_equal_m",
            "raw_tension_sphere", "raw_tension_so", "residual_norm", "rhs",
        ),
        "identities": (
            "cotangent_identity", "half_sum_split", "identity_suite",
            "lemma_sin_2r", "lemma_sin_sq",
        ),
        "solver": (
            "Endpoint", "ShootingConfig", "Shot", "SolutionProfile", "SweepPoint",
            "series_start", "shoot", "solve", "sweep",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
