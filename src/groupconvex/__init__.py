"""Exact convexity and operator computations on metric Abelian groups.

The package instantiates finite Abelian groups, integer lattices and dyadic
lattices with validated translation-invariant norms, computes operator
norms, injectivity measures, spectral-radius brackets and geometric-series
inverses over their endomorphism rings, runs set arithmetic and convexity
checks, and verifies a catalogue of structural properties as executable
checks at desk scale.

The names below load with their module on first access (PEP 562), so a
`gc` command compiles only the modules it uses.
"""

import importlib

# the exported names, by the module that defines them
_EXPORTS = {
    "convexity": (
        "BoxSet", "FiniteSet", "PointSet", "box_set", "closure", "contains",
        "convex_hull", "diameter", "family_of", "finite_set", "image_set",
        "intersect", "is_family_convex", "is_n_convex", "is_T_convex",
        "member_of_sum", "n_dilate", "n_fold_sum", "preimage_set", "sample",
        "subset_of", "sumset", "t_convex_pointwise",
    ),
    "endo": (
        "Endomorphism", "RhoBracket", "all_endomorphisms", "halve", "identity",
        "injectivity_measure", "make_endo", "midpoint_closed_form",
        "midpoint_recursion", "mu_of_n", "neumann_inverse", "norm_of_n",
        "op_norm", "operator_distance", "scaling", "shifted_inverse",
        "spectral_radius", "try_inverse", "zero",
    ),
    "groups": (
        "CyclicMetric", "DyadicLattice", "FiniteGroup", "Group", "IntLattice",
        "L1Metric", "LinfMetric", "Metric", "TableMetric", "distance", "norm",
        "table_metric", "validate_metric",
    ),
    "scalars": ("format_dyadic", "format_rational", "parse_scalar"),
    "theorems": (
        "GeneratorConfig", "Instance", "Params", "PropertyId",
        "counterexample_search", "verify",
    ),
    "verdicts": ("Status", "Verdict", "proved", "refuted", "unfalsified"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
