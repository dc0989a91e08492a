"""A command loads only the modules it uses, and the package namespace is lazy.

`gc` runs one cold process per question, so what a command imports is part
of its cost.  The module sets are read in child processes, since this
process shares ``sys.modules`` with every other test.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupconvex

SESSIONS = Path(__file__).resolve().parents[1] / "bench" / "sessions"

# every name the package exported when its __init__ imported them eagerly,
# by the module that defines it
EXPORTED = {
    "convexity": [
        "BoxSet", "FiniteSet", "PointSet", "box_set", "closure", "contains",
        "convex_hull", "diameter", "family_of", "finite_set", "image_set",
        "intersect", "is_family_convex", "is_n_convex", "is_T_convex",
        "member_of_sum", "n_dilate", "n_fold_sum", "preimage_set", "sample",
        "subset_of", "sumset", "t_convex_pointwise",
    ],
    "endo": [
        "Endomorphism", "RhoBracket", "all_endomorphisms", "halve", "identity",
        "injectivity_measure", "make_endo", "midpoint_closed_form",
        "midpoint_recursion", "mu_of_n", "neumann_inverse", "norm_of_n",
        "op_norm", "operator_distance", "scaling", "shifted_inverse",
        "spectral_radius", "try_inverse", "zero",
    ],
    "groups": [
        "CyclicMetric", "DyadicLattice", "FiniteGroup", "Group", "IntLattice",
        "L1Metric", "LinfMetric", "Metric", "TableMetric", "distance", "norm",
        "table_metric", "validate_metric",
    ],
    "scalars": ["format_dyadic", "format_rational", "parse_scalar"],
    "theorems": [
        "GeneratorConfig", "Instance", "Params", "PropertyId",
        "counterexample_search", "verify",
    ],
    "verdicts": ["Status", "Verdict", "proved", "refuted", "unfalsified"],
}
NAMES = [name for names in EXPORTED.values() for name in names]

_LOADED = """
import sys
from groupconvex import cli
cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("groupconvex."))))
"""


def _loaded(*argv: str) -> set[str]:
    """The groupconvex modules a cold ``cli.main(argv)`` leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(groupconvex.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, convexity, properties", [
    # a session with no sets, and a command that reads none
    (["mu", "z12x20.json", "T"], False, False),
    (["is-convex", "z121.json", "H", "T"], True, False),
    (["verify", "z9.json", "EXA_TILDE"], True, True),
    (["search", "z4x4.json", "LEMMA_MU", "--exhaustive", "--budget", "10"], True, True),
])
def test_a_command_loads_only_the_modules_it_uses(argv, convexity, properties):
    command, session, *rest = argv
    loaded = _loaded(command, str(SESSIONS / session), *rest)
    assert ("groupconvex.convexity" in loaded) is convexity, loaded
    assert ("groupconvex.properties" in loaded) is properties, loaded


def test_every_exported_name_resolves_to_its_home_object():
    assert sorted(groupconvex.__all__) == sorted(NAMES)
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"groupconvex.{module}")
        for name in names:
            assert getattr(groupconvex, name) is getattr(home, name), name


def test_star_import_and_dir_list_the_exported_names():
    namespace = {}
    exec("from groupconvex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(groupconvex.__all__)
    assert set(NAMES) <= set(dir(groupconvex))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        groupconvex.no_such_name
    with pytest.raises(ImportError):
        exec("from groupconvex import no_such_name", {})
    theorems = importlib.import_module("groupconvex.theorems")
    with pytest.raises(AttributeError, match="no_such_name"):
        theorems.no_such_name


def test_property_id_imports_from_theorems():
    from groupconvex.properties import _SPECS
    from groupconvex.theorems import PropertyId

    assert PropertyId is importlib.import_module("groupconvex.properties").PropertyId
    assert list(_SPECS) == list(PropertyId)
