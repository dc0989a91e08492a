"""Independent checks of the benchmark's committed expectations and guards.

    PYTHONPATH=src python3 -m pytest -q bench

The oracles below recompute answers by brute force with plain integers and
Fractions, without importing groupconvex, and compare them with the stdout
and exit codes committed in bench/workloads.json.  Only the guard and tracer
tests start processes: one small child each.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
COMMANDS = {
    tuple(spec["argv"]): spec for w in WORKLOADS.values() for spec in w["commands"]
}


def session(name: str) -> dict:
    return json.loads((BENCH / "sessions" / name).read_text())


def expected(*argv: str) -> dict:
    return COMMANDS[argv]


def scalar(text: str) -> Fraction:
    if "/2^" in text:
        num, _, exp = text.partition("/2^")
        return Fraction(int(num), 2 ** int(exp))
    return Fraction(text)


# ---------------------------------------------------------------------------
# Brute-force finite-group oracles
# ---------------------------------------------------------------------------

def elements(moduli):
    return list(itertools.product(*(range(m) for m in moduli)))


def norm_of(data: dict):
    moduli = data["group"]["moduli"]
    metric = data["metric"]
    if metric["kind"] == "cyclic":
        weights = [scalar(w) for w in metric["weights"]]
        return lambda x: sum(w * min(a, m - a) for w, a, m in zip(weights, x, moduli))
    table = {tuple(int(c) for c in k.split(",")): scalar(v) for k, v in metric["values"].items()}
    return lambda x: table[x]


def apply(matrix, x, moduli):
    return tuple(sum(a * c for a, c in zip(row, x)) % m for row, m in zip(matrix, moduli))


def ratios(data: dict, endo: str) -> list[Fraction]:
    moduli = data["group"]["moduli"]
    matrix = [[int(a) for a in row] for row in data["endos"][endo]]
    norm = norm_of(data)
    zero = tuple(0 for _ in moduli)
    return [
        Fraction(norm(apply(matrix, x, moduli))) / norm(x)
        for x in elements(moduli) if x != zero
    ]


@pytest.mark.parametrize("name", ["z121.json", "z12x20.json", "z60-table.json"])
def test_session_metrics_are_norms(name):
    data = session(name)
    moduli = data["group"]["moduli"]
    norm = norm_of(data)
    elems = elements(moduli)
    add = lambda x, y: tuple((a + b) % m for a, b, m in zip(x, y, moduli))
    neg = lambda x: tuple((-a) % m for a, m in zip(x, moduli))
    zero = tuple(0 for _ in moduli)
    assert all((norm(x) == 0) == (x == zero) and norm(neg(x)) == norm(x) for x in elems)
    assert all(norm(add(x, y)) <= norm(x) + norm(y) for x in elems for y in elems)


@pytest.mark.parametrize("argv, name, endo, pick", [
    (("mu", "bench/sessions/z121.json", "T"), "z121.json", "T", min),
    (("endo-norm", "bench/sessions/z121.json", "T"), "z121.json", "T", max),
    (("mu", "bench/sessions/z12x20.json", "T"), "z12x20.json", "T", min),
    (("mu", "bench/sessions/z60-table.json", "U"), "z60-table.json", "U", min),
])
def test_operator_values_match_brute_force(argv, name, endo, pick):
    spec = expected(*argv)
    assert spec["exit"] == 0
    assert Fraction(spec["stdout"]) == pick(ratios(session(name), endo))


@pytest.mark.parametrize("argv, name, element", [
    (("norm", "bench/sessions/z121.json", "7"), "z121.json", (7,)),
    (("norm", "bench/sessions/z60-table.json", "30"), "z60-table.json", (30,)),
])
def test_norm_values_match_brute_force(argv, name, element):
    assert Fraction(expected(*argv)["stdout"]) == norm_of(session(name))(element)


def z121_set(name: str) -> set[int]:
    return {int(x[0]) for x in session("z121.json")["sets"][name]["elements"]}


def test_hull_is_the_closure():
    grown, current = True, z121_set("S")
    while grown:
        step = {(5 * x - 4 * y) % 121 for x in current for y in current}
        grown = not step <= current
        current |= step
    assert current == set(range(121))
    text = "{" + ", ".join(f"({k})" for k in sorted(current)) + "} (complete)"
    spec = expected("hull", "bench/sessions/z121.json", "S", "T")
    assert (spec["exit"], spec["stdout"]) == (0, text)


def test_convexity_verdicts_recheck():
    D, H = z121_set("D"), z121_set("H")
    assert all((5 * x - 4 * y) % 121 in H for x in H for y in H)
    assert expected("is-convex", "bench/sessions/z121.json", "H", "T")["stdout"] == "Proved"

    spec = expected("is-convex", "bench/sessions/z121.json", "D", "T", "--json")
    T, x, y, point = json.loads(spec["stdout"])["witness"]
    x, y, point = int(x[0]), int(y[0]), int(point[0])
    assert spec["exit"] == 1 and T == {"endo": [["5"]]}
    assert x in D and y in D and (5 * x - 4 * y) % 121 == point and point not in D

    spec = expected("is-n-convex", "bench/sessions/z121.json", "D", "2", "--json")
    parts, total = json.loads(spec["stdout"])["witness"]
    parts = [int(p[0]) for p in parts]
    assert spec["exit"] == 1 and all(p in D for p in parts)
    assert sum(parts) % 121 == int(total[0]) and int(total[0]) not in {2 * d % 121 for d in D}


def test_single_question_answers():
    assert expected("invert", "bench/sessions/z121.json", "N")["stdout"] == "(I - N)^-1 = [12]"
    assert (1 - 11) * 12 % 121 == 1
    # T = 5 is a unit mod 121, so no power is zero and the radius is exactly one
    assert all(pow(5, k, 121) != 0 for k in range(1, 122))
    assert expected("rho", "bench/sessions/z121.json", "T")["stdout"] == "1 (exact)"


def test_dyadic_rho_bracket_holds_the_radius():
    matrix = [[scalar(a) for a in row] for row in session("dyadic2.json")["endos"]["T"]]
    assert matrix[1][0] == 0  # upper triangular: the eigenvalues are the diagonal
    radius = max(abs(matrix[0][0]), abs(matrix[1][1]))
    spec = expected("rho", "bench/sessions/dyadic2.json", "T", "--horizon", "200")
    lower, upper = (Fraction(t) for t in spec["stdout"].strip("[]").split(", "))
    assert spec["exit"] == 0 and lower <= radius <= upper


def family(subset: set[int], m: int) -> frozenset[int]:
    return frozenset(
        t for t in range(m)
        if all((t * x + (1 - t) * y) % m in subset for x in subset for y in subset)
    )


def test_z9_family_theorems_hold_by_brute_force():
    m = 9
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            fam = family(set(combo), m)
            assert {0, 1} <= fam
            # THM_P1: closed under T T1 + (I - T) T2
            assert all((t * a + (1 - t) * b) % m in fam for t in fam for a in fam for b in fam)
            # COR_1: reflection, composition and pair mixing
            assert all((1 - t) % m in fam for t in fam)
            assert all(t * s % m in fam and (t * s + (1 - t) * (1 - s)) % m in fam
                       for t in fam for s in fam)
    for prop in ("THM_P1", "COR_1", "LEM_TC"):
        spec = expected("verify", "bench/sessions/z9.json", prop, "--json")
        assert json.loads(spec["stdout"]) == {"status": "Proved", "property": prop}


def ring_order(moduli) -> int:
    return sum(
        1 for entries in itertools.product(*(range(mi) for mi in moduli for _ in moduli))
        if all(entries[i * len(moduli) + j] * mj % mi == 0
               for i, mi in enumerate(moduli) for j, mj in enumerate(moduli))
    )


def test_search_expectations():
    for argv, spec in COMMANDS.items():
        if argv[0] != "search":
            continue
        budget = int(argv[argv.index("--budget") + 1])
        record = json.loads(spec["stdout"])
        assert record["property"] == argv[2]
        if record["status"] == "Unfalsified":
            assert spec["exit"] == 2 and record["samples"] == budget == spec["instances"]
        else:
            # an exhaustive search enumerates every pair of endomorphisms
            moduli = session(Path(argv[1]).name)["group"]["moduli"]
            assert "--exhaustive" in argv and record == {"status": "Proved", "property": argv[2]}
            assert spec["exit"] == 0 and spec["instances"] == ring_order(moduli) ** 2 <= budget


def test_ring_sweep_keeps_the_eager_instance_case():
    argv = ("search", "bench/sessions/z4x8.json", "LEMMA_MU", "--exhaustive", "--budget", "1000", "--json")
    assert argv in {tuple(s["argv"]) for s in WORKLOADS["ring-sweep"]["commands"]}
    assert ring_order([4, 8]) ** 2 == 262144


def test_every_command_has_an_expectation():
    for spec in COMMANDS.values():
        assert isinstance(spec["exit"], int) and isinstance(spec["stdout"], str)
        assert (ROOT / spec["argv"][1]).is_file()


# ---------------------------------------------------------------------------
# Guards and tracer
# ---------------------------------------------------------------------------

def test_cpu_guard_kills_a_runaway_child(monkeypatch):
    monkeypatch.setattr(run, "CHILD_CPU_S", 1)
    _, code, _, _, _ = run.run_child([sys.executable, "-c", "while True: pass"], dict(os.environ))
    assert code < 0


def test_memory_guard_fails_a_blow_up(monkeypatch):
    monkeypatch.setattr(run, "CHILD_ADDRESS_SPACE", 256 << 20)
    _, code, _, stderr, _ = run.run_child(
        [sys.executable, "-c", "b = bytearray(1 << 30)"], dict(os.environ)
    )
    assert code == 1 and "MemoryError" in stderr


def test_tracer_resolves_every_per_layer_metric(tmp_path):
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    _, code, stdout, _, _ = run.run_child(
        [sys.executable, str(BENCH / "tracer.py"), str(stats_path),
         "mu", "bench/sessions/z121.json", "T"], env,
    )
    assert (code, stdout) == (0, "1/24\n")
    stats = [json.loads(stats_path.read_text())]
    assert stats[0]["functions"]["endo.injectivity_measure"][0] == 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced_s = stats[0]["import_s"] + stats[0]["main_s"]
    values = {
        m["name"]: run.layer_metric(m["name"], stats, traced_s / 2, traced_s)
        for m in config["per_layer"]
    }
    assert values["trace.overhead_ratio"] == 2.0
    # the wrappers' self times add up to the time spent in cli.main
    assert 0.99 < values["trace.accounted_ratio"] <= 1.0
    assert values["groups.validate_metric.calls"] == 1
