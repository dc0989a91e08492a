"""The exit-code contract of ``gc`` over drawn sessions.

Exit 1 means Refuted and nothing else: it comes with a ``Refuted`` record
that carries a witness, and an ``is-convex`` or ``is-n-convex`` witness
re-checks.  Work that cannot be done exits 4 with a named error; no
exception escapes ``main``.  Groups too large to enumerate, such as
Z_(2^70), are drawn alongside small ones.  Sessions on Z^n and the dyadic
lattice keep the same contract, with finite sets and boxes, and an
``invert`` matrix M is exact: (I - T) M = I, or (S - T) M = I.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupconvex import FiniteGroup, contains, make_endo
from groupconvex.cli import EXIT_INPUT, EXIT_REFUTED, main, parse_session_text
from groupconvex.groups import _PAIR_CAP, _TABLE_CAP
from groupconvex.scalars import parse_scalar
from groupconvex.theorems import PropertyId

HUGE = 2 ** 70


def _run(session: dict, command: list[str]) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        path.write_text(json.dumps(session))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    return code, out.getvalue(), err.getvalue()


def _huge_session() -> dict:
    return {
        "group": {"kind": "finite", "moduli": [HUGE]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "endos": {"S": [["1"]], "T": [["2"]]},
        "sets": {"D": {"kind": "finite", "elements": [["0"]]}},
    }


@pytest.mark.parametrize(
    "command, cap",
    [
        (["invert", "S", "T"], _TABLE_CAP),
        (["verify", "COR_NIT"], _TABLE_CAP),
        (["verify", "THM_0"], _PAIR_CAP),
    ],
)
def test_groups_beyond_the_caps_are_input_errors(command, cap):
    code, out, err = _run(_huge_session(), command)
    assert code == EXIT_INPUT, (out, err)
    assert f"cap of {cap}" in err


@st.composite
def sessions(draw):
    moduli = draw(st.one_of(st.lists(st.integers(2, 6), min_size=1, max_size=2), st.just([HUGE])))

    def matrix():
        # a_ij * m_j = 0 (mod m_i) exactly for the multiples of m_i / gcd(m_i, m_j)
        return [
            [str(draw(st.integers(0, 5)) * (m_i // math.gcd(m_i, m_j))) for m_j in moduli]
            for m_i in moduli
        ]

    point = st.lists(st.integers(0, 7).map(str), min_size=len(moduli), max_size=len(moduli))
    return {
        "group": {"kind": "finite", "moduli": moduli},
        "metric": {"kind": "cyclic", "weights": [str(draw(st.integers(1, 3))) for _ in moduli]},
        "endos": {"S": matrix(), "T": matrix()},
        "sets": {"D": {"kind": "finite", "elements": draw(st.lists(point, min_size=1, max_size=3))}},
        "params": {"n0": draw(st.integers(1, 3))},
    }


COMMANDS = [
    ["is-convex", "D"],
    ["is-convex", "D", "T"],
    ["is-n-convex", "D", "2"],
    ["is-n-convex", "D", "3"],
    ["invert", "T"],
    ["invert", "S", "T"],
] + [["verify", prop.name] for prop in PropertyId]
# an exhaustive search of seven ordered pairs (T, S) of End(G)
SEARCHES = [
    ["search", prop, "--exhaustive", "--budget", "7"] for prop in ("LEMMA_MU", "COR_MU", "LEMMA_SR")
]
COMMANDS += SEARCHES


def _recheck_is_convex(session: dict, record: dict) -> None:
    """point = T(x) + y - T(y) and point lies outside D."""
    group = FiniteGroup(session["group"]["moduli"])
    endo, x, y, point = record["witness"]
    T = make_endo(group, endo["endo"])
    x, y, point = (group.element([int(c) for c in v]) for v in (x, y, point))
    assert point == group.add(T.apply(x), group.sub(y, T.apply(y)))
    D = {group.element([int(c) for c in v]) for v in session["sets"]["D"]["elements"]}
    assert point not in D


def _recheck_is_n_convex(session: dict, record: dict, n: int) -> None:
    """n parts from D sum to the total, and the total is n*d for no d in D."""
    group = FiniteGroup(session["group"]["moduli"])
    parts, total = record["witness"]
    parts = [group.element([int(c) for c in v]) for v in parts]
    total = group.element([int(c) for c in total])
    D = {group.element([int(c) for c in v]) for v in session["sets"]["D"]["elements"]}
    assert len(parts) == n and set(parts) <= D
    assert total == functools.reduce(group.add, parts)
    assert all(total != group.nat_mul(n, d) for d in D)


# every command on its own draws, so that each is run on some sessions
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=8, deadline=None)
@given(session=sessions())
def test_exit_one_always_carries_a_witness_that_rechecks(session, command):
    code, out, err = _run(session, [*command, "--json"])
    assert code in range(5), (code, err)
    if code != EXIT_REFUTED:
        return
    record = json.loads(out.splitlines()[-1])
    assert record["status"] == "Refuted" and record.get("witness"), record
    if command[0] == "is-convex":
        _recheck_is_convex(session, record)
    if command[0] == "is-n-convex":
        _recheck_is_n_convex(session, record, int(command[2]))


@settings(max_examples=100, deadline=None)
@given(sessions(), st.sampled_from(SEARCHES))
def test_an_exhaustive_search_proves_exactly_when_the_budget_covers_every_pair(session, command):
    moduli = session["group"]["moduli"]
    code, out, err = _run(session, [*command, "--json"])
    if HUGE in moduli:
        assert code == EXIT_INPUT, (out, err)
        return
    ring = math.prod(math.gcd(m_i, m_j) for m_i in moduli for m_j in moduli)
    record = json.loads(out.splitlines()[-1])
    if ring ** 2 <= 7:
        assert code == 0 and record["status"] == "Proved", (out, err)
    else:
        assert code == 2 and record == {"status": "Unfalsified", "property": command[1], "samples": 7}


# -- lattice sessions ----------------------------------------------------------


@st.composite
def lattice_sessions(draw):
    """Z^n or the dyadic lattice of dimension 1-2, with maps S and T, a
    finite set D and a box B."""
    kind, dim = draw(st.sampled_from(["int", "dyadic"])), draw(st.integers(1, 2))
    scale = st.just(0) if kind == "int" else st.integers(0, 2)

    def scalar(lo, hi):
        return Fraction(draw(st.integers(lo, hi)), 1 << draw(scale))

    def point():
        return [str(scalar(-3, 3)) for _ in range(dim)]

    def square(entry):
        return [[entry(i, j) for j in range(dim)] for i in range(dim)]

    def unit(i, j):
        if i == j:
            return draw(st.sampled_from([-1, 1]))
        return draw(st.integers(-2, 2)) if j > i else 0

    # S is an upper triangular unit U or any matrix.  With N strictly upper
    # triangular, T = U N and U^-1 T = N are nilpotent, so I - T and U - T
    # invert on Z^n; otherwise N is any matrix
    strict = draw(st.booleans())
    U = square(unit)
    N = square(lambda i, j: scalar(-2, 2) if j > i or not strict else 0)
    T = square(lambda i, j: sum(U[i][k] * N[k][j] for k in range(dim)))
    S = draw(st.sampled_from([U, square(lambda i, j: scalar(-2, 2))]))
    lo = point()
    hi = [str(parse_scalar(a) + draw(st.integers(0, 3))) for a in lo]
    return {
        "group": {"kind": kind, "dim": dim},
        "metric": {
            "kind": draw(st.sampled_from(["l1", "linf"])),
            "weights": [str(draw(st.integers(1, 3))) for _ in range(dim)],
        },
        "endos": {name: [list(map(str, row)) for row in A] for name, A in (("S", S), ("T", T))},
        "sets": {
            "D": {"kind": "finite", "elements": [point() for _ in range(draw(st.integers(1, 3)))]},
            "B": {"kind": "box", "lo": lo, "hi": hi},
        },
    }


LATTICE_COMMANDS = (
    [["invert", "T"], ["invert", "S", "T"]]
    + [["is-convex", A, *names] for A in ("D", "B") for names in ([], ["T"])]
    + [["is-n-convex", A, n] for A in ("D", "B") for n in ("2", "3")]
    + [["recursion", "T", "3"], ["hull", "D", "T", "--max-iter", "3"]]
    + [[command, name] for command in ("endo-norm", "mu", "rho") for name in ("S", "T")]
    + [["norm", "--", "-1/2,3"], ["norm", "--", "-1"]]
    + [[command, prop.name, "--budget", "3"] for command in ("verify", "search") for prop in PropertyId]
)


def _matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(parse_scalar(a)) for a in row] for row in rows]


def _product(A, B) -> list[list[Fraction]]:
    return [[sum(a * b for a, b in zip(row, column)) for column in zip(*B)] for row in A]


def _recheck_lattice_is_convex(session: dict, record: dict, set_name: str) -> None:
    """point = T(x) + y - T(y) and point lies outside the set."""
    inst = parse_session_text(json.dumps(session))
    g = inst.group
    endo, x, y, point = record["witness"]
    T = make_endo(g, _matrix(endo["endo"]))
    x, y, point = (g.element([parse_scalar(c) for c in v]) for v in (x, y, point))
    assert point == g.add(T.apply(x), g.sub(y, T.apply(y)))
    assert not contains(inst.sets[set_name], point)


def _recheck_inverse(session: dict, names: list[str], record: dict) -> None:
    """(I - T) M = I, or (S - T) M = I, in exact arithmetic."""
    dim = session["group"]["dim"]
    identity = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    left = identity if len(names) == 1 else _matrix(session["endos"][names[0]])
    T = _matrix(session["endos"][names[-1]])
    difference = [[a - b for a, b in zip(p, q)] for p, q in zip(left, T)]
    assert _product(difference, _matrix(record["matrix"])) == identity, record


# every command on its own draws, so that each is run on some sessions
@pytest.mark.parametrize("command", LATTICE_COMMANDS, ids=" ".join)
@settings(max_examples=25, deadline=None)
@given(session=lattice_sessions())
def test_lattice_sessions_keep_the_exit_code_contract(session, command):
    code, out, err = _run(session, [command[0], "--json", *command[1:]])
    assert code in range(5), (code, err)
    if code == EXIT_INPUT:
        assert err.startswith(("error: ", "generator exhausted: ")) or out, (out, err)
        return
    record = json.loads(out.splitlines()[-1])
    if code == EXIT_REFUTED:
        assert record["status"] == "Refuted" and record.get("witness"), record
        if command[0] == "is-convex":
            _recheck_lattice_is_convex(session, record, command[1])
    if code == 0 and command[0] == "invert":
        _recheck_inverse(session, command[1:], record)
