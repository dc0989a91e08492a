"""Each rule that several operations share is decided in one place.

Group agreement, a positive n, listing End(G), the caps on work and the fit
of a metric to its group are each checked here across every operation that
relies on them, so a copy that drifts from the owner shows up as one failing
case.  THM_0 is compared with
a reference copy of its checker as it stood with an explicit chain-union
loop.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from groupconvex import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    LinfMetric,
    PropertyId,
    box_set,
    contains,
    convex_hull,
    counterexample_search,
    diameter,
    distance,
    finite_set,
    identity,
    image_set,
    injectivity_measure,
    intersect,
    is_n_convex,
    is_T_convex,
    make_endo,
    member_of_sum,
    midpoint_closed_form,
    midpoint_recursion,
    mu_of_n,
    n_dilate,
    n_fold_sum,
    neumann_inverse,
    norm,
    norm_of_n,
    op_norm,
    operator_distance,
    preimage_set,
    scaling,
    shifted_inverse,
    spectral_radius,
    subset_of,
    sumset,
    t_convex_pointwise,
    table_metric,
    validate_metric,
    verify,
    zero,
)
from groupconvex import convexity as cx
from groupconvex import endo as en
from groupconvex import properties, theorems
from groupconvex.cli import EXIT_INPUT, EXIT_OK, EXIT_REFUTED, main
from groupconvex.errors import (
    DimensionMismatch,
    GeneratorExhausted,
    GroupConvexError,
    GroupMismatch,
    HypothesisFailed,
    MetricGroupMismatch,
    NotEnumerable,
    UnsupportedCombination,
)
from groupconvex.groups import _PAIR_CAP
from groupconvex.theorems import GeneratorConfig, Instance
from groupconvex.verdicts import Status, proved, refuted

Z9, Z6 = FiniteGroup((9,)), FiniteGroup((6,))
CYCLIC = CyclicMetric((Fraction(1),))


def _session_file(tmp_path, session) -> str:
    path = tmp_path / "session.json"
    path.write_text(json.dumps(session))
    return str(path)


# -- group agreement ------------------------------------------------------------
def _mismatched(operation):
    """Operands of ``operation`` on Z9 against Z6, in that order."""
    T9, T6 = scaling(Z9, 2), scaling(Z6, 1)
    D9, D6 = finite_set(Z9, [[0], [3]]), finite_set(Z6, [[0]])
    return {
        "compose": lambda: T9.compose(T6),
        "add": lambda: T9.add(T6),
        "sub": lambda: T9.sub(T6),
        "shifted_inverse": lambda: shifted_inverse(identity(Z9), zero(Z6), CYCLIC),
        "sumset": lambda: sumset(D9, D6),
        "intersect": lambda: intersect(D9, D6),
        "subset_of": lambda: subset_of(D9, D6),
        "is_T_convex": lambda: is_T_convex(D9, T6),
        "t_convex_pointwise": lambda: t_convex_pointwise(D9, T6),
        "member_of_sum": lambda: member_of_sum((0,), D9, D6),
        "convex_hull": lambda: convex_hull(D9, [T9, T6]),
        "image_set": lambda: image_set(D9, T6),
        "preimage_set": lambda: preimage_set(D9, T6),
    }[operation]


@pytest.mark.parametrize(
    "operation",
    ["compose", "add", "sub", "shifted_inverse", "sumset", "intersect", "subset_of",
     "is_T_convex", "t_convex_pointwise", "member_of_sum", "convex_hull", "image_set",
     "preimage_set"],
)
def test_every_two_operand_operation_refuses_a_group_mismatch(operation):
    with pytest.raises(GroupMismatch, match="Z9 vs Z6|Z6 vs Z9"):
        _mismatched(operation)()


# -- a positive n ---------------------------------------------------------------
_N_TAKERS = {
    "n_fold_sum": lambda g, n: n_fold_sum(finite_set(g, [[1]]), n),
    "n_dilate": lambda g, n: n_dilate(finite_set(g, [[1]]), n),
    "is_n_convex": lambda g, n: is_n_convex(finite_set(g, [[1]]), n),
    "midpoint_recursion": lambda g, n: midpoint_recursion(identity(g), n),
    "midpoint_closed_form": lambda g, n: midpoint_closed_form(identity(g), n),
    "nat_mul": lambda g, n: g.nat_mul(n, g.element([1])),
    "div_apply": lambda g, n: g.div_apply(n, g.element([1])),
    "norm_of_n": lambda g, n: norm_of_n(g, _metric(g), n),
    "mu_of_n": lambda g, n: mu_of_n(g, _metric(g), n),
    "spectral_radius": lambda g, n: spectral_radius(identity(g), _metric(g), horizon=n),
    "convex_hull": lambda g, n: convex_hull(finite_set(g, [[1]]), [identity(g)], max_iter=n),
    "counterexample_search": lambda g, n: counterexample_search(
        PropertyId.LEMMA_MU, GeneratorConfig(group=g), budget=n, seed=0
    ),
    "IntLattice": lambda g, n: IntLattice(n),
}


def _metric(group):
    return CYCLIC if isinstance(group, FiniteGroup) else LinfMetric((Fraction(1),))


@pytest.mark.parametrize("group", [Z9, IntLattice(1), DyadicLattice(1)], ids=str)
@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("operation", sorted(_N_TAKERS))
def test_every_operation_taking_n_refuses_n_below_one(operation, n, group):
    with pytest.raises(ValueError):
        _N_TAKERS[operation](group, n)


@pytest.mark.parametrize(
    "operation, name",
    [("spectral_radius", "horizon"), ("convex_hull", "max_iter"),
     ("counterexample_search", "budget"), ("IntLattice", "dimension")],
)
def test_a_named_count_below_one_is_refused_by_name(operation, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got 0$"):
        _N_TAKERS[operation](Z9, 0)


# -- a metric that fits its group ------------------------------------------------
_Z2, _Z4 = IntLattice(2), FiniteGroup((4,))
# (group, metric, matrix of a map on the group): none of the metrics fits its group
_MISFITS = {
    "one weight on Z^2": (_Z2, LinfMetric((1,)), [[1, 0], [0, 5]]),
    "three weights on Z^2": (_Z2, LinfMetric((1, 1, 1)), [[1, 0], [0, 5]]),
    "cyclic on Z^2": (_Z2, CyclicMetric((1, 1)), [[1, 0], [0, 5]]),
    "table on Z^1": (IntLattice(1), table_metric({(0,): 0}), [[1]]),
    "Z4 table with a stray entry": (
        _Z4, table_metric({(0,): 0, (1,): 1, (2,): 2, (3,): 1, (5,): 7}), [[3]],
    ),
    "two weights cyclic on Z5": (FiniteGroup((5,)), CyclicMetric((1, 1)), [[2]]),
    "nilpotent map on Z^2, cyclic": (_Z2, CyclicMetric((1, 1)), [[0, 1], [0, 0]]),
    "not a metric": (_Z4, "cyclic", [[1]]),
}
_METRIC_READERS = {
    "norm": lambda g, m, T: norm(g, m, g.zero()),
    "distance": lambda g, m, T: distance(g, m, g.zero(), g.zero()),
    "diameter": lambda g, m, T: diameter(finite_set(g, [g.zero()]), m),
    "validate_metric": lambda g, m, T: validate_metric(g, m),
    "op_norm": lambda g, m, T: op_norm(T, m),
    "injectivity_measure": lambda g, m, T: injectivity_measure(T, m),
    "spectral_radius": lambda g, m, T: spectral_radius(T, m),
    "norm_of_n": lambda g, m, T: norm_of_n(g, m, 2),
    "mu_of_n": lambda g, m, T: mu_of_n(g, m, 2),
    "operator_distance": lambda g, m, T: operator_distance(T, identity(g), m),
    "neumann_inverse": lambda g, m, T: neumann_inverse(T, m),
}


@pytest.mark.parametrize("operation", sorted(_METRIC_READERS))
@pytest.mark.parametrize("case", sorted(_MISFITS))
def test_every_operation_reading_a_metric_refuses_one_that_does_not_fit(case, operation):
    group, metric, rows = _MISFITS[case]
    with pytest.raises(MetricGroupMismatch):
        _METRIC_READERS[operation](group, metric, make_endo(group, rows))


def test_unsupported_combination_is_a_metric_group_mismatch():
    assert issubclass(UnsupportedCombination, MetricGroupMismatch)
    with pytest.raises(MetricGroupMismatch, match="^unknown metric 'cyclic'$"):
        norm(_Z4, "cyclic", (0,))


def test_a_table_of_as_many_entries_as_elements_still_covers_each_element():
    # four entries, as Z4 has, but none for (3,)
    missing = table_metric({(0,): 0, (1,): 1, (2,): 2, (5,): 1})
    with pytest.raises(MetricGroupMismatch, match=r"does not cover element \(3,\)"):
        validate_metric(_Z4, missing)


# -- listing End(G) -------------------------------------------------------------
@pytest.mark.parametrize("prop", ["LEMMA_MU", "COR_MU", "LEMMA_SR", "LEM_TC", "THM_P1", "COR_1"])
def test_properties_that_list_the_ring_refuse_a_bare_lattice_session(tmp_path, capsys, prop):
    session = {"group": {"kind": "int", "dim": 2}, "metric": {"kind": "linf", "weights": ["1", "1"]}}
    assert main(["verify", _session_file(tmp_path, session), prop]) == EXIT_INPUT
    assert "error: " in capsys.readouterr().err


# -- THM_0 against its checker with an explicit chain-union loop ----------------
def _reference_thm_0(inst: Instance):
    """THM_0 with every ordered chain D1 <= D2 checked by its union."""
    family = [T for name, T in inst.endos.items() if name != "A"]
    if not family:
        raise HypothesisFailed("a nonempty family of endomorphisms is provided")
    g = inst.group
    convex_sets = []
    for name, D in itertools.zip_longest(inst.sets, properties._candidate_sets(inst)):
        if cx.is_family_convex(D, family).proved:
            convex_sets.append(D)
        elif inst.sets:
            raise HypothesisFailed(f"set {name!r} is family-convex")
    if not cx.is_family_convex(finite_set(g, ()), family).proved:
        return refuted(("empty set",))
    if isinstance(g, FiniteGroup):
        if g.order ** 2 > _PAIR_CAP:
            raise NotEnumerable(
                f"the whole space of {g} has {g.order ** 2} pairs, beyond the cap of {_PAIR_CAP}"
            )
        if not cx.is_family_convex(finite_set(g, g.elements()), family).proved:
            return refuted(("whole space",))
        pool = list(g.elements())
    else:
        n = g.dim
        pool = [g.zero()] + [g.element([int(i == j) for j in range(n)]) for i in range(n)]
        pool += [g.element(c) for c in itertools.product((-2, 2), repeat=n)]
    for x in pool:
        if not cx.is_family_convex(finite_set(g, [x]), family).proved:
            return refuted(("singleton", x))
    for D1, D2 in itertools.combinations(convex_sets, 2):
        if not cx.is_family_convex(cx.intersect(D1, D2), family).proved:
            return refuted(("intersection", D1, D2))
    for D1, D2 in itertools.permutations(convex_sets, 2):
        if cx.subset_of(D1, D2):
            both_finite = isinstance(D1, cx.FiniteSet) and isinstance(D2, cx.FiniteSet)
            union = finite_set(g, D1.elements + D2.elements) if both_finite else D2
            if not cx.is_family_convex(union, family).proved:
                return refuted(("chain union", D1, D2))
    for D1, D2 in itertools.combinations_with_replacement(convex_sets, 2):
        if isinstance(D1, cx.FiniteSet) != isinstance(D2, cx.FiniteSet):
            continue
        if not cx.is_family_convex(cx.sumset(D1, D2), family).proved:
            return refuted(("sumset", D1, D2))
    if "A" in inst.endos:
        commuting = [inst.endos["A"]]
        for T in family:
            if commuting[0].compose(T) != T.compose(commuting[0]):
                raise HypothesisFailed("A commutes with every family member")
    elif isinstance(g, FiniteGroup):
        ring = en.all_endomorphisms(g) if g.order <= 16 else [
            scaling(g, n) for n in range(max(g.moduli))
        ]
        commuting = [A for A in ring if all(A.compose(T) == T.compose(A) for T in family)]
    else:
        commuting = []
    for A in commuting:
        for D in convex_sets:
            if not isinstance(D, cx.FiniteSet):
                continue
            if not cx.is_family_convex(image_set(D, A), family).proved:
                return refuted(("image", A, D))
            if isinstance(g, FiniteGroup):
                if not cx.is_family_convex(preimage_set(D, A), family).proved:
                    return refuted(("preimage", A, D))
    return proved()


def _outcome(check, inst):
    try:
        verdict = check(inst)
    except GroupConvexError as err:
        return type(err), str(err)
    return verdict.status, verdict.witness


def _drawn_instances(gen: GeneratorConfig, count: int):
    spec = properties._SPECS[PropertyId.THM_0]
    rng = random.Random(7)
    out = []
    while len(out) < count:
        try:
            out.append(theorems._build_instance(spec, gen, rng))
        except GeneratorExhausted:
            continue
    return out


def _with_boxes(group, rng):
    """A family of I and 0, which keep every set convex, and chains of boxes."""
    lo = [rng.randint(-2, 0) for _ in range(group.dim)]
    hi = [a + rng.randint(0, 2) for a in lo]
    B = box_set(group, lo, hi)
    sets = {"B": B, "F": finite_set(group, [lo])}
    if isinstance(group, IntLattice):
        sets["P"] = finite_set(group, cx._box_points(B))
    endos = {"T1": identity(group), "T2": zero(group)}
    return Instance(group, LinfMetric((1,) * group.dim), endos=endos, sets=sets)


@pytest.mark.parametrize(
    "gen",
    [GeneratorConfig(), GeneratorConfig(group=IntLattice(2)), GeneratorConfig(group=DyadicLattice(2))],
    ids=["finite", "Z^2", "dyadic^2"],
)
def test_thm_0_matches_the_chain_union_loop_on_drawn_instances(gen):
    instances = _drawn_instances(gen, 25)
    if gen.group is None:
        # every subset of the drawn group is a candidate, so chains are long
        instances += [
            Instance(i.group, i.metric, endos=i.endos) for i in instances if i.group.order <= 7
        ]
    else:
        rng = random.Random(11)
        instances += [_with_boxes(gen.group, rng) for _ in range(10)]
    outcomes = set()
    for inst in instances:
        expected = _outcome(_reference_thm_0, inst)
        assert _outcome(lambda i: verify(PropertyId.THM_0, i), inst) == expected, inst
        outcomes.add(expected[0])
    assert Status.PROVED in outcomes


def test_thm_0_needs_no_enumeration_for_a_chain_of_a_box_and_a_point(tmp_path, capsys):
    session = {
        "group": {"kind": "int", "dim": 1},
        "metric": {"kind": "linf", "weights": ["1"]},
        "endos": {"T": [["1"]]},
        "sets": {"B": {"kind": "box", "lo": ["0"], "hi": ["5000"]},
                 "F": {"kind": "finite", "elements": [["0"]]}},
    }
    assert main(["verify", _session_file(tmp_path, session), "THM_0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "THM_0: Proved"


# -- caps ----------------------------------------------------------------------
_HALF = make_endo(DyadicLattice(2), [[Fraction(1, 2), 1], [0, Fraction(3, 4)]])
_TRIPLE = scaling(IntLattice(1), 3)
_SQUARE = box_set(IntLattice(2), [0, 0], [1, 1])
_BEYOND_A_CAP = {
    "horizon": (
        lambda: spectral_radius(_HALF, LinfMetric((1, 1)), en._HORIZON_CAP + 1),
        f"{en._HORIZON_CAP + 1} powers, beyond the cap of {en._HORIZON_CAP}",
    ),
    "lattice recursion": (
        lambda: midpoint_recursion(_TRIPLE, en._RECURSION_CAP + 1),
        f"{en._RECURSION_CAP + 1} steps, beyond the cap of {en._RECURSION_CAP}",
    ),
    # End(Z131071) has 131,071 maps, so a walk of 100,000 steps may not repeat
    "finite recursion": (
        lambda: midpoint_recursion(scaling(FiniteGroup((131071,)), 3), 100000),
        f"100000 steps, beyond the cap of {en._RING_CAP}",
    ),
    "box witness": (
        lambda: is_n_convex(_SQUARE, 10 ** 9),
        f"{10 ** 9} parts, beyond the cap of {cx._SUM_CAP}",
    ),
}


@pytest.mark.parametrize("case", sorted(_BEYOND_A_CAP))
def test_work_beyond_a_cap_is_refused_before_any_of_it(monkeypatch, case):
    def no_work(*args):
        raise AssertionError("work beyond the cap was started")

    for owner, name in [(en, "_matmul"), (en, "_lattice_norm"), (IntLattice, "element"),
                        (IntLattice, "add")]:
        monkeypatch.setattr(owner, name, no_work)
    call, refusal = _BEYOND_A_CAP[case]
    with pytest.raises(NotEnumerable, match=f" has {refusal}$"):
        call()


@pytest.mark.parametrize("point", [(0,), (0, 0, 9), (0, 0, 0)], ids=str)
def test_a_box_refuses_a_point_of_another_dimension(point):
    # a finite set answers as a box does, so a malformed point is not a missing one
    for A in (_SQUARE, finite_set(IntLattice(2), [(0, 0)])):
        with pytest.raises(DimensionMismatch, match=f"expected 2 coordinates, got {len(point)}"):
            contains(A, point)


# -- caps on hulls and n-fold sums ----------------------------------------------
def _two_points(group_literal, T):
    return {
        "group": group_literal,
        "metric": {"kind": "cyclic" if group_literal["kind"] == "finite" else "linf", "weights": ["1"]},
        "endos": {"T": [[T]]},
        "sets": {"S": {"kind": "finite", "elements": [["0"], ["1"]]}},
    }


@pytest.mark.parametrize(
    "group_literal",
    [{"kind": "int", "dim": 1}, {"kind": "finite", "moduli": [2 ** 70]}],
    ids=["Z", "Z_2^70"],
)
def test_a_hull_beyond_the_pair_cap_is_an_input_error(tmp_path, capsys, group_literal):
    path = _session_file(tmp_path, _two_points(group_literal, "2"))
    assert main(["hull", path, "S", "T"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"sums, beyond the cap of {_PAIR_CAP}" in err


def test_n_fold_sums_beyond_the_cap_are_an_input_error(tmp_path, capsys):
    """Too many pairs, or a witness of too many parts, is refused before it is built."""
    session = _two_points({"kind": "int", "dim": 1}, "1")
    session["sets"]["L"] = {"kind": "finite", "elements": [[str(i)] for i in range(1449)]}
    path = _session_file(tmp_path, session)
    assert main(["is-n-convex", path, "L", "2"]) == EXIT_INPUT
    assert f"2099601 pairs, beyond the cap of {cx._SUM_CAP}" in capsys.readouterr().err
    assert main(["is-n-convex", path, "S", str(10 ** 9)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{10 ** 9} parts, beyond the cap of {cx._SUM_CAP}" in err
    assert "MemoryError" not in err and "Traceback" not in err


def test_long_n_fold_witnesses_recheck(tmp_path, capsys):
    path = _session_file(tmp_path, _two_points({"kind": "int", "dim": 1}, "1"))
    assert main(["is-n-convex", path, "S", "3000", "--json"]) == EXIT_REFUTED
    parts, total = json.loads(capsys.readouterr().out)["witness"]
    assert len(parts) == 3000 and all(part in (["0"], ["1"]) for part in parts)
    assert total == [str(sum(int(part[0]) for part in parts))]
    assert int(total[0]) % 3000  # outside 3000*{0, 1} = {0, 3000}


def test_n_fold_sums_under_the_cap_still_decide(capsys):
    from pathlib import Path

    session = Path(__file__).resolve().parents[1] / "bench" / "sessions" / "z121.json"
    assert main(["is-n-convex", str(session), "H", "10000"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Proved"


def test_n_convexity_of_a_coset_is_decided_for_any_n(capsys):
    """H = 11*Z121 is a subgroup, so its 11^2 pairs decide it whatever n is."""
    from pathlib import Path

    session = Path(__file__).resolve().parents[1] / "bench" / "sessions" / "z121.json"
    assert main(["is-n-convex", str(session), "H", "1000000"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Proved"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_n_convex_witnesses_rebuild_the_first_decomposition(n):
    """The witness is the first pair reaching the least missing pair total, then n - 2 copies of a0.

    Here a0 = (0, 0), so the totals x + y + (n - 2)*a0 are the sums of [2]A.
    """
    g = IntLattice(2)
    A = finite_set(g, [[0, 0], [1, 0], [0, 1], [3, 1]])
    layer = {x: (x,) for x in A.elements}
    grown = {}
    for point, parts in layer.items():
        for x in A.elements:
            grown.setdefault(g.add(point, x), parts + (x,))
    dilation = n_dilate(A, n).members
    point, parts = min((p, parts) for p, parts in grown.items() if p not in dilation)
    assert is_n_convex(A, n).witness == (parts + (A.elements[0],) * (n - 2), point)
