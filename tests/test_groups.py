import itertools
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupconvex import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    L1Metric,
    LinfMetric,
    distance,
    mu_of_n,
    norm,
    norm_of_n,
    table_metric,
    validate_metric,
)
from groupconvex import groups as groups_module
from groupconvex.endo import all_endomorphisms, injectivity_measure, make_endo, op_norm, scaling
from groupconvex.errors import (
    DimensionMismatch,
    MetricGroupMismatch,
    NotDivisible,
    UnsupportedCombination,
)
from groupconvex.groups import norm_table

dyadics = st.builds(
    lambda num, exp: Fraction(num, 2 ** exp),
    st.integers(-64, 64),
    st.integers(0, 5),
)


# -- group arithmetic --------------------------------------------------------

def test_finite_add_reduces(z9):
    assert z9.add((4,), (7,)) == (2,)


def test_int_neg(zplane):
    assert zplane.neg((3, -1)) == (-3, 1)


def test_dyadic_add_normalizes(dyline):
    total = dyline.add((Fraction(1, 2),), (Fraction(1, 4),))
    assert total == (Fraction(3, 4),)
    assert total[0].numerator == 3 and total[0].denominator == 4


def test_group_axioms_finite(z9):
    for x in z9.elements():
        assert z9.add(x, z9.zero()) == x
        assert z9.add(x, z9.neg(x)) == z9.zero()
        for y in z9.elements():
            assert z9.add(x, y) == z9.add(y, x)


def test_dimension_mismatch(zplane):
    with pytest.raises(DimensionMismatch):
        zplane.add((1, 2), (1, 2, 3))


def test_nat_mul_examples(z9, zline, dyline):
    assert z9.nat_mul(2, (5,)) == (1,)
    assert zline.nat_mul(3, (4,)) == (12,)
    assert dyline.nat_mul(2, (Fraction(1, 2),)) == (1,)


@given(st.integers(1, 12))
def test_nat_mul_agrees_with_iterated_addition(n):
    g = FiniteGroup((9,))
    for x in g.elements():
        total = reduce(g.add, [x] * n)
        assert g.nat_mul(n, x) == total


@given(st.lists(dyadics, min_size=2, max_size=2), st.integers(1, 10))
def test_nat_mul_iterated_dyadic(coords, n):
    g = DyadicLattice(2)
    x = g.element(coords)
    assert g.nat_mul(n, x) == reduce(g.add, [x] * n)


# -- divisibility ------------------------------------------------------------

def test_divisibility_z9_by_2_is_bijective(z9):
    # oracle: exhaustive bijection check of x -> 2x
    images = {z9.nat_mul(2, x) for x in z9.elements()}
    assert len(images) == z9.order
    assert z9.divisible_by(2)
    assert z9.div_apply(2, (1,)) == (5,)


def test_divisibility_exhaustive_oracle(z12):
    for n in range(1, 13):
        images = {z12.nat_mul(n, x) for x in z12.elements()}
        assert z12.divisible_by(n) == (len(images) == z12.order)


def test_div_apply_mixed_moduli():
    g = FiniteGroup((5, 7))
    assert g.divisible_by(2)
    assert not g.divisible_by(5)
    x = g.element([3, 4])
    assert g.div_apply(2, g.nat_mul(2, x)) == x
    # half of (1, 1): 3*2 = 6 = 1 mod 5 and 4*2 = 8 = 1 mod 7
    assert g.div_apply(2, (1, 1)) == (3, 4)


def test_int_not_divisible(zline):
    assert not zline.divisible_by(2)
    with pytest.raises(NotDivisible):
        zline.div_apply(2, (1,))


def test_dyadic_divisible_by_powers_of_two(dyline):
    assert dyline.divisible_by(2)
    assert dyline.divisible_by(8)
    assert not dyline.divisible_by(3)
    assert not dyline.divisible_by(6)


@given(st.integers(1, 20))
def test_div_apply_inverts_nat_mul(n):
    groups = [FiniteGroup((9,)), DyadicLattice(1), IntLattice(1)]
    for g in groups:
        if not g.divisible_by(n):
            continue
        for x in ([(4,)] if not isinstance(g, FiniteGroup) else list(g.elements())):
            x = g.element(x)
            assert g.div_apply(n, g.nat_mul(n, x)) == x
            assert g.nat_mul(n, g.div_apply(n, x)) == x


# -- norms -------------------------------------------------------------------

def test_norm_examples(z9, cyclic1, dyplane):
    assert norm(z9, cyclic1, (7,)) == 2
    assert norm(z9, cyclic1, (4,)) == 4
    m = LinfMetric((Fraction(1), Fraction(1)))
    assert norm(dyplane, m, (Fraction(3, 2), Fraction(-1, 4))) == Fraction(3, 2)


def test_norm_zero_is_zero(z9, cyclic1):
    assert norm(z9, cyclic1, z9.zero()) == 0


def test_metric_group_mismatch(zline, cyclic1):
    with pytest.raises(MetricGroupMismatch):
        norm(zline, cyclic1, (1,))


def test_validate_metric_z9(z9, cyclic1):
    assert validate_metric(z9, cyclic1).proved


def test_validate_metric_table_refutation():
    z4 = FiniteGroup((4,))
    bad = table_metric({(0,): 0, (1,): 1, (2,): 5, (3,): 1})
    verdict = validate_metric(z4, bad)
    assert verdict.refuted
    axiom, x, y = verdict.witness
    assert axiom == "subadditivity"
    # the witness re-checks as a violation
    assert norm(z4, bad, z4.add(x, y)) > norm(z4, bad, x) + norm(z4, bad, y)


def test_validate_metric_positive_definiteness_refutation():
    z4 = FiniteGroup((4,))
    bad = table_metric({(0,): 0, (1,): 0, (2,): 1, (3,): 1})
    verdict = validate_metric(z4, bad)
    assert verdict.refuted
    assert verdict.witness[0] == "positive definiteness"
    assert verdict.witness[1] == (1,)


def test_validate_metric_lattice(zplane, linf2):
    assert validate_metric(zplane, linf2).proved
    assert validate_metric(zplane, L1Metric((Fraction(1), Fraction(2)))).proved


def test_validate_metric_table_on_lattice_rejected(zline):
    with pytest.raises(UnsupportedCombination):
        validate_metric(zline, table_metric({(0,): 0}))


def test_linf_on_finite_group_fails_evenness(z9):
    # |.| of residues is not even on Z9, and the exhaustive check finds it
    verdict = validate_metric(z9, LinfMetric((Fraction(1),)))
    assert verdict.refuted
    assert verdict.witness[0] == "evenness"


# -- cyclic norms are norms by construction ------------------------------------

def _cycle_distance(m):
    """Path distance from each residue to 0 on the m-cycle, by breadth-first search."""
    dist = {0: 0}
    frontier = [0]
    while frontier:
        step = []
        for a in frontier:
            for b in ((a + 1) % m, (a - 1) % m):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    step.append(b)
        frontier = step
    return dist


_CYCLIC_WEIGHTS = (Fraction(1), Fraction(1, 2), Fraction(3))
_CYCLIC_GROUPS = (
    [(m,) for m in range(2, 9)]
    + [(m1, m2) for m1 in range(2, 9) for m2 in range(2, 9)]
    + [(2, 3, 4)]
)


@pytest.mark.parametrize("moduli", _CYCLIC_GROUPS, ids=lambda ms: "x".join(f"Z{m}" for m in ms))
def test_cyclic_norm_axioms_against_oracle(moduli):
    # oracle: plain residues, breadth-first cycle distances and Fractions
    elements = list(itertools.product(*[range(m) for m in moduli]))
    zero = (0,) * len(moduli)
    dists = [_cycle_distance(m) for m in moduli]
    for weights in itertools.product(_CYCLIC_WEIGHTS, repeat=len(moduli)):
        value = {
            x: sum((w * d[a] for w, d, a in zip(weights, dists, x)), Fraction(0))
            for x in elements
        }
        for x in elements:
            assert (value[x] == 0) == (x == zero)
            assert value[tuple((-a) % m for a, m in zip(x, moduli))] == value[x]
            for y in elements:
                s = tuple((a + b) % m for a, b, m in zip(x, y, moduli))
                assert value[s] <= value[x] + value[y]
        assert validate_metric(FiniteGroup(moduli), CyclicMetric(weights)).proved


def test_cyclic_norm_validation_evaluates_no_norm(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cyclic norm is a norm by construction")

    monkeypatch.setattr(groups_module, "norm", refuse)
    # a group no other test validates, so the answer is not cached already
    assert validate_metric(FiniteGroup((10**6,)), CyclicMetric((Fraction(1),))).proved


def test_cyclic_weight_count_mismatch_raises():
    with pytest.raises(MetricGroupMismatch):
        validate_metric(FiniteGroup((3, 4)), CyclicMetric((Fraction(1),)))


def test_cyclic_metric_on_lattice_unsupported(zplane):
    with pytest.raises(UnsupportedCombination):
        validate_metric(zplane, CyclicMetric((Fraction(1), Fraction(1))))


# -- table norms -----------------------------------------------------------------

def test_table_missing_an_element_raises():
    z4 = FiniteGroup((4,))
    with pytest.raises(MetricGroupMismatch):
        validate_metric(z4, table_metric({(0,): 0, (1,): 1, (2,): 2}))


def test_table_metric_ignores_insertion_order():
    z5 = FiniteGroup((5,))
    values = {(0,): 0, (1,): 1, (2,): 2, (3,): 2, (4,): 1}
    a = table_metric(values)
    b = table_metric(dict(reversed(list(values.items()))))
    assert a == b
    assert hash(a) == hash(b)
    first = validate_metric(z5, a)
    before = validate_metric.cache_info()
    assert validate_metric(z5, b) is first
    after = validate_metric.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert first.proved


def test_metric_hash_is_the_dataclass_hash_of_its_canonical_fields():
    forms = [["2", "1/3"], [2, Fraction(1, 3)], [Fraction(2), Fraction(2, 6)]]
    weights = (Fraction(2), Fraction(1, 3))
    for kind in (CyclicMetric, L1Metric, LinfMetric):
        built = [kind(w) for w in forms]
        assert all(m == built[0] for m in built)
        assert {hash(m) for m in built} == {hash((weights,))}
    integral = [CyclicMetric(w) for w in (["1", "3"], [1, 3], [Fraction(1), Fraction(3)])]
    assert len(set(integral)) == 1 and hash(integral[0]) == hash(((Fraction(1), Fraction(3)),))
    # equal weights under another norm family make another metric
    assert CyclicMetric(weights) != LinfMetric(weights)
    assert L1Metric(weights) != LinfMetric(weights)
    assert len({CyclicMetric(weights), LinfMetric(weights), L1Metric(weights)}) == 3
    table = table_metric({(1,): "1/2", (0,): 0, (2,): Fraction(1, 2)})
    assert hash(table) == hash((table.entries,))
    assert table == table_metric({(0,): "0", (1,): Fraction(1, 2), (2,): "2/4"})


def test_group_and_map_hash_is_the_dataclass_hash_of_their_fields():
    # frozenset order of maps, and so THM_P1/COR_1 witnesses, follows these values
    for moduli in ([4, 6], (4, 6), ("4", "6")):
        assert hash(FiniteGroup(moduli)) == hash(((4, 6),))
    assert hash(FiniteGroup((9,))) == hash(((9,),))
    assert hash(IntLattice(2)) == hash(DyadicLattice(2)) == hash((2,))
    maps = list(all_endomorphisms(FiniteGroup((2, 4)))) + list(all_endomorphisms(FiniteGroup((3, 3))))
    maps += [make_endo(g, [[1, -2], [3, 0]]) for g in (IntLattice(2), DyadicLattice(2))]
    maps.append(make_endo(DyadicLattice(2), [[Fraction(1, 2), 0], [0, Fraction(-3, 4)]]))
    for T in maps:
        assert hash(T) == hash((T.group, T.matrix))
        rebuilt = make_endo(T.group, [list(row) for row in T.matrix])
        assert rebuilt == T and hash(rebuilt) == hash(T)


def test_validation_and_operator_norms_share_one_norm_table():
    g = FiniteGroup((5, 3))
    cyclic = CyclicMetric((Fraction(1), Fraction(1, 2)))
    t = table_metric({x: norm(g, cyclic, x) for x in g.elements()})
    assert validate_metric(g, t).proved
    before = norm_table.cache_info()
    T = scaling(g, 2)
    assert op_norm(T, t) == op_norm(T, cyclic)
    assert injectivity_measure(T, t) == injectivity_measure(T, cyclic)
    after = norm_table.cache_info()
    # the table of t was built by the validation; only the cyclic one is new
    assert after.misses == before.misses + 1


@settings(max_examples=30)
@given(st.lists(dyadics, min_size=2, max_size=2), st.lists(dyadics, min_size=2, max_size=2))
def test_norm_axioms_dyadic(xs, ys):
    g = DyadicLattice(2)
    m = LinfMetric((Fraction(1), Fraction(1, 2)))
    x, y = g.element(xs), g.element(ys)
    assert norm(g, m, g.add(x, y)) <= norm(g, m, x) + norm(g, m, y)
    assert norm(g, m, g.neg(x)) == norm(g, m, x)
    assert (norm(g, m, x) == 0) == (x == g.zero())


def test_norm_axioms_exhaustive_z12(z12):
    m = CyclicMetric((Fraction(1, 2),))
    assert validate_metric(z12, m).proved


def test_subadditive_nat_mul_bound(z9, cyclic1):
    for x in z9.elements():
        for n in range(1, 10):
            assert norm(z9, cyclic1, z9.nat_mul(n, x)) <= n * norm(z9, cyclic1, x)


def test_distance_is_translation_invariant(z9, cyclic1):
    for x in z9.elements():
        for y in z9.elements():
            for t in z9.elements():
                assert distance(z9, cyclic1, x, y) == distance(
                    z9, cyclic1, z9.add(x, t), z9.add(y, t)
                )


# -- scalar operator values --------------------------------------------------

def test_norm_and_mu_of_n_z9_oracle(z9, cyclic1):
    # oracle: direct exhaustive ratio scan, independent of the endo module
    def ratios(n):
        out = []
        for x in z9.elements():
            if x == z9.zero():
                continue
            out.append(Fraction(norm(z9, cyclic1, z9.nat_mul(n, x)), norm(z9, cyclic1, x)))
        return out

    assert max(ratios(2)) == 2
    assert min(ratios(2)) == Fraction(1, 4)
    assert norm_of_n(z9, cyclic1, 2) == 2
    assert mu_of_n(z9, cyclic1, 2) == Fraction(1, 4)
    # the minimizer x=4 gives ||8||/||4|| = 1/4
    assert Fraction(norm(z9, cyclic1, (8,)), norm(z9, cyclic1, (4,))) == Fraction(1, 4)
    for n in range(1, 13):
        assert norm_of_n(z9, cyclic1, n) == max(ratios(n))
        assert mu_of_n(z9, cyclic1, n) == min(ratios(n))


def test_norm_of_n_homogeneous_on_lattices(zline, linf1, dyline):
    for n in range(1, 8):
        assert norm_of_n(zline, linf1, n) == n
        assert mu_of_n(zline, linf1, n) == n
        assert norm_of_n(dyline, linf1, n) == n
        assert mu_of_n(dyline, linf1, n) == n


def test_mu_at_most_norm_and_at_most_one_when_bijective(z12):
    m = CyclicMetric((Fraction(1),))
    for n in range(1, 20):
        assert mu_of_n(z12, m, n) <= norm_of_n(z12, m, n)
        if z12.divisible_by(n):
            assert mu_of_n(z12, m, n) <= 1


def test_pointwise_measure_bound(z9, cyclic1):
    # mu(n) * ||x|| <= ||n*x|| for every element and scalar
    for n in range(1, 13):
        mu_n = mu_of_n(z9, cyclic1, n)
        for x in z9.elements():
            assert mu_n * norm(z9, cyclic1, x) <= norm(z9, cyclic1, z9.nat_mul(n, x))


def test_mu_never_exceeds_one_on_finite_groups(z9, z12, cyclic1):
    # any element of maximal norm certifies mu_d(n) <= 1
    for g, m in ((z9, cyclic1), (z12, CyclicMetric((Fraction(1),)))):
        for n in range(1, 25):
            assert mu_of_n(g, m, n) <= 1
