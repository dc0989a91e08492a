"""Oracles for the whole-group passes of a finite group.

``try_inverse``, ``preimage_set`` and ``validate_metric`` are checked
against element walks that apply each map to each element and read norms as
Fractions, independently of the lex-index arrays and integer tables the
library uses.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from groupconvex import (
    CyclicMetric,
    FiniteGroup,
    L1Metric,
    LinfMetric,
    all_endomorphisms,
    family_of,
    finite_set,
    identity,
    norm,
    preimage_set,
    table_metric,
    try_inverse,
    validate_metric,
)
from groupconvex.verdicts import proved, refuted

RINGS = [(2, 4), (3, 6), (4, 4)]


def _maps(moduli, rng):
    """Every map of End(G) for the three small rings, 200 seeded maps of End(Z12xZ20)."""
    group = FiniteGroup(moduli)
    ring = all_endomorphisms(group)
    return group, ring if moduli in RINGS else rng.sample(ring, 200)


def _walk_inverse_holds(T, inverse):
    """The element-walk oracle: T is a bijection iff an inverse comes back,
    and the inverse undoes T on every element, on both sides."""
    g = T.group
    elements = list(g.elements())
    bijective = len({T.apply(x) for x in elements}) == g.order
    if not bijective:
        return inverse is None
    return (
        inverse is not None
        and all(inverse.apply(T.apply(x)) == x for x in elements)
        and all(T.apply(inverse.apply(x)) == x for x in elements)
        and T.compose(inverse) == identity(g) == inverse.compose(T)
    )


@pytest.mark.parametrize("moduli", RINGS + [(12, 20)])
def test_try_inverse_agrees_with_the_element_walk(moduli):
    group, maps = _maps(moduli, random.Random(13))
    units = 0
    for T in maps:
        inverse = try_inverse(T)
        assert _walk_inverse_holds(T, inverse), T
        units += inverse is not None
    assert 0 < units < len(maps)


@pytest.mark.parametrize("moduli", RINGS + [(12, 20)])
def test_preimage_set_agrees_with_the_element_walk(moduli):
    rng = random.Random(29)
    group, maps = _maps(moduli, rng)
    elements = list(group.elements())
    for T in maps[:60]:
        D = finite_set(group, rng.sample(elements, rng.randint(0, 6)))
        expected = [x for x in elements if T.apply(x) in D.members]
        assert preimage_set(D, T) == finite_set(group, expected), (T, D)


def _reference_validate(group, metric):
    """The exhaustive axiom check on a dict of Fraction norms, element by element."""
    table = {x: norm(group, metric, x) for x in group.elements()}
    zero = group.zero()
    for x, v in table.items():
        if (v == 0) != (x == zero):
            return refuted(("positive definiteness", x))
        if v < 0:
            return refuted(("positive definiteness", x))
        if table[group.neg(x)] != v:
            return refuted(("evenness", x))
    for x, nx in table.items():
        for y, ny in table.items():
            if table[group.add(x, y)] > nx + ny:
                return refuted(("subadditivity", x, y))
    return proved()


VALIDATED_GROUPS = [(2,), (3,), (5,), (6,), (8,), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]


def _metrics(group, rng):
    """Weighted L1/Linf metrics, cyclic tables and perturbed cyclic tables.

    A perturbation sets a norm to 0, to a negative value or to a multiple of
    itself, sometimes at -x too, so that evenness can survive it.
    """
    weights = lambda: tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in group.moduli)
    for _ in range(3):
        yield L1Metric(weights())
        yield LinfMetric(weights())
    for k in range(12):
        cyclic = CyclicMetric(weights())
        values = {x: norm(group, cyclic, x) for x in group.elements()}
        for x in rng.sample(sorted(values), min(k % 3, len(values))):
            values[x] = rng.choice([Fraction(0), Fraction(-1, 3), values[x] * Fraction(rng.randint(1, 12), 4)])
            if rng.random() < 0.75:
                values[group.neg(x)] = values[x]
        yield table_metric(values)


def test_validate_metric_agrees_with_the_fraction_walk():
    outcomes = Counter()
    for moduli in VALIDATED_GROUPS:
        group = FiniteGroup(moduli)
        rng = random.Random(sum(moduli) * 31 + len(moduli))
        for metric in _metrics(group, rng):
            verdict = validate_metric(group, metric)
            assert repr(verdict) == repr(_reference_validate(group, metric)), (group, metric)
            outcomes[verdict.witness[0] if verdict.witness else "proved"] += 1
    assert set(outcomes) == {"proved", "positive definiteness", "evenness", "subadditivity"}, outcomes


def test_family_of_cache_stays_bounded():
    group = FiniteGroup((9,))
    elements = list(group.elements())
    rng = random.Random(5)
    bound = family_of.cache_info().maxsize
    assert bound is not None and bound <= 256
    seen = set()
    while len(seen) <= bound + 20:
        D = finite_set(group, rng.sample(elements, rng.randint(1, 9)))
        seen.add(D)
        family_of(D)
        assert family_of.cache_info().currsize <= bound
    assert len(family_of(D)) == len(family_of.__wrapped__(D))
