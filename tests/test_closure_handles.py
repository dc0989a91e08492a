"""The closure checkers on the integer view of End(G), against their
``Endomorphism`` loops.

THM_P1, COR_1, THM_2's family check and THM_0's commuting filter compose,
add and subtract maps as handles of ``endo._ring``.  The oracles below are
the same checkers as they ran on ``Endomorphism.compose``/``add``/``sub``/
``halve``, one new matrix per step, before the view (THM_0's without its
lattice branches, since only finite groups are compared).  Verdicts and
witnesses must agree on every subset of the small groups, on seeded subsets
of Z3 x Z3, on {0}, whose family is the whole ring, and under patches that
make each witness label occur.  Witnesses follow the frozenset order of
maps, so this module also runs under two fixed hash seeds in CI.

The module also checks that the search draws a map of a finite group by
decoding its index in ``all_endomorphisms`` order, without listing the
ring, and that ``_candidate_sets``, which builds each subset from the sorted
canonical points as they come, gives the subsets ``finite_set`` gives.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import groupconvex.convexity as cx
import groupconvex.endo as en
import groupconvex.properties as props
import groupconvex.theorems as th
from groupconvex import CyclicMetric, FiniteGroup, IntLattice, all_endomorphisms, finite_set
from groupconvex.convexity import FiniteSet
from groupconvex.errors import HypothesisFailed, NotEnumerable
from groupconvex.groups import _PAIR_CAP, _check_cap
from groupconvex.theorems import GeneratorConfig, Instance, PropertyId, verify
from groupconvex.verdicts import Status, proved, refuted


# -- the oracles: each checker's loops on Endomorphism arithmetic -------------
def old_thm_p1(inst):
    ident = en.identity(inst.group)
    for D in props._candidate_sets(inst):
        family = frozenset(cx.family_of(D))
        for T in family:
            heads = [T.compose(T1) for T1 in family]
            rest = ident.sub(T)
            tails = [rest.compose(T2) for T2 in family]
            for T1, head in zip(family, heads):
                for T2, tail in zip(family, tails):
                    if head.add(tail) not in family:
                        return refuted((D, T, T1, T2))
    return proved()


def old_cor_1(inst):
    ident = en.identity(inst.group)
    for D in props._candidate_sets(inst):
        family = frozenset(cx.family_of(D))
        reflections = {T: ident.sub(T) for T in family}
        for T in family:
            if reflections[T] not in family:
                return refuted(("reflection", D, T))
            for S in family:
                product = T.compose(S)
                if product not in family:
                    return refuted(("composition", D, T, S))
                mixed = product.add(reflections[T].compose(reflections[S]))
                if mixed not in family:
                    return refuted(("pair mixing", D, T, S))
    return proved()


def old_thm_2(inst):
    g, m, params = inst.group, inst.metric, inst.params
    T = props._named_endo(inst, "T")
    if not g.divisible_by(2):
        raise HypothesisFailed("the group is uniquely 2-divisible")
    ident = en.identity(g)
    bracket = en.spectral_radius(T.scale(2).sub(ident), m, params.horizon)
    if not bracket.certified_below_one:
        raise HypothesisFailed(
            "spectral radius of 2T - I is certified below one",
            f"bracket [{bracket.lower}, {bracket.upper}]",
        )
    half_identity = en.halve(ident)
    iterates = list(en.midpoint_iterates(T, params.horizon))
    closed_forms = en.midpoint_closed_forms(T, params.horizon)
    for n, (iterate, closed) in enumerate(zip(iterates, closed_forms), start=1):
        if iterate != closed:
            return refuted(("closed form mismatch", n))
    distances = [en.operator_distance(it, half_identity, m) for it in iterates]
    for earlier, later in zip(distances, distances[1:]):
        if later > earlier:
            return refuted(("distance to I/2 is nonincreasing", distances))
    if g.complete and iterates[-1] != half_identity:
        return refuted(("exact collapse to I/2", iterates[-1]))
    for name, D in inst.sets.items():
        if not cx.is_T_convex(D, T).proved:
            raise HypothesisFailed(f"set {name!r} is T-convex")
        if not g.complete:
            continue
        for n, iterate in enumerate(iterates, start=1):
            if not cx.is_T_convex(D, iterate).proved:
                return refuted(("iterate keeps D convex", name, n))
        if not cx.is_T_convex(D, half_identity).proved:
            return refuted(("closed convex sets are midpoint convex", name))
        if isinstance(g, FiniteGroup):
            family = frozenset(cx.family_of(D))
            for R in family:
                for S in family:
                    if en.halve(R.add(S)) not in family:
                        return refuted(("family midpoint convexity", name, R, S))
    return proved()


def old_thm_0(inst):
    family = [T for name, T in inst.endos.items() if name != "A"]
    if not family:
        raise HypothesisFailed("a nonempty family of endomorphisms is provided")
    g = inst.group
    convex_sets = []
    for name, D in itertools.zip_longest(inst.sets, props._candidate_sets(inst)):
        if cx.is_family_convex(D, family).proved:
            convex_sets.append(D)
        elif inst.sets:
            raise HypothesisFailed(f"set {name!r} is family-convex")
    if not cx.is_family_convex(cx.finite_set(g, ()), family).proved:
        return refuted(("empty set",))
    _check_cap(f"the whole space of {g}", g.order ** 2, "pairs", _PAIR_CAP)
    if not cx.is_family_convex(cx.finite_set(g, g.elements()), family).proved:
        return refuted(("whole space",))
    for x in g.elements():
        if not cx.is_family_convex(cx.finite_set(g, [x]), family).proved:
            return refuted(("singleton", x))
    for D1, D2 in itertools.combinations(convex_sets, 2):
        if not cx.is_family_convex(cx.intersect(D1, D2), family).proved:
            return refuted(("intersection", D1, D2))
    for D1, D2 in itertools.combinations_with_replacement(convex_sets, 2):
        if not cx.is_family_convex(cx.sumset(D1, D2), family).proved:
            return refuted(("sumset", D1, D2))
    if "A" in inst.endos:
        commuting = [inst.endos["A"]]
        for T in family:
            if commuting[0].compose(T) != T.compose(commuting[0]):
                raise HypothesisFailed("A commutes with every family member")
    else:
        ring = en.all_endomorphisms(g) if g.order <= 16 else [
            en.scaling(g, n) for n in range(max(g.moduli))
        ]
        commuting = [A for A in ring if all(A.compose(T) == T.compose(A) for T in family)]
    for A in commuting:
        for D in convex_sets:
            if not cx.is_family_convex(cx.image_set(D, A), family).proved:
                return refuted(("image", A, D))
            if not cx.is_family_convex(cx.preimage_set(D, A), family).proved:
                return refuted(("preimage", A, D))
    return proved()


ORACLES = {
    PropertyId.THM_P1: old_thm_p1,
    PropertyId.COR_1: old_cor_1,
    PropertyId.THM_2: old_thm_2,
    PropertyId.THM_0: old_thm_0,
}


def _outcome(run, inst):
    """A verdict's status and witness, or the hypothesis it failed."""
    try:
        verdict = run(inst)
    except HypothesisFailed as err:
        return "raised", err.args
    return verdict.status, verdict.witness


def _agree(prop, inst):
    """The checker's outcome, asserted equal to its oracle's."""
    got = _outcome(lambda i: verify(prop, i), inst)
    assert got == _outcome(ORACLES[prop], inst), (prop, inst)
    return got


def _metric(group):
    return CyclicMetric(tuple(Fraction(1) for _ in group.moduli))


def _subsets(group):
    elems = list(group.elements())
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield finite_set(group, combo)


def _seeded_subsets(group, count, seed):
    """``count`` subsets drawn uniformly: each point is in with chance 1/2."""
    rng = random.Random(seed)
    elems = list(group.elements())
    return [finite_set(group, [x for x in elems if rng.random() < 0.5]) for _ in range(count)]


def _midpoint_maps(group):
    """The maps T with 2T - I nilpotent, which THM_2 accepts, on an odd group."""
    if group.order % 2 == 0:
        return [en.scaling(group, 1)]  # refused: the group is not 2-divisible
    ident, metric = en.identity(group), _metric(group)
    return [T for T in all_endomorphisms(group)
            if en.spectral_radius(T.scale(2).sub(ident), metric).certified_below_one]


def _families(group):
    """One-map families for THM_0: a scalar, and a map that is not one."""
    ring = all_endomorphisms(group)
    scalars = {en.scaling(group, n) for n in range(max(group.moduli))}
    return [en.scaling(group, 3)] + [T for T in ring if T not in scalars][-1:]


def _instances(prop, group, sets):
    metric = _metric(group)
    for D in sets:
        if prop in (PropertyId.THM_P1, PropertyId.COR_1):
            yield Instance(group, metric, sets={"D": D})
        elif prop is PropertyId.THM_2:
            for T in _midpoint_maps(group)[:3]:
                yield Instance(group, metric, endos={"T": T}, sets={"D": D})
        else:
            for T in _families(group):
                yield Instance(group, metric, endos={"T1": T}, sets={"D1": D})
                yield Instance(group, metric, endos={"T1": T, "A": en.scaling(group, 2)}, sets={"D1": D})


_SMALL = [(4,), (2, 2), (9,), (2, 4)]


@pytest.mark.parametrize("moduli", _SMALL, ids=str)
@pytest.mark.parametrize("prop", list(ORACLES), ids=str)
def test_checkers_match_their_loops_on_every_subset(prop, moduli):
    group = FiniteGroup(moduli)
    statuses = {_agree(prop, inst)[0] for inst in _instances(prop, group, _subsets(group))}
    # THM_2 refuses a group that is not uniquely 2-divisible
    assert Status.PROVED in statuses or (prop is PropertyId.THM_2 and group.order % 2 == 0)


@pytest.mark.parametrize("prop", list(ORACLES), ids=str)
def test_checkers_match_their_loops_on_seeded_subsets_of_z3x3(prop):
    group = FiniteGroup((3, 3))
    insts = list(_instances(prop, group, _seeded_subsets(group, 30, 33)))
    statuses = {_agree(prop, inst)[0] for inst in insts}
    assert Status.PROVED in statuses


def test_bare_groups_match_their_loops():
    # every subset at once, as verify of a bare group walks them
    for moduli in _SMALL[:3]:
        group = FiniteGroup(moduli)
        for prop in (PropertyId.THM_P1, PropertyId.COR_1):
            assert _agree(prop, Instance(group, _metric(group))) == (Status.PROVED, None)


# F({0}) is all of End(G), so these walk every map of the ring for each T
@pytest.mark.parametrize("moduli", [(2, 4), (3, 3)], ids=str)
def test_thm_p1_matches_its_loop_over_a_whole_ring(moduli):
    group = FiniteGroup(moduli)
    D = finite_set(group, [group.zero()])
    assert len(cx.family_of(D)) == en.ring_size(group) == {(2, 4): 32, (3, 3): 81}[moduli]
    inst = Instance(group, _metric(group), sets={"D": D})
    assert _agree(PropertyId.THM_P1, inst) == (Status.PROVED, None)


def test_thm_2_matches_its_loop_over_a_whole_ring():
    group = FiniteGroup((3, 3))
    D = finite_set(group, [group.zero()])
    assert len(cx.family_of(D)) == 81
    for T in _midpoint_maps(group)[:3]:
        inst = Instance(group, _metric(group), endos={"T": T}, sets={"D": D})
        assert _agree(PropertyId.THM_2, inst) == (Status.PROVED, None)


# -- forced refutations: one map dropped from F(D) on both paths --------------
def _drop_one_map(monkeypatch, dropped):
    real = cx.family_of
    monkeypatch.setattr(cx, "family_of", lambda D: tuple(R for R in real(D) if R != dropped))


def _labels_under_dropped_maps(monkeypatch, prop, insts):
    labels = set()
    for inst in insts:
        D = next(iter(inst.sets.values()))
        for dropped in cx.family_of(D):
            with monkeypatch.context() as patched:
                _drop_one_map(patched, dropped)
                status, witness = _agree(prop, inst)
            if status == Status.REFUTED:
                labels.add(witness[0] if isinstance(witness[0], str) else "combination")
    return labels


def _closure_sets(group):
    """Sets whose families are large and small: the empty set, every third
    point (a subgroup of Z9 and of Z3 x Z3), two points and the whole group."""
    elems = list(group.elements())
    return [finite_set(group, ()), finite_set(group, elems[::3]), finite_set(group, elems[:2]),
            finite_set(group, elems)]


@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)], ids=str)
def test_a_dropped_map_gives_the_same_thm_p1_witness(monkeypatch, moduli):
    group = FiniteGroup(moduli)
    insts = [Instance(group, _metric(group), sets={"D": D}) for D in _closure_sets(group)]
    assert _labels_under_dropped_maps(monkeypatch, PropertyId.THM_P1, insts) == {"combination"}


def test_a_dropped_map_gives_every_cor_1_label(monkeypatch):
    labels = set()
    for moduli in [(9,), (2, 4), (3, 3)]:
        group = FiniteGroup(moduli)
        insts = [Instance(group, _metric(group), sets={"D": D}) for D in _closure_sets(group)]
        labels |= _labels_under_dropped_maps(monkeypatch, PropertyId.COR_1, insts)
    assert labels == {"reflection", "composition", "pair mixing"}


@pytest.mark.parametrize("moduli", [(9,), (3, 3)], ids=str)
def test_a_dropped_map_gives_the_same_midpoint_witness(monkeypatch, moduli):
    group = FiniteGroup(moduli)
    metric = _metric(group)
    insts = [
        Instance(group, metric, endos={"T": T}, sets={"D": D})
        for T in _midpoint_maps(group)[:3]
        for D in _closure_sets(group)
        if cx.is_T_convex(D, T).proved
    ]
    assert _labels_under_dropped_maps(monkeypatch, PropertyId.THM_2, insts) == {
        "family midpoint convexity"
    }


# THM_0's family is its named maps, so its image and preimage witnesses are
# forced by dropping one point of each image or preimage instead; the first
# commuting map met names the witness, so both filters must list the same maps
# in the same order
@pytest.mark.parametrize("target", ["image_set", "preimage_set"])
@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)], ids=str)
def test_a_dropped_point_gives_the_same_thm_0_witness(monkeypatch, moduli, target):
    group = FiniteGroup(moduli)
    real = getattr(cx, target)

    def thinned(D, A):
        out = real(D, A)
        return FiniteSet(group, out.elements[1:]) if len(out) > 1 else out

    monkeypatch.setattr(cx, target, thinned)
    insts = [
        Instance(group, _metric(group), endos={"T1": T}, sets={"D1": D})
        for T in _families(group)
        for D in _closure_sets(group)
        if cx.is_family_convex(D, [T]).proved
    ]
    labels = {witness[0] for status, witness in (_agree(PropertyId.THM_0, i) for i in insts)
              if status == Status.REFUTED}
    assert labels == {target.split("_")[0]}


def test_a_non_commuting_a_is_a_failed_hypothesis():
    group = FiniteGroup((2, 4))
    T = _families(group)[-1]
    A = next(S for S in all_endomorphisms(group) if S.compose(T) != T.compose(S))
    inst = Instance(group, _metric(group), endos={"T1": T, "A": A},
                    sets={"D1": finite_set(group, group.elements())})
    assert _agree(PropertyId.THM_0, inst) == ("raised", ("A commutes with every family member",))


# -- the search's draw of one map decodes its index ---------------------------
@pytest.mark.parametrize("moduli", [(2, 4), (3, 3), (4, 6)], ids=str)
def test_decoded_maps_are_the_listed_ring(moduli):
    group = FiniteGroup(moduli)
    ring = all_endomorphisms(group)
    assert en.ring_size(group) == len(ring)
    assert [en.endomorphism_at(group, i) for i in range(len(ring))] == list(ring)
    for index in (-1, len(ring)):
        with pytest.raises(IndexError):
            en.endomorphism_at(group, index)


def test_decoding_is_refused_as_listing_is():
    # Z_(2^70) has cells too long for len(), so the size comes from the gcds
    for group in (FiniteGroup((2,) * 5), FiniteGroup((2 ** 70,)), IntLattice(2)):
        with pytest.raises(NotEnumerable) as listed:
            all_endomorphisms(group)
        for decode in (en.ring_size, lambda g: en.endomorphism_at(g, 0)):
            with pytest.raises(NotEnumerable) as decoded:
                decode(group)
            assert str(decoded.value) == str(listed.value)


def test_a_drawn_search_lists_no_ring():
    all_endomorphisms.cache_clear()
    verdict = th.counterexample_search(PropertyId.LEMMA_MU, GeneratorConfig(), budget=50, seed=3)
    assert verdict.unfalsified and verdict.samples == 50
    assert all_endomorphisms.cache_info().currsize == 0


# -- subsets are built from the sorted canonical points -----------------------
@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)], ids=str)
def test_candidate_sets_are_the_canonical_subsets(moduli):
    group = FiniteGroup(moduli)
    listed = props._candidate_sets(Instance(group, _metric(group)))
    assert len(listed) == 2 ** group.order
    for D, expected in zip(listed, _subsets(group)):
        assert D == expected
        assert D.elements == expected.elements and D.members == expected.members
