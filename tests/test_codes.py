"""The one pair loop of each convexity test against plain tuple loops.

``is_T_convex``, ``t_convex_pointwise`` and ``convex_hull`` each run one
pair loop on a coding that ``convexity._on_codes`` picks per call: padded
integer codes over a finite group once a set has at least 2^k points (see
``FiniteGroup``), the tuples themselves otherwise, lattice finite sets
included.  The reference functions below are direct tuple loops over every
pair, kept here as the oracle: every status, witness and hull must agree
with them on both codings, both as the functions route themselves and with
every finite-group set sent to the codes.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupconvex import convexity
from groupconvex import (
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    all_endomorphisms,
    convex_hull,
    family_of,
    finite_set,
    identity,
    is_T_convex,
    make_endo,
    t_convex_pointwise,
    zero,
)
from groupconvex.errors import InvariantViolated
from groupconvex.verdicts import proved, refuted


def ref_is_T_convex(D, T):
    g = D.group
    for x in D.elements:
        for y in D.elements:
            point = g.add(T.apply(x), g.sub(y, T.apply(y)))
            if point not in D.elements:
                return refuted((x, y, point))
    return proved()


def ref_pointwise(D, T):
    g = D.group
    for p in D.elements:
        translate = frozenset(g.sub(d, p) for d in D.elements)
        for v in translate:
            if T.apply(v) not in translate:
                return refuted((p, g.add(v, p)))
    return proved()


def ref_hull(S, Ts, max_iter=1000):
    g = S.group
    current = set(S.elements)
    complete = False
    for _ in range(max_iter):
        snapshot = sorted(current)
        grown = False
        for T in Ts:
            for x in snapshot:
                for y in snapshot:
                    point = g.add(T.apply(x), g.sub(y, T.apply(y)))
                    if point not in current:
                        current.add(point)
                        grown = True
        if not grown:
            complete = True
            break
    return finite_set(g, current), complete


def _subsets(group):
    elems = list(group.elements())
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield finite_set(group, combo)


def _same(verdict, reference):
    return (verdict.status, verdict.witness) == (reference.status, reference.witness)


def _routings(monkeypatch):
    """Yield as the functions route themselves, then with every finite-group
    set sent to the codes."""
    yield
    with monkeypatch.context() as patched:
        patched.setattr(
            convexity, "_on_codes", lambda group, size: isinstance(group, FiniteGroup)
        )
        yield


@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)])
def test_kernel_agrees_with_tuple_loops_on_every_subset(moduli, monkeypatch):
    group = FiniteGroup(moduli)
    ring = all_endomorphisms(group)
    refuted_count = 0
    for D in _subsets(group):
        references = [(T, ref_is_T_convex(D, T), ref_pointwise(D, T)) for T in ring]
        family = tuple(T for T, direct, _ in references if direct.proved)
        refuted_count += len(ring) - len(family)
        for _ in _routings(monkeypatch):
            for T, direct, pointwise in references:
                assert _same(is_T_convex(D, T), direct), (D, T)
                assert _same(t_convex_pointwise(D, T), pointwise), (D, T)
            assert family_of.__wrapped__(D) == family, D
    assert refuted_count > 0


def _seeded_sets(group, rng, count):
    elems = list(group.elements())
    return [
        finite_set(group, rng.sample(elems, rng.randint(1, min(6, len(elems)))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("moduli", [(121,), (2, 3, 4)])
def test_kernel_agrees_with_tuple_loops_on_seeded_sets(moduli, monkeypatch):
    group = FiniteGroup(moduli)
    rng = random.Random(11)
    ring = all_endomorphisms(group)
    outcomes = set()
    for index, D in enumerate(_seeded_sets(group, rng, 40)):
        Ts = rng.sample(ring, 6)
        references = [(T, ref_is_T_convex(D, T), ref_pointwise(D, T)) for T in Ts]
        outcomes.update(direct.status for _, direct, _ in references)
        # a hull on Z121 often fills the group, so hulls are sparser
        hulls = [] if index % 4 else [
            (family, max_iter, ref_hull(D, family, max_iter))
            for family in (Ts[:1], Ts[1:3])
            for max_iter in (1, 1000)
        ]
        outcomes.update(hull[1] for _, _, hull in hulls)
        for _ in _routings(monkeypatch):
            for T, direct, pointwise in references:
                assert _same(is_T_convex(D, T), direct), (D, T)
                assert _same(t_convex_pointwise(D, T), pointwise), (D, T)
            for family, max_iter, hull in hulls:
                assert convex_hull(D, family, max_iter=max_iter) == hull, (D, family, max_iter)
    # both verdicts and both hull flags occur
    assert len(outcomes) == 4


def _lattice_point(group, rng):
    if isinstance(group, IntLattice):
        return [rng.randint(-3, 3) for _ in range(group.dim)]
    return [Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 2)) for _ in range(group.dim)]


def _lattice_endo(group, rng):
    def entry():
        if isinstance(group, IntLattice):
            return rng.randint(-2, 2)
        return Fraction(rng.randint(-4, 4), 1 << rng.randint(0, 1))

    return make_endo(group, [[entry() for _ in range(group.dim)] for _ in range(group.dim)])


@pytest.mark.parametrize("group", [IntLattice(2), DyadicLattice(2)], ids=str)
def test_pair_loop_agrees_with_tuple_loops_on_lattice_sets(group):
    rng = random.Random(5)
    outcomes = set()
    for _ in range(30):
        D = finite_set(group, [_lattice_point(group, rng) for _ in range(rng.randint(1, 5))])
        # the identity and the zero map make every set convex
        Ts = [_lattice_endo(group, rng), _lattice_endo(group, rng), identity(group), zero(group)]
        for T in Ts:
            direct = ref_is_T_convex(D, T)
            outcomes.add(direct.status)
            assert _same(is_T_convex(D, T), direct), (D, T)
            assert _same(t_convex_pointwise(D, T), ref_pointwise(D, T)), (D, T)
        for family in (Ts[:1], Ts[1:3]):
            for max_iter in (1, 2):
                hull = convex_hull(D, family, max_iter=max_iter)
                reference = ref_hull(D, family, max_iter)
                assert hull == reference, (D, family, max_iter)
                # equal sets with the same coordinate types, so the same text
                assert repr(hull) == repr(reference), (D, family, max_iter)
    assert len(outcomes) == 2


@pytest.mark.parametrize(
    "group", [FiniteGroup((2, 3, 4)), IntLattice(2), DyadicLattice(2)], ids=str
)
def test_finite_set_does_not_depend_on_insertion_order(group):
    rng = random.Random(9)
    for _ in range(20):
        if isinstance(group, FiniteGroup):
            points = [[rng.randrange(m) for m in group.moduli] for _ in range(6)]
        else:
            points = [_lattice_point(group, rng) for _ in range(6)]
        A = finite_set(group, points)
        B = finite_set(group, reversed(points))
        assert A == B
        assert hash(A) == hash(B)
        assert A.members == B.members == frozenset(A.elements)
        # ``members`` is not part of the text
        assert repr(A) == repr(B) == f"FiniteSet(group={group!r}, elements={A.elements!r})"


def test_codec_on_every_pair_of_z2_z3_z4():
    group = FiniteGroup((2, 3, 4))
    elems = list(group.elements())
    code = group.code
    assert [code(x) for x in elems] == sorted(code(x) for x in elems)
    rng = random.Random(3)
    sets = [finite_set(group, [x]) for x in elems] + _seeded_sets(group, rng, 20)
    landings = [(D, group.landing(code(d) for d in D.elements)) for D in sets]
    for x in elems:
        assert group.decode(code(x)) == x
        for y in elems:
            total = code(x) + code(y)
            assert group.reduce(total) == code(group.add(x, y)), (x, y)
            assert group.decode(total) == group.add(x, y), (x, y)
            for D, landing in landings:
                assert (total in landing) == (group.add(x, y) in D.elements), (x, y, D)


def test_codes_run_only_on_sets_of_at_least_2_to_the_k_points(monkeypatch):
    def landing(self, codes):
        raise AssertionError("landing set built")

    monkeypatch.setattr(FiniteGroup, "landing", landing)
    group = FiniteGroup((2, 3, 4))
    elems = sorted(group.elements())
    T = all_endomorphisms(group)[5]
    small = finite_set(group, elems[:7])
    assert _same(is_T_convex(small, T), ref_is_T_convex(small, T))
    assert _same(t_convex_pointwise(small, T), ref_pointwise(small, T))
    assert convex_hull(small, [T]) == ref_hull(small, [T])
    large = finite_set(group, elems[:8])
    for run in (is_T_convex, t_convex_pointwise, lambda D, T: convex_hull(D, [T])):
        with pytest.raises(AssertionError, match="landing set built"):
            run(large, T)


def _drop_landing_member(monkeypatch):
    real = FiniteGroup.landing

    def landing(self, codes):
        return real(self, codes) - {0}  # the landing of the zero element

    monkeypatch.setattr(FiniteGroup, "landing", landing)


def test_a_refutation_that_does_not_recheck_raises(monkeypatch):
    _drop_landing_member(monkeypatch)
    z9 = FiniteGroup((9,))
    whole = finite_set(z9, z9.elements())
    with pytest.raises(InvariantViolated):
        is_T_convex(whole, identity(z9))
    with pytest.raises(InvariantViolated):
        t_convex_pointwise(finite_set(z9, z9.elements()), identity(z9))


_BROKEN_LANDING = """
import sys

from groupconvex import FiniteGroup, finite_set, identity, is_T_convex, t_convex_pointwise
from groupconvex.errors import InvariantViolated

print("optimize", sys.flags.optimize)
real = FiniteGroup.landing
FiniteGroup.landing = lambda self, codes: real(self, codes) - {0}
z9 = FiniteGroup((9,))
for test in (is_T_convex, t_convex_pointwise):
    try:
        print("returned", test(finite_set(z9, z9.elements()), identity(z9)))
    except InvariantViolated:
        print("raised")
print("numpy", "numpy" in sys.modules)
"""


def test_refutation_recheck_survives_optimized_mode():
    import groupconvex

    src = str(Path(groupconvex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_LANDING],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize 1", "raised", "raised", "numpy False"]
