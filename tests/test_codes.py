"""The one pair loop of each convexity test against plain tuple loops.

``is_T_convex``, ``t_convex_pointwise``, ``convex_hull`` and ``family_of``
each run one pair loop on the coding that ``convexity._coding`` picks per
group, built once per group: lex indices over a finite group of at most
``_TABLE_CAP`` elements and ``_PAIR_CAP`` padded codes (2^k * |G| for k
moduli), the tuples themselves otherwise, lattice finite sets included.  The
reference functions below are direct tuple loops over every pair, kept here
as the oracle: every status, witness and hull must agree with them on both
codings, both as the functions route themselves and with every group on
tuples.  An index coding corrupted on purpose must turn a refutation that
the tuple re-check denies into ``InvariantViolated``, also under
``python -O``.  Large sets of groups on indices must run with no tuple
arithmetic, and build nothing of |G|^2 entries.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from groupconvex import (
    DyadicLattice,
    Endomorphism,
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
from groupconvex import convexity, groups
from groupconvex.convexity import _coding
from groupconvex.errors import InvariantViolated
from groupconvex.groups import CyclicMetric
from groupconvex.properties import PropertyId
from groupconvex.theorems import Instance, verify
from groupconvex.verdicts import proved, refuted


def ref_is_T_convex(D, T):
    g = D.group
    for x in D.elements:
        for y in D.elements:
            point = g.add(T.apply(x), g.sub(y, T.apply(y)))
            if point not in D.members:
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


def _tuple_coding(group):
    """The coding that ``_coding`` gives a lattice, for any group."""
    return groups._Coding(
        groups._same, groups._same, group.add, group.neg, lambda T: cache(T.apply)
    )


def _on_tuples(group):
    return _coding(group).point is groups._same


def _routings(monkeypatch):
    """Yield as the functions route themselves, then with every group coded
    by its tuples, so that finite-group sets run on tuples."""
    yield
    with monkeypatch.context() as patched:
        patched.setattr(convexity, "_coding", _tuple_coding)
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
    c = _coding(group)
    assert list(map(c.point, range(24))) == elems == sorted(elems)
    assert list(map(c.code, elems)) == list(range(24))
    for i, x in enumerate(elems):
        assert c.neg(i) == c.code(group.neg(x)), x
        for j, y in enumerate(elems):
            assert c.plus(i, j) == c.code(group.add(x, y)), (x, y)
    # indices while 2^k * |G| is within the pair cap: Z5xZ205 (1,025
    # elements) has them, (Z2)^11 (2^11 * 2^11 padded codes) has none
    assert _coding(FiniteGroup((5, 205))).code((4, 204)) == 1024
    assert _on_tuples(FiniteGroup((2,) * 11))


@pytest.mark.parametrize(
    "moduli", [(1024,), (2,) * 10, (4096,), (65536,), (256, 256), (5, 205)], ids=str
)
def test_tables_up_to_the_caps(moduli):
    # (Z2)^10 has the most padded codes of any group of 1,024 elements: 2^20
    group = FiniteGroup(moduli)
    c = _coding(group)
    assert c.code(tuple(m - 1 for m in moduli)) == group.order - 1
    rng = random.Random(31)
    for _ in range(300):
        x, y = ([rng.randrange(m) for m in moduli] for _ in range(2))
        i, j = c.code(tuple(x)), c.code(tuple(y))
        assert c.point(c.plus(i, j)) == group.add(x, y), (x, y)
        assert c.point(c.neg(i)) == group.neg(x), x


def _misroute_zero_sum(monkeypatch):
    """Corrupt every index coding: 0 + 0 gets the index 1 (no tuple is 0)."""
    real = convexity._coding

    def coding(group):
        c = real(group)
        return c._replace(plus=lambda a, b: 1 if a == b == 0 else c.plus(a, b))

    monkeypatch.setattr(convexity, "_coding", coding)


def test_tables_run_on_sets_of_every_size(monkeypatch):
    _misroute_zero_sum(monkeypatch)
    group = FiniteGroup((2, 3, 4))
    elems = sorted(group.elements())
    del elems[1]  # the element of index 1, where 0 + 0 now lands
    for size in (1, 2, 7, 8, len(elems)):
        D = finite_set(group, elems[:size])
        for T in (zero(group), identity(group)):
            with pytest.raises(InvariantViolated):
                is_T_convex(D, T)
        with pytest.raises(InvariantViolated):
            t_convex_pointwise(D, zero(group))
    # the hull reads the same coding, so the hull of {0} takes in index 1
    origin = finite_set(group, elems[:1])
    assert convex_hull(origin, [zero(group)], max_iter=1)[0] != origin
    # a group beyond the cap is coded by its tuples, so nothing is misrouted
    big = FiniteGroup((2**17,))
    D = finite_set(big, [[0], [6], [10]])
    for T in (zero(big), identity(big), make_endo(big, [[3]])):
        assert _same(is_T_convex(D, T), ref_is_T_convex(D, T))
        assert _same(t_convex_pointwise(D, T), ref_pointwise(D, T))
        assert convex_hull(D, [T], max_iter=2) == ref_hull(D, [T], 2)


def test_a_refutation_that_does_not_recheck_raises(monkeypatch):
    _misroute_zero_sum(monkeypatch)
    z9 = FiniteGroup((9,))
    subgroup = finite_set(z9, [[0], [3], [6]])
    for T in (zero(z9), identity(z9)):
        with pytest.raises(InvariantViolated):
            is_T_convex(subgroup, T)
    with pytest.raises(InvariantViolated):
        t_convex_pointwise(subgroup, zero(z9))


_BROKEN_FOLDS = """
import sys

from groupconvex import FiniteGroup, convexity, finite_set, is_T_convex, t_convex_pointwise, zero
from groupconvex.errors import InvariantViolated

print("optimize", sys.flags.optimize)
real = convexity._coding


def coding(group):
    c = real(group)
    # 0 + 0 lands on 1
    return c._replace(plus=lambda a, b: 1 if a == b == 0 else c.plus(a, b))


convexity._coding = coding
z9 = FiniteGroup((9,))
for test in (is_T_convex, t_convex_pointwise):
    try:
        print("returned", test(finite_set(z9, [[0], [3], [6]]), zero(z9)))
    except InvariantViolated:
        print("raised")
print("numpy", "numpy" in sys.modules)
"""


def test_refutation_recheck_survives_optimized_mode():
    import groupconvex

    src = str(Path(groupconvex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_FOLDS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize 1", "raised", "raised", "numpy False"]


def _cube_endos(cube, rng):
    """A swap of two coordinates, a projection and a random 0/1 matrix on Z2^64."""
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(64)] for i in range(64)]
    projection = [[int(i == j < 32) for j in range(64)] for i in range(64)]
    binary = [[rng.randrange(2) for _ in range(64)] for _ in range(64)]
    return [make_endo(cube, rows) for rows in (swap, projection, binary)]


def test_groups_without_tables_agree_with_tuple_loops():
    rng = random.Random(23)
    big, cube = FiniteGroup((2**70,)), FiniteGroup((2,) * 64)
    e = [tuple(int(i == j) for j in range(64)) for i in range(64)]
    big_endos = [make_endo(big, [[a]]) for a in (3, 2**69 + 1, -1)]
    cases = [
        (big, [[0], [1], [2**69]], big_endos),
        (big, [[0], [2**68], [2**69], [3 * 2**68]], big_endos),
        (cube, [e[0], e[1], cube.add(e[0], e[1])], _cube_endos(cube, rng)),
        (cube, [cube.zero(), e[0], e[5], e[63]], _cube_endos(cube, rng)),
    ]
    outcomes = set()
    for group, points, endos in cases:
        assert _on_tuples(group), group
        D = finite_set(group, points)
        for T in [zero(group), identity(group)] + endos:
            direct = ref_is_T_convex(D, T)
            outcomes.add(direct.status)
            assert _same(is_T_convex(D, T), direct), (D, T)
            assert _same(t_convex_pointwise(D, T), ref_pointwise(D, T)), (D, T)
        for max_iter in (1, 2):
            hull = convex_hull(D, endos[:2], max_iter=max_iter)
            assert hull == ref_hull(D, endos[:2], max_iter), (D, max_iter)
    assert len(outcomes) == 2
    # the 1,024 multiples of 128 in Z_(2^17), beyond the element cap
    wide = FiniteGroup((2**17,))
    subgroup, odd = _multiples(wide, 128)
    triple = make_endo(wide, [[3]])
    # a subgroup is convex for every map and is its own hull
    assert is_T_convex(subgroup, triple).proved
    assert t_convex_pointwise(subgroup, triple).proved
    assert convex_hull(subgroup, [triple]) == (subgroup, True)
    # with the point 1 added, T(0) + (1 - T(1)) = -2 leaves the set
    assert _same(is_T_convex(odd, triple), ref_is_T_convex(odd, triple))
    assert is_T_convex(odd, triple).witness == ((0,), (1,), (2**17 - 2,))
    assert _same(t_convex_pointwise(odd, triple), ref_pointwise(odd, triple))


def _multiples(group, step):
    """The multiples of ``step`` in a cyclic group, and the same set with 1 added."""
    subgroup = finite_set(group, [[step * k] for k in range(group.order // step)])
    return subgroup, finite_set(group, subgroup.elements + ((1,),))


def _no_tuple_arithmetic(*_):
    raise AssertionError("tuple arithmetic on a group coded by lex indices")


@pytest.mark.parametrize("order, step, hulls", [(4096, 4, True), (8192, 8, False)], ids=str)
def test_large_cyclic_groups_run_on_lex_indices(order, step, hulls, monkeypatch):
    group = FiniteGroup((order,))
    triple = make_endo(group, [[3]])
    subgroup, odd = _multiples(group, step)
    assert len(subgroup.elements) == 1024
    for D in (subgroup, odd):
        assert _same(is_T_convex(D, triple), ref_is_T_convex(D, triple)), D
        assert _same(t_convex_pointwise(D, triple), ref_pointwise(D, triple)), D
        if hulls:
            assert convex_hull(D, [triple], max_iter=1) == ref_hull(D, [triple], 1), D
    assert is_T_convex(odd, triple).refuted
    # the subgroup's Proved cases read no element arithmetic at all
    monkeypatch.setattr(FiniteGroup, "add", _no_tuple_arithmetic)
    monkeypatch.setattr(FiniteGroup, "neg", _no_tuple_arithmetic)
    monkeypatch.setattr(Endomorphism, "apply", _no_tuple_arithmetic)
    assert is_T_convex(subgroup, triple).proved
    assert t_convex_pointwise(subgroup, triple).proved
    assert convex_hull(subgroup, [triple]) == (subgroup, True)


def test_convexity_calls_the_coding_that_groups_owns():
    assert convexity._coding is groups._coding
    groups._coding.cache_clear()
    z9 = FiniteGroup((9,))
    assert is_T_convex(finite_set(z9, [[0], [3], [6]]), make_endo(z9, [[4]])).proved
    # the metric check of the same group reads the same coding
    assert groups.validate_metric.__wrapped__(z9, groups.L1Metric((1,))).refuted
    info = groups._coding.cache_info()
    assert info.misses == 1 and info.hits >= 1, info


def test_a_verify_builds_the_coding_of_its_group_once():
    _coding.cache_clear()
    assert verify(PropertyId.LEM_TC, Instance(FiniteGroup((9,)), CyclicMetric((1,)))).proved
    info = _coding.cache_info()
    # every subset of Z9 under every map asks for the coding of Z9
    assert info.misses == 1 and info.hits > 9000, info


@pytest.mark.parametrize("moduli", [(2**17,), (2,) * 11, (2, 3, 5, 7, 11, 13)], ids=str)
def test_the_tuple_coding_lists_no_element(moduli, monkeypatch):
    def refuse(self):
        raise AssertionError(f"the elements of {self} were listed")

    _coding.cache_clear()
    monkeypatch.setattr(FiniteGroup, "elements", refuse)
    assert _on_tuples(FiniteGroup(moduli))


@pytest.mark.parametrize("moduli", [(2**17,), (2,) * 11, (2, 3, 5, 7, 11, 13)], ids=str)
def test_groups_beyond_either_cap_run_on_tuples(moduli):
    # Z_(2^17) is beyond the element cap, the others beyond the pair cap
    group = FiniteGroup(moduli)
    assert _on_tuples(group)
    k = group.dim
    D = finite_set(group, [[0] * k, [1] * k, [1] + [0] * (k - 1)])
    # 3x, -x and the projection onto the first coordinate
    diagonals = [[3] * k, [-1] * k, [1] + [0] * (k - 1)]
    diagonal = [make_endo(group, [[d[i] * (i == j) for j in range(k)] for i in range(k)]) for d in diagonals]
    outcomes = set()
    for T in [zero(group), identity(group)] + diagonal:
        direct = ref_is_T_convex(D, T)
        outcomes.add(direct.status)
        assert _same(is_T_convex(D, T), direct), (D, T)
        assert _same(t_convex_pointwise(D, T), ref_pointwise(D, T)), (D, T)
        assert convex_hull(D, [T], max_iter=2) == ref_hull(D, [T], 2), (D, T)
    assert len(outcomes) == 2


_PEAK_RSS = """
from groupconvex import FiniteGroup, finite_set, is_T_convex, make_endo

g = FiniteGroup((32, 32))
{work}
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc")
def test_a_test_on_half_of_z32xz32_builds_nothing_of_size_g_squared():
    # a table of every sum in Z32xZ32 would hold 2^20 entries, about 30 MB.
    # VmHWM is the peak of the child's own memory; ru_maxrss would also
    # count the pages of the test process that the child was forked from
    work = (
        "D = finite_set(g, [[2 * a, b] for a in range(16) for b in range(32)])\n"
        "assert is_T_convex(D, make_endo(g, [[3, 0], [0, 3]])).proved"
    )
    import groupconvex

    env = dict(os.environ, PYTHONPATH=str(Path(groupconvex.__file__).resolve().parents[1]))
    peaks = [
        int(subprocess.run(
            [sys.executable, "-c", _PEAK_RSS.format(work=code)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()[-1])
        for code in ("pass", work)
    ]
    assert (peaks[1] - peaks[0]) / 1024 <= 4, peaks  # VmHWM is in kB
