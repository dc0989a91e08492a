import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupconvex.convexity as cx
from groupconvex import (
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    LinfMetric,
    all_endomorphisms,
    box_set,
    closure,
    contains,
    convex_hull,
    diameter,
    family_of,
    finite_set,
    identity,
    image_set,
    intersect,
    is_family_convex,
    is_n_convex,
    is_T_convex,
    make_endo,
    member_of_sum,
    n_dilate,
    n_fold_sum,
    preimage_set,
    proved,
    refuted,
    sample,
    scaling,
    subset_of,
    sumset,
    t_convex_pointwise,
    zero,
)
from groupconvex.errors import (
    EmptySet,
    NotEnumerable,
    NotFinite,
    UnsupportedMixedSum,
)
from groupconvex.verdicts import Status


# -- sumsets and dilations ---------------------------------------------------

def test_sumset_int(zline):
    A = finite_set(zline, [[0], [1]])
    assert sumset(A, A) == finite_set(zline, [[0], [1], [2]])


def test_sumset_boxes(dyline):
    A = box_set(dyline, [0], [1])
    B = box_set(dyline, [0], [Fraction(1, 2)])
    assert sumset(A, B) == box_set(dyline, [0], [Fraction(3, 2)])


def test_sumset_subgroup_closed(z9):
    A = finite_set(z9, [[0], [3], [6]])
    assert sumset(A, A) == A


def test_sumset_mixed_rejected(dyline):
    A = finite_set(dyline, [[0]])
    B = box_set(dyline, [0], [1])
    with pytest.raises(UnsupportedMixedSum):
        sumset(A, B)


def test_n_fold_vs_dilate(zline):
    A = finite_set(zline, [[0], [1]])
    assert n_fold_sum(A, 2) == finite_set(zline, [[0], [1], [2]])
    assert n_dilate(A, 2) == finite_set(zline, [[0], [2]])


def test_box_interval_identity(dyline):
    A = box_set(dyline, [0], [1])
    assert n_fold_sum(A, 2) == box_set(dyline, [0], [2]) == n_dilate(A, 2)


def test_subgroup_fold(z9):
    A = finite_set(z9, [[0], [3], [6]])
    assert n_fold_sum(A, 2) == A
    assert n_dilate(A, 2) == A


@settings(max_examples=30)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.integers(1, 4),
)
def test_dilation_inside_fold(points, n):
    g = IntLattice(1)
    A = finite_set(g, [[p] for p in points])
    fold = n_fold_sum(A, n)
    for x in n_dilate(A, n).elements:
        assert contains(fold, x)


# -- n-convexity -------------------------------------------------------------

def test_is_n_convex_examples(zline, z9, dyline):
    refutation = is_n_convex(finite_set(zline, [[0], [1]]), 2)
    assert refutation.refuted
    parts, total = refutation.witness
    assert total == (1,)
    assert is_n_convex(finite_set(z9, [[0], [3], [6]]), 2).proved
    assert is_n_convex(box_set(dyline, [0], [1]), 2).proved


def test_n_convex_witness_rechecks(zline):
    A = finite_set(zline, [[0], [1]])
    verdict = is_n_convex(A, 2)
    parts, total = verdict.witness
    g = zline
    summed = g.zero()
    for p in parts:
        assert contains(A, p)
        summed = g.add(summed, p)
    assert summed == total
    assert not contains(n_dilate(A, 2), total)


def test_box_refutation_witness(dyline, zplane):
    verdict = is_n_convex(box_set(dyline, [0], [1]), 3)
    assert verdict.refuted
    parts, total = verdict.witness
    assert all(contains(box_set(dyline, [0], [1]), p) for p in parts)
    assert total[0] / 3 not in [Fraction(k, 8) for k in range(25)]  # not dyadic
    int_box = box_set(zplane, [0, 0], [1, 1])
    verdict = is_n_convex(int_box, 2)
    assert verdict.refuted


def test_singleton_boxes_always_convex(zplane):
    assert is_n_convex(box_set(zplane, [2, 3], [2, 3]), 5).proved


def test_composite_n_convexity():
    # a set that is both 2- and 3-convex is 6-convex
    z10 = FiniteGroup((10,))
    evens = finite_set(z10, [[0], [2], [4], [6], [8]])
    singleton = finite_set(z10, [[7]])
    hits = 0
    for D in (evens, singleton, finite_set(z10, [[0], [5]])):
        two = is_n_convex(D, 2).proved
        three = is_n_convex(D, 3).proved
        if two and three:
            hits += 1
            assert is_n_convex(D, 6).proved
    assert hits >= 2  # the check is not vacuous


_ORACLE_GROUPS = [
    FiniteGroup(moduli) for moduli in ((9,), (12,), (2, 4), (2, 6), (3, 3), (3, 9), (4, 4))
] + [IntLattice(1), IntLattice(2), DyadicLattice(1)]


def _draw_n_convex_candidate(g, rng):
    """A drawn finite set; on a finite group a third are cosets of a cyclic subgroup."""
    if not isinstance(g, FiniteGroup):
        scale = 4 if isinstance(g, DyadicLattice) else 1
        size = rng.randint(1, 4)
        return finite_set(g, [[Fraction(rng.randint(-6, 6), scale) for _ in range(g.dim)] for _ in range(size)])
    elements = list(g.elements())
    if rng.randrange(3):
        return finite_set(g, rng.sample(elements, rng.randint(1, 5)))
    start, step = rng.choice(elements), rng.choice(elements)
    coset = [start]
    while (point := g.add(coset[-1], step)) != start:
        coset.append(point)
    return finite_set(g, coset)


@pytest.mark.parametrize("g", _ORACLE_GROUPS, ids=str)
def test_n_convexity_agrees_with_the_n_fold_sum(g):
    """The pair criterion against [n]A built by repeated sumsets, with every witness re-checked."""
    rng = random.Random(7)
    outcomes = set()
    for _ in range(40):
        A = _draw_n_convex_candidate(g, rng)
        for n in range(1, 7):
            verdict = is_n_convex(A, n)
            dilation = n_dilate(A, n)
            assert verdict.proved == subset_of(n_fold_sum(A, n), dilation), (A, n)
            if n > 1:
                outcomes.add(verdict.status)
            if verdict.refuted:
                parts, total = verdict.witness
                assert len(parts) == n and all(contains(A, p) for p in parts), (A, n)
                assert functools.reduce(g.add, parts) == total, (A, n)
                assert not contains(dilation, total), (A, n)
    assert outcomes == {Status.PROVED, Status.REFUTED}  # neither side is vacuous


# -- T-convexity -------------------------------------------------------------

def test_is_t_convex_examples(zplane, z9):
    D = finite_set(zplane, itertools.product((0, 1), repeat=2))
    T = make_endo(zplane, [[1, 0], [0, 0]])
    assert is_T_convex(D, T).proved

    singleton = finite_set(z9, [[4]])
    for T in all_endomorphisms(z9):
        assert is_T_convex(singleton, T).proved

    verdict = is_T_convex(finite_set(z9, [[0], [1]]), scaling(z9, 5))
    assert verdict.refuted
    x, y, point = verdict.witness
    assert point == (5,)


def test_t_convex_witness_rechecks(z9):
    D = finite_set(z9, [[0], [1]])
    T = scaling(z9, 5)
    x, y, point = is_T_convex(D, T).witness
    assert contains(D, x) and contains(D, y)
    combo = z9.add(T.apply(x), z9.sub(y, T.apply(y)))
    assert combo == point and not contains(D, point)


def test_pointwise_equivalence_exhaustive_z9(z9):
    elems = list(z9.elements())
    ring = all_endomorphisms(z9)
    rng = random.Random(5)
    for _ in range(60):
        size = rng.randint(1, 5)
        D = finite_set(z9, rng.sample(elems, size))
        for T in ring:
            assert is_T_convex(D, T).status == t_convex_pointwise(D, T).status


# -- the first failing pair of a combination closure ---------------------------

def _first_failure_by_double_loop(heads, tails, members, plus):
    for i, a in enumerate(heads):
        for j, b in enumerate(tails):
            if plus(a, b) not in members:
                return i, j
    return None


def _sum_mod_7(a, b):
    return (a + b) % 7


@pytest.mark.parametrize("heads, tails, members, expected", [
    ([], [], frozenset(), None),
    ([], [3], frozenset(), None),
    ([3], [], frozenset(), None),
    ([1, 1, 2], [0, 5, 0], frozenset(range(7)), None),
    # head 0 passes, its repeat is skipped, head 1 fails first at tail 5 (j = 2)
    ([0, 0, 1, 1], [0, 2, 5, 2], frozenset({0, 2, 5, 1, 3}), (2, 2)),
    # the failing tail comes first in the list, last among the distinct tails
    ([4], [6, 0, 6], frozenset({4}), (0, 0)),
])
def test_first_failure_examples(heads, tails, members, expected):
    assert cx._first_failure(heads, tails, members, _sum_mod_7) == expected
    assert _first_failure_by_double_loop(heads, tails, members, _sum_mod_7) == expected


def test_first_failure_matches_the_double_loop():
    # short lists over few values, so heads and tails repeat
    rng = random.Random(22)
    seen = set()
    for _ in range(3000):
        heads = [rng.randrange(5) for _ in range(rng.randint(0, 7))]
        tails = [rng.randrange(5) for _ in range(rng.randint(0, 7))]
        members = frozenset(x for x in range(7) if rng.random() < 0.8)
        sums = []

        def plus(a, b):
            sums.append((a, b))
            return _sum_mod_7(a, b)

        expected = _first_failure_by_double_loop(heads, tails, members, _sum_mod_7)
        assert cx._first_failure(heads, tails, members, plus) == expected, (heads, tails, members)
        # each distinct head meets each distinct tail once, and one scan of the tails names j
        assert len(sums) <= len(set(heads)) * len(set(tails)) + len(tails)
        if expected is None:
            seen.add("all pass" if heads and tails else "empty")
        else:
            i, j = expected
            seen.add("fails after a passed head" if set(heads[:i]) - {heads[i]} else "fails first")
            seen.add("repeated tail" if len(set(tails)) < len(tails) else "distinct tails")
    assert seen == {"all pass", "empty", "fails after a passed head", "fails first",
                    "repeated tail", "distinct tails"}


def test_box_diagonal_convexity(dyplane):
    D = box_set(dyplane, [0, 0], [1, 2])
    half = make_endo(dyplane, [[Fraction(1, 2), 0], [0, Fraction(3, 4)]])
    assert is_T_convex(D, half).proved
    outside = make_endo(dyplane, [[2, 0], [0, 1]])
    verdict = is_T_convex(D, outside)
    assert verdict.refuted
    x, y, point = verdict.witness
    assert contains(D, x) and contains(D, y) and not contains(D, point)


def test_box_nondiagonal_sampling_refutes_with_witness(dyplane):
    D = box_set(dyplane, [0, 0], [1, 1])
    swap = make_endo(dyplane, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    verdict = is_T_convex(D, swap)
    # corner bounds: coordinate 1 of T(x) + (I-T)(y) reaches -1/2 at y = (0, 1)
    assert verdict.refuted
    x, y, point = verdict.witness
    assert contains(D, x) and contains(D, y) and not contains(D, point)


def test_box_nondiagonal_unfalsified_on_degenerate_box(dyplane):
    # coordinate 2 is pinned, so the off-diagonal contribution cancels and
    # the box really is convex: corner bounds prove it
    D = box_set(dyplane, [0, Fraction(1, 2)], [1, Fraction(1, 2)])
    T = make_endo(dyplane, [[Fraction(1, 2), Fraction(1, 4)], [0, 1]])
    assert is_T_convex(D, T).proved


# -- box convexity against independent oracles ---------------------------------

_BOX_ENTRIES = [Fraction(v) for v in ("-1", "-1/2", "0", "1/4", "1/2", "3/4", "1", "3/2", "2")]


def corner_enumeration_verdict(D, T):
    """An independent verdict for a diagonal map on a box.

    It enumerates the four (x_i, y_i) corners of each axis and checks the
    low side of an axis first.
    """
    g = D.group
    if D.lo == D.hi:
        return proved()
    diag = [T.matrix[i][i] for i in range(g.dim)]
    witness_x, witness_y = list(D.lo), list(D.lo)
    violated = False
    for i, t in enumerate(diag):
        lo, hi = D.lo[i], D.hi[i]
        corners = [(t * a + (1 - t) * b, a, b) for a in (lo, hi) for b in (lo, hi)]
        low, high = min(corners), max(corners)
        if low[0] < lo:
            witness_x[i], witness_y[i] = low[1], low[2]
            violated = True
        elif high[0] > hi:
            witness_x[i], witness_y[i] = high[1], high[2]
            violated = True
    if not violated:
        return proved()
    x, y = g.element(witness_x), g.element(witness_y)
    point = g.add(T.apply(x), g.sub(y, T.apply(y)))
    return refuted((x, y, point))


def _draw_box(group, rng, step, widths):
    lo = [step * rng.randint(-4, 4) for _ in range(group.dim)]
    hi = [a + step * rng.choice(widths) for a in lo]
    return box_set(group, lo, hi)


def _draw_map(group, rng, diagonal):
    entries = [e for e in _BOX_ENTRIES if group.is_coordinate(e)]
    n = group.dim
    rows = [
        [rng.choice(entries) if i == j or not diagonal else 0 for j in range(n)]
        for i in range(n)
    ]
    return make_endo(group, rows)


def test_box_diagonal_verdicts_match_the_corner_enumeration():
    rng = random.Random(20)
    checked = refuted_count = 0
    for _ in range(250):
        for dim in (1, 2, 3):
            for group, step in ((IntLattice(dim), 1), (DyadicLattice(dim), Fraction(1, 4))):
                D = _draw_box(group, rng, step, range(0, 4))
                T = _draw_map(group, rng, diagonal=True)
                verdict = is_T_convex(D, T)
                assert repr(verdict) == repr(corner_enumeration_verdict(D, T)), (D, T)
                checked += 1
                refuted_count += verdict.refuted
    assert checked == 1500 and 0 < refuted_count < checked


def _grid(D, step):
    axes = [
        [a + step * k for k in range(int((b - a) / step) + 1)] for a, b in zip(D.lo, D.hi)
    ]
    return [tuple(p) for p in itertools.product(*axes)]


def _raw_combination(T, x, y):
    # T(x) + y - T(y), by row sums on raw coordinates
    return tuple(
        sum(t * (a - b) for t, a, b in zip(row, x, y)) + y[i]
        for i, row in enumerate(T.matrix)
    )


def _inside(D, p):
    return all(a <= c <= b for a, c, b in zip(D.lo, p, D.hi))


def test_box_verdicts_match_brute_force_for_every_map():
    # a box's corners lie on the grid, so the grid pairs decide convexity
    rng = random.Random(21)
    proved_count = refuted_count = wide_nondiagonal_proved = 0
    for _ in range(250):
        for dim, widths in ((1, range(0, 5)), (2, range(0, 4)), (3, range(0, 2))):
            for group, step in ((IntLattice(dim), 1), (DyadicLattice(dim), Fraction(1, 4))):
                D = _draw_box(group, rng, step, widths)
                T = _draw_map(group, rng, diagonal=False)
                grid = _grid(D, step)
                convex = all(
                    _inside(D, _raw_combination(T, x, y)) for x in grid for y in grid
                )
                verdict = is_T_convex(D, T)
                assert verdict.proved == convex and verdict.refuted != convex, (D, T)
                if verdict.refuted:
                    x, y, point = verdict.witness
                    assert _inside(D, x) and _inside(D, y)
                    assert point == _raw_combination(T, x, y) and not _inside(D, point)
                    refuted_count += 1
                else:
                    proved_count += 1
                    off_diagonal = any(
                        t for i, row in enumerate(T.matrix) for j, t in enumerate(row) if i != j
                    )
                    wide_nondiagonal_proved += off_diagonal and D.lo != D.hi
    assert proved_count > 100 and refuted_count > 100
    # maps whose off-diagonal entries read only pinned axes are proved too
    assert wide_nondiagonal_proved > 0


def test_family_convexity(z9):
    whole = finite_set(z9, z9.elements())
    assert is_family_convex(whole, all_endomorphisms(z9)).proved
    subgroup = finite_set(z9, [[0], [3], [6]])
    assert is_family_convex(subgroup, all_endomorphisms(z9)).proved
    verdict = is_family_convex(finite_set(z9, [[0], [1]]), [scaling(z9, 5)])
    assert verdict.refuted
    assert verdict.witness[0] == scaling(z9, 5)


# -- hulls ---------------------------------------------------------------------

def oracle_min_superset(group, seed_points, t):
    """Brute-force minimum over all t-convex supersets, by raw arithmetic."""
    m = group.moduli[0]
    universe = list(range(m))
    seed = {p[0] for p in seed_points}
    best = None
    for r in range(m + 1):
        for combo in itertools.combinations(universe, r):
            candidate = set(combo)
            if not seed <= candidate:
                continue
            if all(
                (t * x + (1 - t) * y) % m in candidate
                for x in candidate
                for y in candidate
            ):
                if best is None or len(candidate) < len(best):
                    best = candidate
    return best


def test_hull_grows_to_whole_group(z9):
    hull, complete = convex_hull(finite_set(z9, [[0], [1]]), [scaling(z9, 5)])
    assert complete
    assert hull == finite_set(z9, z9.elements())


def test_hull_identity_family(z9):
    S = finite_set(z9, [[0], [1], [4]])
    hull, complete = convex_hull(S, [identity(z9)])
    assert complete and hull == S


def test_hull_singleton(zline):
    S = finite_set(zline, [[7]])
    hull, complete = convex_hull(S, [scaling(zline, 3)])
    assert complete and hull == S


def test_hull_box_rejected(dyline):
    with pytest.raises(NotFinite):
        convex_hull(box_set(dyline, [0], [1]), [identity(dyline)])


def test_hull_matches_bruteforce_on_z6_sample(z6):
    rng = random.Random(11)
    for _ in range(20):
        t = rng.randrange(6)
        seed_points = [[rng.randrange(6)] for _ in range(rng.randint(1, 3))]
        hull, complete = convex_hull(finite_set(z6, seed_points), [scaling(z6, t)])
        assert complete
        expected = oracle_min_superset(z6, [tuple(p) for p in seed_points], t)
        assert {e[0] for e in hull.elements} == expected


def test_hull_is_extensive_monotone_idempotent(z9):
    family = [scaling(z9, 5)]
    S = finite_set(z9, [[0], [3]])
    bigger = finite_set(z9, [[0], [3], [1]])
    hull_s, _ = convex_hull(S, family)
    hull_b, _ = convex_hull(bigger, family)
    assert subset_of(S, hull_s)
    assert subset_of(hull_s, hull_b)
    again, _ = convex_hull(hull_s, family)
    assert again == hull_s
    assert is_family_convex(hull_s, family).proved


def test_hull_incomplete_on_expanding_lattice_family(zline):
    S = finite_set(zline, [[0], [1]])
    hull, complete = convex_hull(S, [scaling(zline, 2)], max_iter=3)
    assert not complete


# -- families ------------------------------------------------------------------

def test_family_of_examples(z9):
    assert [T.matrix for T in family_of(finite_set(z9, [[0], [1]]))] == [((0,),), ((1,),)]
    assert len(family_of(finite_set(z9, [[0], [3], [6]]))) == 9
    assert len(family_of(finite_set(z9, z9.elements()))) == 9


def test_family_contains_zero_and_identity(z9):
    rng = random.Random(0)
    elems = list(z9.elements())
    for _ in range(20):
        D = finite_set(z9, rng.sample(elems, rng.randint(1, 4)))
        fam = family_of(D)
        assert zero(z9) in fam and identity(z9) in fam


def test_family_not_enumerable_on_lattice(zline):
    with pytest.raises(NotEnumerable):
        family_of(finite_set(zline, [[0]]))


# -- diameter, images, misc ----------------------------------------------------

def test_diameter_examples(zline, linf1, z9, cyclic1, dyplane):
    assert diameter(finite_set(zline, [[0], [3]]), linf1) == 3
    assert diameter(finite_set(z9, [[0], [4], [5]]), cyclic1) == 4
    box = box_set(dyplane, [0, 0], [1, 1])
    assert diameter(box, LinfMetric((Fraction(1), Fraction(1)))) == 1


def test_diameter_empty(zline, linf1):
    with pytest.raises(EmptySet):
        diameter(finite_set(zline, []), linf1)


def test_image_preimage_examples(z9):
    D = finite_set(z9, [[0], [1], [2]])
    assert image_set(D, scaling(z9, 3)) == finite_set(z9, [[0], [3], [6]])
    assert preimage_set(finite_set(z9, [[0]]), scaling(z9, 3)) == finite_set(
        z9, [[0], [3], [6]]
    )
    assert image_set(D, identity(z9)) == D


def test_member_of_sum(dyline):
    B = box_set(dyline, [0], [1])
    C = finite_set(dyline, [[0], [Fraction(1, 2)]])
    assert member_of_sum((Fraction(5, 4),), B, C)
    assert not member_of_sum((Fraction(7, 2),), B, C)


def test_intersect_and_subset(dyline, z9):
    b1 = box_set(dyline, [0], [1])
    b2 = box_set(dyline, [Fraction(1, 2)], [2])
    assert intersect(b1, b2) == box_set(dyline, [Fraction(1, 2)], [1])
    assert subset_of(intersect(b1, b2), b1)
    d1 = finite_set(z9, [[0], [3]])
    d2 = finite_set(z9, [[0], [3], [6]])
    assert subset_of(d1, d2) and not subset_of(d2, d1)
    assert intersect(d1, d2) == d1
    mixed = intersect(finite_set(dyline, [[0], [5]]), b1)
    assert mixed == finite_set(dyline, [[0]])


def test_closure_is_identity_on_representations(z9, dyline):
    D = finite_set(z9, [[0], [1]])
    assert closure(D) == D
    B = box_set(dyline, [0], [1])
    assert closure(B) == B


def test_sampler_is_deterministic_and_members(dyplane):
    box = box_set(dyplane, [Fraction(-1, 2), 0], [Fraction(3, 2), 1])
    a = [sample(box, random.Random(42)) for _ in range(10)]
    b = [sample(box, random.Random(42)) for _ in range(10)]
    assert a == b
    assert all(contains(box, x) for x in a)


def test_finite_set_deduplicates_and_sorts(z9):
    A = finite_set(z9, [[4], [13], [1]])
    assert A.elements == ((1,), (4,))
