"""The box kernels on one integer scale, each against a Fraction reference.

``is_T_convex``, ``member_of_sum`` and ``sample`` carry a box and a map on
one power-of-two integer scale; ``norm_of_n`` and ``mu_of_n`` answer n on
a lattice in closed form.  Every reference here computes on the Fractions
themselves, as the kernels did before they were scaled.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import groupconvex.convexity as cx
from groupconvex import (
    DyadicLattice,
    IntLattice,
    L1Metric,
    LinfMetric,
    box_set,
    contains,
    finite_set,
    injectivity_measure,
    is_T_convex,
    make_endo,
    member_of_sum,
    mu_of_n,
    norm_of_n,
    op_norm,
    sample,
    scaling,
)
from groupconvex.errors import DimensionMismatch, MetricGroupMismatch

_ENTRIES = [Fraction(v) for v in ("-3/2", "-1", "-3/4", "-1/4", "0", "1/8", "1/2", "3/4", "1", "5/4")]


def _random_box(group, rng):
    """A box whose bounds are negative or fractional more often than not."""
    den = 1 if isinstance(group, IntLattice) else 1 << rng.randint(0, 3)
    lo = [Fraction(rng.randint(-12, 6), den) for _ in range(group.dim)]
    hi = [a + Fraction(rng.choice((0, 1, 3, 5, 8)), den) for a in lo]
    return box_set(group, lo, hi)


def _random_map(group, rng):
    entries = [e for e in _ENTRIES if group.is_coordinate(e)]
    n = group.dim
    if rng.random() < 0.3:  # diagonal in [0, 1]: lands on the box's boundary
        unit = [e for e in entries if 0 <= e <= 1]
        return make_endo(group, [[rng.choice(unit) if i == j else 0 for j in range(n)] for i in range(n)])
    return make_endo(group, [[rng.choice(entries) for _ in range(n)] for _ in range(n)])


def _combination(T, x, y):
    # T(x) + y - T(y), by row sums on the Fraction coordinates
    return tuple(
        sum(t * (a - b) for t, a, b in zip(row, x, y)) + y[i] for i, row in enumerate(T.matrix)
    )


def _inside(D, p):
    return all(a <= c <= b for a, c, b in zip(D.lo, p, D.hi))


def _corner_verdict(D, T):
    """Convex exactly when every pair of corners of D x D lands in D: the
    combination is linear in (x, y), so its extremes sit at the 4^dim corners."""
    corners = list(itertools.product(*zip(D.lo, D.hi)))
    return all(_inside(D, _combination(T, x, y)) for x in corners for y in corners)


def test_box_convexity_matches_the_corner_enumeration():
    rng = random.Random(2901)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        for dim in (1, 2, 3):
            for group in (DyadicLattice(dim), IntLattice(dim)):
                D, T = _random_box(group, rng), _random_map(group, rng)
                convex = _corner_verdict(D, T)
                verdict = is_T_convex(D, T)
                assert verdict.proved is convex and verdict.refuted is not convex, (D, T)
                outcomes[convex] += 1
                if verdict.refuted:
                    x, y, point = verdict.witness
                    assert contains(D, x) and contains(D, y), (D, T)
                    assert point == _combination(T, x, y) and not contains(D, point), (D, T)
    assert min(outcomes.values()) > 300, outcomes


def test_box_convexity_on_the_boundary():
    # the least value of each form is lo_i itself: proved, not refuted
    g = DyadicLattice(2)
    D = box_set(g, [Fraction(-3, 8), Fraction(5, 4)], [Fraction(1, 2), Fraction(9, 4)])
    for rows in ([[1, 0], [0, 1]], [[0, 0], [0, 0]], [[Fraction(1, 4), 0], [0, Fraction(3, 4)]]):
        assert is_T_convex(D, make_endo(g, rows)).proved
    # one step past the boundary on one axis is refuted
    verdict = is_T_convex(D, make_endo(g, [[Fraction(5, 4), 0], [0, 1]]))
    x, y, point = verdict.witness
    assert verdict.refuted and not contains(D, point)


def _sum_reference(point, B, C):
    g = B.group
    return any(contains(B, g.sub(point, c)) for c in C.elements)


def test_member_of_sum_matches_the_translate_test():
    rng = random.Random(2902)
    hits = boundary = 0
    for _ in range(200):
        for dim in (1, 2, 3):
            for group in (DyadicLattice(dim), IntLattice(dim)):
                B = _random_box(group, rng)
                den = 1 if isinstance(group, IntLattice) else 4
                wide = 1 if isinstance(group, IntLattice) else 8
                C = finite_set(group, [
                    [Fraction(rng.randint(-8, 8), den) for _ in range(dim)]
                    for _ in range(rng.randint(1, 4))
                ])
                c = C.elements[rng.randrange(len(C))]
                corner = [rng.choice(pair) for pair in zip(B.lo, B.hi)]
                points = [
                    group.add(c, group.element(corner)),  # on the boundary of c + B
                    group.add(c, group.element([a - 1 for a in B.lo])),  # just outside
                    group.element([Fraction(rng.randint(-40, 40), wide) for _ in range(dim)]),
                ]
                for point in points:
                    expected = _sum_reference(point, B, C)
                    assert member_of_sum(point, B, C) is expected, (point, B, C)
                    hits += expected
                boundary += member_of_sum(points[0], B, C)
    assert boundary == 1200 and hits > boundary


def test_member_of_sum_with_a_finite_b_and_a_bad_point():
    g = IntLattice(2)
    B, C = finite_set(g, [[0, 0], [1, 2]]), finite_set(g, [[3, 3]])
    assert member_of_sum((4, 5), B, C) and not member_of_sum((4, 4), B, C)
    with pytest.raises(DimensionMismatch):
        member_of_sum((4,), box_set(g, [0, 0], [1, 1]), C)


def _sample_reference(A, rng):
    coords = []
    for lo, hi in zip(A.lo, A.hi):
        if isinstance(A.group, IntLattice):
            coords.append(rng.randint(lo, hi))
        else:
            scale = 1 << rng.randint(0, 4)
            while math.ceil(lo * scale) > math.floor(hi * scale):
                scale <<= 1
            coords.append(Fraction(rng.randint(math.ceil(lo * scale), math.floor(hi * scale)), scale))
    return A.group.element(coords)


def test_sample_matches_the_ceil_floor_reference():
    draw = random.Random(2903)
    for k in range(400):
        dim = draw.randint(1, 3)
        group = DyadicLattice(dim) if k % 4 else IntLattice(dim)
        den = 1 if isinstance(group, IntLattice) else 1 << draw.randint(0, 6)
        lo = [Fraction(draw.randint(-50, 20), den) for _ in range(dim)]
        hi = [a + Fraction(draw.randint(0, 6), den) for a in lo]
        A = box_set(group, lo, hi)
        ours, theirs = random.Random(k), random.Random(k)
        for _ in range(5):
            point = sample(A, ours)
            assert point == _sample_reference(A, theirs) and contains(A, point), A
        assert ours.getstate() == theirs.getstate()


_LATTICES = [kind(dim) for kind in (IntLattice, DyadicLattice) for dim in (1, 2, 3)]


@pytest.mark.parametrize("group", _LATTICES, ids=str)
@pytest.mark.parametrize("kind", [LinfMetric, L1Metric], ids=["linf", "l1"])
@pytest.mark.parametrize("weights", ["unit", "mixed"])
def test_norm_and_mu_of_n_match_the_scaling_map(group, kind, weights):
    w = [1] * group.dim if weights == "unit" else [Fraction(3, 2), 5, Fraction(1, 7)][:group.dim]
    m = kind(tuple(w))
    for n in range(1, 21):
        S = scaling(group, n)
        assert norm_of_n(group, m, n) == op_norm(S, m) == n
        assert mu_of_n(group, m, n) == injectivity_measure(S, m) == n


@pytest.mark.parametrize("function", [norm_of_n, mu_of_n])
@pytest.mark.parametrize("metric", [{}, LinfMetric((1, 1, 1)), "linf"], ids=repr)
def test_norm_and_mu_of_n_refuse_a_metric_that_does_not_fit(function, metric):
    with pytest.raises(MetricGroupMismatch):
        function(IntLattice(2), metric, 3)


def test_linear_bounds_reads_ints_and_fractions_alike():
    row, lo, hi = (Fraction(-3, 4), 2, 0), (Fraction(-1, 2), 1, 5), (Fraction(3, 2), 4, 7)
    assert cx.linear_bounds(row, lo, hi) == (Fraction(-9, 8) + 2, Fraction(3, 8) + 8)
    # the same bounds on the scale 4 * 2: row * 4 and the box * 2
    scaled = cx.linear_bounds((-3, 8, 0), (-1, 2, 10), (3, 8, 14))
    assert scaled == tuple(8 * b for b in cx.linear_bounds(row, lo, hi))
