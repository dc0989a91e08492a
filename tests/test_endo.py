import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    all_endomorphisms,
    halve,
    identity,
    injectivity_measure,
    make_endo,
    midpoint_closed_form,
    midpoint_recursion,
    neumann_inverse,
    norm,
    op_norm,
    operator_distance,
    scaling,
    shifted_inverse,
    spectral_radius,
    table_metric,
    try_inverse,
    zero,
)
from groupconvex.endo import RhoBracket, midpoint_closed_forms, midpoint_iterates
from groupconvex.errors import (
    GroupMismatch,
    MetricGroupMismatch,
    NotAHomomorphism,
    NotComplete,
    NotDivisible,
    NotEnumerable,
    RhoNotCertifiedBelowOne,
    SNotInvertible,
)
from groupconvex.scalars import root_lower, root_upper


def window(dim, radius):
    """Integer vectors with sup-norm at most radius, zero excluded."""
    pts = [p for p in itertools.product(range(-radius, radius + 1), repeat=dim)]
    return [p for p in pts if any(p)]


def windowed_ratios(group, metric, T, points):
    out = []
    for x in points:
        x = group.element(x)
        nx = norm(group, metric, x)
        if nx == 0:
            continue
        out.append(norm(group, metric, T.apply(x)) / nx)
    return out


# -- construction ------------------------------------------------------------

def test_make_endo_scalar(z9):
    T = make_endo(z9, [[2]])
    assert T.apply((4,)) == (8,)
    assert T == scaling(z9, 2)


def test_make_endo_congruence_ok():
    g = FiniteGroup((2, 4))
    T = make_endo(g, [[0, 1], [0, 0]])  # 1*4 = 0 mod 2
    assert T.apply((0, 3)) == (1, 0)


def test_make_endo_congruence_violation():
    g = FiniteGroup((4, 2))
    with pytest.raises(NotAHomomorphism) as err:
        make_endo(g, [[0, 1], [0, 0]])  # 1*2 = 2 != 0 mod 4
    assert (err.value.row, err.value.col) == (0, 1)


def test_make_endo_accepts_exactly_the_additive_maps():
    # oracle: the plain-int map x -> (sum_j a_ij x_j mod m_i) on
    # representatives, tested for additivity on all 64 pairs of Z2xZ4
    moduli = (2, 4)
    g = FiniteGroup(moduli)
    elements = list(itertools.product(*(range(m) for m in moduli)))

    def plus(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    def plain(rows, x):
        return tuple(sum(a * c for a, c in zip(row, x)) % m for row, m in zip(rows, moduli))

    accepted = 0
    for entries in itertools.product(range(4), repeat=4):
        rows = [entries[:2], entries[2:]]
        additive = all(
            plain(rows, plus(x, y)) == plus(plain(rows, x), plain(rows, y))
            for x in elements
            for y in elements
        )
        try:
            T = make_endo(g, rows)
        except NotAHomomorphism:
            assert not additive, rows
            continue
        assert additive, rows
        assert all(T.apply(x) == plain(rows, x) for x in elements), rows
        accepted += 1
    assert accepted == 128  # the entry (1,0) must be even, the other three are free


def test_make_endo_shape(zplane):
    with pytest.raises(ValueError):
        make_endo(zplane, [[1, 2, 3], [4, 5, 6]])


def test_ring_counts():
    assert len(all_endomorphisms(FiniteGroup((9,)))) == 9
    assert len(all_endomorphisms(FiniteGroup((12,)))) == 12
    # one hom count per cell: gcd products
    assert len(all_endomorphisms(FiniteGroup((2, 4)))) == 2 * 2 * 2 * 4


def test_ring_beyond_the_cap_is_refused_before_any_map_is_built(monkeypatch):
    from groupconvex import endo
    from groupconvex.theorems import _MAX_FACTORS, _MODULI_RANGE

    def build(group, rows):
        raise AssertionError("a map was built")

    monkeypatch.setattr(endo, "_build", build)
    # End(Z2^5) has 2^25 maps
    with pytest.raises(NotEnumerable, match=f"has {2 ** 25} maps"):
        all_endomorphisms(FiniteGroup((2,) * 5))
    # every ring a default finite search draws stays enumerable
    lo, hi = _MODULI_RANGE
    largest = max(
        math.prod(math.gcd(a, b) for a in moduli for b in moduli)
        for count in range(1, _MAX_FACTORS + 1)
        for moduli in itertools.product(range(lo, hi + 1), repeat=count)
    )
    assert largest == 12 ** 4 < endo._RING_CAP


def test_ring_enumeration_is_exactly_the_homset():
    g = FiniteGroup((2, 4))
    ring = set(all_endomorphisms(g))
    brute = set()
    for entries in itertools.product(range(4), repeat=4):
        rows = [entries[:2], entries[2:]]
        try:
            brute.add(make_endo(g, rows))
        except NotAHomomorphism:
            continue
    assert ring == brute


# -- ring operations ---------------------------------------------------------

def test_scalar_combination_identity(zline):
    p3, p4, p5 = (scaling(zline, k) for k in (3, 4, 5))
    combined = p3.compose(p4).add(identity(zline).sub(p3).compose(p5))
    assert combined == scaling(zline, 2)


def test_ring_axioms(z9):
    ident = identity(z9)
    nil = zero(z9)
    for T in all_endomorphisms(z9):
        assert ident.compose(T) == T
        assert T.compose(ident) == T
        assert T.add(nil) == T
        assert T.sub(T) == nil
    assert scaling(z9, 3).compose(scaling(z9, 3)) == nil  # 9 = 0 mod 9


def test_compose_respects_mixed_moduli():
    g = FiniteGroup((2, 4))
    ring = all_endomorphisms(g)
    for A in ring:
        for B in ring:
            composed = A.compose(B)
            for x in g.elements():
                assert composed.apply(x) == A.apply(B.apply(x))


def test_group_mismatch(z9, z12):
    with pytest.raises(GroupMismatch):
        identity(z9).compose(identity(z12))


# -- operator norm and injectivity measure -----------------------------------

def test_op_norm_examples(z9, cyclic1, zplane, linf2):
    assert op_norm(scaling(z9, 2), cyclic1) == 2
    assert op_norm(identity(z9), cyclic1) == 1
    assert op_norm(make_endo(zplane, [[1, 1], [0, 1]]), linf2) == 2


def test_injectivity_examples(z9, cyclic1, zplane, linf2, zline, linf1):
    assert injectivity_measure(scaling(z9, 2), cyclic1) == Fraction(1, 4)
    assert injectivity_measure(make_endo(zplane, [[1, 0], [0, 0]]), linf2) == 0
    assert injectivity_measure(scaling(zline, 3), linf1) == 3


def test_singular_kernel_witness(zplane, linf2):
    T = make_endo(zplane, [[1, 0], [0, 0]])
    assert T.apply((0, 1)) == (0, 0)


def test_row_sum_formula_against_window(zplane, linf2):
    T = make_endo(zplane, [[1, 1], [0, 1]])
    ratios = windowed_ratios(zplane, linf2, T, window(2, 3))
    assert max(ratios) == op_norm(T, linf2) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_formula_vs_window_unit_weights(entries):
    g = IntLattice(2)
    rows = [entries[:2], entries[2:]]
    T = make_endo(g, rows)
    pts = window(2, 3)
    for metric in (LinfMetric((Fraction(1), Fraction(1))), L1Metric((Fraction(1), Fraction(1)))):
        formula = op_norm(T, metric)
        ratios = windowed_ratios(g, metric, T, pts)
        # unit-weight norms attain the supremum at sign/unit vectors
        assert max(ratios) == formula
        mu = injectivity_measure(T, metric)
        assert min(ratios) >= mu


def test_weighted_formula_attained_in_window():
    g = IntLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1, 2)))
    T = make_endo(g, [[1, 2], [0, 3]])
    # achievers scale to (+-1, +-2), inside the window of radius 3/max-weight
    ratios = windowed_ratios(g, metric, T, window(2, 6))
    assert max(ratios) == op_norm(T, metric)


def test_mu_inverse_norm_identity(zplane, linf2):
    for rows in ([[2, 1], [1, 1]], [[1, 2], [0, 1]], [[3, 0], [0, 2]]):
        T = make_endo(zplane, rows)
        inv = try_inverse(T)
        mu = injectivity_measure(T, linf2)
        if inv is not None:
            assert mu == 1 / op_norm(inv, linf2)
        assert mu > 0  # these matrices are nonsingular


def test_weighted_l1_formula_matches_fine_grid():
    g = DyadicLattice(2)
    metric = L1Metric((Fraction(1), Fraction(1, 2)))
    cases = [
        ([[Fraction(1, 2), 1], [Fraction(-3, 4), 2]], Fraction(4), Fraction(7, 10)),
        ([[2, 0], [Fraction(1, 4), Fraction(1, 2)]], Fraction(17, 8), Fraction(1, 2)),
    ]
    grid = [Fraction(n, 8) for n in range(-16, 17)]
    for rows, expected_norm, expected_mu in cases:
        T = make_endo(g, rows)
        assert op_norm(T, metric) == expected_norm
        assert injectivity_measure(T, metric) == expected_mu
        best = Fraction(0)
        worst = None
        for x1 in grid:
            for x2 in grid:
                if x1 == 0 and x2 == 0:
                    continue
                x = g.element((x1, x2))
                ratio = norm(g, metric, T.apply(x)) / norm(g, metric, x)
                best = max(best, ratio)
                worst = ratio if worst is None else min(worst, ratio)
        # both extremes are attained on the 1/8 grid for these matrices
        assert best == expected_norm
        assert worst == expected_mu


def test_rotation_like_dyadic_bracket_is_exact():
    g = DyadicLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1)))
    rot = make_endo(g, [[0, Fraction(-1, 2)], [Fraction(1, 2), 0]])
    bracket = spectral_radius(rot, metric, horizon=4)
    assert bracket.exact and bracket.value == Fraction(1, 2)


def test_mu_windowed_oracle_dyadic():
    g = DyadicLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1)))
    T = make_endo(g, [[Fraction(1, 2), 0], [0, 2]])
    mu = injectivity_measure(T, metric)
    assert mu == Fraction(1, 2)
    grid = [Fraction(n, 4) for n in range(-8, 9)]
    best = None
    for x1 in grid:
        for x2 in grid:
            if x1 == x2 == 0:
                continue
            x = g.element((x1, x2))
            ratio = norm(g, metric, T.apply(x)) / norm(g, metric, x)
            best = ratio if best is None else min(best, ratio)
    assert best == mu  # attained at a grid point for this diagonal matrix


def test_operator_distance_is_a_metric_on_z9(z9, cyclic1):
    ring = all_endomorphisms(z9)
    for T in ring:
        assert operator_distance(T, T, cyclic1) == 0
        for S in ring:
            assert operator_distance(T, S, cyclic1) == operator_distance(S, T, cyclic1)
            for R in ring:
                assert operator_distance(T, R, cyclic1) <= operator_distance(
                    T, S, cyclic1
                ) + operator_distance(S, R, cyclic1)


def test_measure_inequalities_exhaustive_z9(z9, cyclic1):
    ring = all_endomorphisms(z9)
    for T in ring:
        for S in ring:
            mu_t = injectivity_measure(T, cyclic1)
            mu_s = injectivity_measure(S, cyclic1)
            comp = T.compose(S)
            assert mu_t * op_norm(S, cyclic1) <= op_norm(comp, cyclic1)
            assert mu_t * mu_s <= injectivity_measure(comp, cyclic1)
            assert abs(mu_t - mu_s) <= operator_distance(T, S, cyclic1)


def test_measure_inequalities_exhaustive_mixed_moduli():
    g = FiniteGroup((2, 4))
    metric = CyclicMetric((Fraction(1), Fraction(1)))
    ring = all_endomorphisms(g)
    for T in ring:
        for S in ring:
            mu_t = injectivity_measure(T, metric)
            comp = T.compose(S)
            assert mu_t * op_norm(S, metric) <= op_norm(comp, metric)
            assert mu_t * injectivity_measure(S, metric) <= injectivity_measure(comp, metric)
            assert abs(mu_t - injectivity_measure(S, metric)) <= operator_distance(T, S, metric)


dyadic_matrices = st.lists(
    st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-6, 6), st.integers(0, 2)),
    min_size=4,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(dyadic_matrices, dyadic_matrices)
def test_measure_inequalities_sampled_dyadic_pairs(a, b):
    g = DyadicLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1, 2)))
    T = make_endo(g, [a[:2], a[2:]])
    S = make_endo(g, [b[:2], b[2:]])
    mu_t = injectivity_measure(T, metric)
    mu_s = injectivity_measure(S, metric)
    comp = T.compose(S)
    assert mu_t * op_norm(S, metric) <= op_norm(comp, metric)
    assert mu_t * mu_s <= injectivity_measure(comp, metric)
    assert abs(mu_t - mu_s) <= operator_distance(T, S, metric)


# -- spectral radius ---------------------------------------------------------

def oracle_rho_finite(T):
    """Independent cycle detection over the finite power semigroup."""
    seen = {}
    power = T
    k = 1
    while power not in seen:
        if power.is_zero:
            return 0
        seen[power] = k
        power = power.compose(T)
        k += 1
    return 1


def test_rho_examples(z9, cyclic1, zplane, linf2, dyline, linf1):
    assert spectral_radius(scaling(z9, 3), cyclic1).value == 0
    assert spectral_radius(make_endo(zplane, [[0, 1], [0, 0]]), linf2).value == 0
    assert spectral_radius(identity(z9), cyclic1).value == 1
    assert spectral_radius(identity(zplane), linf2).value == 1
    half = make_endo(dyline, [[Fraction(1, 2)]])
    bracket = spectral_radius(half, linf1)
    assert bracket.exact and bracket.value == Fraction(1, 2)


def test_rho_dichotomy_oracle(z9, z12, cyclic1):
    for g, m in ((z9, cyclic1), (z12, CyclicMetric((Fraction(1),)))):
        for T in all_endomorphisms(g):
            bracket = spectral_radius(T, m)
            assert bracket.exact
            assert bracket.value in (0, 1)
            assert bracket.value == oracle_rho_finite(T)


def test_int_lattice_rho_below_one_iff_nilpotent():
    # derived decision procedure, verified by a windowed-norm oracle
    g = IntLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1)))
    rng = random.Random(20240817)
    for _ in range(100):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        T = make_endo(g, rows)
        nilpotent = T.power(2).is_zero
        bracket = spectral_radius(T, metric, horizon=6)
        if nilpotent:
            assert bracket.exact and bracket.value == 0
        else:
            assert bracket.lower >= 1
            power = T
            for _ in range(12):
                assert op_norm(power, metric) >= 1
                power = power.compose(T)


def test_rho_bracket_ordering_random_dyadic():
    g = DyadicLattice(2)
    metric = LinfMetric((Fraction(1), Fraction(1)))
    rng = random.Random(7)
    for _ in range(50):
        rows = [
            [Fraction(rng.randint(-4, 4), 1 << rng.randint(0, 2)) for _ in range(2)]
            for _ in range(2)
        ]
        T = make_endo(g, rows)
        bracket = spectral_radius(T, metric, horizon=6)
        assert injectivity_measure(T, metric) <= bracket.upper
        assert bracket.upper <= op_norm(T, metric)
        assert bracket.lower <= bracket.upper


def test_weighted_norm_never_certifies_nonnilpotent_below_one():
    # power norms dominate rho^m, so a small first-power weighted norm can
    # never certify a non-nilpotent integer matrix below radius one
    g = IntLattice(2)
    heavy = LinfMetric((Fraction(1), Fraction(4)))
    swap = make_endo(g, [[0, 1], [1, 0]])  # swap: T^2 = I
    bracket = spectral_radius(swap, heavy, horizon=8)
    assert bracket.exact and bracket.value == 1
    assert not bracket.certified_below_one
    nil = make_endo(g, [[0, 1], [0, 0]])
    assert op_norm(nil, heavy) == Fraction(1, 4)  # small norm, genuinely nilpotent
    assert spectral_radius(nil, heavy, horizon=8).value == 0


def test_rho_upper_shrinks_with_horizon(dyline, linf1):
    T = make_endo(dyline, [[Fraction(3, 4)]])
    wide = spectral_radius(T, linf1, horizon=1)
    tight = spectral_radius(T, linf1, horizon=6)
    assert tight.upper <= wide.upper


# -- inversion ---------------------------------------------------------------

def test_neumann_z9(z9, cyclic1):
    inverse = neumann_inverse(scaling(z9, 3), cyclic1)
    assert inverse == scaling(z9, 4)
    check = identity(z9).sub(scaling(z9, 3)).compose(inverse)
    assert check == identity(z9)  # 7*4 = 28 = 1 mod 9


def test_neumann_nilpotent_lattice(zplane, linf2):
    T = make_endo(zplane, [[0, 1], [0, 0]])
    assert neumann_inverse(T, linf2) == identity(zplane).add(T)


def test_neumann_zero_and_identity(z9, cyclic1):
    assert neumann_inverse(zero(z9), cyclic1) == identity(z9)
    with pytest.raises(RhoNotCertifiedBelowOne):
        neumann_inverse(identity(z9), cyclic1)


def test_neumann_series_has_no_term_budget():
    # 2 is nilpotent on Z_(2^70): its series has 70 terms, and rho is exactly 0
    g = FiniteGroup((2 ** 70,))
    metric = CyclicMetric((Fraction(1),))
    T = scaling(g, 2)
    assert spectral_radius(T, metric).value == 0
    assert neumann_inverse(T, metric) == scaling(g, -1)


def test_neumann_requires_completeness(dyline, linf1):
    T = make_endo(dyline, [[Fraction(1, 2)]])
    with pytest.raises(NotComplete):
        neumann_inverse(T, linf1)


def test_shifted_inverse_examples(z9, cyclic1, zplane, linf2):
    assert shifted_inverse(identity(z9), scaling(z9, 3), cyclic1) == scaling(z9, 4)
    T = make_endo(zplane, [[0, 1], [0, 0]])
    assert shifted_inverse(identity(zplane), T, linf2) == identity(zplane).add(T)
    # S = pi2 (inverse pi5), T = pi6: S^-1 T = pi3, rho = 0
    result = shifted_inverse(scaling(z9, 2), scaling(z9, 6), cyclic1)
    assert result == scaling(z9, 2)
    diff = scaling(z9, 2).sub(scaling(z9, 6))
    assert diff.compose(result) == identity(z9)


def test_shifted_inverse_requires_invertible_s(z9, cyclic1):
    with pytest.raises(SNotInvertible):
        shifted_inverse(scaling(z9, 3), zero(z9), cyclic1)


def test_try_inverse(z9, zplane, dyline):
    assert try_inverse(scaling(z9, 2)) == scaling(z9, 5)
    assert try_inverse(scaling(z9, 3)) is None
    assert try_inverse(make_endo(zplane, [[1, 1], [0, 1]])) == make_endo(
        zplane, [[1, -1], [0, 1]]
    )
    assert try_inverse(make_endo(zplane, [[2, 0], [0, 1]])) is None  # 1/2 not integral
    assert try_inverse(make_endo(dyline, [[2]])) == make_endo(dyline, [[Fraction(1, 2)]])
    assert try_inverse(make_endo(dyline, [[3]])) is None  # 1/3 not dyadic


def test_neumann_random_nilpotent_3x3():
    g = IntLattice(3)
    metric = LinfMetric((Fraction(1),) * 3)
    rng = random.Random(99)
    ident = identity(g)
    for _ in range(25):
        rows = [[0, rng.randint(-3, 3), rng.randint(-3, 3)],
                [0, 0, rng.randint(-3, 3)],
                [0, 0, 0]]
        T = make_endo(g, rows)
        series = neumann_inverse(T, metric)
        factor = ident.sub(T)
        assert factor.compose(series) == ident
        assert series.compose(factor) == ident


# -- midpoint recursion ------------------------------------------------------

def test_midpoint_recursion_z9(z9):
    T = scaling(z9, 2)
    assert midpoint_recursion(T, 1) == T
    assert midpoint_recursion(T, 2) == scaling(z9, 5)  # half of the identity
    assert halve(identity(z9)) == scaling(z9, 5)


def test_midpoint_closed_form_matches(z9, dyline):
    T = scaling(z9, 2)
    for n in range(1, 9):
        assert midpoint_closed_form(T, n) == midpoint_recursion(T, n)
    q = make_endo(dyline, [[Fraction(1, 4)]])
    for n in range(1, 9):
        assert midpoint_closed_form(q, n) == midpoint_recursion(q, n)


def test_midpoint_recursion_fixed_point(dyline, z9):
    half = make_endo(dyline, [[Fraction(1, 2)]])
    for n in range(1, 6):
        assert midpoint_recursion(half, n) == half
    assert midpoint_recursion(identity(z9), 2) == identity(z9)


def test_midpoint_closed_form_needs_divisibility(zline):
    with pytest.raises(NotDivisible):
        midpoint_closed_form(scaling(zline, 1), 2)


def test_midpoint_recursion_is_capped_on_lattices(dyline, zline, z9, monkeypatch):
    from groupconvex import endo as en

    cap = en._RECURSION_CAP
    half = make_endo(dyline, [[Fraction(1, 2)]])
    assert midpoint_recursion(half, cap) == half == midpoint_closed_form(half, cap)
    # finite groups reduce entries mod m_i, so they run past the cap
    far = cap + 50
    assert midpoint_recursion(scaling(z9, 2), far) == scaling(z9, 5)
    assert midpoint_closed_form(scaling(z9, 2), far) == scaling(z9, 5)

    def no_product(*args):
        raise AssertionError("a recursion step was computed")

    monkeypatch.setattr(en, "_matmul", no_product)
    refusal = f" has {cap + 1} steps, beyond the cap of {cap}$"
    for T in (half, scaling(zline, 3)):
        with pytest.raises(NotEnumerable, match=refusal):
            midpoint_recursion(T, cap + 1)
    with pytest.raises(NotEnumerable, match=refusal):
        midpoint_closed_form(half, cap + 1)


def _stepped(T, n):
    """Iterates 1..n of U -> U^2 + (I - U)^2, one plain step each."""
    ident = identity(T.group)
    iterates = [T]
    while len(iterates) < n:
        U = iterates[-1]
        residual = ident.sub(U)
        iterates.append(U.compose(U).add(residual.compose(residual)))
    return iterates


@pytest.mark.parametrize("moduli", [(8,), (9,), (2, 4), (3, 5)], ids=str)
def test_a_term_read_off_the_cycle_is_the_stepped_term(moduli):
    # every map, and n past three times the ring, so each tail and cycle is rounded
    group = FiniteGroup(moduli)
    ring = all_endomorphisms(group)
    horizon = 3 * len(ring) + 2
    for T in ring:
        stepped = _stepped(T, horizon)
        assert list(midpoint_iterates(T, horizon)) == stepped
        for n, iterate in enumerate(stepped, start=1):
            assert midpoint_recursion(T, n) == iterate
            if group.divisible_by(2):
                assert midpoint_closed_form(T, n) == iterate
        if group.divisible_by(2):
            assert list(midpoint_closed_forms(T, horizon)) == stepped


def test_closed_form_equals_recursion_in_product_group():
    g = FiniteGroup((3, 5))
    for T in all_endomorphisms(g):
        for n in range(1, 6):
            assert midpoint_closed_form(T, n) == midpoint_recursion(T, n)


def test_finite_spectral_radius_matches_power_walk():
    # the nilpotency test T^Omega(|G|) = 0 against the walk over powers
    moduli_list = [
        (2,), (4,), (8,), (9,), (12,), (2, 2), (2, 4), (4, 4),
        (3, 9), (2, 3), (6, 4), (2, 2, 2),
    ]
    checked = 0
    for moduli in moduli_list:
        g = FiniteGroup(moduli)
        metric = CyclicMetric(tuple(Fraction(1) for _ in moduli))
        for T in all_endomorphisms(g):
            assert spectral_radius(T, metric).value == oracle_rho_finite(T), (moduli, T)
            checked += 1
    assert checked == 1196



# -- independent oracles -------------------------------------------------------

@pytest.mark.parametrize("moduli", [(3, 9), (5, 15)])
def test_halving_and_reduction_on_mixed_moduli(moduli):
    g = FiniteGroup(moduli)
    half_identity = halve(identity(g))
    rng = random.Random(31)
    for T in all_endomorphisms(g):
        H = halve(T)
        assert H.add(H) == T
        assert H == T.compose(half_identity)
        # lift each entry by its own multiple of the row modulus m_i
        raw = [[a + rng.randint(-5, 5) * m_i for a in row] for row, m_i in zip(T.matrix, moduli)]
        reduced = make_endo(g, raw).matrix
        for i, m_i in enumerate(moduli):
            for j in range(len(moduli)):
                assert reduced[i][j] == raw[i][j] % m_i


@functools.lru_cache(maxsize=None)
def _norms(g, metric):
    return {x: norm(g, metric, x) for x in g.elements()}


def _walk_bounds(T, metric):
    """(max, min) of ||T(x)|| / ||x|| by one ``apply`` and one Fraction per x."""
    g = T.group
    norms = _norms(g, metric)
    ratios = []
    for x in g.elements():
        if x == g.zero():
            continue
        if norms[x] == 0:
            raise MetricGroupMismatch("metric is not positive definite")
        ratios.append(norms[T.apply(x)] / norms[x])
    return max(ratios), min(ratios)


def _oracle_metrics(g, seed):
    """A cyclic, an L1, an Linf and a table metric on g, with seeded weights."""
    rng = random.Random(seed)
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in g.moduli]
    table = {x: Fraction(rng.randint(1, 40), rng.randint(1, 12)) for x in g.elements()}
    table[g.zero()] = Fraction(0)
    return [CyclicMetric(weights), L1Metric(weights), LinfMetric(weights), table_metric(table)]


def _assert_bounds_match_walk(maps, metrics, per_map=None):
    """Compare every map under ``per_map`` metrics, rotating, or all of them."""
    kinds = set()
    for i, T in enumerate(maps):
        for metric in (metrics if per_map is None else
                       [metrics[(i + k) % len(metrics)] for k in range(per_map)]):
            expected = _walk_bounds(T, metric)
            got = (op_norm(T, metric), injectivity_measure(T, metric))
            assert repr(got) == repr(expected), (T, metric.kind)
            kinds.add((T.is_zero, expected[1] == 0))
    return kinds


@pytest.mark.parametrize("moduli", [(2, 4), (4, 4), (3, 6)])
def test_finite_bounds_match_the_element_walk_on_whole_rings(moduli):
    g = FiniteGroup(moduli)
    metrics = _oracle_metrics(g, sum(moduli))
    kinds = _assert_bounds_match_walk(all_endomorphisms(g), metrics)
    # the zero map, other non-injective maps and injective maps all occur
    assert kinds == {(True, True), (False, True), (False, False)}


def test_finite_bounds_match_the_element_walk_on_seeded_z12x20_maps():
    g = FiniteGroup((12, 20))
    ring = all_endomorphisms(g)
    maps = random.Random(9).sample(ring, 200)
    kinds = _assert_bounds_match_walk(maps, _oracle_metrics(g, 32), per_map=2)
    assert kinds >= {(False, True), (False, False)}


@pytest.mark.parametrize("bad", [0, -1])
def test_finite_bounds_refuse_a_table_that_is_not_positive(bad):
    g = FiniteGroup((2, 3))
    values = {x: Fraction(sum(x) + 1) for x in g.elements()}
    values[(0, 0)] = Fraction(0)
    values[(1, 2)] = Fraction(bad)
    metric = table_metric(values)  # never validated
    for measure in (op_norm, injectivity_measure):
        with pytest.raises(MetricGroupMismatch, match="not positive definite"):
            measure(identity(g), metric)


def _int_entries(T):
    return all(type(a) is int for row in T.matrix for a in row)


def test_finite_entries_are_plain_ints():
    g = FiniteGroup((4, 8))
    T = make_endo(g, [[Fraction(5, 1), "2"], ["6/1", 7]])
    S = make_endo(g, [[3, 0], [4, Fraction(-1)]])
    assert T.matrix == ((1, 2), (6, 7)) and S.matrix == ((3, 0), (4, 7))
    assert _int_entries(T) and _int_entries(S)
    results = [
        T.compose(S), T.add(S), T.sub(S), T.scale(3), T.power(3),
        identity(g), zero(g), scaling(g, 5), halve(make_endo(FiniteGroup((3, 9)), [[1, 0], [3, 2]])),
    ]
    results += all_endomorphisms(g)
    assert all(_int_entries(R) for R in results)


def test_session_maps_have_plain_int_entries():
    from groupconvex.cli import parse_session

    sessions = sorted((Path(__file__).resolve().parents[1] / "bench" / "sessions").glob("*.json"))
    finite = 0
    for path in sessions:
        inst = parse_session(str(path))
        if isinstance(inst.group, FiniteGroup):
            finite += len(inst.endos)
            assert all(_int_entries(T) for T in inst.endos.values()), path.name
    assert finite > 0


def _seeded_lattice_endos(seed, count):
    """Seeded Z^n and dyadic matrices with n in 1..3 and small entries."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        for g, max_shift in ((IntLattice(n), 0), (DyadicLattice(n), 2)):
            rows = [
                [Fraction(rng.randint(-3, 3), 1 << rng.randint(0, max_shift)) for _ in range(n)]
                for _ in range(n)
            ]
            out.append(make_endo(g, rows))
    return out


def test_try_inverse_against_sympy():
    sympy = pytest.importorskip("sympy")
    outcomes = set()
    for T in _seeded_lattice_endos(11, 150):
        M = sympy.Matrix(T.matrix)
        entries = [Fraction(int(q.p), int(q.q)) for q in M.inv()] if M.det() != 0 else None
        if T.group.kind == "int":
            invertible = entries is not None and all(q.denominator == 1 for q in entries)
        else:
            invertible = entries is not None and all(
                q.denominator & (q.denominator - 1) == 0 for q in entries
            )
        inverse = try_inverse(T)
        assert (inverse is not None) == invertible, T
        if invertible:
            assert entries == [a for row in inverse.matrix for a in row]
        outcomes.add((T.group.kind, invertible))
    assert len(outcomes) == 4  # both verdicts on both lattices


def _squared_moduli_poly(sympy, M):
    """The polynomial whose roots are the products of two eigenvalues of M.

    Res_z(p(z), z^n p(w/z)) = prod_ij (w - l_i l_j) for the characteristic
    polynomial p.  Its largest real root is rho^2: the top eigenvalue times
    its conjugate is one of the products, and no product exceeds rho^2 in
    modulus.
    """
    z, w = sympy.symbols("z w")
    coeffs = M.charpoly(z).all_coeffs()[::-1]
    n = len(coeffs) - 1
    p = sum(a * z**k for k, a in enumerate(coeffs))
    q = sum(a * w**k * z ** (n - k) for k, a in enumerate(coeffs))
    return sympy.Poly(sympy.resultant(p, q, z), w)


def test_spectral_radius_against_sympy_eigenvalues():
    # Sturm counts on exact rationals decide lower <= rho <= upper, also when
    # an endpoint equals rho, as for the dyadic [[-1/2, -3], [1/4, -1/2]]
    # whose eigenvalues lie on the unit circle
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    on_circle = make_endo(DyadicLattice(2), [[Fraction(-1, 2), -3], [Fraction(1, 4), Fraction(-1, 2)]])
    assert spectral_radius(on_circle, LinfMetric((1, 1))).value == 1
    for T in _seeded_lattice_endos(13, 40) + [on_circle]:
        weights = tuple(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(T.group.dim))
        for metric in (LinfMetric(weights), L1Metric(weights)):
            bracket = spectral_radius(T, metric)
            Q = _squared_moduli_poly(sympy, sympy.Matrix(T.matrix))
            lo = sympy.Rational(bracket.lower) ** 2
            hi = sympy.Rational(bracket.upper) ** 2
            assert Q.count_roots(lo) >= 1, (T, bracket)
            assert Q.count_roots(hi) == (1 if Q.eval(hi) == 0 else 0), (T, bracket)


def _weighted_metrics(rng, dim):
    weights = tuple(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(dim))
    return LinfMetric(weights), L1Metric(weights)


def _ratio(rows, metric, x):
    """||A x|| / ||x|| for a rational matrix A and a rational vector x."""
    total = sum if isinstance(metric, L1Metric) else max

    def size(y):
        return total(w * abs(a) for w, a in zip(metric.weights, y))

    return size([sum(a * b for a, b in zip(row, x)) for row in rows]) / size(x)


def vertex_norm(rows, metric):
    """||A|| as the largest ratio at a vertex of the metric's unit ball.

    The ratio is convex in x on the ball, so its maximum sits at a vertex:
    e_j / w_j for a weighted L1 norm, (+-1/w_1, ..., +-1/w_n) for Linf.
    """
    w = metric.weights
    n = len(w)
    if isinstance(metric, L1Metric):
        vertices = [[Fraction(i == j) / w[j] for i in range(n)] for j in range(n)]
    else:
        vertices = [[s / wi for s, wi in zip(signs, w)] for signs in itertools.product((1, -1), repeat=n)]
    return max(_ratio(rows, metric, x) for x in vertices)


def test_lattice_norm_and_measure_against_vertex_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    singular = 0
    for T in _seeded_lattice_endos(19, 60):
        g = T.group
        box = [x for x in itertools.product(range(-3, 4), repeat=g.dim) if any(x)]
        for metric in _weighted_metrics(rng, g.dim):
            top = op_norm(T, metric)
            assert top == vertex_norm(T.matrix, metric), (T, metric)
            mu = injectivity_measure(T, metric)
            ratios = [norm(g, metric, T.apply(x)) / norm(g, metric, x) for x in box]
            assert mu <= min(ratios) and max(ratios) <= top, (T, metric)
            M = sympy.Matrix(T.matrix)
            if M.det() == 0:
                assert mu == 0
                singular += 1
                continue
            inverse = [[Fraction(int(q.p), int(q.q)) for q in row] for row in M.inv().tolist()]
            assert mu == 1 / vertex_norm(inverse, metric), (T, metric)
    assert singular > 0


def _gauss_jordan_inverse(rows):
    """Inverse over the rationals by Gauss-Jordan elimination, or None."""
    n = len(rows)
    work = [[Fraction(a) for a in row] for row in rows]
    inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [a / scale for a in work[col]]
        inv[col] = [a / scale for a in inv[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return inv


def _fraction_norm(rows, metric):
    w = metric.weights
    n = len(rows)
    if isinstance(metric, LinfMetric):
        return max(sum(w[i] / w[j] * abs(Fraction(rows[i][j])) for j in range(n)) for i in range(n))
    return max(sum(w[i] / w[j] * abs(Fraction(rows[i][j])) for i in range(n)) for j in range(n))


def reference_bracket(T, metric, horizon):
    """The lattice bracket by the plain power walk.

    Each power is composed, inverted by Gauss-Jordan and measured with
    Fraction weighted sums, and both roots are taken at every power.
    """
    g = T.group
    if isinstance(g, IntLattice) and T.power(g.dim).is_zero:
        return RhoBracket(Fraction(0), Fraction(0), True)
    upper = None
    lower = Fraction(1) if isinstance(g, IntLattice) else Fraction(0)
    power = T
    for m in range(1, horizon + 1):
        upper_m = root_upper(_fraction_norm(power.matrix, metric), m)
        if upper is None or upper_m < upper:
            upper = upper_m
        inverse = _gauss_jordan_inverse(power.matrix)
        if inverse is not None:
            lower_m = root_lower(1 / _fraction_norm(inverse, metric), m)
            if lower_m > lower:
                lower = lower_m
        power = power.compose(T)
    lower = min(lower, upper)
    return RhoBracket(lower, upper, lower == upper)


def test_spectral_radius_matches_the_plain_power_walk():
    rng = random.Random(29)
    fixed = [
        make_endo(IntLattice(2), [[0, 1], [0, 0]]),
        make_endo(IntLattice(3), [[1, 2, 0], [0, 1, 0], [0, 0, -1]]),
        make_endo(DyadicLattice(2), [[Fraction(1, 2), 1], [0, Fraction(3, 4)]]),
        make_endo(DyadicLattice(2), [[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]),
    ]
    kinds = set()
    for T in fixed + _seeded_lattice_endos(31, 148):
        metric = rng.choice(_weighted_metrics(rng, T.group.dim))
        horizon = rng.randint(1, 14)
        expected = reference_bracket(T, metric, horizon)
        assert repr(spectral_radius(T, metric, horizon)) == repr(expected), (T, metric, horizon)
        kinds.add((T.group.kind, expected.exact, expected.lower > 0))
    assert len(kinds) >= 5


def test_horizon_beyond_the_cap_is_refused_before_any_power(monkeypatch):
    import groupconvex.endo as en

    def no_power(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(en, "_matmul", no_power)
    monkeypatch.setattr(en, "_lattice_norm", no_power)
    T = make_endo(DyadicLattice(2), [[Fraction(1, 2), 1], [0, Fraction(3, 4)]])
    cap = en._HORIZON_CAP
    with pytest.raises(NotEnumerable, match=f" has {cap + 1} powers, beyond the cap of {cap}$"):
        spectral_radius(T, LinfMetric((1, 1)), cap + 1)
    with pytest.raises(ValueError, match="^horizon must be a positive integer, got 0$"):
        spectral_radius(T, LinfMetric((1, 1)), 0)


_BROKEN_POSTCONDITIONS = """
import sys
from fractions import Fraction

import groupconvex.convexity as cx
from groupconvex import CyclicMetric, FiniteGroup, finite_set, neumann_inverse, scaling
from groupconvex.endo import Endomorphism
from groupconvex.errors import InvariantViolated

print("optimize", sys.flags.optimize)
z9 = FiniteGroup((9,))
Endomorphism.add = lambda self, other: self  # the geometric series comes out wrong
try:
    print("returned", neumann_inverse(scaling(z9, 3), CyclicMetric((Fraction(1),))))
except InvariantViolated as err:
    print("raised", err)
FiniteGroup.image_indices = lambda self, matrix: [1] * self.order  # every map sends 0 to 1
try:
    print("returned", cx.family_of(finite_set(z9, [[0]])))
except InvariantViolated as err:
    print("raised", err)
"""


def test_postconditions_survive_optimized_mode():
    import groupconvex

    src = str(Path(groupconvex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_POSTCONDITIONS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "raised the geometric series does not invert I - T",
        "raised the family of a set holds the zero map and the identity",
    ]
