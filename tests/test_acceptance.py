"""Acceptance suite: one test per criterion, exact tolerances, timed limits.

Every numeric assertion is an exact Fraction comparison (zero tolerance).
Each test prints one pass line; a failed assertion fails the criterion.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from groupconvex import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    GeneratorConfig,
    Instance,
    IntLattice,
    LinfMetric,
    Params,
    PropertyId,
    all_endomorphisms,
    box_set,
    convex_hull,
    counterexample_search,
    family_of,
    finite_set,
    identity,
    injectivity_measure,
    is_T_convex,
    make_endo,
    midpoint_closed_form,
    midpoint_recursion,
    mu_of_n,
    neumann_inverse,
    norm_of_n,
    op_norm,
    operator_distance,
    halve,
    sample,
    scaling,
    spectral_radius,
    sumset,
    try_inverse,
    verify,
    zero,
)
from groupconvex.errors import GeneratorExhausted, HypothesisFailed
from groupconvex.verdicts import Status

Z9 = FiniteGroup((9,))
Z12 = FiniteGroup((12,))
Z6 = FiniteGroup((6,))
CYC1 = CyclicMetric((Fraction(1),))
ZLINE = IntLattice(1)
LINF1 = LinfMetric((Fraction(1),))
DY1 = DyadicLattice(1)


def report(number, message):
    print(f"[criterion {number:2d}] PASS  {message}")


def test_criterion_01_scalar_family_counterexample():
    """Combination of multiplications by 3, 4, 5 equals multiplication by 2."""
    inst = Instance(ZLINE, LINF1)
    verify(PropertyId.EXA_TILDE, inst)  # warm caches before timing
    start = time.perf_counter()
    verdict = verify(PropertyId.EXA_TILDE, inst)
    elapsed = time.perf_counter() - start
    assert verdict.proved
    witness = verdict.witness[0]
    assert witness == scaling(ZLINE, 2)
    three, four, five = (scaling(ZLINE, k) for k in (3, 4, 5))
    combined = three.compose(four).add(identity(ZLINE).sub(three).compose(five))
    assert combined == scaling(ZLINE, 2)
    assert combined not in (three, four, five)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report(1, f"combination equals doubling; refuted in {elapsed * 1e6:.0f} us")


def test_criterion_02_measure_inequality_suite():
    """All measure inequalities hold exactly over full rings and scalar spans."""
    start = time.perf_counter()
    checks = 0
    for group in (Z9, Z12):
        metric = CYC1
        ring = all_endomorphisms(group)
        assert len(ring) ** 2 == {Z9: 81, Z12: 144}[group]
        for T in ring:
            for S in ring:
                mu_t = injectivity_measure(T, metric)
                mu_s = injectivity_measure(S, metric)
                comp = T.compose(S)
                assert mu_t * op_norm(S, metric) <= op_norm(comp, metric)
                assert mu_t * mu_s <= injectivity_measure(comp, metric)
                assert abs(mu_t - mu_s) <= operator_distance(T, S, metric)
                checks += 3
    for group, metric in ((ZLINE, LINF1), (Z9, CYC1)):
        for n in range(1, 21):
            mu_n = mu_of_n(group, metric, n)
            for m in range(1, 21):
                assert mu_n * norm_of_n(group, metric, m) <= norm_of_n(group, metric, n * m)
                assert mu_n * mu_of_n(group, metric, m) <= mu_of_n(group, metric, n * m)
                assert abs(mu_n - mu_of_n(group, metric, m)) <= abs(n - m)
                checks += 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(2, f"{checks} exact inequalities in {elapsed:.2f} s")


def test_criterion_03_measure_radius_norm_ordering():
    """mu <= rho <= operator norm, exactly, on rings and random matrices."""
    for group in (Z9, Z12):
        for T in all_endomorphisms(group):
            bracket = spectral_radius(T, CYC1)
            assert bracket.exact and bracket.value in (0, 1)
            assert injectivity_measure(T, CYC1) <= bracket.value
            assert bracket.value <= op_norm(T, CYC1)
    rng = random.Random(20250808)
    count = 0
    for dim in (2, 3):
        g = IntLattice(dim)
        metric = LinfMetric((Fraction(1),) * dim)
        for _ in range(50):
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            T = make_endo(g, rows)
            bracket = spectral_radius(T, metric, horizon=6)
            assert injectivity_measure(T, metric) <= bracket.upper
            assert bracket.upper <= op_norm(T, metric)
            count += 1
    assert count == 100
    report(3, "ordering exact on both rings and 100 random integer matrices")


def test_criterion_04_geometric_series_inversion():
    """The finite geometric series inverts I - T exactly."""
    start = time.perf_counter()
    inverse = neumann_inverse(scaling(Z9, 3), CYC1)
    assert inverse == scaling(Z9, 4)
    assert identity(Z9).sub(scaling(Z9, 3)).compose(inverse) == identity(Z9)
    g = IntLattice(3)
    metric = LinfMetric((Fraction(1),) * 3)
    ident = identity(g)
    rng = random.Random(404)
    for _ in range(50):
        strict = [
            [0, rng.randint(-3, 3), rng.randint(-3, 3)],
            [0, 0, rng.randint(-3, 3)],
            [0, 0, 0],
        ]
        T = make_endo(g, strict)
        series = neumann_inverse(T, metric)
        factor = ident.sub(T)
        assert factor.compose(series) == ident
        assert series.compose(factor) == ident
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(4, f"51 exact inversions in {elapsed:.2f} s")


def test_criterion_05_midpoint_recursion():
    """Recursion collapses to half the identity; closed form always agrees."""
    T = scaling(Z9, 2)
    half_ident = halve(identity(Z9))
    assert half_ident == scaling(Z9, 5)
    for n in range(2, 9):
        assert midpoint_recursion(T, n) == scaling(Z9, 5)
    for n in range(1, 9):
        assert midpoint_recursion(T, n) == midpoint_closed_form(T, n)
    quarter = make_endo(DY1, [[Fraction(1, 4)]])
    half_dy = halve(identity(DY1))
    for n in range(1, 6):
        iterate = midpoint_recursion(quarter, n)
        gap = operator_distance(iterate, half_dy, LINF1)
        assert gap <= Fraction(1, 2) ** (2 ** (n - 1))
        assert iterate == midpoint_closed_form(quarter, n)
    report(5, "recursion and closed form agree; dyadic gap within 2^-(2^(n-1))")


def _draw_rct_instance(rng):
    dim = rng.randint(1, 2)
    g = DyadicLattice(dim)
    metric = LinfMetric((Fraction(1),) * dim)
    lo = [Fraction(rng.randint(-8, 4), 4) for _ in range(dim)]
    hi = [a + Fraction(rng.randint(0, 8), 4) for a in lo]
    B = box_set(g, lo, hi)
    C = finite_set(
        g,
        [
            [Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 2)) for _ in range(dim)]
            for _ in range(rng.randint(1, 3))
        ],
    )
    A = finite_set(g, [sample(B, rng) for _ in range(rng.randint(1, 3))])
    return Instance(g, metric, sets={"A": A, "B": B, "C": C}, params=Params(n0=2))


def test_criterion_06_cancellation_harness():
    """Hypothesis-satisfying instances always cancel; search stays unfalsified."""
    start = time.perf_counter()
    rng = random.Random(606)
    for _ in range(1000):
        inst = _draw_rct_instance(rng)
        assert mu_of_n(inst.group, inst.metric, 2) == 2
        verdict = verify(PropertyId.THM_RCT, inst)  # hypotheses hold by construction
        assert verdict.proved
    search = counterexample_search(
        PropertyId.THM_RCT, GeneratorConfig(family="dyadic"), budget=10 ** 4, seed=42
    )
    assert search.unfalsified and search.samples == 10 ** 4
    with pytest.raises(GeneratorExhausted) as err:
        counterexample_search(
            PropertyId.THM_RCT, GeneratorConfig(family="finite"), budget=10, seed=0
        )
    assert "mu_d(n) <= 1" in str(err.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    report(6, f"1000 verified + 10^4 searched in {elapsed:.1f} s")


def _oracle_min_superset(modulus, seed, t):
    best = None
    for r in range(modulus + 1):
        for combo in itertools.combinations(range(modulus), r):
            candidate = set(combo)
            if not seed <= candidate:
                continue
            if all(
                (t * x + (1 - t) * y) % modulus in candidate
                for x in candidate
                for y in candidate
            ):
                if best is None or len(candidate) < len(best):
                    best = candidate
    return best


def test_criterion_07_hull_minimality():
    """Fixed-point hulls equal brute-force minimal convex supersets."""
    start = time.perf_counter()
    for t in range(6):
        T = scaling(Z6, t)
        for r in range(7):
            for combo in itertools.combinations(range(6), r):
                if not combo:
                    continue
                seed = set(combo)
                hull, complete = convex_hull(
                    finite_set(Z6, [[c] for c in combo]), [T]
                )
                assert complete
                expected = _oracle_min_superset(6, seed, t)
                assert {e[0] for e in hull.elements} == expected
    big_hull, complete = convex_hull(finite_set(Z9, [[0], [1]]), [scaling(Z9, 5)])
    assert complete and big_hull == finite_set(Z9, Z9.elements())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    report(7, f"63 seeds x 6 families match brute force in {elapsed:.1f} s")


def test_criterion_08_family_closure_exhaustive():
    """Family closure laws hold for every one of the 512 subsets of Z9."""
    start = time.perf_counter()
    ident = identity(Z9)
    elems = list(Z9.elements())
    checks = 0
    for r in range(10):
        for combo in itertools.combinations(elems, r):
            D = finite_set(Z9, combo)
            members = frozenset(family_of(D))
            assert zero(Z9) in members and ident in members
            for T in members:
                assert ident.sub(T) in members
                checks += 1
                for T1 in members:
                    assert T.compose(T1) in members
                    mixed = T.compose(T1).add(ident.sub(T).compose(ident.sub(T1)))
                    assert mixed in members
                    checks += 2
                    for T2 in members:
                        combo_endo = T.compose(T1).add(ident.sub(T).compose(T2))
                        assert combo_endo in members
                        checks += 1
    assert verify(PropertyId.THM_P1, Instance(Z9, CYC1)).proved
    assert verify(PropertyId.COR_1, Instance(Z9, CYC1)).proved
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f} s"
    report(8, f"512 subsets, {checks} closure checks, zero violations in {elapsed:.1f} s")


def test_criterion_09_structural_closure_suite():
    """Intersection, chain union, sumset, image and preimage closures hold."""
    instances = [
        Instance(Z6, CYC1, endos={"T1": scaling(Z6, 3), "T2": scaling(Z6, 4)}),
        Instance(Z6, CYC1, endos={"T1": scaling(Z6, 2)}),
        Instance(Z9, CYC1, endos={"T1": scaling(Z9, 5)}),
        Instance(Z9, CYC1, endos={"T1": scaling(Z9, 3), "T2": scaling(Z9, 7)}),
    ]
    for inst in instances:
        assert verify(PropertyId.THM_0, inst).proved
    report(9, "closure suite exhaustive over all subsets of Z6 and Z9")


def test_criterion_10_radius_dichotomy():
    """Exact finite-group radius matches the cycle-detection oracle."""

    def oracle(T):
        seen = set()
        power = T
        while power not in seen:
            if power.is_zero:
                return 0
            seen.add(power)
            power = power.compose(T)
        return 1

    for group in (Z9, Z12):
        for T in all_endomorphisms(group):
            bracket = spectral_radius(T, CYC1)
            assert bracket.exact
            assert bracket.value in (0, 1)
            assert bracket.value == oracle(T)
    report(10, "dichotomy matches the horizon-free oracle on Z9 and Z12")


def image_box(T, D):
    """Image of a box through a diagonal unit-or-zero map, as a box."""
    diag = [T.matrix[i][i] for i in range(T.group.dim)]
    lo = [min(t * a, t * b) for t, a, b in zip(diag, D.lo, D.hi)]
    hi = [max(t * a, t * b) for t, a, b in zip(diag, D.lo, D.hi)]
    return box_set(T.group, lo, hi)


def grid_sum_outside(family, D):
    """Grid oracle for T_1(D) + ... + T_k(D) inside (T_1 + ... + T_k)(D).

    Each summand ranges over every combination of the corners, midpoints and
    quarter points of the box D; a sum lies in the image of D when the
    inverse of the summed map sends it into D.  Returns the first sum (in
    sorted order) outside the image, or None.
    """
    g = D.group
    axes = [[a + (b - a) * Fraction(q, 4) for q in range(5)] for a, b in zip(D.lo, D.hi)]
    grid = [g.element(point) for point in itertools.product(*axes)]
    inverse = try_inverse(reduce(lambda a, b: a.add(b), family))
    sums = {g.zero()}
    for T in family:
        images = {T.apply(x) for x in grid}
        sums = {g.add(s, y) for s in sums for y in images}
    for point in sorted(sums):
        preimage = inverse.apply(point)
        if not all(a <= c <= b for a, c, b in zip(D.lo, preimage, D.hi)):
            return point
    return None


def test_criterion_11_sum_inclusion_on_boxes():
    """Sum inclusion is decided exactly on boxes and matches a grid oracle."""
    D = box_set(DY1, [0], [1])
    half = halve(identity(DY1))
    inst = Instance(
        DY1, LINF1, endos={"T1": half, "T2": half}, sets={"D": D}, params=Params(n0=2)
    )
    assert verify(PropertyId.THM_NK, inst).proved
    assert verify(PropertyId.THM_NK_PLUS, inst).proved
    lhs = sumset(image_box(half, D), image_box(half, D))
    rhs = image_box(half.add(half), D)
    assert lhs == rhs == box_set(DY1, [0], [1])  # inclusion holds with equality
    nkc2 = verify(PropertyId.COR_NKC2, inst)
    assert nkc2.proved and nkc2.witness[0] == half
    assert is_T_convex(D, nkc2.witness[0]).proved

    # the oracle sees a violation: [0, 1] + [0, 1] - [0, 1] leaves [0, 1]
    plus, minus = identity(DY1), make_endo(DY1, [[-1]])
    assert grid_sum_outside([plus, plus, minus], D) == (Fraction(-1),)

    rng = random.Random(1111)
    entries = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    verified = 0
    decided = 0
    non_unit = 0
    for _ in range(100):
        dim = rng.randint(1, 2)
        g = DyadicLattice(dim)
        metric = LinfMetric((Fraction(1),) * dim)
        lo = [Fraction(rng.randint(-4, 2), 2) for _ in range(dim)]
        hi = [a + Fraction(rng.randint(0, 6), 2) for a in lo]
        box = box_set(g, lo, hi)
        endos = {}
        for i in range(rng.randint(2, 3)):
            rows = [
                [entries[rng.randrange(5)] if r == c else 0 for c in range(dim)]
                for r in range(dim)
            ]
            endos[f"T{i + 1}"] = make_endo(g, rows)
        drawn = Instance(g, metric, endos=endos, sets={"D": box}, params=Params(n0=2))
        # the closure variant is always applicable; the exact variant only
        # when one of its closed-image hypotheses holds
        assert verify(PropertyId.THM_NK, drawn).proved
        verified += 1
        try:
            verdict = verify(PropertyId.THM_NK_PLUS, drawn)
        except HypothesisFailed:
            continue  # e.g. a non-invertible endomorphism sum
        verified += 1
        family = list(endos.values())
        assert grid_sum_outside(family, box) is None
        assert verdict.proved, (endos, box, verdict)
        decided += 1
        # 3/4 is the one drawn entry that is not a dyadic unit (+-2^k)
        non_unit += any(T.matrix[i][i] == Fraction(3, 4) for T in family for i in range(dim))
    assert verified >= 100
    assert decided >= 20 and non_unit >= 5, (decided, non_unit)
    report(
        11,
        f"box inclusion exact with equality; {verified} checks Proved, "
        f"{decided} THM_NK_PLUS verdicts ({non_unit} non-unit) match the grid oracle",
    )
