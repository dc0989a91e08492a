"""The property catalogue: one section per structural result of the paper.

Each section, in ``PropertyId`` order, holds its checker, its instance
drawer and its spec row.  The rows, which each section appends to
``_TABLE``, are the one list of properties: ``PropertyId`` is built from
them.  A row also holds the preconditions that ``theorems.verify`` and the
search read (an expansive scalar n0, the full endomorphism ring, a pairwise
operator statement).  Adding a property means adding one section.

A checker first validates its own hypotheses and raises
:class:`HypothesisFailed` naming the violated one; only then does it test
the conclusion, so a hypothesis violation is never conflated with a
refutation.  Refutations of true statements signal an implementation bug
and carry a minimal witness.

This module loads on first use, from ``theorems.verify``,
``theorems.counterexample_search`` and ``theorems.PropertyId``, so the
commands that check no property never compile it.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce

from . import convexity as cx
from . import endo as en
from .convexity import BoxSet, FiniteSet, PointSet
from .endo import Endomorphism, _exceeds, _gap, _plus, _times
from .errors import (
    GeneratorExhausted,
    HypothesisFailed,
    NotEnumerable,
    RhoNotCertifiedBelowOne,
    SNotInvertible,
    UnsupportedRepresentation,
)
from .groups import DyadicLattice, FiniteGroup, Group, IntLattice, Metric, _PAIR_CAP, _check_cap
from .theorems import _MAX_FACTORS, _MODULI_RANGE, Instance, PropertySpec
from .verdicts import Verdict, proved, refuted

# bound for the natural-number specialization of the measure inequalities
_NAT_SPAN = 20
# largest finite group enumerated subset-exhaustively
_SUBSET_CAP = 9
# the drawers' lattice matrix entries and the size of a drawn finite set
_ENTRY_RANGE = (-3, 3)
_SET_SIZE = (1, 4)


# the spec rows, one per property, in the order of the sections below
_TABLE: list[PropertySpec] = []


def _row(name: str, draw, **flags):
    """Append the decorated checker's spec row to ``_TABLE``."""
    def add(check):
        _TABLE.append(PropertySpec(name, check, draw, **flags))
        return check
    return add


# -- Shared by several sections: named parts of an instance, and draws --------
def _endo_universe(inst: Instance) -> list[Endomorphism]:
    """The named maps, or else End(G), which ``all_endomorphisms`` may refuse."""
    return list(inst.endos.values()) or list(en.all_endomorphisms(inst.group))


def _named_set(inst: Instance, name: str) -> PointSet:
    if name not in inst.sets:
        raise HypothesisFailed(f"set {name!r} is provided")
    return inst.sets[name]


def _named_endo(inst: Instance, name: str) -> Endomorphism:
    if name in inst.endos:
        return inst.endos[name]
    if name == "T" and len(inst.endos) == 1:
        return next(iter(inst.endos.values()))
    raise HypothesisFailed(f"endomorphism {name!r} is provided")


def _candidate_sets(inst: Instance) -> list[PointSet]:
    """The named sets in ``inst.sets`` order, or else every subset of a small finite group."""
    if inst.sets:
        return list(inst.sets.values())
    g = inst.group
    if not isinstance(g, FiniteGroup):
        raise NotEnumerable("lattice instances must name their sets explicitly")
    _check_cap(f"subset-exhaustive mode on {g}", g.order, "elements", _SUBSET_CAP)
    elems = list(g.elements())  # canonical points in sorted order: each combination is a set
    combos = (c for r in range(len(elems) + 1) for c in itertools.combinations(elems, r))
    return [FiniteSet(g, c) for c in combos]


def _diagonal(T: Endomorphism) -> tuple | None:
    n = T.group.dim
    for i in range(n):
        for j in range(n):
            if i != j and T.matrix[i][j] != 0:
                return None
    return tuple(T.matrix[i][i] for i in range(n))


def _draw_endo(group: Group, rng: random.Random) -> Endomorphism:
    n = group.dim
    if isinstance(group, FiniteGroup):
        return en.endomorphism_at(group, rng.randrange(en.ring_size(group)))
    if isinstance(group, IntLattice):
        return en.make_endo(group, [[rng.randint(*_ENTRY_RANGE) for _ in range(n)] for _ in range(n)])
    rows = [[Fraction(rng.randint(*_ENTRY_RANGE), 1 << rng.randint(0, 2)) for _ in range(n)]
            for _ in range(n)]
    return en.make_endo(group, rows)


def _draw_endos(group: Group, rng: random.Random) -> dict:
    return {f"T{i + 1}": _draw_endo(group, rng) for i in range(rng.randint(1, 3))}


def _draw_endo_until(group, rng, accept, attempts: int = 200) -> Endomorphism:
    for _ in range(attempts):
        T = _draw_endo(group, rng)
        if accept(T):
            return T
    raise GeneratorExhausted("could not satisfy the hypotheses within the retry budget")


def _below_one(T: Endomorphism, metric: Metric) -> bool:
    return en.spectral_radius(T, metric, 4).certified_below_one


def _unit_box_diag(group: Group, rng: random.Random) -> Endomorphism:
    choices = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    n = group.dim
    rows = [[choices[rng.randrange(len(choices))] if i == j else 0 for j in range(n)] for i in range(n)]
    return en.make_endo(group, rows)


def _draw_point(group: Group, rng: random.Random) -> list:
    if isinstance(group, FiniteGroup):
        return [rng.randrange(m) for m in group.moduli]
    if isinstance(group, IntLattice):
        return [rng.randint(-3, 3) for _ in range(group.dim)]
    return [Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 2)) for _ in range(group.dim)]


def _draw_finite_set(group: Group, rng: random.Random) -> FiniteSet:
    size = rng.randint(*_SET_SIZE)
    return cx.finite_set(group, [_draw_point(group, rng) for _ in range(size)])


def _draw_box(group: DyadicLattice, rng: random.Random) -> BoxSet:
    lo, hi = [], []
    for _ in range(group.dim):
        a = Fraction(rng.randint(-8, 4), 4)
        lo.append(a)
        hi.append(a + Fraction(rng.randint(0, 8), 4))
    return cx.box_set(group, lo, hi)


def _draw_operators(group, metric, rng):
    return _draw_endos(group, rng), {}


def _draw_operators_and_set(group, metric, rng):
    return _draw_endos(group, rng), {"D1": _draw_finite_set(group, rng)}


def _draw_set(group, metric, rng):
    """A set D; THM_P1 and COR_1 list F(D), so a lattice is refused before ``rng`` is read."""
    if not isinstance(group, FiniteGroup):
        raise GeneratorExhausted("the full endomorphism ring must be enumerable")
    return {}, {"D": _draw_finite_set(group, rng)}


# -- Shared by LEMMA_MU, COR_MU and LEMMA_SR: one walk over ordered pairs -----
# ``en._ring`` gives every map a handle and its bounds as (num, den) int
# pairs, on a finite group and on a lattice alike, so each inequality is
# written once, as an integer cross-multiplication (``endo._exceeds``).
def _pairs(inst: Instance, limit: int | None) -> tuple:
    """The ring view, the universe's first ``limit`` maps as (map, handle)
    items and its first ``limit`` ordered pairs in product order, which touch
    no other map; a ``limit`` of None takes them all."""
    ring = en._ring(inst.group, inst.metric)
    items = [(T, ring.handle(T)) for T in itertools.islice(_endo_universe(inst), limit)]
    return ring, items, itertools.islice(itertools.product(items, items), limit)


# -- LEMMA_MU: supermultiplicativity and Lipschitz bounds of the measure ------
@_row("LEMMA_MU", _draw_operators, pairwise=True)
def _check_lemma_mu(inst: Instance, pairs: int | None = None) -> Verdict:
    """Supermultiplicativity and Lipschitz bounds of the injectivity measure."""
    ring, _, walk = _pairs(inst, pairs)
    failure = _measure_failure(ring, walk, lambda T, S, t, s: ring.norm(ring.sub(t, s)))
    if failure is None:
        failure = _scalar_specialization(inst.group, inst.metric)
    return proved() if failure is None else refuted(failure)


def _measure_failure(ring, pairs, distance) -> tuple | None:
    """The first (label, T, S) of ``pairs`` that breaks a measure inequality.

    ``distance(T, S, t, s)`` is the pair that bounds |mu(T) - mu(S)|.
    """
    for (T, t), (S, s) in pairs:
        mu_t, mu_s = ring.measure(t), ring.measure(s)
        composed = ring.compose(t, s)
        if _exceeds(_times(mu_t, ring.norm(s)), ring.norm(composed)):
            return ("norm supermultiplicativity", T, S)
        if _exceeds(_times(mu_t, mu_s), ring.measure(composed)):
            return ("measure supermultiplicativity", T, S)
        if _exceeds(_gap(mu_t, mu_s), distance(T, S, t, s)):
            return ("Lipschitz bound", T, S)
    return None


@lru_cache(maxsize=None)
def _scalar_specialization(g: Group, m: Metric) -> tuple | None:
    """The measure inequalities on the maps x -> n*x, at distance |n - k|."""
    ring = en._ring(g, m)
    items = [(n, ring.handle(en.scaling(g, n))) for n in range(1, _NAT_SPAN + 1)]
    failure = _measure_failure(ring, itertools.product(items, items), lambda n, k, *_: (abs(n - k), 1))
    return None if failure is None else ("scalar " + failure[0],) + failure[1:]


# -- COR_MU: maps of positive measure form an open semigroup ------------------
@_row("COR_MU", _draw_operators, pairwise=True)
def _check_cor_mu(inst: Instance, pairs: int | None = None) -> Verdict:
    """Operators of positive measure form an open multiplicative semigroup."""
    ring, _, walk = _pairs(inst, pairs)
    for (T, t), (S, s) in walk:
        mu_t = ring.measure(t)
        if mu_t[0] <= 0:
            continue
        positive = ring.measure(s)[0] > 0
        if positive and ring.measure(ring.compose(t, s))[0] <= 0:
            return refuted(("semigroup closure", T, S))
        if not positive and _exceeds(mu_t, ring.norm(ring.sub(t, s))):
            return refuted(("openness", T, S))
    return proved()


# -- LEMMA_NX: images of bounded sets -----------------------------------------
@_row("LEMMA_NX", _draw_operators_and_set)
def _check_lemma_nx(inst: Instance) -> Verdict:
    """Bounded sets map to bounded sets; injective maps preserve cardinality."""
    m = inst.metric
    universe = _endo_universe(inst)
    finite_sets = [D for D in inst.sets.values() if isinstance(D, FiniteSet) and D.elements]
    if not finite_sets:
        raise HypothesisFailed("at least one nonempty finite set is provided")
    for T in universe:
        bound = en.op_norm(T, m)
        for D in finite_sets:
            image = cx.image_set(D, T)
            if cx.diameter(image, m) > bound * cx.diameter(D, m):
                return refuted(("diameter bound", T, D))
            if en.injectivity_measure(T, m) > 0 and len(image) != len(D):
                return refuted(("injective image cardinality", T, D))
    return proved()


# -- THM_RCT: Radstrom cancellation -------------------------------------------
def _draw_thm_rct(group, metric, rng):
    if isinstance(group, DyadicLattice):
        B = _draw_box(group, rng)
    else:
        B = cx.finite_set(group, [[rng.randint(-2, 2) for _ in range(group.dim)]])
    C = _draw_finite_set(group, rng)
    inner = random.Random(rng.randrange(2 ** 30))
    size = rng.randint(*_SET_SIZE)
    A = cx.finite_set(group, [cx.sample(B, inner) for _ in range(size)])
    return {}, {"A": A, "B": B, "C": C}


@_row("THM_RCT", _draw_thm_rct, expansive=True)
def _check_thm_rct(inst: Instance) -> Verdict:
    """Cancellation: from A+C inside B+C conclude A inside B."""
    params, g = inst.params, inst.group
    A, B, C = (_named_set(inst, name) for name in "ABC")
    if not isinstance(A, FiniteSet) or not isinstance(C, FiniteSet):
        raise UnsupportedRepresentation("A and C must be explicit finite sets")
    if cx.is_empty(C):
        raise HypothesisFailed("C is nonempty")
    if not cx.is_n_convex(B, params.n0).proved:
        raise HypothesisFailed(f"B is n0-convex (n0={params.n0})")
    for a in A.elements:
        for c in C.elements:
            if not cx.member_of_sum(g.add(a, c), B, C):
                raise HypothesisFailed("A+C is included in B+C")
    for a in A.elements:
        if not cx.contains(B, a):
            return refuted((a,))
    return proved()


# -- LEMMA_SR: measure, spectral radius and norm ------------------------------
@_row("LEMMA_SR", _draw_operators, pairwise=True)
def _check_lemma_sr(inst: Instance, pairs: int | None = None) -> Verdict:
    """Ordering of measure, spectral radius and norm; commuting-pair bounds."""
    horizon = inst.params.horizon
    ring, items, walk = _pairs(inst, pairs)
    for T, t in items:
        upper = ring.radius(t, horizon)
        if _exceeds(ring.measure(t), upper):
            return refuted(("measure below radius", T))
        if _exceeds(upper, ring.norm(t)):
            return refuted(("radius below norm", T))
    if isinstance(inst.group, FiniteGroup):
        # radii are exact here, so the commuting-pair bounds compare values
        for (T, t), (S, s) in walk:
            composed = ring.compose(t, s)
            if composed != ring.compose(s, t):
                continue
            rho_t, rho_s = ring.radius(t, horizon), ring.radius(s, horizon)
            if _exceeds(ring.radius(ring.add(t, s), horizon), _plus(rho_t, rho_s)):
                return refuted(("subadditivity of the radius", T, S))
            rho_ts = ring.radius(composed, horizon)
            if _exceeds(_times(ring.measure(t), rho_s), rho_ts):
                return refuted(("measure-radius supermultiplicativity", T, S))
            if _exceeds(rho_ts, _times(rho_t, rho_s)):
                return refuted(("submultiplicativity of the radius", T, S))
    return proved()


# -- THM_NIT: the Neumann series inverts I - T --------------------------------
def _require_complete(group: Group) -> None:
    if not group.complete:
        raise GeneratorExhausted("the dyadic lattice is not complete")


def _draw_nilpotent(group: Group, rng: random.Random) -> Endomorphism:
    """A strictly upper-triangular lattice matrix, so its radius is zero."""
    n = group.dim
    rows = [[rng.randint(*_ENTRY_RANGE) if j > i else 0 for j in range(n)] for i in range(n)]
    return en.make_endo(group, rows)


def _draw_thm_nit(group, metric, rng):
    _require_complete(group)
    if isinstance(group, FiniteGroup):
        T = _draw_endo_until(group, rng, lambda T: _below_one(T, metric))
    else:
        T = _draw_nilpotent(group, rng)
    return {"T": T}, {}


@_row("THM_NIT", _draw_thm_nit)
def _check_thm_nit(inst: Instance) -> Verdict:
    """I - T inverts through the geometric series when the radius is below one."""
    if not inst.endos:
        raise HypothesisFailed("an endomorphism to invert is provided")
    if not inst.group.complete:
        raise HypothesisFailed("the group is complete")
    inverses = []
    for name, T in inst.endos.items():
        try:
            series = en.neumann_inverse(T, inst.metric)
        except RhoNotCertifiedBelowOne as err:
            raise HypothesisFailed(f"spectral radius of {name} is certified below one") from err
        if not en.inverts(en.identity(inst.group).sub(T), series):
            return refuted((name, series))
        inverses.append(series)
    return proved(witness=tuple(inverses))


# -- COR_NIT: S - T inverts for a small relative perturbation T ---------------
def _draw_cor_nit(group, metric, rng):
    _require_complete(group)
    if isinstance(group, FiniteGroup):
        S = _draw_endo_until(group, rng, lambda S: en.try_inverse(S) is not None)
        s_inv = en.try_inverse(S)
        T = _draw_endo_until(
            group, rng,
            lambda T: _below_one(T.compose(s_inv), metric) or _below_one(s_inv.compose(T), metric),
        )
    else:
        S = en.identity(group)
        T = _draw_nilpotent(group, rng)
    return {"S": S, "T": T}, {}


@_row("COR_NIT", _draw_cor_nit)
def _check_cor_nit(inst: Instance) -> Verdict:
    """S - T inverts when S does and the relative perturbation is small."""
    if not inst.group.complete:
        raise HypothesisFailed("the group is complete")
    S = _named_endo(inst, "S")
    T = _named_endo(inst, "T")
    try:
        result = en.shifted_inverse(S, T, inst.metric)
    except SNotInvertible as err:
        raise HypothesisFailed("S is invertible with a representable inverse") from err
    except RhoNotCertifiedBelowOne as err:
        raise HypothesisFailed("one of rho(T S^-1), rho(S^-1 T) is certified below one") from err
    if not en.inverts(S.sub(T), result):
        return refuted((result,))
    return proved(witness=(result,))


# -- THM_0: operations that keep sets convex ----------------------------------
def _draw_thm_0(group, metric, rng):
    endos = _draw_endos(group, rng)
    family = list(endos.values())
    seed_set = _draw_finite_set(group, rng)
    endos["A"] = en.scaling(group, rng.randint(0, 6))  # commutes with all
    if isinstance(group, FiniteGroup):
        # family-convex sets are produced by closing a random seed
        D1, complete = cx.convex_hull(seed_set, family, max_iter=40)
        if not complete:
            raise GeneratorExhausted("hull iteration did not close")
    else:
        # singletons are family-convex for any endomorphisms
        rng_pts = random.Random(rng.randrange(2 ** 30))
        single = _draw_finite_set(group, rng_pts).elements[:1]
        D1 = cx.finite_set(group, single)
    return endos, {"D1": D1}


# a default search draws one cyclic factor: the checker's cost grows with the
# cube of the order
@_row("THM_0", _draw_thm_0, finite_group=lambda rng: FiniteGroup((rng.randint(4, 9),)))
def _check_thm_0(inst: Instance) -> Verdict:
    """Convex sets are closed under intersection, chain union, addition,
    and images/preimages through commuting endomorphisms."""
    family = [T for name, T in inst.endos.items() if name != "A"]
    if not family:
        raise HypothesisFailed("a nonempty family of endomorphisms is provided")
    g = inst.group

    convex_sets: list[PointSet] = []
    for name, D in itertools.zip_longest(inst.sets, _candidate_sets(inst)):
        verdict = cx.is_family_convex(D, family)
        if verdict.proved:
            convex_sets.append(D)
        elif name is not None:
            raise HypothesisFailed(f"set {name!r} is family-convex")

    # (i) empty set, whole space, singletons
    if not cx.is_family_convex(cx.finite_set(g, ()), family).proved:
        return refuted(("empty set",))
    if isinstance(g, FiniteGroup):
        _check_cap(f"the whole space of {g}", g.order ** 2, "pairs", _PAIR_CAP)
        whole = cx.finite_set(g, g.elements())
        if not cx.is_family_convex(whole, family).proved:
            return refuted(("whole space",))
        singleton_pool = list(g.elements())
    else:
        # a fixed pool: 0, the unit vectors and the corners of [-2, 2]^n
        n = g.dim
        singleton_pool = [g.zero()]
        singleton_pool += [g.element([int(i == j) for j in range(n)]) for i in range(n)]
        singleton_pool += [g.element(c) for c in itertools.product((-2, 2), repeat=n)]
    for x in singleton_pool:
        if not cx.is_family_convex(cx.finite_set(g, [x]), family).proved:
            return refuted(("singleton", x))

    # (ii) intersections; a finite chain's union is its largest member, proved convex above
    for D1, D2 in itertools.combinations(convex_sets, 2):
        meet = cx.intersect(D1, D2)
        if not cx.is_family_convex(meet, family).proved:
            return refuted(("intersection", D1, D2))

    # (iii) algebraic addition
    for D1, D2 in itertools.combinations_with_replacement(convex_sets, 2):
        if isinstance(D1, FiniteSet) != isinstance(D2, FiniteSet):
            continue
        total = cx.sumset(D1, D2)
        if not cx.is_family_convex(total, family).proved:
            return refuted(("sumset", D1, D2))

    # (iv) images and preimages through a commuting endomorphism, compared on handles
    if "A" in inst.endos:
        candidates = [inst.endos["A"]]
    elif isinstance(g, FiniteGroup):
        candidates = en.all_endomorphisms(g) if g.order <= 16 else [
            en.scaling(g, n) for n in range(max(g.moduli))
        ]
    else:
        candidates = []
    view = en._ring(g, inst.metric)
    handles = [view.handle(T) for T in family]
    commuting = [A for A, a in zip(candidates, map(view.handle, candidates))
                 if all(view.compose(a, t) == view.compose(t, a) for t in handles)]
    if "A" in inst.endos and not commuting:
        raise HypothesisFailed("A commutes with every family member")
    for A in commuting:
        for D in convex_sets:
            if not isinstance(D, FiniteSet):
                continue
            if not cx.is_family_convex(cx.image_set(D, A), family).proved:
                return refuted(("image", A, D))
            if isinstance(g, FiniteGroup):
                pre = cx.preimage_set(D, A)
                if not cx.is_family_convex(pre, family).proved:
                    return refuted(("preimage", A, D))
    return proved()


# -- LEM_TC: the pair test and the translate test agree -----------------------
@_row("LEM_TC", _draw_operators_and_set)
def _check_lem_tc(inst: Instance) -> Verdict:
    """The pair test and the translate test for convexity agree."""
    universe = _endo_universe(inst)
    candidates = [D for D in _candidate_sets(inst) if isinstance(D, FiniteSet)]
    if not candidates:
        raise HypothesisFailed("at least one finite set is provided")
    for D in candidates:
        for T in universe:
            # only the two decisions are compared, so no pointwise witness is built
            if cx.is_T_convex(D, T).proved is (cx._pointwise_failure(D, T) is not None):
                return refuted((D, T))
    return proved()


# -- THM_P1: F(D) is closed under its own combinations ------------------------
@_row("THM_P1", _draw_set)
def _check_thm_p1(inst: Instance) -> Verdict:
    """The family of a set is convex under its own induced combinations."""
    ring = en._ring(inst.group, inst.metric)
    ident = ring.handle(en.identity(inst.group))
    for D in _candidate_sets(inst):
        family = {ring.handle(T): T for T in frozenset(cx.family_of(D))}
        members, maps = frozenset(family), list(family.values())
        for t, T in family.items():
            # T∘T1 + (I - T)∘T2, with each composition made once per map
            heads, tails = ([ring.compose(u, s) for s in family] for u in (t, ring.sub(ident, t)))
            failure = cx._first_failure(heads, tails, members, ring.add)
            if failure is not None:
                return refuted((D, T, *map(maps.__getitem__, failure)))
    return proved()


# -- COR_1: F(D) under composition, reflection and pair mixing ----------------
@_row("COR_1", _draw_set)
def _check_cor_1(inst: Instance) -> Verdict:
    """Families are closed under composition, reflection and pair mixing."""
    ring = en._ring(inst.group, inst.metric)
    ident = ring.handle(en.identity(inst.group))
    for D in _candidate_sets(inst):
        family = {ring.handle(T): T for T in frozenset(cx.family_of(D))}
        reflections = {t: ring.sub(ident, t) for t in family}
        for t, T in family.items():
            if reflections[t] not in family:
                return refuted(("reflection", D, T))
            for s, S in family.items():
                product = ring.compose(t, s)
                if product not in family:
                    return refuted(("composition", D, T, S))
                mixed = ring.add(product, ring.compose(reflections[t], reflections[s]))
                if mixed not in family:
                    return refuted(("pair mixing", D, T, S))
    return proved()


# -- THM_2: the midpoint recursion and midpoint convexity ---------------------
def _draw_thm_2(group, metric, rng):
    if isinstance(group, FiniteGroup):
        if not group.divisible_by(2):
            raise GeneratorExhausted("the pinned group is not 2-divisible")
        ident = en.identity(group)
        T = _draw_endo_until(
            group, rng, lambda T: _below_one(T.scale(2).sub(ident), metric), attempts=400
        )
        hull, _ = cx.convex_hull(_draw_finite_set(group, rng), [T])
        return {"T": T}, {"D": hull}
    if isinstance(group, IntLattice):
        raise GeneratorExhausted("the integer lattice is not 2-divisible")
    T = _unit_box_diag(group, rng)
    if any(t in (0, 1) for t in _diagonal(T)):
        T = en.halve(en.identity(group))
    return {"T": T}, {"D": _draw_box(group, rng)}


def _odd_order_group(rng: random.Random) -> FiniteGroup:
    """A default search's group: odd moduli, so it is uniquely 2-divisible."""
    odd = [m for m in range(_MODULI_RANGE[0], _MODULI_RANGE[1] + 1) if m % 2 == 1]
    count = rng.randint(1, _MAX_FACTORS)
    return FiniteGroup(tuple(odd[rng.randrange(len(odd))] for _ in range(count)))


@_row("THM_2", _draw_thm_2, finite_group=_odd_order_group)
def _check_thm_2(inst: Instance) -> Verdict:
    """The midpoint recursion stays inside the family and collapses to I/2."""
    g, m, params = inst.group, inst.metric, inst.params
    T = _named_endo(inst, "T")
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
            ring = en._ring(g, m)  # G is uniquely 2-divisible, so I - I/2 = I/2
            family = {ring.handle(T): T for T in frozenset(cx.family_of(D))}
            halves = list(map(ring.compose, itertools.repeat(ring.handle(half_identity)), family))
            failure = cx._first_failure(halves, halves, frozenset(family), ring.add)
            if failure is not None:
                R, S = map(list(family.values()).__getitem__, failure)
                return refuted(("family midpoint convexity", name, R, S))
    return proved()


# -- THM_NK: sum inclusion up to closure --------------------------------------
def _draw_sum_box(group: Group, rng: random.Random) -> BoxSet:
    if not isinstance(group, DyadicLattice):
        raise GeneratorExhausted(
            "box instances for sum-inclusion properties use the dyadic lattice"
        )
    return _draw_box(group, rng)


def _draw_thm_nk(group, metric, rng):
    D = _draw_sum_box(group, rng)
    endos = {f"T{i + 1}": _unit_box_diag(group, rng) for i in range(rng.randint(2, 3))}
    return endos, {"D": D}


@_row("THM_NK", _draw_thm_nk, expansive=True)
def _check_thm_nk(inst: Instance) -> Verdict:
    """T1(D) + ... + Tk(D) lies in the closure of (T1 + ... + Tk)(D)."""
    return _sum_inclusion(inst, with_closure=True)


def _nk_hypotheses(inst: Instance, need_closed_conclusion: bool):
    g, m, params = inst.group, inst.metric, inst.params
    D = _named_set(inst, "D")
    if not inst.endos:
        raise HypothesisFailed("a family T_1..T_n is provided")
    family = list(inst.endos.values())
    if not cx.is_n_convex(D, params.n0).proved:
        raise HypothesisFailed(f"D is n0-convex (n0={params.n0})")
    for name, T in inst.endos.items():
        if not cx.is_T_convex(D, T).proved:
            raise HypothesisFailed(f"endomorphism {name!r} makes D convex")
    total = reduce(lambda a, b: a.add(b), family)
    if need_closed_conclusion:
        # closedness of the image set: compactness of D, completeness with
        # positive measure, or a closed image through a lattice automorphism.
        closed = (
            isinstance(D, FiniteSet)
            or (g.complete and en.injectivity_measure(total, m) > 0)
            or en.try_inverse(total) is not None
        )
        if not closed:
            raise HypothesisFailed(
                "one of: D compact, X complete with mu(sum) > 0, sum image closed"
            )
    elif not (g.complete or g.divisible_by(params.n0)):
        raise HypothesisFailed("the group is complete or n0*X is closed")
    return D, family, total


def _sum_inclusion(inst: Instance, with_closure: bool) -> Verdict:
    D, family, total = _nk_hypotheses(inst, need_closed_conclusion=not with_closure)
    g = inst.group
    if isinstance(g, IntLattice) and isinstance(D, BoxSet):
        D = cx.finite_set(g, cx._box_points(D))  # a box of Z^n is a finite set
    if isinstance(D, FiniteSet):
        lhs = reduce(cx.sumset, (cx.image_set(D, T) for T in family))
        rhs = cx.image_set(D, total)
        for point in lhs.elements:
            if not cx.contains(rhs, point):
                return refuted((point,))
        return proved()

    if any(_diagonal(T) is None for T in family):
        raise UnsupportedRepresentation("box instances require diagonal endomorphisms")
    # D is a dyadic box and every map is diagonal, so the right side is every
    # dyadic point of the box [rhs_lo, rhs_hi].  With closure, because a
    # nonzero dyadic multiple of the lattice is dense in the reals; without
    # it, because the lattice is not complete, so the closed-image hypothesis
    # held only through try_inverse(total) and every diagonal entry of the
    # sum is +-2^k.  Corner points reach both ends of the left side's box
    # [lhs_lo, lhs_hi], where coordinate i is the form (T1_i | T2_i | ...) on
    # D^k, so the inclusion holds exactly when the two boxes nest.  D is
    # scaled to ints once and the family and the total together, so both
    # sides' bounds are ints on one scale.
    k, n = len(family), g.dim
    (L, H), _ = en._scaled((D.lo, D.hi))
    M, _ = en._scaled([row for T in (*family, total) for row in T.matrix])
    maps = [M[t:t + n] for t in range(0, len(M), n)]
    lhs_lo, lhs_hi = zip(*(
        cx.linear_bounds(sum(rows, []), L * k, H * k) for rows in zip(*maps[:k])
    ))
    rhs_lo, rhs_hi = zip(*(cx.linear_bounds(row, L, H) for row in maps[k]))
    if any(lh > rh for lh, rh in zip(lhs_hi, rhs_hi)):
        return refuted(_extreme_witness(g, D, family, maximize=True))
    if any(ll < rl for ll, rl in zip(lhs_lo, rhs_lo)):
        return refuted(_extreme_witness(g, D, family, maximize=False))
    return proved()


def _extreme_witness(g, D, family, maximize: bool):
    # corner points attain the interval endpoints of the sum, so a failed
    # interval inclusion always yields an explicit violating combination:
    # each x is the corner of D that maximizes (minimizes) T(x) coordinatewise
    xs = []
    for T in family:
        coords = [hi if (t >= 0) == maximize else lo for t, lo, hi in zip(_diagonal(T), D.lo, D.hi)]
        xs.append(g.element(coords))
    point = reduce(g.add, (T.apply(x) for T, x in zip(family, xs)))
    return (tuple(xs), point)


# -- THM_NK_PLUS: sum inclusion without closure -------------------------------
@_row("THM_NK_PLUS", _draw_thm_nk, expansive=True)
def _check_thm_nk_plus(inst: Instance) -> Verdict:
    """T1(D) + ... + Tk(D) lies in (T1 + ... + Tk)(D) itself."""
    return _sum_inclusion(inst, with_closure=False)


# -- COR_NKC1: a compact n0-convex set is n-convex for every n ----------------
def _draw_cor_nkc1(group, metric, rng):
    return {}, {"D": cx.finite_set(group, [_draw_point(group, rng)])}


@_row("COR_NKC1", _draw_cor_nkc1, expansive=True)
def _check_cor_nkc1(inst: Instance) -> Verdict:
    """A compact n0-convex set is n-convex for every n."""
    params = inst.params
    D = _named_set(inst, "D")
    if not isinstance(D, FiniteSet):
        raise HypothesisFailed("D is compact (modeled as an explicit finite set)")
    if not cx.is_n_convex(D, params.n0).proved:
        raise HypothesisFailed(f"D is n0-convex (n0={params.n0})")
    for n in range(2, params.horizon + 1):
        verdict = cx.is_n_convex(D, n)
        if not verdict.proved:
            return refuted((n,) + (verdict.witness or ()))
    return proved()


# -- COR_NKC2: normalized partial sums stay in the family ---------------------
def _draw_cor_nkc2(group, metric, rng):
    D = _draw_sum_box(group, rng)
    # an invertible total: the drawn diagonal and its complement sum to the
    # identity, and both keep any box convex.
    first = _unit_box_diag(group, rng)
    return {"T1": first, "T2": en.identity(group).sub(first)}, {"D": D}


@_row("COR_NKC2", _draw_cor_nkc2, expansive=True)
def _check_cor_nkc2(inst: Instance) -> Verdict:
    """Normalized partial sums of a family stay in the family."""
    D, family, total = _nk_hypotheses(inst, need_closed_conclusion=True)
    inverse = en.try_inverse(total)
    if inverse is None:
        raise HypothesisFailed("the family sum is invertible with a bounded inverse")
    members = []
    for prefix in itertools.accumulate(family[:-1], lambda a, b: a.add(b)):
        candidate = inverse.compose(prefix)
        verdict = cx.is_T_convex(D, candidate)
        if verdict.refuted:
            return refuted((candidate,) + verdict.witness)
        members.append(candidate)
    return proved(witness=tuple(members))


# -- EXA_TILDE: scalar families are not closed under combinations -------------
@_row("EXA_TILDE", lambda group, metric, rng: ({}, {}))
def _check_exa_tilde(inst: Instance) -> Verdict:
    """Negative control: scalar families are not closed under combinations.

    Combining multiplication by 3, 4 and 5 produces multiplication by 2,
    which lies outside the family on any group where these four scalar maps
    are distinct, the premise checked first; the computed witness is returned.
    """
    g = inst.group
    two, three, four, five = scalars = [en.scaling(g, k) for k in (2, 3, 4, 5)]
    if len(set(scalars)) < 4:
        raise HypothesisFailed("multiplication by 2, 3, 4 and 5 are four distinct maps")
    # 3 * 4 + (1 - 3) * 5 = 2
    combined = three.compose(four).add(en.identity(g).sub(three).compose(five))
    if combined != two:
        return refuted(("ring identity", combined))
    return proved(witness=(combined,))


# -- The property identifiers and their rows, built from the table ------------
PropertyId = Enum(
    "PropertyId", [(row.name, row.name) for row in _TABLE], module=__name__, qualname="PropertyId"
)
_SPECS: dict[PropertyId, PropertySpec] = dict(zip(PropertyId, _TABLE))
