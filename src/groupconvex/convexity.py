"""Set arithmetic and convexity over the instantiated groups.

Two set representations are supported: explicit finite sets and symbolic
lattice boxes.  Mixed-kind sums are rejected rather than approximated so
that every ``Proved`` verdict is exact.

A set D is convex for an endomorphism T when T(x) + (I-T)(y) lands in D
for all x, y in D; the n-fold sumset [n]A and the dilation n*A give the
related notion of n-convexity ([n]A inside n*A).  Convexity is decided,
never sampled: finite sets exhaustively over pairs, boxes exactly for every
T by corner bounds (each coordinate of the combination is linear in (x, y),
so its extremes over D x D sit at corners, which are points of D).
A box and a map are each carried on one power-of-two integer scale per
call, as lattice maps are in ``endo`` (``_scaled``, A = M/d), so corner
bounds are int sums.  ``sample`` draws member points for the search's
instance drawers.  Convex hulls are computed as least fixed points of the
one-step closure.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Sequence

from .endo import Endomorphism, _scaled, all_endomorphisms, identity
from .endo import zero as zero_endo
from .errors import (
    EmptySet,
    InvariantViolated,
    NotEnumerable,
    NotFinite,
    UnsupportedMixedSum,
    UnsupportedRepresentation,
)
from .groups import DyadicLattice, FiniteGroup, Group, IntLattice, Metric, Vector, norm
from .groups import _PAIR_CAP, _TABLE_CAP, _check_cap, _check_metric, _positive_index, _same_group
from .verdicts import Verdict, proved, refuted


@dataclass(frozen=True)
class FiniteSet:
    """Explicit, deduplicated, sorted set of group elements.

    Equality and hashing come from ``elements``; ``members`` is the same
    points as a frozenset, built once so that a membership test hashes one
    element.
    """

    group: Group
    elements: tuple[Vector, ...]
    members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.elements))

    def __str__(self):
        inner = ", ".join("(" + ",".join(str(c) for c in e) + ")" for e in self.elements)
        return "{" + inner + "}"

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class BoxSet:
    """All lattice points x with lo_i <= x_i <= hi_i, stored symbolically."""

    group: Group
    lo: Vector
    hi: Vector

    def __str__(self):
        return f"box[{self.lo} .. {self.hi}]"


PointSet = FiniteSet | BoxSet


def finite_set(group: Group, points: Iterable[Sequence]) -> FiniteSet:
    canon = {group.element(p) for p in points}
    return FiniteSet(group, tuple(sorted(canon)))


def box_set(group: Group, lo: Sequence, hi: Sequence) -> BoxSet:
    if not isinstance(group, (IntLattice, DyadicLattice)):
        raise UnsupportedRepresentation("box sets live on lattice groups")
    lo_v = group.element(lo)
    hi_v = group.element(hi)
    if any(a > b for a, b in zip(lo_v, hi_v)):
        raise ValueError("box requires lo <= hi coordinatewise")
    return BoxSet(group, lo_v, hi_v)


def contains(A: PointSet, x: Vector) -> bool:
    """Exact membership test for both representations."""
    A.group._check_dim(x)
    if isinstance(A, FiniteSet):
        return x in A.members
    return all(a <= c <= b for a, c, b in zip(A.lo, x, A.hi))


def is_empty(A: PointSet) -> bool:
    return isinstance(A, FiniteSet) and not A.elements


def closure(A: PointSet) -> PointSet:
    """Topological closure in the instantiated representations.

    Finite sets are closed in every instantiated topology and boxes are
    closed by construction, so this is the identity on both kinds.
    """
    return A


def sample(A: PointSet, rng: random.Random) -> Vector:
    """Deterministic seeded sampler of member points."""
    if isinstance(A, FiniteSet):
        if not A.elements:
            raise EmptySet("cannot sample the empty set")
        return A.elements[rng.randrange(len(A.elements))]
    if isinstance(A.group, IntLattice):
        return tuple(map(rng.randint, A.lo, A.hi))
    coords = []
    for lo, hi in zip(A.lo, A.hi):
        # the grid 1/scale meets [lo, hi] in ceil(lo * scale) .. floor(hi * scale)
        p, q, u, v = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        scale = 1 << rng.randint(0, 4)
        while -(-p * scale // q) > u * scale // v:
            scale <<= 1
        coords.append(Fraction(rng.randint(-(-p * scale // q), u * scale // v), scale))
    return tuple(coords)


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """Minkowski sum; exact for finite+finite and box+box, refused for mixes."""
    _same_group(A, B)
    g = A.group
    if isinstance(A, FiniteSet) and isinstance(B, FiniteSet):
        return finite_set(g, (g.add(a, b) for a in A.elements for b in B.elements))
    if isinstance(A, BoxSet) and isinstance(B, BoxSet):
        return box_set(g, g.add(A.lo, B.lo), g.add(A.hi, B.hi))
    raise UnsupportedMixedSum("mixed finite/box sums are not representable")


def n_fold_sum(A: PointSet, n: int) -> PointSet:
    """[n]A: all sums of n members of A. The dilation n*A is always inside."""
    _positive_index(n)
    result = A
    for _ in range(n - 1):
        result = sumset(result, A)
    if isinstance(A, FiniteSet) and not all(contains(result, x) for x in n_dilate(A, n).elements):
        raise InvariantViolated(f"the dilation {n}*A is not inside [{n}]A")
    return result


def n_dilate(A: PointSet, n: int) -> PointSet:
    """n*A: elementwise n-fold multiples; always a subset of [n]A."""
    _positive_index(n)
    g = A.group
    if isinstance(A, FiniteSet):
        return finite_set(g, (g.nat_mul(n, x) for x in A.elements))
    if g.divisible_by(n):
        return box_set(g, g.nat_mul(n, A.lo), g.nat_mul(n, A.hi))
    raise UnsupportedRepresentation(
        f"dilation of a box by {n} is not box-representable on {g}"
    )


def member_of_sum(point: Vector, B: PointSet, C: FiniteSet) -> bool:
    """Exact membership of ``point`` in B + C for finite C.

    For a box B, point - c is in B exactly when point - hi <= c <= point - lo,
    one interval for every c.
    """
    _same_group(B, C)
    g = B.group
    if isinstance(B, FiniteSet):
        return any(contains(B, g.sub(point, c)) for c in C.elements)
    g._check_dim(point)
    low = tuple(map(operator.sub, point, B.hi))
    high = tuple(map(operator.sub, point, B.lo))
    return any(
        all(map(operator.le, low, c)) and all(map(operator.le, c, high)) for c in C.elements
    )


def intersect(A: PointSet, B: PointSet) -> PointSet:
    _same_group(A, B)
    g = A.group
    if isinstance(A, BoxSet) and isinstance(B, BoxSet):
        lo = tuple(max(a, b) for a, b in zip(A.lo, B.lo))
        hi = tuple(min(a, b) for a, b in zip(A.hi, B.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return finite_set(g, ())
        return box_set(g, lo, hi)
    if isinstance(A, BoxSet):
        A, B = B, A
    return finite_set(g, (x for x in A.elements if contains(B, x)))


# most points of an integer box that is enumerated
_BOX_CAP = 4096


def _box_points(A: BoxSet) -> list[Vector]:
    if not isinstance(A.group, IntLattice):
        raise NotEnumerable("dyadic boxes contain infinitely many points")
    _check_cap(str(A), math.prod(hi - lo + 1 for lo, hi in zip(A.lo, A.hi)), "points", _BOX_CAP)
    return [tuple(p) for p in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(A.lo, A.hi)])]


def subset_of(A: PointSet, B: PointSet) -> bool:
    """Decidable inclusion test across all representation pairs."""
    _same_group(A, B)
    if isinstance(A, FiniteSet):
        return all(contains(B, x) for x in A.elements)
    if isinstance(B, BoxSet):
        return all(bl <= al and ah <= bh for al, ah, bl, bh in zip(A.lo, A.hi, B.lo, B.hi))
    if A.lo == A.hi:
        return contains(B, A.lo)
    if isinstance(A.group, IntLattice):
        return all(contains(B, x) for x in _box_points(A))
    return False  # a nondegenerate dyadic box is infinite


# ---------------------------------------------------------------------------
# Convexity tests
# ---------------------------------------------------------------------------

# most pairs one n-fold check adds, and most parts of its witness
_SUM_CAP = 1 << 21


def is_n_convex(A: PointSet, n: int) -> Verdict:
    """Check [n]A inside n*A.

    A finite nonempty set is decided from its pairs: with a0 its first
    point and n >= 2, [n]A is inside n*A exactly when every total
    x + y + (n-2)*a0 over x, y in A lands in n*A.  Each total is in [n]A,
    so the condition is necessary.  It is sufficient: let H = A - a0, which
    holds 0; the condition says H + H is inside n*H, so
    |H| <= |H + H| <= |n*H| <= |H|.  Then H + H = H, a finite subset closed
    under addition, is a subgroup, and n*H, inside H and as large, is H.
    So [n]A = n*a0 + H = n*A.  A refutation is ((x, y, a0, ..., a0), total)
    for the least missing total and the first pair reaching it.  More than
    ``_SUM_CAP`` pairs, or a witness of more than ``_SUM_CAP`` parts, is
    refused unbuilt.  Boxes are proved symbolically when the group is
    divisible by n (the interval identity) and refuted otherwise, with a
    constructed witness of n parts under the same cap.
    """
    _positive_index(n)
    g = A.group
    if n == 1:
        return proved()
    if isinstance(A, FiniteSet):
        if not A.elements:
            return proved()
        points, a0 = A.elements, A.elements[0]
        _check_cap(f"[{n}]A for {len(points)} points", len(points) ** 2, "pairs", _SUM_CAP)
        pad = g.sub(g.nat_mul(n - 1, a0), a0)  # (n-2)*a0; nat_mul takes n >= 1
        dilation = n_dilate(A, n).members
        shifted = [g.add(y, pad) for y in points]
        least = None
        for x in points:
            for y, total in zip(points, map(g.add, itertools.repeat(x), shifted)):
                if total not in dilation and (least is None or total < least[1]):
                    least = ((x, y), total)
        if least is None:
            return proved()
        _check_cap(f"a witness of [{n}]A", n, "parts", _SUM_CAP)
        pair, total = least
        return refuted((pair + (a0,) * (n - 2), total))
    if A.lo == A.hi or g.divisible_by(n):
        return proved()
    _check_cap(f"a witness of [{n}]A", n, "parts", _SUM_CAP)
    # construct a sum that no dilated lattice point can reach
    axis = next(i for i, (a, b) in enumerate(zip(A.lo, A.hi)) if a < b)
    step = Fraction(1)
    while step > A.hi[axis] - A.lo[axis]:
        step /= 2
    bumped = list(A.lo)
    bumped[axis] += step
    parts = (g.element(bumped),) + (A.lo,) * (n - 1)
    total = reduce(g.add, parts)
    if all(g.is_coordinate(Fraction(c, n)) for c in total):
        raise InvariantViolated("witness construction must leave the lattice")
    return refuted((parts, total))


def _combination(T: Endomorphism, x: Vector, y: Vector) -> Vector:
    g = T.group
    return g.add(T.apply(x), g.sub(y, T.apply(y)))


def _kernel_fault(what: str) -> InvariantViolated:
    """The error for a pair-loop refutation that the tuple re-check denies.

    A refutation found on either coding is recomputed with ``T.apply``,
    ``sub`` and ``add`` before it is returned; a pair loop that refutes
    what the tuples confirm is a fault in the coding, not a witness.
    """
    return InvariantViolated(f"the pair loop refuted {what}, but the tuple re-check does not")


def _same(x):
    return x


class _Coding(NamedTuple):
    """How one pass of a pair loop codes the points of a group.

    ``code`` and ``point`` turn an element into its code and back,
    ``plus(a, b)`` is the code of a + b, ``neg`` gives the code of -x, and
    ``image(T)`` is x -> the code of T(x).
    """

    code: Callable
    point: Callable
    plus: Callable
    neg: Callable
    image: Callable


# a pass meets one or two groups, so only the last 8 groups' codings are kept
@lru_cache(maxsize=8)
def _coding(group: Group) -> _Coding:
    """Lex indices on a finite group within the caps, the tuples themselves elsewhere.

    On indices every step is a lookup.  With coordinate j in a slot of width
    2*m_j, padded codes add with no carry between slots: ``pads[i]`` is the
    padded code of element i, ``folds[s]`` reduces each slot of s mod m_j back
    to a lex index and ``top`` is the padded (m_1, ..., m_k), so a + b is
    folds[pads[a] + pads[b]] and -a is folds[top - pads[a]]; T(x) is T's
    image array (``_image_array``).  A group of more than ``_TABLE_CAP``
    elements or ``_PAIR_CAP`` padded codes (2^k * |G| for k moduli), and the
    lattices, run on tuples: ``group.add``, ``group.neg`` and ``T.apply``,
    each T(x) computed once per pass.  Since 2^k <= |G|, every group of at
    most 1,024 elements runs on indices.
    """
    if (
        not isinstance(group, FiniteGroup)
        or group.order > _TABLE_CAP
        or group.order << group.dim > _PAIR_CAP
    ):
        return _Coding(_same, _same, group.add, group.neg, lambda T: cache(T.apply))
    pads, folds, top = (0,), (0,), 0
    for m in group.moduli:
        pads = tuple(a * 2 * m + r for a in pads for r in range(m))
        folds = tuple(a * m + r for a in folds for r in (*range(m), *range(m)))
        top = top * 2 * m + m
    elements = tuple(group.elements())
    return _Coding(
        dict(zip(elements, itertools.count())).__getitem__,
        elements.__getitem__,
        lambda a, b: folds[pads[a] + pads[b]],
        lambda a: folds[top - pads[a]],
        lambda T: _image_array(T).__getitem__,
    )


# the image arrays of the last 1,024 maps that a pass on lex indices met
@lru_cache(maxsize=1024)
def _image_array(T: Endomorphism) -> tuple[int, ...]:
    return tuple(T.group.image_indices(T.matrix))


def linear_bounds(row: Sequence, lo: Sequence, hi: Sequence) -> tuple:
    """Least and greatest value of sum_j row_j * x_j over lo <= x <= hi.

    A term t * x_j is smallest at lo_j when t > 0 and at hi_j when t < 0,
    so both extremes sit at corners of the box; zero entries add nothing.
    Ints or Fractions: scaling the row by d and the box by s scales both
    bounds by d * s, so the box kernels pass ints (``endo._scaled``).
    """
    low = high = 0
    for t, a, b in zip(row, lo, hi):
        if t > 0:
            low += t * a
            high += t * b
        elif t < 0:
            low += t * b
            high += t * a
    return low, high


def _first_failure(heads: list, tails: list, members: frozenset, plus: Callable) -> tuple | None:
    """The first (i, j) in order with plus(heads[i], tails[j]) not in ``members``:
    each distinct head meets each distinct tail once, a head that passed is
    skipped, and a failing head scans ``tails`` in order for j."""
    distinct, passed = set(tails), set()
    for i, a in enumerate(heads):
        if a not in passed:
            if not members.issuperset(map(plus, itertools.repeat(a), distinct)):
                return i, next(j for j, b in enumerate(tails) if plus(a, b) not in members)
            passed.add(a)
    return None


def is_T_convex(D: PointSet, T: Endomorphism) -> Verdict:
    """Check T(x) + (I-T)(y) in D for all x, y in D.

    Exhaustive over ordered pairs on finite sets, in the group's coding
    (``_coding``): ``_first_failure`` of the T(x) and y - T(y), each computed
    once, is the first failing pair in ``D.elements`` order, re-checked on tuples.

    Boxes are decided exactly for every T by corner bounds: coordinate i of
    the combination is the linear form (T_i | e_i - T_i) in (x, y), so its
    extremes over D x D sit at box corners (``linear_bounds``), which are
    lattice points of D.  The corners and T's matrix are each scaled to ints
    once (``_scaled``), so the bounds are int sums compared with lo_i on
    their scale.  The form maps the centre of D x D to the centre of
    D's interval, so its range leaves that interval below exactly when it
    leaves it above.  The witness starts from x = y = lo; each violating
    coordinate in turn moves every still-unset x_j and y_j that its form
    reads to the corner minimizing it.
    """
    _same_group(D, T)
    g = D.group
    if isinstance(D, FiniteSet):
        c = _coding(g)
        codes = list(map(c.code, D.elements))
        heads = list(map(c.image(T), codes))
        tails = list(map(c.plus, codes, map(c.neg, heads)))
        failure = _first_failure(heads, tails, frozenset(codes), c.plus)
        if failure is None:
            return proved()
        x, y = map(D.elements.__getitem__, failure)
        point = _combination(T, x, y)
        if point in D.members:
            raise _kernel_fault(f"({x}, {y})")
        return refuted((x, y, point))
    # (x, y) as one point of the box D x D, read by the rows (T_i | e_i - T_i);
    # with D = [L, H] / s and T = M / d the rows are (M_i | d e_i - M_i) and
    # every bound is an int on the scale d * s
    (L, H), _ = _scaled((D.lo, D.hi))
    M, d = _scaled(T.matrix)
    lo, hi = L + L, H + H
    n = g.dim
    corner, fixed = list(D.lo + D.lo), set()
    for i, row in enumerate(M):
        row += [d * (j == i) - t for j, t in enumerate(row)]
        if linear_bounds(row, lo, hi)[0] >= d * L[i]:
            continue
        for j, t in enumerate(row):
            if t and j not in fixed:
                fixed.add(j)
                if t < 0:
                    corner[j] = D.hi[j % n]
    if not fixed:
        return proved()
    x, y = g.element(corner[:n]), g.element(corner[n:])
    return refuted((x, y, _combination(T, x, y)))


def t_convex_pointwise(D: FiniteSet, T: Endomorphism) -> Verdict:
    """Equivalent test: T maps every translate D - p into itself.

    T is applied to the members v of each translate, never to D and p
    separately, so this test does not lean on additivity the way
    ``is_T_convex`` does.  The decision is ``_pointwise_failure``'s; the
    witness is the failing v that a loop over the tuple translate D - p
    meets first.
    """
    _same_group(D, T)
    if not isinstance(D, FiniteSet):
        raise NotFinite("the pointwise test enumerates translates")
    p = _pointwise_failure(D, T)
    if p is None:
        return proved()
    g = D.group
    translate = frozenset(g.sub(d, p) for d in D.elements)
    v = next(v for v in translate if T.apply(v) not in translate)
    return refuted((p, g.add(v, p)))


def _pointwise_failure(D: FiniteSet, T: Endomorphism) -> Vector | None:
    """The first p of ``D.elements`` whose translate D - p T does not map into
    itself, or None.

    Each translate is a set in the group's coding (``_coding``), where T(v)
    is a lookup in T's image array or, on tuples, one ``T.apply`` per v met
    in any translate.  One failing v is re-checked on tuples: T(v) + p is
    not in D.
    """
    g = D.group
    c = _coding(g)
    codes = list(map(c.code, D.elements))
    image = c.image(T)
    for p, cp in zip(D.elements, codes):
        coded = set(map(c.plus, itertools.repeat(c.neg(cp)), codes))
        if not coded.issuperset(map(image, coded)):
            v = c.point(next(v for v in coded if image(v) not in coded))
            if g.add(T.apply(v), p) in D.members:
                raise _kernel_fault(f"T({v}) in the translate by {p}")
            return p
    return None


def is_family_convex(D: PointSet, Ts: Sequence[Endomorphism]) -> Verdict:
    """Conjunction of per-endomorphism convexity verdicts.

    A refutation carries the failing map in front of its witness.
    """
    for T in Ts:
        verdict = is_T_convex(D, T)
        if verdict.refuted:
            return refuted((T,) + verdict.witness)
    return proved()


def convex_hull(
    S: PointSet, Ts: Sequence[Endomorphism], max_iter: int = 1000
) -> tuple[FiniteSet, bool]:
    """Least fixed point of one-step closure under x, y -> T(x) + (I-T)(y).

    The result is extensive and monotone; when the fixed point is reached
    the ``complete`` flag is set and the hull is family-convex.  Each pass
    adds every sum of a T(x) and a y - T(y) over the points so far, in the
    group's coding (``_coding``), so the passes and the result do not
    depend on order.  A pass of more than ``_PAIR_CAP`` sums for one map is
    refused unbuilt.
    """
    if not isinstance(S, FiniteSet):
        raise NotFinite("hulls are computed from explicit finite seeds")
    _positive_index(max_iter, "max_iter")
    for T in Ts:
        _same_group(S, T)
    g = S.group
    c = _coding(g)
    current = set(map(c.code, S.elements))
    images = [(T, c.image(T)) for T in Ts]
    complete = False
    for _ in range(max_iter):
        snapshot = list(current)
        size = len(current)
        for T, image in images:
            heads = list(map(image, snapshot))
            tails = set(map(c.plus, snapshot, map(c.neg, heads)))
            heads = set(heads)
            _check_cap(f"a hull pass through {T}", len(heads) * len(tails), "sums", _PAIR_CAP)
            for a in heads:
                current.update(map(c.plus, itertools.repeat(a), tails))
        if len(current) == size:
            complete = True
            break
    return FiniteSet(g, tuple(map(c.point, sorted(current)))), complete


# a search asks about one set per draw, so only the last 256 families are kept
@lru_cache(maxsize=256)
def family_of(D: PointSet) -> tuple[Endomorphism, ...]:
    """All endomorphisms of a finite group that make D convex.

    R makes D convex exactly when R(d) is in A_d for every d in D - D,
    where A_d is the intersection of the translates D - y over the y in D
    with y + d in D: for x = y + d, R(x) + (y - R(y)) = R(d) + y.  So each
    map costs |D - D| lookups in the group's coding (``_coding``).  Always
    contains the zero map and the identity.
    """
    ring = all_endomorphisms(D.group)
    c = _coding(D.group)
    codes = list(map(c.code, D.elements))
    targets = {}
    for y in codes:
        shifted = frozenset(map(c.plus, itertools.repeat(c.neg(y)), codes))
        for d in shifted:
            targets[d] = targets.get(d, shifted) & shifted
    differences, allowed = list(targets), list(targets.values())
    members = tuple(
        R for R in ring
        if all(map(operator.contains, allowed, map(c.image(R), differences)))
    )
    if identity(D.group) not in members or zero_endo(D.group) not in members:
        raise InvariantViolated("the family of a set holds the zero map and the identity")
    return members


def diameter(A: PointSet, metric: Metric) -> Fraction:
    """Largest pairwise distance; exact from interval widths on boxes."""
    g = A.group
    _check_metric(g, metric)
    if isinstance(A, FiniteSet):
        if not A.elements:
            raise EmptySet("the empty set has no diameter")
        best = Fraction(0)
        for i, x in enumerate(A.elements):
            for y in A.elements[i + 1:]:
                d = norm(g, metric, g.sub(x, y))
                if d > best:
                    best = d
        return best
    return norm(g, metric, g.sub(A.hi, A.lo))


def image_set(D: FiniteSet, A: Endomorphism) -> FiniteSet:
    """Exact image of a finite set."""
    if not isinstance(D, FiniteSet):
        raise NotEnumerable("images are computed for explicit finite sets")
    _same_group(D, A)
    return finite_set(D.group, (A.apply(x) for x in D.elements))


def preimage_set(D: PointSet, A: Endomorphism) -> FiniteSet:
    """Exact preimage: the x whose image index is the lex index of a point of D."""
    g = A.group
    if not isinstance(g, FiniteGroup):
        raise NotEnumerable("preimages are enumerated over finite groups")
    _same_group(D, A)
    images = g.image_indices(A.matrix)
    hits = [contains(D, y) for y in g.elements()]
    return FiniteSet(g, tuple(x for x, i in zip(g.elements(), images) if hits[i]))
