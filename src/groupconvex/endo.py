"""The endomorphism ring of each instantiated group.

Endomorphisms are exact matrices: integer entries acting modulo the target
modulus on finite groups, integer matrices on Z^n, dyadic-rational matrices
on the dyadic lattice.  On finite groups the matrix entry a_ij must satisfy
a_ij * m_j = 0 (mod m_i), which is exactly well-definedness of the map on
residues; this is checked at construction.

Operator norms and injectivity measures are computed exhaustively on finite
groups and through weighted row/column-sum formulas on lattices (the matrix
is conjugated by diag(weights); lattice suprema agree with the real-vector
values because ratios are scale-invariant and rational vectors are dense).

The spectral radius is returned as a certified rational bracket: the upper
bound comes from m-th roots of power norms (sound because power norms are
submultiplicative, so the root sequence converges to its infimum), the lower
bound from injectivity measures of powers.  A bracket never certifies a
radius below one falsely.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    GroupMismatch,
    InvariantViolated,
    MetricGroupMismatch,
    NoConvergenceWithinBudget,
    NotAHomomorphism,
    NotComplete,
    NotDivisible,
    NotEnumerable,
    RhoNotCertifiedBelowOne,
    SNotInvertible,
)
from .groups import (
    FiniteGroup,
    Group,
    IntLattice,
    L1Metric,
    LinfMetric,
    Metric,
    Vector,
    norm_table,
)
from .scalars import root_lower, root_upper

Matrix = tuple[tuple, ...]


@dataclass(frozen=True)
class Endomorphism:
    """An additive self-map of ``group`` given by an exact square matrix."""

    group: Group
    matrix: Matrix

    def __str__(self):
        rows = "; ".join(" ".join(str(e) for e in row) for row in self.matrix)
        return f"[{rows}]"

    # -- ring operations ----------------------------------------------------

    def apply(self, x: Vector) -> Vector:
        g = self.group
        g._check_dim(x)
        image = [sum(map(operator.mul, row, x)) for row in self.matrix]
        return g.element(image)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        _same_group(self, other)
        n = self.group.dim
        rows = [
            [
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return _build(self.group, rows)

    def add(self, other: "Endomorphism") -> "Endomorphism":
        _same_group(self, other)
        rows = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.matrix, other.matrix)
        ]
        return _build(self.group, rows)

    def sub(self, other: "Endomorphism") -> "Endomorphism":
        _same_group(self, other)
        rows = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.matrix, other.matrix)
        ]
        return _build(self.group, rows)

    def scale(self, n: int) -> "Endomorphism":
        rows = [[n * a for a in row] for row in self.matrix]
        return _build(self.group, rows)

    def power(self, k: int) -> "Endomorphism":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = identity(self.group)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for row in self.matrix for a in row)


def _same_group(a: Endomorphism, b: Endomorphism) -> None:
    if a.group != b.group:
        raise GroupMismatch(f"{a.group} vs {b.group}")


def _build(group: Group, rows: Sequence[Sequence]) -> Endomorphism:
    # internal: canonicalize only; ring operations preserve additivity.
    return Endomorphism(group, group.matrix(rows))


def make_endo(group: Group, rows: Sequence[Sequence]) -> Endomorphism:
    """Validated constructor.

    Shape is checked against the group dimension, entries are canonicalized,
    and on finite groups the congruence a_ij * m_j = 0 (mod m_i) is enforced
    (it is equivalent to the map being a well-defined homomorphism).
    """
    n = group.dim
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n}x{n} for {group}")
    endo = _build(group, rows)
    if isinstance(group, FiniteGroup):
        for i, m_i in enumerate(group.moduli):
            for j, m_j in enumerate(group.moduli):
                a = endo.matrix[i][j]
                if (a * m_j) % m_i != 0:
                    raise NotAHomomorphism(
                        i, j,
                        f"entry ({i},{j})={a}: {a}*{m_j} is not 0 mod {m_i}",
                    )
    return endo


def identity(group: Group) -> Endomorphism:
    n = group.dim
    return _build(group, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zero(group: Group) -> Endomorphism:
    n = group.dim
    return _build(group, [[0] * n for _ in range(n)])


def scaling(group: Group, n: int) -> Endomorphism:
    """Multiplication by n, i.e. x -> n*x, as an endomorphism."""
    return identity(group).scale(n)


# most maps ``all_endomorphisms`` builds; End(Z12xZ12), the largest ring a
# default search draws, has 20,736
_RING_CAP = 1 << 16


@lru_cache(maxsize=None)
def all_endomorphisms(group: Group) -> tuple[Endomorphism, ...]:
    """The full endomorphism ring of a finite group.

    Entry (i, j) ranges over the multiples of m_i / gcd(m_i, m_j) below m_i,
    which enumerates each matrix exactly once, so the ring has
    prod_(i, j) gcd(m_i, m_j) maps; beyond ``_RING_CAP`` none is built.
    """
    if not isinstance(group, FiniteGroup):
        raise NotEnumerable(f"the endomorphism ring of {group} is not enumerable")
    size = math.prod(math.gcd(m_i, m_j) for m_i in group.moduli for m_j in group.moduli)
    if size > _RING_CAP:
        raise NotEnumerable(
            f"the endomorphism ring of {group} has {size} maps, beyond the cap of {_RING_CAP}"
        )
    cells = []
    for m_i in group.moduli:
        for m_j in group.moduli:
            step = m_i // math.gcd(m_i, m_j)
            cells.append(range(0, m_i, step))
    n = group.dim
    out = []
    for combo in itertools.product(*cells):
        rows = [combo[i * n:(i + 1) * n] for i in range(n)]
        out.append(_build(group, rows))
    return tuple(out)


# ---------------------------------------------------------------------------
# Operator norm and injectivity measure
# ---------------------------------------------------------------------------

def _induced_matrix_norm(rows: Matrix, metric: Metric) -> Fraction:
    """Real operator norm of a rational matrix under a weighted L1/Linf norm.

    Conjugating by diag(weights) reduces to the classical max row-sum (Linf)
    or max column-sum (L1) of absolute values.
    """
    w = metric.weights
    n = len(rows)
    if isinstance(metric, LinfMetric):
        return max(
            sum((w[i] / w[j]) * abs(Fraction(rows[i][j])) for j in range(n))
            for i in range(n)
        )
    if isinstance(metric, L1Metric):
        return max(
            sum((w[i] / w[j]) * abs(Fraction(rows[i][j])) for i in range(n))
            for j in range(n)
        )
    raise MetricGroupMismatch(f"{metric.kind} norm is not defined on lattices")


def _ratios(T: Endomorphism, metric: Metric):
    """||T(x)|| / ||x|| for every nonzero x of a finite group, in table order."""
    table = norm_table(T.group, metric)
    zero_el = T.group.zero()
    for x, nx in table.items():
        if x == zero_el:
            continue
        if nx == 0:
            raise MetricGroupMismatch("metric is not positive definite")
        yield table[T.apply(x)] / nx


@lru_cache(maxsize=None)
def op_norm(T: Endomorphism, metric: Metric) -> Fraction:
    """sup of ||T(x)|| / ||x|| over nonzero x; exact in all supported cases."""
    if isinstance(T.group, FiniteGroup):
        return max(_ratios(T, metric))
    return _induced_matrix_norm(T.matrix, metric)


def _rational_inverse(rows: Matrix) -> Matrix | None:
    """Inverse over the rationals via Gauss-Jordan, or None when singular."""
    n = len(rows)
    work = [[Fraction(a) for a in row] for row in rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
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
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


@lru_cache(maxsize=None)
def injectivity_measure(T: Endomorphism, metric: Metric) -> Fraction:
    """inf of ||T(x)|| / ||x|| over nonzero x.

    Exhaustive on finite groups.  On lattices the infimum is 0 for singular
    matrices (the kernel contains a lattice direction after scaling) and
    1 / ||T^-1|| otherwise.
    """
    if isinstance(T.group, FiniteGroup):
        return min(_ratios(T, metric))
    inverse = _rational_inverse(T.matrix)
    if inverse is None:
        return Fraction(0)
    return 1 / _induced_matrix_norm(inverse, metric)


def operator_distance(T: Endomorphism, S: Endomorphism, metric: Metric) -> Fraction:
    """Distance between operators: the norm of their difference."""
    return op_norm(T.sub(S), metric)


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoBracket:
    """Certified rational bracket around the spectral radius."""

    lower: Fraction
    upper: Fraction
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact and self.lower != self.upper:
            raise ValueError("an exact bracket must collapse")

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("bracket is not exact")
        return self.lower

    @property
    def certified_below_one(self) -> bool:
        return self.upper < 1


def _exact_bracket(value) -> RhoBracket:
    q = Fraction(value)
    return RhoBracket(q, q, True)


def _prime_factor_count(n: int) -> int:
    """Omega(n): the number of prime factors of n counted with multiplicity."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


@lru_cache(maxsize=None)
def spectral_radius(T: Endomorphism, metric: Metric, horizon: int = 8) -> RhoBracket:
    """Bracket the limit of the m-th roots of power norms.

    Finite groups are exact with value in {0, 1}: either some power is the
    zero map, or the norms of powers range over a fixed finite set of
    positive values whose roots tend to one.  T is nilpotent iff
    T^Omega(|G|) = 0: each strict step of G > T(G) > T^2(G) > ... divides the
    order by a prime, and a step that is not strict repeats forever.  On Z^n
    the radius is below one exactly for nilpotent matrices, because a nonzero
    integer matrix keeps a norm bounded away from zero.  On the dyadic
    lattice the bracket uses root upper bounds of power norms against root
    lower bounds of power injectivity measures.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    g = T.group
    if isinstance(g, FiniteGroup):
        nilpotent = T.power(_prime_factor_count(g.order)).is_zero
        return _exact_bracket(0 if nilpotent else 1)
    if isinstance(g, IntLattice) and T.power(g.dim).is_zero:
        return _exact_bracket(0)
    upper = None
    lower = Fraction(1) if isinstance(g, IntLattice) else Fraction(0)
    power = T
    for m in range(1, horizon + 1):
        upper_m = root_upper(op_norm(power, metric), m)
        if upper is None or upper_m < upper:
            upper = upper_m
        mu_m = injectivity_measure(power, metric)
        if mu_m > 0:
            lower_m = root_lower(mu_m, m)
            if lower_m > lower:
                lower = lower_m
        power = power.compose(T)
    lower = min(lower, upper)
    return RhoBracket(lower, upper, lower == upper)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

def try_inverse(T: Endomorphism) -> Endomorphism | None:
    """The inverse endomorphism when T is a group automorphism, else None."""
    g = T.group
    ident = identity(g)
    if isinstance(g, FiniteGroup):
        images = {T.apply(x): x for x in g.elements()}
        if len(images) != g.order:
            return None
        # column j of the inverse is the preimage of e_j, column j of I
        inverse = make_endo(g, list(zip(*(images[e] for e in zip(*ident.matrix)))))
    else:
        rational = _rational_inverse(T.matrix)
        if rational is None or not all(g.is_coordinate(a) for row in rational for a in row):
            return None
        inverse = _build(g, rational)
    if T.compose(inverse) != ident or inverse.compose(T) != ident:
        return None
    return inverse


def neumann_inverse(T: Endomorphism, metric: Metric, max_terms: int = 64) -> Endomorphism:
    """Invert I - T by the finite geometric series when some power of T is zero.

    Requires a complete group and a certified spectral radius below one; in
    both certified cases (finite groups and nilpotent integer matrices) the
    series terminates, and the result is verified to invert I - T on both
    sides before it is returned.
    """
    g = T.group
    if not g.complete:
        raise NotComplete(f"{g} is not complete")
    bracket = spectral_radius(T, metric, horizon=4)
    if not bracket.certified_below_one:
        raise RhoNotCertifiedBelowOne(
            f"spectral radius bracket [{bracket.lower}, {bracket.upper}] "
            "does not certify a radius below one"
        )
    terms = identity(g)
    power = T
    count = 1
    while not power.is_zero:
        if count > max_terms:
            raise NoConvergenceWithinBudget(
                f"geometric series did not terminate within {max_terms} terms"
            )
        terms = terms.add(power)
        power = power.compose(T)
        count += 1
    factor = identity(g).sub(T)
    ident = identity(g)
    if factor.compose(terms) != ident or terms.compose(factor) != ident:
        raise InvariantViolated("the geometric series does not invert I - T")
    return terms


def shifted_inverse(
    S: Endomorphism, T: Endomorphism, metric: Metric, max_terms: int = 64
) -> Endomorphism:
    """Invert S - T given an invertible S and a small relative perturbation.

    Uses the two factorizations (S - T) = (I - T S^-1) S = S (I - S^-1 T);
    whichever spectral certificate holds is used, both are checked to agree
    when available, and the result is verified to invert S - T exactly.
    """
    _same_group(S, T)
    g = S.group
    s_inv = try_inverse(S)
    if s_inv is None:
        raise SNotInvertible("S has no representable inverse")
    candidates = []
    failure = None
    for reduced, on_left in ((T.compose(s_inv), True), (s_inv.compose(T), False)):
        try:
            core = neumann_inverse(reduced, metric, max_terms)
        except (RhoNotCertifiedBelowOne, NoConvergenceWithinBudget) as err:
            failure = err
            continue
        candidates.append(s_inv.compose(core) if on_left else core.compose(s_inv))
    if not candidates:
        raise failure if failure is not None else RhoNotCertifiedBelowOne(
            "neither factorization is certified"
        )
    if any(c != candidates[0] for c in candidates):
        raise InvariantViolated("the two factorizations give different inverses")
    result = candidates[0]
    difference = S.sub(T)
    ident = identity(g)
    if difference.compose(result) != ident or result.compose(difference) != ident:
        raise InvariantViolated("the computed inverse does not invert S - T")
    return result


# ---------------------------------------------------------------------------
# Midpoint recursion
# ---------------------------------------------------------------------------

def halve(T: Endomorphism) -> Endomorphism:
    """The endomorphism H with H + H = T; requires divisibility by two."""
    columns = [T.group.div_apply(2, column) for column in zip(*T.matrix)]
    return Endomorphism(T.group, tuple(zip(*columns)))


def midpoint_recursion(T: Endomorphism, n: int) -> Endomorphism:
    """n-th iterate of U -> U^2 + (I - U)^2 starting from T."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ident = identity(T.group)
    current = T
    for _ in range(n - 1):
        residual = ident.sub(current)
        current = current.compose(current).add(residual.compose(residual))
    return current


def midpoint_closed_form(T: Endomorphism, n: int) -> Endomorphism:
    """Closed form of the midpoint recursion: half of I + (2T - I)^(2^(n-1)).

    Defined whenever the group is divisible by two; equals
    ``midpoint_recursion(T, n)`` for every input.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = T.group
    if not g.divisible_by(2):
        raise NotDivisible(f"{g} is not divisible by 2")
    ident = identity(g)
    reflected = T.scale(2).sub(ident)
    return halve(ident.add(reflected.power(2 ** (n - 1))))
