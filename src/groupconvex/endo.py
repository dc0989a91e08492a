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
On a finite group both come from one integer pass per (map, metric): the
norm table holds L * ||x|| as ints in lex order, T's columns give the lex
index of T(x) for every x by linearity (``FiniteGroup.image_indices``), and
the pass keeps the largest and the smallest ratio by cross-multiplication.
The same array decides inverses.  The integer view of End(G) (``_ring``)
owns that pass and keeps the two ratios as int pairs per map; a map's
handle there is its flat tuple of entries, which the view composes, adds
and subtracts, so the checkers of ``properties`` compare ints.
A lattice operator is carried as one integer matrix and one scale, A = M/d,
and a weighted metric as one integer ratio matrix W/L, so these formulas
are integer sums; the inverse N/e comes from one fraction-free (Bareiss)
elimination of M.

The spectral radius is returned as a certified rational bracket: the upper
bound comes from m-th roots of power norms (sound because power norms are
submultiplicative, so the root sequence converges to its infimum), the lower
bound from injectivity measures of powers.  On lattices a bracket takes one
elimination and steps the integer powers M^m and N^m.  A bracket never
certifies a radius below one falsely.  On the two complete groups a radius
certified below one means T is nilpotent, so the geometric series that
inverts I - T (and, through I - T S^-1 or I - S^-1 T, S - T) always ends.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    InvariantViolated,
    MetricGroupMismatch,
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
    LinfMetric,
    Metric,
    Vector,
    norm_table,
)
from .groups import _check_cap, _check_metric, _positive_index, _same_group
from .scalars import root_lower, root_upper

Matrix = tuple[tuple, ...]


@dataclass(frozen=True, slots=True)
class Endomorphism:
    """An additive self-map of ``group`` given by an exact square matrix.

    The hash is the one the dataclass would compute, ``hash((group,
    matrix))``, taken on the first ``hash`` call and kept: maps key many
    caches and sets, and each lookup would otherwise hash every row of the
    matrix again, while a map that keys nothing never hashes its matrix.
    """

    group: Group
    matrix: Matrix
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.group, self.matrix)))
        return self._hash

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
        return _build(self.group, _matmul(self.matrix, other.matrix))

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


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    columns = tuple(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def _build(group: Group, rows: Sequence[Sequence]) -> Endomorphism:
    # internal: canonicalize only; ring operations preserve additivity.
    return Endomorphism(group, group._ring_matrix(rows))


def make_endo(group: Group, rows: Sequence[Sequence]) -> Endomorphism:
    """Validated constructor.

    Shape is checked against the group dimension, entries are canonicalized,
    and on finite groups the congruence a_ij * m_j = 0 (mod m_i) is enforced
    (it is equivalent to the map being a well-defined homomorphism).
    """
    n = group.dim
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n}x{n} for {group}")
    endo = Endomorphism(group, group.matrix(rows))
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


def _ring_order(group: FiniteGroup) -> int:
    """|End(G)| = prod_(i, j) gcd(m_i, m_j), the count of ``_ring_cells``' maps."""
    return math.prod(math.gcd(m_i, m_j) for m_i in group.moduli for m_j in group.moduli)


def _ring_cells(group: Group) -> list[range]:
    """The values of entry (i, j), row by row: the multiples of m_i / gcd(m_i, m_j)
    below m_i, which give each map once; refused beyond ``_RING_CAP`` maps."""
    if not isinstance(group, FiniteGroup):
        raise NotEnumerable(f"the endomorphism ring of {group} is not enumerable")
    _check_cap(f"the endomorphism ring of {group}", _ring_order(group), "maps", _RING_CAP)
    return [range(0, m_i, m_i // math.gcd(m_i, m_j)) for m_i in group.moduli for m_j in group.moduli]


def _from_entries(group: Group, entries: Sequence[int]) -> Endomorphism:
    n = group.dim
    return _build(group, [entries[i * n:(i + 1) * n] for i in range(n)])


@lru_cache(maxsize=None)
def all_endomorphisms(group: Group) -> tuple[Endomorphism, ...]:
    """The full endomorphism ring of a finite group, in product order of its cells."""
    return tuple(_from_entries(group, combo) for combo in itertools.product(*_ring_cells(group)))


def ring_size(group: Group) -> int:
    """|End(group)|, refused as ``all_endomorphisms`` refuses it."""
    return math.prod(map(len, _ring_cells(group)))


def endomorphism_at(group: Group, index: int) -> Endomorphism:
    """``all_endomorphisms(group)[index]`` for 0 <= index < ``ring_size(group)``,
    built alone: the last entry varies fastest, as in ``itertools.product``."""
    entries = []
    for cell in reversed(_ring_cells(group)):
        index, r = divmod(index, len(cell))
        entries.append(cell[r])
    if index:
        raise IndexError("map index out of range")
    return _from_entries(group, entries[::-1])


# ---------------------------------------------------------------------------
# Operator norm and injectivity measure
# ---------------------------------------------------------------------------

# A lattice operator A is carried as an integer matrix M and one scale d with
# A = M / d, so its powers are M^m / d^m.  A weighted L1/Linf metric becomes
# the integer ratio matrix W / L with W_ij = u_i * v_j and w_i / w_j = W_ij / L.

def _scaled(rows: Matrix) -> tuple[list[list[int]], int]:
    """(M, d) with rows = M / d, d the lcm of the entries' denominators."""
    d = math.lcm(*(a.denominator for row in rows for a in row))
    return [[a.numerator * (d // a.denominator) for a in row] for row in rows], d


def _scaled_inverse(M: list[list[int]], d: int) -> tuple[list[list[int]], int] | None:
    """(N, e) with (M / d)^-1 = N / e in lowest terms, or None when M is singular.

    Fraction-free Gauss-Jordan elimination of [M | I] (Bareiss, 1968): each
    update divides exactly by the previous pivot, every pivoted row keeps the
    current pivot on the diagonal, so the left block ends as D * I and the
    right block as D * M^-1, the adjugate up to the sign of D.
    """
    n = len(M)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    previous = 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pivot * a - f * b) // previous for a, b in zip(row, pivot_row)]
        previous = pivot
    sign = 1 if previous > 0 else -1
    N = [[sign * d * a for a in row[n:]] for row in rows]
    g = math.gcd(previous, *(a for row in N for a in row))
    return [[a // g for a in row] for row in N], abs(previous) // g


class _Weights(NamedTuple):
    """w_i / w_j = u_i * v_j / scale; the norm sums rows (Linf) or columns (L1)."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    scale: int
    by_rows: bool


@lru_cache(maxsize=None)
def _weight_ratios(group: Group, metric: Metric) -> _Weights:
    """The integer ratio matrix of the weights of an L1/Linf metric on a lattice."""
    _check_metric(group, metric)
    w = metric.weights
    q = math.lcm(*(x.denominator for x in w))
    p = math.lcm(*(x.numerator for x in w))
    u = tuple(x.numerator * (q // x.denominator) for x in w)  # q * w_i
    v = tuple(x.denominator * (p // x.numerator) for x in w)  # p / w_j
    return _Weights(u, v, q * p, isinstance(metric, LinfMetric))


def _weighted_sum(M: list[list[int]], weights: _Weights) -> int:
    """L * d times the operator norm of M / d, for any scale d > 0.

    Conjugating by diag(weights) reduces the norm to the classical max row-sum
    (Linf) or max column-sum (L1) of absolute values.
    """
    u, v, _, by_rows = weights
    if by_rows:
        return max(ui * sum(vj * abs(a) for vj, a in zip(v, row)) for ui, row in zip(u, M))
    return max(vj * sum(ui * abs(a) for ui, a in zip(u, col)) for vj, col in zip(v, zip(*M)))


def _lattice_norm(M: list[list[int]], d: int, weights: _Weights) -> Fraction:
    return Fraction(_weighted_sum(M, weights), weights.scale * d)


def _lattice_measure(N: list[list[int]], e: int, weights: _Weights) -> Fraction:
    """1 / ||N / e||: the injectivity measure of the map whose inverse is N / e."""
    return Fraction(weights.scale * e, _weighted_sum(N, weights))


def _powers(M: list[list[int]], d: int):
    """(M^m, d^m) for m = 1, 2, ...: the powers of the operator M / d."""
    power, scale = M, d
    while True:
        yield power, scale
        power, scale = _matmul(power, M), scale * d


@lru_cache(maxsize=None)
def op_norm(T: Endomorphism, metric: Metric) -> Fraction:
    """sup of ||T(x)|| / ||x|| over nonzero x; exact in all supported cases."""
    if isinstance(T.group, FiniteGroup):
        view = _ring(T.group, metric)
        return Fraction(*view.norm(view.handle(T)))
    return _lattice_norm(*_scaled(T.matrix), _weight_ratios(T.group, metric))


@lru_cache(maxsize=None)
def injectivity_measure(T: Endomorphism, metric: Metric) -> Fraction:
    """inf of ||T(x)|| / ||x|| over nonzero x.

    Exhaustive on finite groups.  On lattices the infimum is 0 for singular
    matrices (the kernel contains a lattice direction after scaling) and
    1 / ||T^-1|| otherwise.
    """
    if isinstance(T.group, FiniteGroup):
        view = _ring(T.group, metric)
        return Fraction(*view.measure(view.handle(T)))
    weights = _weight_ratios(T.group, metric)
    inverse = _scaled_inverse(*_scaled(T.matrix))
    if inverse is None:
        return Fraction(0)
    return _lattice_measure(*inverse, weights)


def norm_of_n(group: Group, metric: Metric, n: int) -> Fraction:
    """Operator norm of multiplication by n: sup of ||n*x|| / ||x|| over x != 0.

    On a lattice the norm is a weighted L1 or Linf norm, so ||n*x|| = n*||x||
    and the answer is n.
    """
    _positive_index(n)
    _check_metric(group, metric)
    if not isinstance(group, FiniteGroup):
        return Fraction(n)
    return op_norm(scaling(group, n), metric)


def mu_of_n(group: Group, metric: Metric, n: int) -> Fraction:
    """Injectivity measure of multiplication by n: inf of ||n*x|| / ||x||.

    n on a lattice, as for ``norm_of_n``.
    """
    _positive_index(n)
    _check_metric(group, metric)
    if not isinstance(group, FiniteGroup):
        return Fraction(n)
    return injectivity_measure(scaling(group, n), metric)


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


# largest power a bracket takes: each power costs a matrix product and two
# m-th roots of numbers that grow linearly in m
_HORIZON_CAP = 1024


def _check_horizon(horizon: int) -> None:
    """Refuses a horizon below 1 or above ``_HORIZON_CAP``, before any power."""
    _positive_index(horizon, "horizon")
    _check_cap("a spectral-radius bracket", horizon, "powers", _HORIZON_CAP)


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
    _check_horizon(horizon)
    g = T.group
    if isinstance(g, FiniteGroup):
        view = _ring(g, metric)
        return _exact_bracket(0 if view.nilpotent(view.handle(T)) else 1)
    weights = _weight_ratios(g, metric)
    if isinstance(g, IntLattice) and T.power(g.dim).is_zero:
        return _exact_bracket(0)
    M, d = _scaled(T.matrix)
    inverse = _scaled_inverse(M, d)
    # every power of a singular map is singular, with measure 0
    inverse_powers = itertools.repeat(None) if inverse is None else _powers(*inverse)
    upper = None
    lower = Fraction(1) if isinstance(g, IntLattice) else Fraction(0)
    for m, power, inverse_power in zip(range(1, horizon + 1), _powers(M, d), inverse_powers):
        # a root can lower ``upper`` only if upper^m > q, raise ``lower``
        # only if lower^m < mu
        q = _lattice_norm(*power, weights)
        if upper is None or upper ** m > q:
            upper_m = root_upper(q, m)
            if upper is None or upper_m < upper:
                upper = upper_m
        if inverse_power is None:
            continue
        mu_m = _lattice_measure(*inverse_power, weights)
        if lower ** m < mu_m:
            lower_m = root_lower(mu_m, m)
            if lower_m > lower:
                lower = lower_m
    lower = min(lower, upper)
    return RhoBracket(lower, upper, lower == upper)


# ---------------------------------------------------------------------------
# The integer view of End(G)
# ---------------------------------------------------------------------------

class _RingView:
    """End(G) of a finite group on ints, for one metric (see ``_ring``).

    A map's handle is its canonical entries, row by row, as one flat tuple,
    so equal maps have equal handles in every view and nothing lists End(G).
    The view holds only caches that a recomputation would fill again: per
    handle its rows and columns, its norm and measure as (num, den) pairs
    and its nilpotency, O(dim^2) ints a map and no array over G; a view
    shared by threads needs no lock.  The bounds come from one pass over
    the map's image indices, built, read and dropped, that reads
    ``norm_table`` and keeps the extreme ratios by cross-multiplication over
    positive denominators.  T∘S, T + S and T - S are entry arithmetic on
    the handles, so no table of G is needed.
    """

    def __init__(self, group: FiniteGroup, metric: Metric):
        self.group, self.metric = group, metric
        # the modulus of each entry of a handle
        self._moduli = tuple(m for m in group.moduli for _ in range(group.dim))
        self._lines, self._bounds, self._nilpotent = {}, {}, {}

    def handle(self, T: Endomorphism) -> tuple[int, ...]:
        _same_group(T, self)
        return tuple(itertools.chain.from_iterable(T.matrix))

    def lines(self, t: tuple[int, ...]) -> tuple[Matrix, Matrix]:
        """The rows and the columns of the map with handle t."""
        lines = self._lines.get(t)
        if lines is None:
            dim = self.group.dim
            rows = tuple(t[i:i + dim] for i in range(0, len(t), dim))
            lines = self._lines[t] = rows, tuple(zip(*rows))
        return lines

    def compose(self, t: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
        columns = self.lines(s)[1]
        return tuple([
            sum(map(operator.mul, row, col)) % m
            for row, m in zip(self.lines(t)[0], self.group.moduli) for col in columns
        ])

    def add(self, t: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, t, s), self._moduli))

    def sub(self, t: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.sub, t, s), self._moduli))

    def norm(self, t: tuple[int, ...]) -> tuple[int, int]:
        return self.bounds(t)[0]

    def measure(self, t: tuple[int, ...]) -> tuple[int, int]:
        return self.bounds(t)[1]

    def bounds(self, t: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (max, min) of ||T(x)|| / ||x|| over x != 0 as (num, den) pairs."""
        bounds = self._bounds.get(t)
        if bounds is None:
            norms = norm_table(self.group, self.metric)
            if min(norms[1:]) <= 0:
                raise MetricGroupMismatch("metric is not positive definite")
            images = self.group.image_indices(self.lines(t)[0])
            high_num = low_num = norms[images[1]]
            high_den = low_den = norms[1]
            for num, den in zip(map(norms.__getitem__, images[2:]), norms[2:]):
                if num * high_den > high_num * den:
                    high_num, high_den = num, den
                elif num * low_den < low_num * den:
                    low_num, low_den = num, den
            bounds = self._bounds[t] = (high_num, high_den), (low_num, low_den)
        return bounds

    def nilpotent(self, t: tuple[int, ...]) -> bool:
        """T^Omega(|G|) = 0, composing T with itself."""
        nilpotent = self._nilpotent.get(t)
        if nilpotent is None:
            power = t
            for _ in range(_prime_factor_count(self.group.order) - 1):
                power = self.compose(t, power)
            nilpotent = self._nilpotent[t] = not any(power)
        return nilpotent

    def radius(self, t: tuple[int, ...], horizon: int) -> tuple[int, int]:
        """The spectral radius, exactly 0 or 1 on a finite group."""
        _check_horizon(horizon)
        return (0, 1) if self.nilpotent(t) else (1, 1)


# Ratios as (num, den) int pairs with den > 0, as ``_ring`` gives them.
def _pair(q: Fraction) -> tuple[int, int]:
    return q.numerator, q.denominator


def _times(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[0], p[1] * q[1]


def _plus(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def _gap(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """|p - q|."""
    return abs(p[0] * q[1] - q[0] * p[1]), p[1] * q[1]


def _exceeds(p: tuple[int, int], q: tuple[int, int]) -> bool:
    return p[0] * q[1] > q[0] * p[1]


class _LatticeRing(NamedTuple):
    """End(G) of a lattice as ``_ring`` serves it.

    Each map is its own handle, and its norm, measure and radius bound are
    the lru-cached ``Fraction`` values as (num, den) pairs.
    """

    metric: Metric

    def handle(self, T: Endomorphism) -> Endomorphism:
        return T

    def compose(self, T: Endomorphism, S: Endomorphism) -> Endomorphism:
        return T.compose(S)

    def sub(self, T: Endomorphism, S: Endomorphism) -> Endomorphism:
        return T.sub(S)

    def norm(self, T: Endomorphism) -> tuple[int, int]:
        return _pair(op_norm(T, self.metric))

    def measure(self, T: Endomorphism) -> tuple[int, int]:
        return _pair(injectivity_measure(T, self.metric))

    def radius(self, T: Endomorphism, horizon: int) -> tuple[int, int]:
        """The upper end of the spectral-radius bracket."""
        return _pair(spectral_radius(T, self.metric, horizon).upper)


# a search meets one or two (group, metric) pairs, so only the last 8 are kept
@lru_cache(maxsize=8)
def _ring(group: Group, metric: Metric) -> _RingView | _LatticeRing:
    """End(group) under ``metric``, as handles and (num, den) int pairs.

    Ring operations on handles give handles, and norm, measure and radius
    bound are pairs with den > 0.  A handle is a value that names its map in
    every view: on a finite group the map's entries as one flat tuple, row by
    row, on a lattice the map itself with its ``Fraction`` bounds.  A metric
    that does not fit the group is refused here, by ``groups._check_metric``.
    """
    _check_metric(group, metric)
    if isinstance(group, FiniteGroup):
        return _RingView(group, metric)
    return _LatticeRing(metric)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

def inverts(A: Endomorphism, B: Endomorphism) -> bool:
    """Whether B is a two-sided inverse of A."""
    ident = identity(A.group)
    return A.compose(B) == ident and B.compose(A) == ident


def try_inverse(T: Endomorphism) -> Endomorphism | None:
    """The inverse endomorphism when T is a group automorphism, else None."""
    g = T.group
    if isinstance(g, FiniteGroup):
        preimage = dict(zip(g.image_indices(T.matrix), g.elements()))
        if len(preimage) != g.order:
            return None
        # column j of the inverse is the preimage of e_j, of lex index m_(j+1)...m_(k-1)
        columns = [preimage[math.prod(g.moduli[j + 1:])] for j in range(g.dim)]
        inverse = make_endo(g, list(zip(*columns)))
    else:
        scaled = _scaled_inverse(*_scaled(T.matrix))
        if scaled is None:
            return None
        N, e = scaled
        rational = [[Fraction(a, e) for a in row] for row in N]
        if not all(g.is_coordinate(a) for row in rational for a in row):
            return None
        inverse = _build(g, rational)
    return inverse if inverts(T, inverse) else None


def neumann_inverse(T: Endomorphism, metric: Metric) -> Endomorphism:
    """Invert I - T by the finite geometric series I + T + T^2 + ...

    Requires a complete group and a certified spectral radius below one, so
    T is nilpotent and the series ends, with no term budget (see the module
    docstring).  The result is verified to invert I - T on both sides
    before it is returned.
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
    while not power.is_zero:
        terms = terms.add(power)
        power = power.compose(T)
    if not inverts(identity(g).sub(T), terms):
        raise InvariantViolated("the geometric series does not invert I - T")
    return terms


def shifted_inverse(S: Endomorphism, T: Endomorphism, metric: Metric) -> Endomorphism:
    """Invert S - T given an invertible S and a small relative perturbation.

    Inverts the two factorizations (S - T) = (I - T S^-1) S = S (I - S^-1 T)
    with ``neumann_inverse``; whichever is certified is used, both are
    checked to agree when available, and the result is verified to invert
    S - T exactly.  Raises ``SNotInvertible`` or ``RhoNotCertifiedBelowOne``.
    """
    _same_group(S, T)
    s_inv = try_inverse(S)
    if s_inv is None:
        raise SNotInvertible("S has no representable inverse")
    candidates = []
    for reduced, on_left in ((T.compose(s_inv), True), (s_inv.compose(T), False)):
        try:
            core = neumann_inverse(reduced, metric)
        except RhoNotCertifiedBelowOne:
            continue
        candidates.append(s_inv.compose(core) if on_left else core.compose(s_inv))
    if not candidates:
        raise RhoNotCertifiedBelowOne("neither factorization is certified")
    if any(c != candidates[0] for c in candidates):
        raise InvariantViolated("the two factorizations give different inverses")
    result = candidates[0]
    if not inverts(S.sub(T), result):
        raise InvariantViolated("the computed inverse does not invert S - T")
    return result


# ---------------------------------------------------------------------------
# Midpoint recursion
# ---------------------------------------------------------------------------

def halve(T: Endomorphism) -> Endomorphism:
    """The endomorphism H with H + H = T; requires divisibility by two."""
    columns = [T.group.div_apply(2, column) for column in zip(*T.matrix)]
    return Endomorphism(T.group, tuple(zip(*columns)))


# most steps of the midpoint recursion on a lattice: each step squares the
# matrix, so entry bit-lengths double.  For T of bench/sessions/dyadic2.json
# step 14 takes about 2 ms and its 8,194-bit entries still print under
# Python's default 4,300-digit str(int) limit; step 20 takes 0.7 s and step
# 22 over 10 s.
_RECURSION_CAP = 14


def _check_steps(T: Endomorphism, n: int) -> None:
    """Refuses n below 1, or a walk of more steps than its cap, before the first step:
    n on a lattice, above ``_RECURSION_CAP``; min(n, |End(G)|) on a finite group,
    where a walk repeats within |End(G)| terms, above ``_RING_CAP``."""
    _positive_index(n)
    what = f"the midpoint recursion on {T.group}"
    if isinstance(T.group, FiniteGroup):
        _check_cap(what, min(n, _ring_order(T.group)), "steps", _RING_CAP)
    else:
        _check_cap(what, n, "steps", _RECURSION_CAP)


def _walk(first: Endomorphism, step: Callable, n: int) -> Callable[[int], Endomorphism]:
    """Term k (1 <= k <= n) of first, step(first), ...: the walk steps until term n
    or its first repeat, and a term past a repeat is read off the cycle, at
    index tail + (k - 1 - tail) mod period."""
    terms, seen = [first], {first: 0}
    tail, period = n, 1
    while len(terms) < n:
        term = step(terms[-1])
        if term in seen:
            tail, period = seen[term], len(terms) - seen[term]
            break
        seen[term] = len(terms)
        terms.append(term)
    return lambda k: terms[k - 1 if k <= tail else tail + (k - 1 - tail) % period]


def _iterates(T: Endomorphism, n: int) -> Callable[[int], Endomorphism]:
    """Iterate k of U -> U^2 + (I - U)^2 from T, k = 1..n; checked when called."""
    _check_steps(T, n)
    ident = identity(T.group)
    # U^2 + (I - U)^2 = I - 2(U - U^2): one product a step
    return _walk(T, lambda U: ident.sub(U.sub(U.compose(U)).scale(2)), n)


def midpoint_iterates(T: Endomorphism, n: int) -> Iterator[Endomorphism]:
    """Iterates 1..n of U -> U^2 + (I - U)^2 starting from T; a walk beyond its
    cap (``_check_steps``) is refused by this call, before the first step."""
    return map(_iterates(T, n), range(1, n + 1))


def midpoint_recursion(T: Endomorphism, n: int) -> Endomorphism:
    """n-th iterate of U -> U^2 + (I - U)^2 starting from T."""
    return _iterates(T, n)(n)


def _reflected_squares(T: Endomorphism, n: int) -> Callable[[int], Endomorphism]:
    """(2T - I)^(2^(k-1)) for k = 1..n, one squaring per step; checked when called."""
    _check_steps(T, n)
    if not T.group.divisible_by(2):
        raise NotDivisible(f"{T.group} is not divisible by 2")
    return _walk(T.scale(2).sub(identity(T.group)), lambda power: power.compose(power), n)


def midpoint_closed_forms(T: Endomorphism, n: int) -> Iterator[Endomorphism]:
    """Closed forms 1..n of the midpoint recursion: half of I + (2T - I)^(2^(k-1)),
    computed apart from it; defined on groups divisible by two, capped as
    ``midpoint_iterates`` is, and both checked when called."""
    ident = identity(T.group)
    return (halve(ident.add(power)) for power in map(_reflected_squares(T, n), range(1, n + 1)))


def midpoint_closed_form(T: Endomorphism, n: int) -> Endomorphism:
    """The n-th closed form; equals ``midpoint_recursion(T, n)`` for every input."""
    return halve(identity(T.group).add(_reflected_squares(T, n)(n)))
