"""Computable metric Abelian groups and validated translation-invariant norms.

Three group families are instantiated: finite products of cyclic groups,
integer lattices and dyadic-rational lattices.  Elements are plain tuples of
exact scalars (residues, arbitrary-precision integers, or dyadic Fractions),
so equality is structural and every value is hashable and immutable.

A norm here is positive definite, even and subadditive but not necessarily
homogeneous; four norm families are supported so that suprema and infima of
norm ratios stay exactly computable.  Weighted cyclic norms on finite groups
and weighted L1/Linf norms on lattices are norms by construction; L1/Linf
and table norms on finite groups are checked exhaustively against one norm
table per (group, metric), which operator norms and injectivity measures
read as well.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    GroupMismatch,
    MetricGroupMismatch,
    NotDivisible,
    NotEnumerable,
    UnsupportedCombination,
)
from .scalars import (
    Scalar,
    as_fraction,
    as_int,
    format_dyadic,
    format_rational,
    is_dyadic,
)
from .verdicts import Verdict, proved, refuted

Vector = tuple


class Group:
    """Shared surface of the three group families.

    Elements are tuples; ``element`` canonicalizes raw coordinates and all
    operations return canonical tuples.  Every operation is a pure function,
    so values can be shared freely between concurrent executors.  Each kind
    owns what depends on it: canonical coordinates (so the columns T(e_j) of
    an endomorphism's matrix too), divisibility, completeness and its session
    literal.
    """

    kind: str = ""
    complete: bool

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def element(self, coords: Sequence) -> Vector:
        raise NotImplementedError

    def zero(self) -> Vector:
        return self.element([0] * self.dim)

    def add(self, x: Vector, y: Vector) -> Vector:
        raise NotImplementedError

    def neg(self, x: Vector) -> Vector:
        raise NotImplementedError

    def sub(self, x: Vector, y: Vector) -> Vector:
        return self.add(x, self.neg(y))

    def nat_mul(self, n: int, x: Vector) -> Vector:
        """n-fold sum of x for n >= 1 (agrees with iterated addition)."""
        raise NotImplementedError

    def divisible_by(self, n: int) -> bool:
        """True iff multiplication by n is a bijection of the group."""
        raise NotImplementedError

    def div_apply(self, n: int, x: Vector) -> Vector:
        """The unique y with n*y = x; requires ``divisible_by(n)``."""
        raise NotImplementedError

    def matrix(self, rows: Sequence[Sequence]) -> tuple[tuple, ...]:
        """Canonical rows of a square matrix: column j is T(e_j), an element."""
        raise NotImplementedError

    def _ring_matrix(self, rows: Sequence[Sequence]) -> tuple[tuple, ...]:
        """``matrix`` for sums, differences and products of canonical rows."""
        return self.matrix(rows)

    def format_scalar(self, value: Scalar) -> str:
        """The session-file text of a coordinate or matrix entry."""
        return format_rational(value)

    def literal(self) -> dict:
        """The session-file literal that reads back as this group."""
        raise NotImplementedError

    def _check_dim(self, coords: Sequence) -> None:
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )


def _positive_index(n: int, name: str = "n") -> None:
    """The one check that a multiplier or a count, called ``name``, is at least 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


def _same_group(a, b) -> None:
    """The one check that two operands, maps or sets, live on one group."""
    if a.group != b.group:
        raise GroupMismatch(f"{a.group} vs {b.group}")


def _check_cap(what: str, count: int, unit: str, cap: int) -> None:
    """The one refusal of work beyond a cap, made before any of it is done."""
    if count > cap:
        raise NotEnumerable(f"{what} has {count} {unit}, beyond the cap of {cap}")


@dataclass(frozen=True)
class FiniteGroup(Group):
    """Product of cyclic groups Z_m1 x ... x Z_mk; elements are residue tuples.

    The hash is the one the dataclass would compute, ``hash((moduli,))``,
    taken once at construction, since every map's hash reads it.
    """

    moduli: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    kind = "finite"
    complete = True

    def __post_init__(self):
        # a string or a mapping would iterate as its characters or its keys
        if not isinstance(self.moduli, (list, tuple)):
            raise TypeError(f"moduli must be a list of integers, not {self.moduli!r}")
        object.__setattr__(self, "moduli", tuple(as_int(m) for m in self.moduli))
        if not self.moduli:
            raise ValueError("a finite group needs at least one modulus")
        if any(m < 2 for m in self.moduli):
            raise ValueError("all moduli must be >= 2")
        object.__setattr__(self, "_hash", hash((self.moduli,)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "x".join(f"Z{m}" for m in self.moduli)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    def element(self, coords: Sequence) -> Vector:
        self._check_dim(coords)
        return tuple(map(operator.mod, map(as_int, coords), self.moduli))

    def matrix(self, rows):
        return tuple(
            tuple(as_int(a) % m for a in row) for row, m in zip(rows, self.moduli)
        )

    def _ring_matrix(self, rows):
        # entries built from canonical ints are ints: only the residue is new
        return tuple(tuple(a % m for a in row) for row, m in zip(rows, self.moduli))

    def elements(self) -> Iterator[Vector]:
        """All elements in lexicographic order."""
        return itertools.product(*[range(m) for m in self.moduli])

    def add(self, x, y):
        self._check_dim(x)
        self._check_dim(y)
        return tuple(map(operator.mod, map(operator.add, x, y), self.moduli))

    def neg(self, x):
        self._check_dim(x)
        return tuple(map(operator.mod, map(operator.neg, x), self.moduli))

    def sub(self, x, y):
        self._check_dim(x)
        self._check_dim(y)
        return tuple(map(operator.mod, map(operator.sub, x, y), self.moduli))

    def nat_mul(self, n, x):
        _positive_index(n)
        self._check_dim(x)
        return tuple((n * a) % m for a, m in zip(x, self.moduli))

    def divisible_by(self, n):
        _positive_index(n)
        return all(math.gcd(n, m) == 1 for m in self.moduli)

    def div_apply(self, n, x):
        if not self.divisible_by(n):
            raise NotDivisible(f"{self} is not divisible by {n}")
        self._check_dim(x)
        return tuple((pow(n, -1, m) * a) % m for a, m in zip(x, self.moduli))

    def literal(self) -> dict:
        return {"kind": self.kind, "moduli": list(self.moduli)}

    def image_indices(self, matrix: Sequence[Sequence[int]]) -> list[int]:
        """The lex index of T(x) for every x in lex order, T given by its matrix.

        The index of an element is sum_i x_i * R_i, with R_(k-1) = 1 and
        R_i = R_(i+1) * m_(i+1).  By linearity coordinate i of T(x) is
        sum_j a_ij * x_j mod m_i, which one product over row i gives for
        every x at once.  Beyond ``_TABLE_CAP`` elements none is built.
        """
        _check_cap(str(self), self.order, "elements", _TABLE_CAP)
        index = itertools.repeat(0)
        place = 1
        for row, m in zip(reversed(matrix), reversed(self.moduli)):
            coordinate = [0]
            for a, m_j in zip(row, self.moduli):
                steps = range(0, a * m_j, a) if a else (0,) * m_j
                coordinate = [c + s for c in coordinate for s in steps]
            index = list(map(operator.add, index, [c % m * place for c in coordinate]))
            place *= m
        return index


@dataclass(frozen=True)
class _Lattice(Group):
    """Arithmetic shared by the two lattices, whose coordinates are rationals.

    A kind says which rationals are coordinates (``coordinates`` canonicalizes
    them, ``is_coordinate`` tests one); the group is divisible by n exactly
    when 1/n is one.
    """

    lattice_dim: int

    def __post_init__(self):
        object.__setattr__(self, "lattice_dim", as_int(self.lattice_dim))
        _positive_index(self.lattice_dim, "dimension")

    @property
    def dim(self) -> int:
        return self.lattice_dim

    def coordinates(self, values: Sequence) -> tuple:
        """Canonical coordinates for exact scalars; ValueError if one has none."""
        raise NotImplementedError

    def is_coordinate(self, q: Fraction) -> bool:
        """True iff the rational q is a coordinate of some element."""
        raise NotImplementedError

    def element(self, coords):
        self._check_dim(coords)
        return self.coordinates(coords)

    def matrix(self, rows):
        return tuple(map(self.coordinates, rows))

    def neg(self, x):
        self._check_dim(x)
        return tuple(-a for a in x)

    def nat_mul(self, n, x):
        _positive_index(n)
        self._check_dim(x)
        return tuple(n * a for a in x)

    def divisible_by(self, n):
        _positive_index(n)
        return self.is_coordinate(Fraction(1, n))

    def div_apply(self, n, x):
        if not self.divisible_by(n):
            raise NotDivisible(f"{self} is not divisible by {n}")
        return self.element([Fraction(a, n) for a in x])

    def literal(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class IntLattice(_Lattice):
    """The free Abelian group Z^dim."""

    kind = "int"
    complete = True

    def __str__(self):
        return f"Z^{self.lattice_dim}"

    def coordinates(self, values):
        return tuple(map(as_int, values))

    def is_coordinate(self, q):
        return q.denominator == 1

    def add(self, x, y):
        self._check_dim(x)
        self._check_dim(y)
        return tuple(a + b for a, b in zip(x, y))


class DyadicLattice(_Lattice):
    """Vectors of dyadic rationals p/2^k; uniquely divisible by powers of two.

    This group is flagged non-complete: Cauchy sequences of dyadics need not
    converge to a dyadic point.
    """

    kind = "dyadic"
    complete = False

    def __str__(self):
        return f"dyadic^{self.lattice_dim}"

    def coordinates(self, values):
        out = tuple(map(as_fraction, values))
        for q in out:
            if not is_dyadic(q):
                raise ValueError(f"coordinate {q} is not a dyadic rational")
        return out

    def is_coordinate(self, q):
        return is_dyadic(q)

    def format_scalar(self, value):
        return format_dyadic(Fraction(value))

    def add(self, x, y):
        self._check_dim(x)
        self._check_dim(y)
        return tuple(a + b for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _WeightedMetric:
    """Shared shape of the weighted norms: one positive weight per coordinate.

    The hash is the one the dataclass would compute, ``hash((weights,))``,
    taken once at construction: every cache lookup keyed on a metric would
    otherwise hash each ``Fraction`` weight again.
    """

    weights: tuple[Fraction, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(as_fraction(w) for w in self.weights)
        if not weights:
            raise ValueError("at least one weight is required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_hash", hash((weights,)))

    def __hash__(self):
        return self._hash

    def literal(self) -> dict:
        return {"kind": self.kind, "weights": [format_rational(w) for w in self.weights]}


class CyclicMetric(_WeightedMetric):
    """||x|| = sum_i w_i * min(x_i, m_i - x_i) on a finite group."""

    kind = "cyclic"


class LinfMetric(_WeightedMetric):
    """||x|| = max_i w_i * |x_i|."""

    kind = "linf"


class L1Metric(_WeightedMetric):
    """||x|| = sum_i w_i * |x_i|."""

    kind = "l1"


@dataclass(frozen=True)
class TableMetric:
    """Explicit norm values for every element of a finite group.

    Equality and hashing come from the sorted ``entries``, and the hash is
    taken once at construction; ``values`` is the same data as a dict, built
    once so that a lookup hashes one element.
    """

    entries: tuple[tuple[Vector, Fraction], ...]
    values: dict[Vector, Fraction] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    kind = "table"

    def __post_init__(self):
        canon = tuple(
            sorted((tuple(k), as_fraction(v)) for k, v in self.entries)
        )
        object.__setattr__(self, "entries", canon)
        object.__setattr__(self, "values", dict(canon))
        object.__setattr__(self, "_hash", hash((canon,)))

    def __hash__(self):
        return self._hash

    def literal(self) -> dict:
        return {
            "kind": self.kind,
            "values": {
                ",".join(str(c) for c in key): format_rational(v)
                for key, v in self.entries
            },
        }


def table_metric(values: Mapping[Vector, Scalar]) -> TableMetric:
    return TableMetric(tuple((tuple(k), as_fraction(v)) for k, v in values.items()))


Metric = CyclicMetric | LinfMetric | L1Metric | TableMetric


def _require_weight_count(metric, group: Group) -> None:
    if len(metric.weights) != group.dim:
        raise MetricGroupMismatch(
            f"{len(metric.weights)} weights for a {group.dim}-dimensional group"
        )


def norm(group: Group, metric: Metric, x: Vector) -> Fraction:
    """Exact value of the norm of x under the given metric family."""
    group._check_dim(x)
    if isinstance(metric, CyclicMetric):
        if not isinstance(group, FiniteGroup):
            raise MetricGroupMismatch("cyclic norms require a finite group")
        _require_weight_count(metric, group)
        return sum(
            (w * min(a, m - a) for w, a, m in zip(metric.weights, x, group.moduli)),
            Fraction(0),
        )
    if isinstance(metric, LinfMetric):
        _require_weight_count(metric, group)
        return max(w * abs(Fraction(a)) for w, a in zip(metric.weights, x))
    if isinstance(metric, L1Metric):
        _require_weight_count(metric, group)
        return sum(
            (w * abs(Fraction(a)) for w, a in zip(metric.weights, x)), Fraction(0)
        )
    if isinstance(metric, TableMetric):
        if not isinstance(group, FiniteGroup):
            raise UnsupportedCombination("table norms require a finite group")
        key = tuple(x)
        if key not in metric.values:
            raise MetricGroupMismatch(f"table does not cover element {key}")
        return metric.values[key]
    raise MetricGroupMismatch(f"unknown metric {metric!r}")


def distance(group: Group, metric: Metric, x: Vector, y: Vector) -> Fraction:
    return norm(group, metric, group.sub(x, y))


# most elements ``norm_table``, ``FiniteGroup.image_indices`` and
# ``convexity._coding`` enumerate, and most pairs (x, y) the L1/Linf and table
# checks of ``validate_metric`` walk or padded codes ``convexity._coding``
# folds; Z30xZ30 has 810,000 pairs
_TABLE_CAP = 1 << 16
_PAIR_CAP = 1 << 20


@lru_cache(maxsize=None)
def norm_table(group: FiniteGroup, metric: Metric) -> tuple[int, ...]:
    """L * ||x|| for every element of a finite group, in lexicographic order.

    L is the lcm of the norms' denominators, so entries compare as the norms
    do and a ratio of entries is the ratio of the norms.  Metric validation,
    operator norms and injectivity measures all read this one table, so each
    (group, metric) pair evaluates ``norm`` |G| times; beyond ``_TABLE_CAP``
    elements none is evaluated.
    """
    _check_cap(str(group), group.order, "elements", _TABLE_CAP)
    values = [norm(group, metric, x) for x in group.elements()]
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


@lru_cache(maxsize=None)
def validate_metric(group: Group, metric: Metric) -> Verdict:
    """Check positive definiteness, evenness and subadditivity.

    Weighted cyclic norms on finite groups hold by construction.  The term
    w * min(a, m - a) is w times the path distance from a to 0 on the
    m-cycle: it is 0 only at a = 0, it is even because the cycle is
    symmetric under a -> -a, and it is subadditive by the triangle
    inequality d(a + b, 0) <= d(a + b, b) + d(b, 0) = d(a, 0) + d(b, 0) of
    the translation-invariant cycle distance.  A sum of such terms with
    positive weights keeps all three properties, coordinate by coordinate.
    Weighted L1/Linf norms on lattices hold by construction too.

    L1/Linf and table norms on finite groups are checked exhaustively over
    all elements and then all pairs (x, y) in lexicographic order, reading
    ``norm_table``, whose scale L > 0 keeps every comparison.  A refutation
    carries the violated axiom and the offending elements.  A table must
    list exactly the elements of the group.
    """
    if isinstance(group, FiniteGroup):
        if isinstance(metric, CyclicMetric):
            _require_weight_count(metric, group)
            return proved()
        _check_cap(f"the {metric.kind} check on {group}", group.order ** 2, "pairs", _PAIR_CAP)
        table = dict(zip(group.elements(), norm_table(group, metric)))
        if isinstance(metric, TableMetric) and len(metric.values) != len(table):
            raise MetricGroupMismatch(f"table has entries outside {group}")
        zero = group.zero()
        for x, v in table.items():
            if (v == 0) != (x == zero):
                return refuted(("positive definiteness", x))
            if v < 0:
                return refuted(("positive definiteness", x))
            if table[group.neg(x)] != v:
                return refuted(("evenness", x))
        for x, nx in table.items():
            for y, ny in table.items():
                if table[group.add(x, y)] > nx + ny:
                    return refuted(("subadditivity", x, y))
        return proved()
    if isinstance(metric, (LinfMetric, L1Metric)):
        _require_weight_count(metric, group)
        # Positive weights make the three axioms hold identically on lattices.
        return proved()
    raise UnsupportedCombination(
        f"{metric.kind} norm is not supported on {group}"
    )

