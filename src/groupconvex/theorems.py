"""Executable verification of the package's structural results.

``verify`` runs one property's checker on an :class:`Instance`: a group, a
validated metric, named endomorphisms and sets, and the run's
:class:`Params`.  The checkers, their instance drawers and their spec rows
(:class:`PropertySpec`) live in ``properties``, one section per property,
which this module loads on first use; ``PropertyId``, built from the rows,
is served from there by this module's ``__getattr__``.

``counterexample_search`` draws deterministic pseudo-random instances that
satisfy a property's hypotheses and reports the first violation, the sample
count, or ``GeneratorExhausted`` when the hypotheses are unsatisfiable (for
example, no finite group admits an n with injectivity measure above one).
With ``exhaustive`` set, a pairwise property on a pinned finite group is one
``verify`` of the bare group, its checker walking the first ``budget`` ordered
pairs of End(G) x End(G); any other exhaustive search is refused with
``NotEnumerable``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from . import endo as en
from .endo import Endomorphism
from .errors import GeneratorExhausted, HypothesisFailed, NotEnumerable
from .groups import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    Group,
    IntLattice,
    LinfMetric,
    Metric,
    _positive_index,
    validate_metric,
)
from .verdicts import Verdict, proved, refuted, unfalsified

if TYPE_CHECKING:
    from .convexity import PointSet
    from .properties import PropertyId


@dataclass(frozen=True)
class Params:
    n0: int | None = None
    horizon: int = 8
    budget: int = 100
    seed: int = 0
    max_iter: int = 200


@dataclass
class Instance:
    """A concrete scenario: group, validated metric, named endos and sets."""

    group: Group
    metric: Metric
    endos: dict[str, Endomorphism] = field(default_factory=dict)
    sets: dict[str, PointSet] = field(default_factory=dict)
    params: Params = field(default_factory=Params)


@dataclass(frozen=True)
class PropertySpec:
    """One property's row: its name, checker, instance drawer and preconditions.

    ``draw(group, metric, rng)`` returns the instance's named endomorphisms
    and sets, consuming ``rng`` in a fixed order, so a search replays from
    its seed.  ``finite_group(rng)``, when set, replaces the group that a
    default finite-family search drew.  Flags: ``expansive`` needs n0 with
    injectivity measure above one, ``pairwise`` marks a ``check(inst,
    pairs)`` that stops after the first ``pairs`` ordered pairs of its maps,
    as an exhaustive search asks.
    """

    name: str
    check: Callable[..., Verdict]
    draw: Callable[[Group, Metric, random.Random], tuple[dict, dict]]
    expansive: bool = False
    pairwise: bool = False
    finite_group: Callable[[random.Random], FiniteGroup] | None = None


# the search's draws: moduli of a finite group and how many, and lattice
# dimensions
_MODULI_RANGE = (4, 12)
_MAX_FACTORS = 2
_DIM_RANGE = (1, 3)

_EXPANSIVE = "mu_d(n0) > 1"


def __getattr__(name: str):
    """``PropertyId``, from the property sections, which load on first use."""
    if name == "PropertyId":
        from .properties import PropertyId
        return PropertyId
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def verify(prop: PropertyId, inst: Instance, pairs: int | None = None) -> Verdict:
    """Run the checker for ``prop`` on ``inst``; pure in its arguments.

    A pairwise checker stops after its first ``pairs`` ordered pairs of maps.
    """
    if not validate_metric(inst.group, inst.metric).proved:
        raise HypothesisFailed("the metric satisfies the norm axioms")
    from .properties import _SPECS

    spec = _SPECS[prop]
    if spec.expansive:
        n0 = inst.params.n0
        if n0 is None:
            raise HypothesisFailed("parameter n0 is provided")
        mu0 = en.mu_of_n(inst.group, inst.metric, n0)
        if mu0 <= 1:
            raise HypothesisFailed(_EXPANSIVE, f"mu_d({n0}) = {mu0}")
    return spec.check(inst, pairs) if spec.pairwise else spec.check(inst)


# -- The seeded search --------------------------------------------------------
@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the instance distribution used by the search."""

    family: str = "finite"  # finite | int | dyadic
    group: Group | None = None
    metric: Metric | None = None
    exhaustive: bool = False


def _draw_group(gen: GeneratorConfig, rng: random.Random) -> Group:
    if gen.group is not None:
        return gen.group
    if gen.family == "finite":
        count = rng.randint(1, _MAX_FACTORS)
        return FiniteGroup(tuple(rng.randint(*_MODULI_RANGE) for _ in range(count)))
    dim = rng.randint(*_DIM_RANGE)
    return IntLattice(dim) if gen.family == "int" else DyadicLattice(dim)


def _metric_for(gen: GeneratorConfig, group: Group) -> Metric:
    if gen.metric is not None:
        return gen.metric
    unit = tuple(Fraction(1) for _ in range(group.dim))
    if isinstance(group, FiniteGroup):
        return CyclicMetric(unit)
    return LinfMetric(unit)


def _build_instance(spec: PropertySpec, gen: GeneratorConfig, rng: random.Random) -> Instance:
    group = _draw_group(gen, rng)
    metric = _metric_for(gen, group)
    params = Params(seed=rng.randrange(2 ** 30))
    if spec.expansive:
        if isinstance(group, FiniteGroup):
            raise GeneratorExhausted(
                "mu_d(n) <= 1 for every n on a finite group: any element of "
                "maximal norm has ||n*x|| <= ||x||, so the hypothesis "
                f"{_EXPANSIVE} is unsatisfiable"
            )
        n0 = 2 if isinstance(group, IntLattice) else 2 ** rng.randint(1, 2)
        params = Params(n0=n0, seed=rng.randrange(2 ** 30), budget=8)
    if spec.finite_group is not None and gen.family == "finite" and gen.group is None:
        group = spec.finite_group(rng)
        metric = _metric_for(gen, group)
    endos, sets = spec.draw(group, metric, rng)
    return Instance(group, metric, endos=endos, sets=sets, params=params)


def counterexample_search(
    prop: PropertyId, gen: GeneratorConfig, budget: int, seed: int
) -> Verdict:
    """Search for violations among hypothesis-satisfying instances.

    Deterministic for a fixed seed.  Returns the first refutation found, a
    ``Proved`` verdict when an exhaustive generator is fully enumerated, and
    ``Unfalsified`` with the sample count otherwise.
    """
    _positive_index(budget, "budget")
    from .properties import _SPECS

    spec = _SPECS[prop]

    if gen.exhaustive:
        if not (spec.pairwise and isinstance(gen.group, FiniteGroup)):
            pairwise = ", ".join(row.name for row in _SPECS.values() if row.pairwise)
            raise NotEnumerable(
                f"an exhaustive search walks End(G) x End(G): it needs a pairwise "
                f"property ({pairwise}) on a pinned finite group"
            )
        metric = _metric_for(gen, gen.group)
        size = en.ring_size(gen.group) ** 2
        verdict = verify(prop, Instance(gen.group, metric), pairs=budget)
        if verdict.refuted:
            maps = dict(zip("TS", (w for w in verdict.witness if isinstance(w, Endomorphism))))
            return refuted((Instance(gen.group, metric, endos=maps),) + verdict.witness)
        return proved() if budget >= size else unfalsified(budget)

    rng = random.Random(seed)
    checked = 0
    stalls = 0
    while checked < budget:
        inst = _build_instance(spec, gen, rng)
        try:
            verdict = verify(prop, inst)
        except HypothesisFailed:
            stalls += 1
            if stalls > 50 * budget:
                raise GeneratorExhausted("could not draw hypothesis-satisfying instances")
            continue
        checked += 1
        if verdict.refuted:
            return refuted((inst,) + verdict.witness)
    return unfalsified(checked)
