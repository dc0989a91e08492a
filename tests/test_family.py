"""``family_of`` against the per-map pair loop it replaced.

``family_of(D)`` decides each map R by the targets theorem: R makes D
convex exactly when R(d) lies in A_d for every d in D - D, where A_d is the
intersection of the translates D - y over the y in D with y + d in D.  The
reference below is the definition instead: R(x) + y - R(y) in D for every
ordered pair (x, y), one map at a time, kept here as the oracle.  Both must
list the same maps in End(G) order, on every subset of the small groups,
on drawn subsets of larger ones and on groups coded by their tuples.
"""

from __future__ import annotations

import itertools
import random

import pytest

from groupconvex import FiniteGroup, all_endomorphisms, convexity, family_of, finite_set
from groupconvex.errors import NotEnumerable


def ref_family(D):
    g = D.group

    def keeps_convex(R):
        return all(
            g.add(R.apply(x), g.sub(y, R.apply(y))) in D.members
            for x in D.elements
            for y in D.elements
        )

    return tuple(R for R in all_endomorphisms(g) if keeps_convex(R))


def _subsets(group):
    elems = list(group.elements())
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield finite_set(group, combo)


@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)], ids=str)
def test_family_matches_the_pair_loop_on_every_subset(moduli):
    group = FiniteGroup(moduli)
    sizes = set()
    for D in _subsets(group):
        family = family_of.__wrapped__(D)
        assert family == ref_family(D), D
        sizes.add(len(family))
    # the whole ring, a proper part of it and the two maps every set keeps
    assert {2, len(all_endomorphisms(group))} < sizes


@pytest.mark.parametrize("moduli", [(4, 4), (2, 6)], ids=str)
def test_family_matches_the_pair_loop_on_drawn_subsets(moduli):
    group = FiniteGroup(moduli)
    elems = list(group.elements())
    rng = random.Random(17)
    sizes = set()
    for _ in range(60):
        # half small sets, whose families are large, half of any size
        size = rng.randint(1, 4) if rng.random() < 0.5 else rng.randint(0, len(elems))
        D = finite_set(group, rng.sample(elems, size))
        family = family_of.__wrapped__(D)
        assert family == ref_family(D), D
        sizes.add(len(family))
    assert len(sizes) > 3


def test_family_without_tables_runs_on_tuples():
    # 2^6 * 30,030 padded codes, beyond the pair cap, so it is coded by its tuples
    group = FiniteGroup((2, 3, 5, 7, 11, 13))
    assert convexity._coding(group).point is convexity._same
    for points in (
        [[0] * 6],
        [[0] * 6, [1] * 6],
        [[0] * 6, [1, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5]],
        [[1, 2, 3, 4, 5, 6], [0, 1, 1, 2, 3, 5], [1, 1, 2, 3, 5, 8], [0, 0, 4, 0, 10, 0]],
    ):
        D = finite_set(group, points)
        assert family_of.__wrapped__(D) == ref_family(D), D
    # groups too large for lex indices and for End(G) refuse the ring, by name
    for group in (FiniteGroup((2**70,)), FiniteGroup((2,) * 64)):
        with pytest.raises(NotEnumerable, match="endomorphism ring"):
            family_of(finite_set(group, [group.zero()]))
