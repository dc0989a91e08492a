"""The seeded search's draw stream, pinned.

Every instance ``counterexample_search`` hands to ``verify`` is recorded as
its session text (``cli.format_session``), in call order, with the ``pairs``
limit when one is given, together with the search's outcome.  Any change to
the instance generators that adds, drops or reorders a random draw changes
the digest of some case below.

Cases cover every ``PropertyId`` on the three default families, except:

- ``THM_P1`` on the default finite family, which is slow because each
  instance checks all |family|^3 ring combinations of its set's family; it
  is run on a pinned small group instead (``Z2 x Z2``);
- ``COR_NKC1`` on ``Z^n``, which has its own test in ``test_theorems.py``.

``THM_2`` on the finite family runs twice: ``THM_2-finite-*`` on a pinned
``Z3 x Z3`` and ``THM_2-finite-default-*`` on the default family.  A few
exhaustive searches on pinned groups pin their one ``verify`` call of the
bare group, with the budget as its ``pairs`` limit.
"""

from __future__ import annotations

import hashlib

import pytest

import groupconvex.theorems as theorems
from groupconvex import FiniteGroup, GeneratorConfig, PropertyId, counterexample_search
from groupconvex.cli import format_session

BUDGET = 3
SEEDS = (0, 1)


def _cases() -> dict[str, tuple[PropertyId, GeneratorConfig, int, int]]:
    cases = {}
    pinned = {
        PropertyId.THM_P1: FiniteGroup((2, 2)),
        PropertyId.THM_2: FiniteGroup((3, 3)),
    }
    for prop in PropertyId:
        for family in ("finite", "int", "dyadic"):
            if prop is PropertyId.COR_NKC1 and family == "int":
                continue
            gen = GeneratorConfig(family=family)
            if family == "finite" and prop in pinned:
                gen = GeneratorConfig(group=pinned[prop])
            for seed in SEEDS:
                cases[f"{prop.name}-{family}-{seed}"] = (prop, gen, BUDGET, seed)
    for seed in SEEDS:
        cases[f"THM_2-finite-default-{seed}"] = (PropertyId.THM_2, GeneratorConfig(), BUDGET, seed)
    for prop in (PropertyId.LEMMA_MU, PropertyId.COR_MU, PropertyId.LEMMA_SR):
        gen = GeneratorConfig(group=FiniteGroup((2, 2)), exhaustive=True)
        cases[f"{prop.name}-exhaustive-Z2xZ2"] = (prop, gen, 5, 0)
        gen = GeneratorConfig(group=FiniteGroup((4,)), exhaustive=True)
        cases[f"{prop.name}-exhaustive-Z4"] = (prop, gen, 16, 0)
    return cases


CASES = _cases()


def run_case(prop, gen, budget, seed, monkeypatch) -> tuple[int, str, tuple]:
    """Run one search; return (verify calls, stream digest, outcome).

    Also asserts that no ``verify`` call in the search answered
    ``Unfalsified``: checkers decide, and only the search samples.
    """
    stream = hashlib.sha256()
    calls = 0
    sampled = []
    real_verify = theorems.verify

    def recorder(p, inst, pairs=None):
        nonlocal calls
        calls += 1
        stream.update(hashlib.sha256(format_session(inst).encode()).digest())
        if pairs is not None:  # an exhaustive search's one call hands over its budget
            stream.update(str(pairs).encode())
        verdict = real_verify(p, inst, pairs=pairs)
        if verdict.unfalsified:
            sampled.append(format_session(inst))
        return verdict

    monkeypatch.setattr(theorems, "verify", recorder)
    try:
        verdict = counterexample_search(prop, gen, budget, seed)
        outcome = (verdict.status.value, verdict.samples)
    except Exception as err:  # the exception is part of the pinned outcome
        outcome = (type(err).__name__, str(err))
    assert not sampled, f"verify answered Unfalsified on {sampled[0]}"
    return calls, stream.hexdigest()[:16], outcome


_MU_FINITE = (
    "mu_d(n) <= 1 for every n on a finite group: any element of maximal norm "
    "has ||n*x|| <= ||x||, so the hypothesis mu_d(n0) > 1 is unsatisfiable"
)
_RING = "the full endomorphism ring must be enumerable"
_BOXES = "box instances for sum-inclusion properties use the dyadic lattice"
_DYADIC = "the dyadic lattice is not complete"

EXPECTED: dict[str, tuple[int, str, tuple]] = {
    "COR_1-dyadic-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "COR_1-dyadic-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "COR_1-finite-0": (3, "8ba02763741b2a7c", ('Unfalsified', 3)),
    "COR_1-finite-1": (3, "da8ef8212460acff", ('Unfalsified', 3)),
    "COR_1-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "COR_1-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "COR_MU-dyadic-0": (3, "4c98fc89f875003c", ('Unfalsified', 3)),
    "COR_MU-dyadic-1": (3, "785563609111f3c8", ('Unfalsified', 3)),
    "COR_MU-exhaustive-Z2xZ2": (1, "ed39d6f9fd47269a", ('Unfalsified', 5)),
    "COR_MU-exhaustive-Z4": (1, "432cc8aed1bd5b63", ('Proved', None)),
    "COR_MU-finite-0": (3, "ae8abead71aad46b", ('Unfalsified', 3)),
    "COR_MU-finite-1": (3, "1a0986585944e1bd", ('Unfalsified', 3)),
    "COR_MU-int-0": (3, "c88999daa6d8e06d", ('Unfalsified', 3)),
    "COR_MU-int-1": (3, "295d00d97ff457a2", ('Unfalsified', 3)),
    "COR_NIT-dyadic-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _DYADIC)),
    "COR_NIT-dyadic-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _DYADIC)),
    "COR_NIT-finite-0": (3, "7957880fe1f4a2ae", ('Unfalsified', 3)),
    "COR_NIT-finite-1": (3, "03ba8a55db812a4f", ('Unfalsified', 3)),
    "COR_NIT-int-0": (3, "8277f947af8da27d", ('Unfalsified', 3)),
    "COR_NIT-int-1": (3, "679fef1837560545", ('Unfalsified', 3)),
    "COR_NKC1-dyadic-0": (3, "ed6b81846a1de946", ('Unfalsified', 3)),
    "COR_NKC1-dyadic-1": (3, "e394910c11864bf5", ('Unfalsified', 3)),
    "COR_NKC1-finite-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "COR_NKC1-finite-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "COR_NKC2-dyadic-0": (3, "32862c94715c8ac0", ('Unfalsified', 3)),
    "COR_NKC2-dyadic-1": (3, "5616d55e509c25bb", ('Unfalsified', 3)),
    "COR_NKC2-finite-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "COR_NKC2-finite-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "COR_NKC2-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "COR_NKC2-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "EXA_TILDE-dyadic-0": (3, "11caf89c95919f0f", ('Unfalsified', 3)),
    "EXA_TILDE-dyadic-1": (3, "12abcf73f670d5a6", ('Unfalsified', 3)),
    "EXA_TILDE-finite-0": (3, "b24d222c688cebe9", ('Unfalsified', 3)),
    "EXA_TILDE-finite-1": (3, "ed589087983eeede", ('Unfalsified', 3)),
    "EXA_TILDE-int-0": (3, "921fe18e19b2a3e0", ('Unfalsified', 3)),
    "EXA_TILDE-int-1": (3, "ce3b8e32745fcc4e", ('Unfalsified', 3)),
    "LEMMA_MU-dyadic-0": (3, "4c98fc89f875003c", ('Unfalsified', 3)),
    "LEMMA_MU-dyadic-1": (3, "785563609111f3c8", ('Unfalsified', 3)),
    "LEMMA_MU-exhaustive-Z2xZ2": (1, "ed39d6f9fd47269a", ('Unfalsified', 5)),
    "LEMMA_MU-exhaustive-Z4": (1, "432cc8aed1bd5b63", ('Proved', None)),
    "LEMMA_MU-finite-0": (3, "ae8abead71aad46b", ('Unfalsified', 3)),
    "LEMMA_MU-finite-1": (3, "1a0986585944e1bd", ('Unfalsified', 3)),
    "LEMMA_MU-int-0": (3, "c88999daa6d8e06d", ('Unfalsified', 3)),
    "LEMMA_MU-int-1": (3, "295d00d97ff457a2", ('Unfalsified', 3)),
    "LEMMA_NX-dyadic-0": (3, "2440860f27bde65f", ('Unfalsified', 3)),
    "LEMMA_NX-dyadic-1": (3, "8f2be235a871d020", ('Unfalsified', 3)),
    "LEMMA_NX-finite-0": (3, "1a9b403f5867389d", ('Unfalsified', 3)),
    "LEMMA_NX-finite-1": (3, "f5e25a453029d587", ('Unfalsified', 3)),
    "LEMMA_NX-int-0": (3, "31f9bbe2b9c38c3d", ('Unfalsified', 3)),
    "LEMMA_NX-int-1": (3, "a9654769a444e234", ('Unfalsified', 3)),
    "LEMMA_SR-dyadic-0": (3, "4c98fc89f875003c", ('Unfalsified', 3)),
    "LEMMA_SR-dyadic-1": (3, "785563609111f3c8", ('Unfalsified', 3)),
    "LEMMA_SR-exhaustive-Z2xZ2": (1, "ed39d6f9fd47269a", ('Unfalsified', 5)),
    "LEMMA_SR-exhaustive-Z4": (1, "432cc8aed1bd5b63", ('Proved', None)),
    "LEMMA_SR-finite-0": (3, "ae8abead71aad46b", ('Unfalsified', 3)),
    "LEMMA_SR-finite-1": (3, "1a0986585944e1bd", ('Unfalsified', 3)),
    "LEMMA_SR-int-0": (3, "c88999daa6d8e06d", ('Unfalsified', 3)),
    "LEMMA_SR-int-1": (3, "295d00d97ff457a2", ('Unfalsified', 3)),
    "LEM_TC-dyadic-0": (3, "2440860f27bde65f", ('Unfalsified', 3)),
    "LEM_TC-dyadic-1": (3, "8f2be235a871d020", ('Unfalsified', 3)),
    "LEM_TC-finite-0": (3, "1a9b403f5867389d", ('Unfalsified', 3)),
    "LEM_TC-finite-1": (3, "f5e25a453029d587", ('Unfalsified', 3)),
    "LEM_TC-int-0": (3, "31f9bbe2b9c38c3d", ('Unfalsified', 3)),
    "LEM_TC-int-1": (3, "a9654769a444e234", ('Unfalsified', 3)),
    "THM_0-dyadic-0": (3, "edff083e13b63cec", ('Unfalsified', 3)),
    "THM_0-dyadic-1": (3, "15d5374ea5df29d8", ('Unfalsified', 3)),
    "THM_0-finite-0": (3, "df84ec2fd63ca073", ('Unfalsified', 3)),
    "THM_0-finite-1": (3, "1fb0ead83ea2cb89", ('Unfalsified', 3)),
    "THM_0-int-0": (3, "3b81756b27a78321", ('Unfalsified', 3)),
    "THM_0-int-1": (3, "8bade4dfb3432109", ('Unfalsified', 3)),
    "THM_2-dyadic-0": (3, "32f88012c680b80b", ('Unfalsified', 3)),
    "THM_2-dyadic-1": (3, "918833cdd97d41a7", ('Unfalsified', 3)),
    "THM_2-finite-0": (3, "dc7a3c57a4dda9d5", ('Unfalsified', 3)),
    "THM_2-finite-1": (3, "a64c9a07e1a833bb", ('Unfalsified', 3)),
    "THM_2-finite-default-0": (3, "aea43e7ed2426786", ('Unfalsified', 3)),
    "THM_2-finite-default-1": (3, "1d654c9f65422f1a", ('Unfalsified', 3)),
    "THM_2-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', 'the integer lattice is not 2-divisible')),
    "THM_2-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', 'the integer lattice is not 2-divisible')),
    "THM_NIT-dyadic-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _DYADIC)),
    "THM_NIT-dyadic-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _DYADIC)),
    "THM_NIT-finite-0": (3, "6c3f1742e53e4689", ('Unfalsified', 3)),
    "THM_NIT-finite-1": (3, "78bc9e1d267c948b", ('Unfalsified', 3)),
    "THM_NIT-int-0": (3, "b45e9babb580b601", ('Unfalsified', 3)),
    "THM_NIT-int-1": (3, "24acb1ad546687da", ('Unfalsified', 3)),
    "THM_NK-dyadic-0": (3, "28ccc830ea725de8", ('Unfalsified', 3)),
    "THM_NK-dyadic-1": (3, "bf4f7676786af027", ('Unfalsified', 3)),
    "THM_NK-finite-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_NK-finite-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_NK-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "THM_NK-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "THM_NK_PLUS-dyadic-0": (20, "8313f68d27597a27", ('Unfalsified', 3)),
    "THM_NK_PLUS-dyadic-1": (12, "dfab6bd4a7b2089c", ('Unfalsified', 3)),
    "THM_NK_PLUS-finite-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_NK_PLUS-finite-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_NK_PLUS-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "THM_NK_PLUS-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _BOXES)),
    "THM_P1-dyadic-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "THM_P1-dyadic-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "THM_P1-finite-0": (3, "fc702f82beebbc1e", ('Unfalsified', 3)),
    "THM_P1-finite-1": (3, "583cc0f9b81dfb95", ('Unfalsified', 3)),
    "THM_P1-int-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "THM_P1-int-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _RING)),
    "THM_RCT-dyadic-0": (3, "713a7a2c73e735c1", ('Unfalsified', 3)),
    "THM_RCT-dyadic-1": (3, "e1cec82c38461068", ('Unfalsified', 3)),
    "THM_RCT-finite-0": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_RCT-finite-1": (0, "e3b0c44298fc1c14", ('GeneratorExhausted', _MU_FINITE)),
    "THM_RCT-int-0": (3, "1e719854fd82924d", ('Unfalsified', 3)),
    "THM_RCT-int-1": (3, "9d0f69968929891b", ('Unfalsified', 3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_draw_stream(case, monkeypatch):
    assert run_case(*CASES[case], monkeypatch) == EXPECTED[case]
