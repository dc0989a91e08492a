import pickle
from fractions import Fraction

import pytest

from groupconvex import (
    CyclicMetric,
    FiniteGroup,
    GeneratorConfig,
    Instance,
    LinfMetric,
    Params,
    PropertyId,
    Status,
    box_set,
    counterexample_search,
    finite_set,
    make_endo,
    scaling,
    verify,
)
from groupconvex.errors import (
    GeneratorExhausted,
    HypothesisFailed,
    NotEnumerable,
)


@pytest.fixture
def z9_inst(z9, cyclic1):
    return Instance(z9, cyclic1)


@pytest.fixture
def dy_inst(dyline, linf1):
    return Instance(dyline, linf1)


def test_every_property_has_a_checker():
    assert len(PropertyId) == 17


def test_property_ids_keep_their_names_values_and_order():
    names = [
        "LEMMA_MU", "COR_MU", "LEMMA_NX", "THM_RCT", "LEMMA_SR", "THM_NIT",
        "COR_NIT", "THM_0", "LEM_TC", "THM_P1", "COR_1", "THM_2", "THM_NK",
        "THM_NK_PLUS", "COR_NKC1", "COR_NKC2", "EXA_TILDE",
    ]
    assert [(p.name, p.value) for p in PropertyId] == [(n, n) for n in names]
    assert PropertyId["THM_2"] is PropertyId("THM_2")
    assert repr(PropertyId.THM_2) == "<PropertyId.THM_2: 'THM_2'>"
    assert pickle.loads(pickle.dumps(PropertyId.THM_2)) is PropertyId.THM_2


# -- canonical instances per property -----------------------------------------

def test_lemma_mu_exhaustive(z9, cyclic1):
    assert verify(PropertyId.LEMMA_MU, Instance(z9, cyclic1)).proved


def test_cor_mu_exhaustive(z9, cyclic1):
    assert verify(PropertyId.COR_MU, Instance(z9, cyclic1)).proved


def test_lemma_nx(z9, cyclic1):
    inst = Instance(z9, cyclic1, sets={"D": finite_set(z9, [[0], [1], [4]])})
    assert verify(PropertyId.LEMMA_NX, inst).proved
    with pytest.raises(HypothesisFailed):
        verify(PropertyId.LEMMA_NX, Instance(z9, cyclic1, sets={}))


def test_lemma_sr_exhaustive(z9, cyclic1):
    assert verify(PropertyId.LEMMA_SR, Instance(z9, cyclic1)).proved


def test_lemma_sr_lattice_named(zplane, linf2):
    inst = Instance(
        zplane,
        linf2,
        endos={
            "T": make_endo(zplane, [[1, 1], [0, 1]]),
            "S": make_endo(zplane, [[0, 1], [0, 0]]),
        },
    )
    assert verify(PropertyId.LEMMA_SR, inst).proved


def test_thm_rct_dyadic_example(dyline, linf1):
    inst = Instance(
        dyline,
        linf1,
        sets={
            "A": finite_set(dyline, [[Fraction(1, 4)]]),
            "B": box_set(dyline, [0], [1]),
            "C": finite_set(dyline, [[0], [Fraction(1, 2)]]),
        },
        params=Params(n0=2),
    )
    assert verify(PropertyId.THM_RCT, inst).proved


def test_thm_rct_hypothesis_vs_refutation(dyline, linf1):
    # dropping the n0-convexity of B must fail the hypothesis, not refute
    inst = Instance(
        dyline,
        linf1,
        sets={
            "A": finite_set(dyline, [[Fraction(1, 4)]]),
            "B": finite_set(dyline, [[0], [1]]),
            "C": finite_set(dyline, [[0], [Fraction(1, 2)]]),
        },
        params=Params(n0=2),
    )
    with pytest.raises(HypothesisFailed) as err:
        verify(PropertyId.THM_RCT, inst)
    assert "n0-convex" in err.value.hypothesis


def test_thm_rct_needs_expansive_scalar(z9, cyclic1):
    inst = Instance(
        z9,
        cyclic1,
        sets={
            "A": finite_set(z9, [[0]]),
            "B": finite_set(z9, [[0]]),
            "C": finite_set(z9, [[0]]),
        },
        params=Params(n0=2),
    )
    with pytest.raises(HypothesisFailed) as err:
        verify(PropertyId.THM_RCT, inst)
    assert "mu_d(n0) > 1" in err.value.hypothesis


def test_thm_nit(z9, cyclic1):
    inst = Instance(z9, cyclic1, endos={"T": scaling(z9, 3)})
    verdict = verify(PropertyId.THM_NIT, inst)
    assert verdict.proved and verdict.witness[0] == scaling(z9, 4)


def test_thm_nit_hypothesis(z9, cyclic1, dyline, linf1):
    with pytest.raises(HypothesisFailed):
        verify(PropertyId.THM_NIT, Instance(z9, cyclic1, endos={"T": scaling(z9, 2)}))
    with pytest.raises(HypothesisFailed) as err:
        verify(
            PropertyId.THM_NIT,
            Instance(dyline, linf1, endos={"T": make_endo(dyline, [[Fraction(1, 2)]])}),
        )
    assert "complete" in err.value.hypothesis


def test_cor_nit(z9, cyclic1):
    inst = Instance(z9, cyclic1, endos={"S": scaling(z9, 2), "T": scaling(z9, 6)})
    verdict = verify(PropertyId.COR_NIT, inst)
    assert verdict.proved and verdict.witness[0] == scaling(z9, 2)


def test_thm_0_named(z9, cyclic1):
    inst = Instance(
        z9,
        cyclic1,
        endos={"T1": scaling(z9, 5), "A": scaling(z9, 3)},
        sets={"D1": finite_set(z9, [[0], [3], [6]])},
    )
    assert verify(PropertyId.THM_0, inst).proved


def test_thm_0_exhaustive(z6):
    inst = Instance(
        z6,
        CyclicMetric((Fraction(1),)),
        endos={"T1": scaling(z6, 3), "T2": scaling(z6, 4)},
    )
    assert verify(PropertyId.THM_0, inst).proved


def test_thm_0_nonconvex_named_set_fails_hypothesis(z9, cyclic1):
    inst = Instance(
        z9,
        cyclic1,
        endos={"T1": scaling(z9, 5)},
        sets={"D1": finite_set(z9, [[0], [1]])},
    )
    with pytest.raises(HypothesisFailed):
        verify(PropertyId.THM_0, inst)


def test_lem_tc(z9, cyclic1):
    inst = Instance(
        z9,
        cyclic1,
        endos={"T1": scaling(z9, 5), "T2": scaling(z9, 2)},
        sets={
            "D1": finite_set(z9, [[0], [3], [6]]),
            "D2": finite_set(z9, [[0], [1]]),
        },
    )
    assert verify(PropertyId.LEM_TC, inst).proved


def test_thm_p1_and_cor_1(z9, cyclic1):
    for D in ([[0], [3], [6]], [[0], [1]], [[2]]):
        inst = Instance(z9, cyclic1, sets={"D": finite_set(z9, D)})
        assert verify(PropertyId.THM_P1, inst).proved
        assert verify(PropertyId.COR_1, inst).proved


def test_thm_p1_not_enumerable_on_lattice(zline, linf1):
    inst = Instance(zline, linf1, sets={"D": finite_set(zline, [[0]])})
    with pytest.raises(NotEnumerable):
        verify(PropertyId.THM_P1, inst)


def test_thm_2_finite(z9, cyclic1):
    inst = Instance(
        z9,
        cyclic1,
        endos={"T": scaling(z9, 2)},
        sets={"D": finite_set(z9, [[0], [3], [6]])},
    )
    assert verify(PropertyId.THM_2, inst).proved


def test_thm_2_dyadic_recursion_only(dyline, linf1):
    inst = Instance(
        dyline,
        linf1,
        endos={"T": make_endo(dyline, [[Fraction(1, 4)]])},
        params=Params(horizon=5),
    )
    assert verify(PropertyId.THM_2, inst).proved


def test_thm_2_hypothesis_gate(z12, zline, linf1):
    # Z12 is not 2-divisible
    inst = Instance(z12, CyclicMetric((Fraction(1),)), endos={"T": scaling(z12, 2)})
    with pytest.raises(HypothesisFailed) as err:
        verify(PropertyId.THM_2, inst)
    assert "2-divisible" in err.value.hypothesis
    inst = Instance(zline, linf1, endos={"T": scaling(zline, 1)})
    with pytest.raises(HypothesisFailed):
        verify(PropertyId.THM_2, inst)


def test_thm_nk_and_plus(dyline, linf1):
    half = make_endo(dyline, [[Fraction(1, 2)]])
    inst = Instance(
        dyline,
        linf1,
        endos={"T1": half, "T2": half},
        sets={"D": box_set(dyline, [0], [1])},
        params=Params(n0=2),
    )
    assert verify(PropertyId.THM_NK, inst).proved
    assert verify(PropertyId.THM_NK_PLUS, inst).proved


def test_thm_nk_finite_sets_exact(dyline, linf1):
    D = finite_set(dyline, [[0]])
    inst = Instance(
        dyline,
        linf1,
        endos={"T1": make_endo(dyline, [[Fraction(1, 2)]]), "T2": make_endo(dyline, [[2]])},
        sets={"D": D},
        params=Params(n0=2),
    )
    assert verify(PropertyId.THM_NK, inst).proved


def test_cor_nkc1(dyline, linf1):
    inst = Instance(
        dyline,
        linf1,
        sets={"D": finite_set(dyline, [[Fraction(3, 4)]])},
        params=Params(n0=2, horizon=8),
    )
    assert verify(PropertyId.COR_NKC1, inst).proved


def test_cor_nkc2(dyline, linf1):
    half = make_endo(dyline, [[Fraction(1, 2)]])
    inst = Instance(
        dyline,
        linf1,
        endos={"T1": half, "T2": half},
        sets={"D": box_set(dyline, [0], [1])},
        params=Params(n0=2),
    )
    verdict = verify(PropertyId.COR_NKC2, inst)
    assert verdict.proved
    assert verdict.witness[0] == half  # (T1+T2)^-1 . T1 = I/2


def test_exa_tilde(zline, linf1):
    verdict = verify(PropertyId.EXA_TILDE, Instance(zline, linf1))
    assert verdict.proved
    assert verdict.witness[0] == scaling(zline, 2)


def test_exa_tilde_collapses_on_tiny_modulus():
    # on Z2 multiplication by 2 and by 4 coincide, on Z3 and Z3xZ3 by 2 and
    # by 5, so the example's premise fails and nothing is refuted
    for moduli in ((2,), (3,), (3, 3)):
        group = FiniteGroup(moduli)
        with pytest.raises(HypothesisFailed, match="four distinct maps"):
            verify(PropertyId.EXA_TILDE, Instance(group, CyclicMetric((Fraction(1),) * len(moduli))))


# -- search -------------------------------------------------------------------

def test_search_deterministic(dy_inst):
    gen = GeneratorConfig(family="dyadic")
    a = counterexample_search(PropertyId.THM_RCT, gen, budget=50, seed=7)
    b = counterexample_search(PropertyId.THM_RCT, gen, budget=50, seed=7)
    assert a == b
    assert a.unfalsified and a.samples == 50


def test_search_finite_group_rct_exhausts():
    with pytest.raises(GeneratorExhausted) as err:
        counterexample_search(PropertyId.THM_RCT, GeneratorConfig(family="finite"), 10, 0)
    assert "mu_d(n) <= 1" in str(err.value)


def test_search_exhaustive_semantics(z12):
    gen = GeneratorConfig(family="finite", group=z12, exhaustive=True)
    full = counterexample_search(PropertyId.LEMMA_MU, gen, budget=144, seed=0)
    assert full.status is Status.PROVED
    partial = counterexample_search(PropertyId.LEMMA_MU, gen, budget=100, seed=0)
    assert partial.unfalsified and partial.samples == 100


def test_search_various_properties_smoke():
    for prop, family in [
        (PropertyId.LEMMA_MU, "finite"),
        (PropertyId.COR_MU, "finite"),
        (PropertyId.LEMMA_SR, "int"),
        (PropertyId.THM_NIT, "int"),
        (PropertyId.COR_NIT, "finite"),
        (PropertyId.THM_2, "finite"),
        (PropertyId.THM_NK, "dyadic"),
        (PropertyId.THM_NK_PLUS, "dyadic"),
        (PropertyId.COR_NKC1, "dyadic"),
        (PropertyId.COR_NKC2, "dyadic"),
        (PropertyId.LEM_TC, "finite"),
        (PropertyId.THM_0, "finite"),
        (PropertyId.THM_P1, "finite"),
        (PropertyId.COR_1, "finite"),
        (PropertyId.LEMMA_NX, "dyadic"),
        (PropertyId.EXA_TILDE, "int"),
    ]:
        verdict = counterexample_search(
            prop, GeneratorConfig(family=family), budget=5, seed=11
        )
        assert not verdict.refuted, (prop, verdict)


def test_verify_rejects_invalid_metric(z9):
    from groupconvex import LinfMetric

    with pytest.raises(HypothesisFailed):
        verify(PropertyId.LEMMA_MU, Instance(z9, LinfMetric((Fraction(1),))))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_search_cor_nkc1_on_integer_lattice(seed):
    # the compact set is drawn with integer coordinates on Z^n
    gen = GeneratorConfig(family="int")
    verdict = counterexample_search(PropertyId.COR_NKC1, gen, budget=20, seed=seed)
    assert verdict.unfalsified and verdict.samples == 20


def test_sum_inclusion_on_integer_boxes(zplane, linf2):
    # on Z^n only a one-point box is 2-convex; its sum inclusion holds exactly
    endos = {
        "T1": make_endo(zplane, [[2, 0], [0, 1]]),
        "T2": make_endo(zplane, [[-1, 0], [0, 1]]),
    }
    point = Instance(
        zplane, linf2, endos=endos, sets={"D": box_set(zplane, [1, -2], [1, -2])},
        params=Params(n0=2),
    )
    assert verify(PropertyId.THM_NK, point).proved
    assert verify(PropertyId.THM_NK_PLUS, point).proved
    # a one-point box is T-convex for a non-diagonal T as well
    shear = Instance(
        zplane, linf2,
        endos={"T1": endos["T1"], "T2": make_endo(zplane, [[-1, 1], [0, 1]])},
        sets={"D": box_set(zplane, [1, -2], [1, -2])},
        params=Params(n0=2),
    )
    assert verify(PropertyId.THM_NK, shear).proved
    assert verify(PropertyId.THM_NK_PLUS, shear).proved
    wide = Instance(
        zplane, linf2, endos=endos, sets={"D": box_set(zplane, [0, 0], [1, 0])},
        params=Params(n0=2),
    )
    with pytest.raises(HypothesisFailed) as err:
        verify(PropertyId.THM_NK, wide)
    assert "n0-convex" in err.value.hypothesis


# -- refutation paths ---------------------------------------------------------
#
# On a correct library these checkers always prove, so each case patches one
# library function so that the checker's first conclusion fails, and pins
# the verdict's witness: its label and the maps it names.

_Z9 = FiniteGroup((9,))
_CYC = CyclicMetric((Fraction(1),))
_I9 = scaling(_Z9, 1)
_ZERO9 = scaling(_Z9, 0)
_D9 = finite_set(_Z9, [[0], [3], [6]])


def _always(value):
    return lambda *args, **kwargs: value


_REFUTATIONS = {
    # mu(I) = 2 makes mu(T) ||S|| exceed ||T S|| on the pair (I, I); on a
    # finite group the checkers read the measure from the ring view, as a pair
    "LEMMA_MU": (
        PropertyId.LEMMA_MU, {"T": _I9}, {}, "ring view", "measure",
        _always((2, 1)), ("norm supermultiplicativity", _I9, _I9),
    ),
    # mu vanishes on 2 * 2 = 4 only, so the product of two positive maps is not
    "COR_MU": (
        PropertyId.COR_MU, {"T": scaling(_Z9, 2)}, {}, "ring view", "measure",
        lambda view, t: (int(t != view.handle(scaling(_Z9, 4))), 1),
        ("semigroup closure", scaling(_Z9, 2), scaling(_Z9, 2)),
    ),
    # a measure of 2 lies above every radius of a finite group
    "LEMMA_SR": (
        PropertyId.LEMMA_SR, {"T": _I9}, {}, "ring view", "measure",
        _always((2, 1)), ("measure below radius", _I9),
    ),
    # the identity does not invert I - 3
    "THM_NIT": (
        PropertyId.THM_NIT, {"T": scaling(_Z9, 3)}, {}, "endo", "neumann_inverse",
        _always(_I9), ("T", _I9),
    ),
    # the identity does not invert I - 3
    "COR_NIT": (
        PropertyId.COR_NIT, {"S": _I9, "T": scaling(_Z9, 3)}, {}, "endo", "shifted_inverse",
        _always(_I9), (_I9,),
    ),
    # 2 * 0 + (I - 2) * I = -I is not in the family (0, I, 2)
    "THM_P1": (
        PropertyId.THM_P1, {}, {"D": _D9}, "convexity", "family_of",
        _always((_ZERO9, _I9, scaling(_Z9, 2))), (_D9, scaling(_Z9, 2), _ZERO9, _I9),
    ),
    # a family {0} misses the reflection I - 0
    "COR_1": (
        PropertyId.COR_1, {}, {"D": _D9}, "convexity", "family_of",
        _always((_ZERO9,)), ("reflection", _D9, _ZERO9),
    ),
    # zero iterates disagree with the closed form at n = 1
    "THM_2": (
        PropertyId.THM_2, {"T": scaling(_Z9, 5)}, {"D": _D9}, "endo", "midpoint_iterates",
        lambda T, n: iter([_ZERO9] * n), ("closed form mismatch", 1),
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUTATIONS))
def test_first_conclusion_refutes_with_its_witness(case, monkeypatch):
    import groupconvex.convexity
    import groupconvex.endo

    prop, endos, sets, module, name, patched, witness = _REFUTATIONS[case]
    inst = Instance(_Z9, _CYC, endos=endos, sets=sets)
    assert verify(prop, inst).proved
    modules = {
        "endo": groupconvex.endo,
        "convexity": groupconvex.convexity,
        "ring view": groupconvex.endo._RingView,
    }
    monkeypatch.setattr(modules[module], name, patched)
    verdict = verify(prop, inst)
    assert verdict.status is Status.REFUTED
    assert verdict.witness == witness


# -- the exhaustive search walks the checker's own pairs -----------------------

_PAIRWISE = (PropertyId.LEMMA_MU, PropertyId.COR_MU, PropertyId.LEMMA_SR)


@pytest.mark.parametrize("moduli", [(2, 2), (4,), (2, 4)], ids=str)
@pytest.mark.parametrize("prop", _PAIRWISE, ids=str)
def test_exhaustive_search_budget_counts_ordered_pairs(prop, moduli):
    from groupconvex import all_endomorphisms

    g = FiniteGroup(moduli)
    metric = CyclicMetric(tuple(Fraction(1) for _ in moduli))
    size = len(all_endomorphisms(g))
    gen = GeneratorConfig(group=g, exhaustive=True)
    assert verify(prop, Instance(g, metric)).proved
    assert counterexample_search(prop, gen, budget=size * size, seed=0).proved
    for budget in (1, size, size * size - 1):
        verdict = counterexample_search(prop, gen, budget=budget, seed=0)
        assert verdict.unfalsified and verdict.samples == budget


def test_exhaustive_search_names_the_first_failing_ordered_pair(monkeypatch):
    # only (x3, x1) fails, and x1 comes before x3 in End(Z4): the search must
    # reach pair 13 = 3 * 4 + 1, where a walk of the two-map instance
    # {x1, x3} would already meet it as pair 7
    import groupconvex.endo as en
    from groupconvex import all_endomorphisms

    z4 = FiniteGroup((4,))
    metric = CyclicMetric((Fraction(1),))
    one, three = scaling(z4, 1), scaling(z4, 3)
    ring = all_endomorphisms(z4)
    assert ring.index(three) * len(ring) + ring.index(one) == 13
    view = en._ring(z4, metric)
    failing = (view.handle(three), view.handle(one))
    zero = view.handle(scaling(z4, 0))
    compose = en._RingView.compose

    def patched(self, t, s):
        return zero if self is view and (t, s) == failing else compose(self, t, s)

    monkeypatch.setattr(en._RingView, "compose", patched)
    gen = GeneratorConfig(group=z4, exhaustive=True)
    before = counterexample_search(PropertyId.COR_MU, gen, budget=13, seed=0)
    assert before.unfalsified and before.samples == 13
    verdict = counterexample_search(PropertyId.COR_MU, gen, budget=14, seed=0)
    assert verdict.refuted
    inst, label, T, S = verdict.witness
    assert (label, T, S) == ("semigroup closure", three, one)
    assert inst.endos == {"T": three, "S": one}
    assert verify(PropertyId.COR_MU, inst).witness == verdict.witness[1:]
