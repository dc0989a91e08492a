"""The integer view of End(G) against element walks, and the pairwise
checkers against their Fraction loops.

``endo._ring`` keys a map of a finite group by its flat tuple of entries,
composes, adds and subtracts maps on those entries, and reads
norms, measures and nilpotency as ints; LEMMA_MU, COR_MU and LEMMA_SR
compare (num, den) pairs on it.  The oracles here walk the elements with
``Endomorphism.apply`` and ``groups.norm``, and the checker oracles are the
loops the checkers ran on ``Fraction`` values of ``op_norm``,
``injectivity_measure`` and ``spectral_radius``, one map at a time.
"""

import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import groupconvex
import groupconvex.convexity as cx
import groupconvex.endo as en
import groupconvex.properties as props
from groupconvex import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    L1Metric,
    LinfMetric,
    all_endomorphisms,
    make_endo,
    norm,
)
from groupconvex.cli import EXIT_INPUT, main, parse_session
from groupconvex.errors import NotEnumerable
from groupconvex.theorems import (
    GeneratorConfig,
    Instance,
    PropertyId,
    counterexample_search,
    verify,
)
from groupconvex.verdicts import Status, proved, refuted

SESSIONS = Path(__file__).resolve().parents[1] / "bench" / "sessions"
PAIRWISE = (PropertyId.LEMMA_MU, PropertyId.COR_MU, PropertyId.LEMMA_SR)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Patched bounds must not outlive their test in a cache."""
    yield
    for cached in (en.op_norm, en.injectivity_measure, en.spectral_radius, en._ring,
                   props._scalar_specialization):
        cached.cache_clear()


# -- the view against element walks -------------------------------------------
class _Walk:
    """Norm, measure and nilpotency of each map by walking the elements."""

    def __init__(self, group, metric):
        self.group = group
        self.norms = {x: norm(group, metric, x) for x in group.elements()}
        self.seen = {}

    def __call__(self, T):
        if T not in self.seen:
            g, norms = self.group, self.norms
            ratios = [norms[T.apply(x)] / norms[x] for x in g.elements() if any(x)]
            # T(G) >= T^2(G) >= ... stops at {0} exactly when T is nilpotent
            image = frozenset(g.elements())
            while (step := frozenset(map(T.apply, image))) != image:
                image = step
            self.seen[T] = (max(ratios), min(ratios), image == {g.zero()})
        return self.seen[T]


def _assert_view_matches(group, metric, pairs):
    """Every pair's compose, add and sub, and every map's bounds and nilpotency."""
    view, walk = en._ring(group, metric), _Walk(group, metric)
    maps = {}
    for T, S in pairs:
        t, s = view.handle(T), view.handle(S)
        for got, expected in ((view.compose(t, s), T.compose(S)),
                              (view.add(t, s), T.add(S)),
                              (view.sub(t, s), T.sub(S))):
            assert view.lines(got)[0] == expected.matrix
            maps[got] = expected
        maps[t], maps[s] = T, S
    for h, T in maps.items():
        top, bottom, nilpotent = walk(T)
        for pair, value in ((view.norm(h), top), (view.measure(h), bottom)):
            assert pair[1] > 0 and Fraction(*pair) == value, (T, metric)
        assert view.nilpotent(h) is nilpotent, T
        assert view.radius(h, 8) == ((0, 1) if nilpotent else (1, 1))
    return maps


def _seeded_pairs(group, count, seed):
    ring = all_endomorphisms(group)
    rng = random.Random(seed)
    return [(rng.choice(ring), rng.choice(ring)) for _ in range(count)]


def test_view_on_every_pair_of_small_rings():
    for moduli, metric in (((2, 4), CyclicMetric((1, 3))), ((9,), CyclicMetric((2,)))):
        g = FiniteGroup(moduli)
        ring = all_endomorphisms(g)
        maps = _assert_view_matches(g, metric, [(T, S) for T in ring for S in ring])
        assert len(maps) == len(ring)


def test_view_on_seeded_pairs_of_z4x4():
    g = FiniteGroup((4, 4))
    maps = _assert_view_matches(g, L1Metric((1, 2)), _seeded_pairs(g, 2000, 4))
    # the zero map, nilpotent maps and automorphisms all occur
    walk = _Walk(g, L1Metric((1, 2)))
    assert {walk(T)[2] for T in maps.values()} == {True, False}
    assert any(walk(T)[1] > 0 for T in maps.values())


def test_view_on_seeded_pairs_of_z12x20():
    g = FiniteGroup((12, 20))
    _assert_view_matches(g, LinfMetric((Fraction(3, 2), 1)), _seeded_pairs(g, 200, 12))


def test_view_on_a_group_beyond_the_sum_table_cap(monkeypatch):
    # the view reads no lex-index coding, so it holds with the coding refused
    def refuse(group):
        raise NotEnumerable(f"no coding for {group}")

    monkeypatch.setattr(cx, "_coding", refuse)
    g = FiniteGroup((6, 200))
    with pytest.raises(NotEnumerable):
        cx._coding(g)
    _assert_view_matches(g, CyclicMetric((1, 1)), _seeded_pairs(g, 12, 6))


@pytest.mark.parametrize("prop", PAIRWISE, ids=str)
def test_a_named_pair_builds_no_sum_table(monkeypatch, prop):
    # a handful of maps of Z1024 need no lex-index coding of it
    def refuse(group):
        raise AssertionError("a coding was built")

    monkeypatch.setattr(cx, "_coding", refuse)
    g = FiniteGroup((1024,))
    endos = {"T": make_endo(g, [[3]]), "S": make_endo(g, [[6]])}
    assert _same_verdict(prop, Instance(g, CyclicMetric((1,)), endos=endos)).proved


def test_view_under_a_table_metric_session():
    inst = parse_session(str(SESSIONS / "z60-table.json"))
    ring = all_endomorphisms(inst.group)
    _assert_view_matches(inst.group, inst.metric, [(T, S) for T in ring for S in ring])


def _answers(view, maps):
    """Each map's handle, bounds and nilpotency as the view gives them."""
    return [(h, view.bounds(h), view.nilpotent(h)) for h in map(view.handle, maps)]


def _answers_from_threads(view, orders):
    answers, errors = {}, []

    def work(name, maps):
        try:
            answers[name] = _answers(view, maps)
        except Exception as err:  # reported by the caller's assertion
            errors.append(err)

    threads = [threading.Thread(target=work, args=(i, maps)) for i, maps in enumerate(orders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors and not any(thread.is_alive() for thread in threads)
    return answers


def test_a_view_shared_by_threads_answers_as_a_fresh_view():
    g = FiniteGroup((12, 20))
    metric = CyclicMetric((1, 1))
    ring = all_endomorphisms(g)
    expected = _answers(en._RingView(g, metric), ring)
    assert [h for h, _, _ in expected] == [tuple(chain(*T.matrix)) for T in ring]
    # six threads meet every map in the same order, so they race for each cache entry
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            answers = _answers_from_threads(en._RingView(g, metric), [ring] * 6)
            assert all(answers[i] == expected for i in range(6))
    finally:
        sys.setswitchinterval(interval)


def test_two_views_of_one_group_agree_on_handles_and_operations():
    g = FiniteGroup((4, 8))
    metric = CyclicMetric((1, 1))
    first, second = en._RingView(g, metric), en._RingView(g, metric)
    for T, S in _seeded_pairs(g, 300, 48):
        t, s = first.handle(T), first.handle(S)
        assert (t, s) == (second.handle(T), second.handle(S))
        for op in ("compose", "add", "sub"):
            assert getattr(first, op)(t, s) == getattr(second, op)(t, s)


# -- the checkers against their Fraction loops ---------------------------------
def _old_lemma_mu(inst):
    m = inst.metric
    universe = props._endo_universe(inst)
    for T in universe:
        for S in universe:
            mu_t = en.injectivity_measure(T, m)
            mu_s = en.injectivity_measure(S, m)
            composed = T.compose(S)
            if mu_t * en.op_norm(S, m) > en.op_norm(composed, m):
                return refuted(("norm supermultiplicativity", T, S))
            if mu_t * mu_s > en.injectivity_measure(composed, m):
                return refuted(("measure supermultiplicativity", T, S))
            if abs(mu_t - mu_s) > en.operator_distance(T, S, m):
                return refuted(("Lipschitz bound", T, S))
    span = range(1, props._NAT_SPAN + 1)
    g = inst.group
    for n in span:
        mu_n = en.mu_of_n(g, m, n)
        for k in span:
            if mu_n * en.norm_of_n(g, m, k) > en.norm_of_n(g, m, n * k):
                return refuted(("scalar norm supermultiplicativity", n, k))
            if mu_n * en.mu_of_n(g, m, k) > en.mu_of_n(g, m, n * k):
                return refuted(("scalar measure supermultiplicativity", n, k))
            if abs(mu_n - en.mu_of_n(g, m, k)) > abs(n - k):
                return refuted(("scalar Lipschitz bound", n, k))
    return proved()


def _old_cor_mu(inst):
    m = inst.metric
    universe = props._endo_universe(inst)
    for T in universe:
        mu_t = en.injectivity_measure(T, m)
        if mu_t <= 0:
            continue
        for S in universe:
            mu_s = en.injectivity_measure(S, m)
            if mu_s > 0 and en.injectivity_measure(T.compose(S), m) <= 0:
                return refuted(("semigroup closure", T, S))
            if en.operator_distance(T, S, m) < mu_t and mu_s <= 0:
                return refuted(("openness", T, S))
    return proved()


def _old_lemma_sr(inst):
    m = inst.metric
    horizon = inst.params.horizon
    universe = props._endo_universe(inst)
    for T in universe:
        bracket = en.spectral_radius(T, m, horizon)
        if en.injectivity_measure(T, m) > bracket.upper:
            return refuted(("measure below radius", T))
        if bracket.upper > en.op_norm(T, m):
            return refuted(("radius below norm", T))
    if isinstance(inst.group, FiniteGroup):
        for T in universe:
            rho_t = en.spectral_radius(T, m, horizon).value
            for S in universe:
                composed = T.compose(S)
                if composed != S.compose(T):
                    continue
                rho_s = en.spectral_radius(S, m, horizon).value
                if en.spectral_radius(T.add(S), m, horizon).value > rho_t + rho_s:
                    return refuted(("subadditivity of the radius", T, S))
                rho_ts = en.spectral_radius(composed, m, horizon).value
                if en.injectivity_measure(T, m) * rho_s > rho_ts:
                    return refuted(("measure-radius supermultiplicativity", T, S))
                if rho_ts > rho_t * rho_s:
                    return refuted(("submultiplicativity of the radius", T, S))
    return proved()


ORACLES = {
    PropertyId.LEMMA_MU: _old_lemma_mu,
    PropertyId.COR_MU: _old_cor_mu,
    PropertyId.LEMMA_SR: _old_lemma_sr,
}


def _same_verdict(prop, inst):
    expected, got = ORACLES[prop](inst), verify(prop, inst)
    assert (got.status, got.witness) == (expected.status, expected.witness), prop
    return got


def _instances():
    """Whole small rings, named finite pairs, a table metric and both lattices."""
    z24 = FiniteGroup((2, 4))
    yield Instance(FiniteGroup((9,)), CyclicMetric((1,)))
    yield Instance(z24, CyclicMetric((1, 3)))
    yield parse_session(str(SESSIONS / "z60-table.json"))
    g = FiniteGroup((4, 4))
    for T, S in _seeded_pairs(g, 20, 44):
        yield Instance(g, CyclicMetric((1, 2)), endos={"T": T, "S": S})
    rng = random.Random(7)
    for group in (IntLattice(2), DyadicLattice(2)):
        metric = LinfMetric((1, Fraction(1, 2)))
        for _ in range(8):
            endos = {name: props._draw_endo(group, rng) for name in "TS"}
            yield Instance(group, metric, endos=endos)


@pytest.mark.parametrize("prop", PAIRWISE, ids=str)
def test_checkers_agree_with_their_fraction_loops(prop):
    for inst in _instances():
        assert _same_verdict(prop, inst).proved


# -- a forced refutation: one bound patched on both paths ----------------------
def _map_of(view, t):
    return make_endo(view.group, view.lines(t)[0])


def _patch(monkeypatch, walk, quantity, change):
    """Give every map the bound ``change(T, value)`` on both paths.

    ``quantity`` is "norm", "measure" or "radius"; the Fraction loops read
    it from ``op_norm``, ``injectivity_measure`` or ``spectral_radius``, the
    checkers from the ring view.
    """
    def value(T):
        top, bottom, nilpotent = walk(T)
        exact = {"norm": top, "measure": bottom, "radius": Fraction(int(not nilpotent))}
        return Fraction(change(T, exact[quantity]))

    def as_pair(q):
        return q.numerator, q.denominator

    if quantity == "radius":
        monkeypatch.setattr(
            en, "spectral_radius",
            lambda T, metric, horizon=8: en.RhoBracket(value(T), value(T), True),
        )
        monkeypatch.setattr(
            en._RingView, "radius", lambda view, t, horizon: as_pair(value(_map_of(view, t)))
        )
        return
    name = {"norm": "op_norm", "measure": "injectivity_measure"}[quantity]
    monkeypatch.setattr(en, name, lambda T, metric: value(T))
    monkeypatch.setattr(en._RingView, quantity, lambda view, t: as_pair(value(_map_of(view, t))))


_Z24 = FiniteGroup((2, 4))
_RING24 = all_endomorphisms(_Z24)
_X = _RING24[21]
_I24 = en.identity(_Z24)
_PATCHES = {
    "LEMMA_MU measure of one map up": (
        PropertyId.LEMMA_MU, "measure", lambda T, v: v + (T == _X)),
    "LEMMA_MU norm of one map up": (
        PropertyId.LEMMA_MU, "norm", lambda T, v: v + (T == _X)),
    "LEMMA_MU measure of the identity a little lower": (
        PropertyId.LEMMA_MU, "measure", lambda T, v: v - Fraction(T == _I24, 1000)),
    "LEMMA_MU every norm zero": (
        PropertyId.LEMMA_MU, "norm", lambda T, v: 0),
    "COR_MU measure of one map zero": (
        PropertyId.COR_MU, "measure", lambda T, v: 0 if T == _RING24[-1] else v),
    "COR_MU every norm zero": (
        PropertyId.COR_MU, "norm", lambda T, v: 0),
    "LEMMA_SR radius of one map two": (
        PropertyId.LEMMA_SR, "radius", lambda T, v: 2 if T == _X else v),
    "LEMMA_SR radius of the identity two": (
        PropertyId.LEMMA_SR, "radius", lambda T, v: 2 if T == _I24 else v),
    "LEMMA_SR every radius zero": (
        PropertyId.LEMMA_SR, "radius", lambda T, v: 0),
    "LEMMA_SR radius of one map zero": (
        PropertyId.LEMMA_SR, "radius", lambda T, v: 0 if T == _RING24[-1] else v),
}


@pytest.mark.parametrize("case", sorted(_PATCHES))
def test_a_patched_bound_refutes_with_the_oracle_witness(case, monkeypatch):
    prop, quantity, change = _PATCHES[case]
    metric = CyclicMetric((1, 3))
    inst = Instance(_Z24, metric)
    assert _same_verdict(prop, inst).proved
    props._scalar_specialization.cache_clear()
    _patch(monkeypatch, _Walk(_Z24, metric), quantity, change)
    assert _same_verdict(prop, inst).status is Status.REFUTED


def test_patched_refutations_reach_every_label_but_the_scalar_ones(monkeypatch):
    # which conclusion fails first depends on the patch; together the
    # patches above reach every conclusion of the three universe loops
    labels = set()
    for case in sorted(_PATCHES):
        prop, quantity, change = _PATCHES[case]
        metric = CyclicMetric((1, 3))
        with monkeypatch.context() as patched:
            props._scalar_specialization.cache_clear()
            _patch(patched, _Walk(_Z24, metric), quantity, change)
            labels.add(verify(prop, Instance(_Z24, metric)).witness[0])
    assert labels >= {
        "norm supermultiplicativity", "measure supermultiplicativity", "Lipschitz bound",
        "semigroup closure", "openness", "measure below radius", "radius below norm",
    }


# -- no new refusal --------------------------------------------------------------
@pytest.mark.parametrize("prop", PAIRWISE, ids=str)
def test_named_maps_answer_where_the_ring_is_beyond_its_cap(prop):
    g = FiniteGroup((2,) * 5)  # End(G) has 2^25 maps
    rng = random.Random(5)
    endos = {
        name: make_endo(g, [[rng.randrange(2) for _ in range(5)] for _ in range(5)])
        for name in "TS"
    }
    inst = Instance(g, CyclicMetric((1,) * 5), endos=endos)
    with pytest.raises(NotEnumerable):
        all_endomorphisms(g)
    assert _same_verdict(prop, inst).proved


@pytest.mark.parametrize("prop", PAIRWISE, ids=str)
def test_a_group_beyond_the_table_cap_exits_with_the_named_cap(tmp_path, capsys, prop):
    order = 2 ** 70
    session = tmp_path / "huge.json"
    session.write_text(json.dumps({
        "group": {"kind": "finite", "moduli": [order]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "endos": {"T": [["2"]], "S": [["3"]]},
    }))
    assert main(["verify", str(session), prop.name]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: Z{order} has {order} elements, beyond the cap of 65536\n"


# -- memory: O(dim^2) ints a map, no array over G is kept ----------------------
_PEAK_RSS = """
from groupconvex import CyclicMetric, FiniteGroup, make_endo
from groupconvex.theorems import GeneratorConfig, Instance, PropertyId, counterexample_search, verify
g = FiniteGroup(({order},))
{work}
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_rss_growth_mb(order, work):
    """Peak RSS of a fresh interpreter doing ``work`` on Z_order, less that of one doing nothing.

    The peak is the child's own ``VmHWM``: ``ru_maxrss`` would also count the
    pages of the test process that the child was forked from.
    """
    src = str(Path(groupconvex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    peaks = [
        int(subprocess.run(
            [sys.executable, "-c", _PEAK_RSS.format(order=order, work=code)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout.split()[-1])
        for code in ("pass", work)
    ]
    return (peaks[1] - peaks[0]) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc")
def test_verify_on_a_large_cyclic_group_keeps_no_image_arrays():
    # the scalar specialization alone meets about 200 maps of Z8192; an image
    # array kept for each would take about 45 MB
    work = (
        "inst = Instance(g, CyclicMetric((1,)), endos={'T': make_endo(g, [[3]]), 'S': make_endo(g, [[6]])})\n"
        "assert verify(PropertyId.LEMMA_MU, inst).proved"
    )
    assert _peak_rss_growth_mb(8192, work) < 16


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc")
def test_a_search_meeting_more_maps_than_elements_builds_no_table():
    # 1,100 pairs of End(Z1024) meet more than 1,024 maps; their image arrays
    # and the 2^20-entry sum table would take about 95 MB
    work = (
        "gen = GeneratorConfig(group=g, exhaustive=True)\n"
        "assert not counterexample_search(PropertyId.LEMMA_MU, gen, budget=1100, seed=0).refuted"
    )
    assert _peak_rss_growth_mb(1024, work) < 16


# -- whole rings ------------------------------------------------------------------
@pytest.mark.parametrize("prop", PAIRWISE, ids=str)
def test_exhaustive_search_proves_the_whole_ring_of_z4x4(prop):
    gen = GeneratorConfig(group=FiniteGroup((4, 4)), exhaustive=True)
    assert counterexample_search(prop, gen, budget=65536, seed=0).proved
