import copy
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupconvex import FiniteGroup, Params, PropertyId, finite_set, properties, scaling
from groupconvex.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUTED,
    format_session,
    main,
    parse_session,
    parse_session_text,
    session_to_dict,
)
from groupconvex.errors import NotEnumerable, ParseError, ValidationError
from groupconvex.verdicts import proved, refuted

Z9_SESSION = """
{
  "group": {"kind": "finite", "moduli": [9]},
  "metric": {"kind": "cyclic", "weights": ["1"]},
  "endos": {"T": [["2"]], "S": [["3"]]},
  "sets": {"D": {"kind": "finite", "elements": [["0"], ["3"], ["6"]]},
           "E": {"kind": "finite", "elements": [["0"], ["1"]]}}
}
"""

ZLINE_SESSION = """
{"group": {"kind": "int", "dim": 1}, "metric": {"kind": "linf", "weights": ["1"]}}
"""

RCT_SESSION = """
{
  "group": {"kind": "dyadic", "dim": 1},
  "metric": {"kind": "linf", "weights": ["1"]},
  "sets": {"A": {"kind": "finite", "elements": [["1/2^2"]]},
           "B": {"kind": "box", "lo": ["0"], "hi": ["1"]},
           "C": {"kind": "finite", "elements": [["0"], ["1/2^1"]]}},
  "params": {"n0": 2}
}
"""


@pytest.fixture
def z9_session(tmp_path):
    path = tmp_path / "z9.json"
    path.write_text(Z9_SESSION)
    return str(path)


@pytest.fixture
def zline_session(tmp_path):
    path = tmp_path / "zline.json"
    path.write_text(ZLINE_SESSION)
    return str(path)


@pytest.fixture
def rct_session(tmp_path):
    path = tmp_path / "rct.json"
    path.write_text(RCT_SESSION)
    return str(path)


# -- parsing -------------------------------------------------------------------

def test_parse_session(z9_session=None):
    inst = parse_session_text(Z9_SESSION)
    assert inst.group == FiniteGroup((9,))
    assert inst.endos["T"] == scaling(inst.group, 2)
    assert inst.sets["D"] == finite_set(inst.group, [[0], [3], [6]])
    assert inst.params == Params()


def test_parse_round_trip():
    for text in (Z9_SESSION, ZLINE_SESSION, RCT_SESSION):
        session = parse_session_text(text)
        assert parse_session_text(format_session(session)) == session


def test_round_trip_table_metric():
    text = json.dumps(
        {
            "group": {"kind": "finite", "moduli": [4]},
            "metric": {
                "kind": "table",
                "values": {"0": "0", "1": "1", "2": "3/2", "3": "1"},
            },
        }
    )
    session = parse_session_text(text)
    assert parse_session_text(format_session(session)) == session


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_session_text("{not json")


def test_parse_error_on_duplicate_names():
    text = (
        '{"group": {"kind": "int", "dim": 1},'
        ' "metric": {"kind": "linf", "weights": ["1"]},'
        ' "endos": {"T": [["1"]], "T": [["2"]]}}'
    )
    with pytest.raises(ParseError):
        parse_session_text(text)


def test_parse_error_on_unknown_params():
    with pytest.raises(ParseError):
        parse_session_text(
            '{"group": {"kind": "int", "dim": 1},'
            ' "metric": {"kind": "linf", "weights": ["1"]},'
            ' "params": {"bogus": 1}}'
        )


def test_parse_validation_error_bad_homomorphism():
    text = json.dumps(
        {
            "group": {"kind": "finite", "moduli": [4, 2]},
            "metric": {"kind": "cyclic", "weights": ["1", "1"]},
            "endos": {"T": [["0", "1"], ["0", "0"]]},
        }
    )
    from groupconvex.errors import NotAHomomorphism

    with pytest.raises(NotAHomomorphism):
        parse_session_text(text)


def test_parse_rejects_refuted_metric():
    text = json.dumps(
        {
            "group": {"kind": "finite", "moduli": [4]},
            "metric": {"kind": "table", "values": {"0": "0", "1": "1", "2": "5", "3": "1"}},
        }
    )
    with pytest.raises(ValidationError):
        parse_session_text(text)


def test_session_dict_omits_default_params():
    session = parse_session_text(Z9_SESSION)
    assert "params" not in session_to_dict(session)


# -- commands ------------------------------------------------------------------

def test_cmd_mu(z9_session, capsys):
    code = main(["mu", z9_session, "T"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "1/4"


def test_cmd_norm(z9_session, capsys):
    assert main(["norm", z9_session, "7"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_norm_of_a_negative_element_after_a_double_dash(capsys):
    # argparse reads a leading -1/2 as an option unless -- ends the options
    path = str(Path(__file__).resolve().parents[1] / "bench" / "sessions" / "dyadic2.json")
    assert main(["norm", path, "-1/2,0"]) == EXIT_INPUT
    assert "required: element" in capsys.readouterr().err
    assert main(["norm", path, "--", "-1/2,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1/2"


def test_cmd_endo_norm(z9_session, capsys):
    assert main(["endo-norm", z9_session, "T"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_rho_json(z9_session, capsys):
    assert main(["rho", z9_session, "S", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record == {"command": "rho", "lower": "0", "upper": "0", "exact": True}


def test_cmd_invert(z9_session, capsys):
    assert main(["invert", z9_session, "S"]) == EXIT_OK
    assert "[4]" in capsys.readouterr().out


def test_cmd_invert_shifted(z9_session, capsys):
    # (T - S)^-1 with T = pi2, S = pi3: difference pi8, inverse pi8
    assert main(["invert", z9_session, "T", "S"]) == EXIT_OK
    assert "[8]" in capsys.readouterr().out


def test_cmd_hull(z9_session, capsys):
    assert main(["hull", z9_session, "E", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["complete"] is True


@pytest.mark.parametrize("max_iter", [-1, 0])
@pytest.mark.parametrize("source", ["flag", "params"])
def test_hull_refuses_max_iter_below_one(tmp_path, capsys, source, max_iter):
    session = json.loads(Z9_SESSION)
    flags = []
    if source == "flag":
        flags = ["--max-iter", str(max_iter)]
    else:
        session["params"] = {"max_iter": max_iter}
    assert main(["hull", _session_file(tmp_path, session), "E", *flags]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_iter must be a positive integer, got {max_iter}\n"


def test_cmd_is_convex_exit_codes(z9_session, capsys):
    assert main(["is-convex", z9_session, "D"]) == EXIT_OK
    capsys.readouterr()
    assert main(["is-convex", z9_session, "E", "T"]) == EXIT_REFUTED


def test_cmd_is_n_convex(z9_session, capsys):
    assert main(["is-n-convex", z9_session, "D", "2"]) == EXIT_OK
    capsys.readouterr()
    assert main(["is-n-convex", z9_session, "E", "2"]) == EXIT_REFUTED


def test_cmd_family_json(z9_session, capsys):
    assert main(["family", z9_session, "D", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert len(record["members"]) == 9


def test_cmd_recursion(z9_session, capsys):
    assert main(["recursion", z9_session, "T", "2"]) == EXIT_OK
    assert "[5]" in capsys.readouterr().out


def test_cmd_verify_exa_tilde(zline_session, capsys):
    assert main(["verify", zline_session, "EXA_TILDE", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "Proved"
    assert record["witness"] == [{"endo": [["2"]]}]


def test_cmd_verify_rct(rct_session, capsys):
    assert main(["verify", rct_session, "THM_RCT"]) == EXIT_OK
    assert "Proved" in capsys.readouterr().out


def test_cmd_verify_hypothesis_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "group": {"kind": "dyadic", "dim": 1},
                "metric": {"kind": "linf", "weights": ["1"]},
                "sets": {
                    "A": {"kind": "finite", "elements": [["1/2^2"]]},
                    "B": {"kind": "finite", "elements": [["0"], ["1"]]},
                    "C": {"kind": "finite", "elements": [["0"]]},
                },
                "params": {"n0": 2},
            }
        )
    )
    code = main(["verify", str(bad), "THM_RCT"])
    assert code == EXIT_HYPOTHESIS
    assert "n0-convex" in capsys.readouterr().err


def test_cmd_verify_unknown_property(zline_session, capsys):
    assert main(["verify", zline_session, "NOPE"]) == EXIT_INPUT


def test_cmd_search_exhausted(tmp_path, capsys):
    session = tmp_path / "z9.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "finite", "moduli": [9]},
                "metric": {"kind": "cyclic", "weights": ["1"]},
                "params": {"budget": 5},
            }
        )
    )
    code = main(["search", str(session), "THM_RCT"])
    assert code == EXIT_INPUT
    assert "mu_d(n) <= 1" in capsys.readouterr().err


def test_cmd_search_exhaustive_proves(tmp_path, capsys):
    session = tmp_path / "z12.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "finite", "moduli": [12]},
                "metric": {"kind": "cyclic", "weights": ["1"]},
                "params": {"budget": 144},
            }
        )
    )
    code = main(["search", str(session), "LEMMA_MU", "--exhaustive", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "Proved"


def test_cmd_search_unfalsified(tmp_path, capsys):
    session = tmp_path / "dy.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "dyadic", "dim": 1},
                "metric": {"kind": "linf", "weights": ["1"]},
                "params": {"budget": 20, "seed": 7},
            }
        )
    )
    code = main(["search", str(session), "THM_RCT", "--json"])
    assert code == 2
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "Unfalsified" and record["samples"] == 20


@pytest.mark.parametrize("session, prop", [("z9.json", "LEM_TC"), ("dyadic2.json", "THM_RCT")])
def test_a_refuted_search_prints_the_drawn_instance_as_a_session(
    tmp_path, capsys, monkeypatch, session, prop
):
    """``witness[0]["session"]`` reads back as the drawn instance, and ``verify`` refutes it."""
    drawn = []

    def refute_the_third_draw(inst):
        drawn.append(inst)
        return refuted(("third draw",)) if len(drawn) >= 3 and inst == drawn[2] else proved()

    key = PropertyId[prop]
    patched = replace(properties._SPECS[key], check=refute_the_third_draw)
    monkeypatch.setitem(properties._SPECS, key, patched)
    path = str(Path(__file__).resolve().parents[1] / "bench" / "sessions" / session)
    assert main(["search", path, prop, "--budget", "10", "--json"]) == EXIT_REFUTED
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert len(drawn) == 3 and witness[1:] == ["third draw"]
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(witness[0]["session"]))
    assert parse_session(str(replay)) == drawn[2]
    assert main(["verify", str(replay), prop]) == EXIT_REFUTED


def _session_file(tmp_path, session) -> str:
    path = tmp_path / "session.json"
    path.write_text(session if isinstance(session, str) else json.dumps(session))
    return str(path)


def test_unknown_names_are_input_errors(z9_session, capsys):
    assert main(["mu", z9_session, "Q"]) == EXIT_INPUT
    assert "endomorphism 'Q' is not defined" in capsys.readouterr().err
    assert main(["is-n-convex", z9_session, "Q", "2"]) == EXIT_INPUT
    assert "set 'Q' is not defined" in capsys.readouterr().err


def test_invert_takes_one_or_two_names(z9_session, capsys):
    assert main(["invert", z9_session, "T", "S", "T"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invert takes one endomorphism" in captured.err


@pytest.mark.parametrize("command", ["hull", "is-convex"])
def test_default_family_needs_endomorphisms(tmp_path, capsys, command):
    session = json.loads(Z9_SESSION)
    del session["endos"]
    assert main([command, _session_file(tmp_path, session), "D"]) == EXIT_INPUT
    assert "defines no endomorphisms" in capsys.readouterr().err


def test_session_that_is_not_an_object_is_an_input_error(tmp_path, capsys):
    path = _session_file(tmp_path, "[" + Z9_SESSION + "]")
    assert main(["norm", path, "0"]) == EXIT_INPUT
    assert "a single JSON object" in capsys.readouterr().err


def test_verify_json_reports_the_failed_hypothesis(tmp_path, capsys):
    session = json.loads(RCT_SESSION)
    session["sets"]["B"] = {"kind": "finite", "elements": [["0"], ["1"]]}
    code = main(["verify", _session_file(tmp_path, session), "THM_RCT", "--json"])
    assert code == EXIT_HYPOTHESIS
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "HypothesisFailed"
    assert "n0-convex" in record["hypothesis_failed"]


def test_search_json_reports_an_exhausted_generator(tmp_path, capsys):
    session = {
        "group": {"kind": "finite", "moduli": [9]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "params": {"budget": 5},
    }
    code = main(["search", _session_file(tmp_path, session), "THM_RCT", "--json"])
    assert code == EXIT_INPUT
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "GeneratorExhausted"
    assert "mu_d(n) <= 1" in record["reason"]


def test_verify_decides_a_non_unit_sum_inclusion(tmp_path, capsys):
    # 3/4 is not a dyadic unit, but the sum 3/4 + 1/4 = 1 is, so THM_NK_PLUS
    # is decided by the interval test: no sampling, whatever the budget
    session = {
        "group": {"kind": "dyadic", "dim": 1},
        "metric": {"kind": "linf", "weights": ["1"]},
        "endos": {"T1": [["3/2^2"]], "T2": [["1/2^2"]]},
        "sets": {"D": {"kind": "box", "lo": ["0"], "hi": ["1"]}},
        "params": {"n0": 2, "budget": 7},
    }
    assert main(["verify", _session_file(tmp_path, session), "THM_NK_PLUS"]) == EXIT_OK
    assert capsys.readouterr().out == "THM_NK_PLUS: Proved\n"


def test_missing_session_file(capsys):
    assert main(["mu", "/nonexistent/session.json", "T"]) == EXIT_INPUT


def test_usage_errors_map_to_input_error(capsys):
    # argparse's own exit code must not collide with the Unfalsified code
    assert main(["bogus-command"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["mu"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK


def test_horizon_flag_overrides_session(tmp_path, capsys):
    session = tmp_path / "dy.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "dyadic", "dim": 1},
                "metric": {"kind": "linf", "weights": ["1"]},
                "endos": {"T": [["3/2^1"]]},
            }
        )
    )
    assert main(["rho", str(session), "T", "--horizon", "1", "--json"]) == EXIT_OK
    wide = json.loads(capsys.readouterr().out)
    assert main(["rho", str(session), "T", "--horizon", "8", "--json"]) == EXIT_OK
    tight = json.loads(capsys.readouterr().out)
    assert Fraction(tight["upper"]) <= Fraction(wide["upper"])



def test_horizon_beyond_the_cap_is_an_input_error(tmp_path, capsys, monkeypatch):
    import groupconvex.endo as en

    def no_power(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(en, "_matmul", no_power)
    session = {
        "group": {"kind": "dyadic", "dim": 2},
        "metric": {"kind": "linf", "weights": ["1", "1"]},
        "endos": {"T": [["1/2^1", "1"], ["0", "3/2^2"]]},
    }
    args = ["rho", _session_file(tmp_path, session), "T", "--horizon", "1000000"]
    assert main(args) == EXIT_INPUT
    assert "beyond the cap of 1024" in capsys.readouterr().err

@pytest.mark.parametrize(
    "argv",
    [["recursion", "T", "24"], ["verify", "THM_2", "--horizon", "30"]],
)
def test_recursion_beyond_the_cap_is_an_input_error(tmp_path, capsys, argv):
    import groupconvex.endo as en

    session = {
        "group": {"kind": "dyadic", "dim": 2},
        "metric": {"kind": "linf", "weights": ["1", "1"]},
        "endos": {"T": [["1/2^1", "1"], ["0", "3/2^2"]]},
    }
    command, *rest = argv
    assert main([command, _session_file(tmp_path, session), *rest]) == EXIT_INPUT
    err = capsys.readouterr().err
    # the message names the step that was asked for, not the first one past the cap
    assert f" has {rest[-1]} steps, beyond the cap of {en._RECURSION_CAP}\n" in err


def test_recursion_cap_refuses_before_the_first_step(tmp_path, capsys, monkeypatch):
    import groupconvex.endo as en

    def no_product(*args):
        raise AssertionError("a recursion step was computed")

    monkeypatch.setattr(en, "_matmul", no_product)
    session = {
        "group": {"kind": "int", "dim": 1},
        "metric": {"kind": "linf", "weights": ["1"]},
        "endos": {"T": [["3"]]},
    }
    path = _session_file(tmp_path, session)
    assert main(["recursion", path, "T", str(en._RECURSION_CAP + 1)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f" has {en._RECURSION_CAP + 1} steps, beyond the cap of {en._RECURSION_CAP}\n" in err


def test_finite_group_recursion_is_not_capped(z9_session, capsys):
    assert main(["recursion", z9_session, "T", "1000"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("T_1000 = ")


def test_finite_group_recursion_cap_refuses_before_the_first_step(tmp_path, capsys, monkeypatch):
    import groupconvex.endo as en

    def no_product(*args):
        raise AssertionError("a recursion step was computed")

    monkeypatch.setattr(en, "_matmul", no_product)
    # End(Z131071) has 131,071 maps, so a walk of 100,000 steps may not repeat
    session = {
        "group": {"kind": "finite", "moduli": [131071]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "endos": {"T": [["3"]]},
    }
    n = 100000
    assert main(["recursion", _session_file(tmp_path, session), "T", str(n)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the midpoint recursion on Z131071 has {n} steps, beyond the cap of 65536\n"
    )
    # the closed forms are refused when called, as the iterates are
    T = scaling(FiniteGroup((131071,)), 3)
    for closed in (en.midpoint_closed_form, en.midpoint_closed_forms):
        with pytest.raises(NotEnumerable, match=f"has {n} steps"):
            closed(T, n)


@pytest.mark.parametrize(
    "moduli, metric, size",
    [
        ([300, 300], "cyclic", "90000 elements"),  # beyond the norm table cap
        ([1100], "l1", "1210000 pairs"),  # beyond the pair cap of the axiom check
    ],
)
@pytest.mark.parametrize("command", ["mu", "endo-norm"])
def test_norm_tables_beyond_the_caps_are_input_errors(tmp_path, capsys, monkeypatch, moduli, metric, size, command):
    def no_elements(self):
        raise AssertionError("the elements were enumerated")

    monkeypatch.setattr(FiniteGroup, "elements", no_elements)
    session = {
        "group": {"kind": "finite", "moduli": moduli},
        "metric": {"kind": metric, "weights": ["1"] * len(moduli)},
        "endos": {"T": [[1 if i == j else 0 for j in moduli] for i in moduli]},
    }
    assert main([command, _session_file(tmp_path, session), "T"]) == EXIT_INPUT
    assert size in capsys.readouterr().err


def test_committed_sessions_stay_well_under_the_norm_table_caps():
    from groupconvex.cli import parse_session
    from groupconvex.groups import _PAIR_CAP, _TABLE_CAP

    sessions = sorted((Path(__file__).resolve().parents[1] / "bench" / "sessions").glob("*.json"))
    orders = [
        inst.group.order
        for inst in map(parse_session, map(str, sessions))
        if isinstance(inst.group, FiniteGroup)
    ]
    assert orders and all(16 * n <= _TABLE_CAP and 16 * n * n <= _PAIR_CAP for n in orders)
    # the largest groups that ``gc mu`` and the axiom check are known to serve
    assert 1000 <= _TABLE_CAP and (30 * 30) ** 2 <= _PAIR_CAP


def test_mu_on_z1000_runs_under_the_cap(tmp_path, capsys):
    session = {
        "group": {"kind": "finite", "moduli": [1000]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "endos": {"T": [[3]]},
    }
    assert main(["mu", _session_file(tmp_path, session), "T"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1/333"  # at x = 333, 3x = -1


def test_budget_flag_overrides_session(tmp_path, capsys):
    session = tmp_path / "dy.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "dyadic", "dim": 1},
                "metric": {"kind": "linf", "weights": ["1"]},
                "params": {"budget": 3},
            }
        )
    )
    assert main(["search", str(session), "THM_RCT", "--budget", "9", "--json"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["samples"] == 9


def test_output_is_exact_rational_text(rct_session, capsys):
    main(["norm", rct_session, "3/2^1"])
    out = capsys.readouterr().out.strip()
    assert out == "3/2"
    assert "." not in out


def test_box_convexity_through_cli(tmp_path, capsys):
    session = tmp_path / "dybox.json"
    session.write_text(
        json.dumps(
            {
                "group": {"kind": "dyadic", "dim": 2},
                "metric": {"kind": "linf", "weights": ["1", "1"]},
                "endos": {"H": [["1/2^1", "0"], ["0", "3/2^2"]]},
                "sets": {"D": {"kind": "box", "lo": ["0", "0"], "hi": ["1", "2"]}},
            }
        )
    )
    assert main(["is-convex", str(session), "D", "H"]) == EXIT_OK
    capsys.readouterr()
    assert main(["is-n-convex", str(session), "D", "4"]) == EXIT_OK
    capsys.readouterr()
    assert main(["is-n-convex", str(session), "D", "3"]) == EXIT_REFUTED


TABLE_SESSION = """
{
  "group": {"kind": "finite", "moduli": [3]},
  "metric": {"kind": "table", "values": {"0": "0", "1": "1", "2": "1"}},
  "endos": {"N": [["2"]]},
  "params": {"horizon": 4, "budget": 10}
}
"""


@pytest.mark.parametrize(
    "session",
    [
        {"group": {"kind": "finite"}, "metric": {"kind": "cyclic", "weights": ["1"]}},
        {"group": {"kind": "finite", "moduli": [9]}, "metric": {"kind": "cyclic", "weights": ["1/0"]}},
        {
            "group": {"kind": "finite", "moduli": [9]},
            "metric": {"kind": "cyclic", "weights": ["1"]},
            "endos": {"T": 5},
        },
        # integers are read exactly, never truncated
        {"group": {"kind": "int", "dim": 2.9}, "metric": {"kind": "linf", "weights": ["1", "1"]}},
        {"group": {"kind": "finite", "moduli": [4.7]}, "metric": {"kind": "cyclic", "weights": ["1"]}},
        {"group": {"kind": "int", "dim": True}, "metric": {"kind": "linf", "weights": ["1"]}},
        {
            "group": {"kind": "finite", "moduli": [9]},
            "metric": {"kind": "cyclic", "weights": ["1"]},
            "params": {"seed": 1.7},
        },
        # a string is not a list of moduli, though "49" iterates as "4", "9"
        {"group": {"kind": "finite", "moduli": "49"}, "metric": {"kind": "cyclic", "weights": ["1", "1"]}},
        # nor is a mapping, though it iterates as its keys "4", "9"
        {
            "group": {"kind": "finite", "moduli": {"4": 0, "9": 0}},
            "metric": {"kind": "cyclic", "weights": ["1", "1"]},
        },
        # a map of the wrong entries or the wrong shape names itself
        {"group": {"kind": "int", "dim": 1}, "metric": {"kind": "linf", "weights": ["1"]}, "endos": {"T": [["1/2"]]}},
        {
            "group": {"kind": "finite", "moduli": [4]},
            "metric": {"kind": "cyclic", "weights": ["1"]},
            "endos": {"T": [["1", "2"]]},
        },
    ],
)
def test_malformed_literal_is_an_input_error(tmp_path, capsys, session):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(session))
    with pytest.raises(ParseError):
        parse_session_text(json.dumps(session))
    assert main(["norm", str(path), "0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "malformed" in err
    if "endos" in session:
        assert "endomorphism 'T'" in err, err


def test_high_rank_session_builds_nothing_sized_by_the_group(tmp_path, capsys):
    # Z2^64: building 2^64 landing offsets, or any table of the group, would
    # never finish; a small set takes the tuple pair test
    rank = 64
    session = {
        "group": {"kind": "finite", "moduli": [2] * rank},
        "metric": {"kind": "cyclic", "weights": ["1"] * rank},
        "endos": {"I": [[int(i == j) for j in range(rank)] for i in range(rank)]},
        "sets": {"D": {"kind": "finite", "elements": [[0] * rank, [1] * rank]}},
    }
    path = tmp_path / "z2^64.json"
    path.write_text(json.dumps(session))
    assert main(["norm", str(path), ",".join(["1"] * rank)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == str(rank)
    assert main(["is-convex", str(path), "D", "I"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Proved"


def test_family_beyond_the_ring_cap_is_an_input_error(tmp_path, capsys):
    # End(Z2^64) has 2^4096 maps; the cap refuses the ring before building one
    rank = 64
    session = {
        "group": {"kind": "finite", "moduli": [2] * rank},
        "metric": {"kind": "cyclic", "weights": ["1"] * rank},
        "sets": {"D": {"kind": "finite", "elements": [[0] * rank, [1] * rank]}},
    }
    path = tmp_path / "z2^64.json"
    path.write_text(json.dumps(session))
    assert main(["family", str(path), "D"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"has {2 ** 4096} maps" in captured.err


def test_table_with_stray_keys_is_an_input_error(tmp_path, capsys):
    # "5" and "1,1" are not elements of Z4, so the table is not a norm on Z4
    session = {
        "group": {"kind": "finite", "moduli": [4]},
        "metric": {"kind": "table", "values": {"0": 0, "1": 1, "2": 2, "3": 1, "5": 7, "1,1": 9}},
    }
    from groupconvex.errors import MetricGroupMismatch

    with pytest.raises(MetricGroupMismatch):
        parse_session_text(json.dumps(session))
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(session))
    assert main(["norm", str(path), "5"]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _json_paths(value, prefix + (index,))


_WRONG_VALUES = [None, True, 7, 2.5, "x", "1/0", [], {}, ["1"], [["1"]], {"k": "1"}]


@st.composite
def malformed_sessions(draw):
    """A valid session with one key dropped or one value replaced."""
    text = draw(st.sampled_from([Z9_SESSION, RCT_SESSION, ZLINE_SESSION, TABLE_SESSION]))
    session = json.loads(text)
    path = draw(st.sampled_from([p for p in _json_paths(session) if p]))
    parent = session
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_WRONG_VALUES)))
    return session


@settings(max_examples=300, deadline=None)
@given(malformed_sessions())
def test_malformed_sessions_never_escape_main(tmp_path_factory, session):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(json.dumps(session))
    assert main(["norm", str(path), "0"]) in (EXIT_OK, EXIT_INPUT)


_Z9 = {"group": {"kind": "finite", "moduli": [9]}, "metric": {"kind": "cyclic", "weights": ["1"]}}
_DYADIC = {"group": {"kind": "dyadic", "dim": 1}, "metric": {"kind": "linf", "weights": ["1"]}}


@pytest.mark.parametrize("prop, base, endos, hypothesis", [
    ("THM_NIT", _Z9, {}, "an endomorphism to invert is provided"),
    ("THM_NIT", _DYADIC, {"T": [["0"]]}, "the group is complete"),
    ("THM_NIT", _Z9, {"T": [["2"]]}, "spectral radius of T is certified below one"),
    ("COR_NIT", _DYADIC, {"S": [["1"]], "T": [["0"]]}, "the group is complete"),
    ("COR_NIT", _Z9, {"S": [["3"]], "T": [["0"]]}, "S is invertible with a representable inverse"),
    ("COR_NIT", _Z9, {"S": [["1"]], "T": [["2"]]},
     "one of rho(T S^-1), rho(S^-1 T) is certified below one"),
])
def test_inversion_hypotheses_are_named(tmp_path, capsys, prop, base, endos, hypothesis):
    session = _session_file(tmp_path, dict(base, endos=endos))
    assert main(["verify", session, prop, "--json"]) == EXIT_HYPOTHESIS
    record = json.loads(capsys.readouterr().out)
    assert record == {"status": "HypothesisFailed", "hypothesis_failed": hypothesis}


@pytest.mark.parametrize("session, prop", [("z4x4.json", "LEM_TC"), ("int2.json", "LEMMA_MU")])
def test_exhaustive_search_that_cannot_enumerate_is_an_input_error(capsys, session, prop):
    # LEM_TC is not a pairwise statement, and Z^2 has no finite ring to walk
    path = str(Path(__file__).resolve().parents[1] / "bench" / "sessions" / session)
    assert main(["search", path, prop, "--exhaustive", "--budget", "5"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exhaustive search" in captured.err


@pytest.mark.parametrize("session, extra", [("dyadic2.json", []), ("z4x4.json", ["--exhaustive"])])
@pytest.mark.parametrize("horizon, code, message", [
    (5000, EXIT_INPUT, "beyond the cap of 1024"),
    (0, EXIT_INPUT, "horizon must be a positive integer, got 0"),
    (4, 2, ""),
])
def test_search_brackets_radii_at_the_runs_horizon(capsys, session, extra, horizon, code, message):
    # as verify does: a horizon beyond its cap or below one is refused, exit 4
    path = str(Path(__file__).resolve().parents[1] / "bench" / "sessions" / session)
    argv = ["search", path, "LEMMA_SR", "--budget", "3", "--horizon", str(horizon), *extra]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ("" if message else "LEMMA_SR: Unfalsified (3 instances)\n")


def test_invert_needs_no_term_budget(tmp_path, capsys):
    # 2 is nilpotent on Z_(2^70), so the series has 70 terms
    session = {
        "group": {"kind": "finite", "moduli": [2 ** 70]},
        "metric": {"kind": "cyclic", "weights": ["1"]},
        "endos": {"T": [["2"]]},
    }
    path = _session_file(tmp_path, session)
    assert main(["invert", path, "T", "--max-iter", "10"]) == EXIT_OK
    assert capsys.readouterr().out == f"(I - T)^-1 = [{2 ** 70 - 1}]\n"
