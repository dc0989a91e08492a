"""Command-line front end.

One session file per invocation: a JSON document declaring the group, the
metric, named endomorphisms and named point sets, plus optional parameters.
Exact scalars travel as strings ("p", "p/q", or "p/2^k" for dyadics) so no
host tooling can lose precision.  Subcommands dispatch to the library and
print a human-readable line, or a machine-readable record with ``--json``.

Exit codes: 0 success/Proved, 1 Refuted, 2 Unfalsified, 3 HypothesisFailed,
4 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import endo as en
from .endo import Endomorphism
from .errors import (
    GeneratorExhausted,
    GroupConvexError,
    HypothesisFailed,
    ParseError,
    ValidationError,
)
from .groups import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    Group,
    IntLattice,
    L1Metric,
    LinfMetric,
    Metric,
    TableMetric,
    Vector,
    norm,
    validate_metric,
)
from .scalars import as_int, format_rational, parse_scalar
from .theorems import GeneratorConfig, Instance, Params, counterexample_search, verify
from .verdicts import Status, Verdict

if TYPE_CHECKING:
    from .convexity import PointSet
    from .properties import PropertyId

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNFALSIFIED = 2
EXIT_HYPOTHESIS = 3
EXIT_INPUT = 4

_STATUS_EXIT = {
    Status.PROVED: EXIT_OK,
    Status.REFUTED: EXIT_REFUTED,
    Status.UNFALSIFIED: EXIT_UNFALSIFIED,
}


# ---------------------------------------------------------------------------
# Scalar and element formatting
# ---------------------------------------------------------------------------

def _parse_element(group: Group, text: str) -> Vector:
    return group.element([parse_scalar(part) for part in text.split(",")])


def _format_matrix(group: Group, T: Endomorphism) -> list[list[str]]:
    return [[group.format_scalar(a) for a in row] for row in T.matrix]


def _format_set(A: PointSet) -> dict:
    from .convexity import FiniteSet

    if isinstance(A, FiniteSet):
        return {
            "kind": "finite",
            "elements": [
                [A.group.format_scalar(c) for c in x] for x in A.elements
            ],
        }
    return {
        "kind": "box",
        "lo": [A.group.format_scalar(c) for c in A.lo],
        "hi": [A.group.format_scalar(c) for c in A.hi],
    }


def _json_witness(group: Group, witness) -> Any:
    if witness is None:
        return None
    from .convexity import BoxSet, FiniteSet

    out = []
    for item in witness:
        if isinstance(item, Endomorphism):
            out.append({"endo": _format_matrix(group, item)})
        elif isinstance(item, (FiniteSet, BoxSet)):
            out.append({"set": _format_set(item)})
        elif isinstance(item, Instance):
            out.append({"session": session_to_dict(item)})
        elif isinstance(item, tuple):
            out.append(_json_witness(group, item))
        elif isinstance(item, (int, Fraction)):
            out.append(group.format_scalar(item))
        else:
            out.append(str(item))
    return out


def _verdict_record(verdict: Verdict, group: Group, prop: str | None = None) -> dict:
    record: dict[str, Any] = {"status": verdict.status.value}
    if prop is not None:
        record["property"] = prop
    if verdict.witness is not None:
        record["witness"] = _json_witness(group, verdict.witness)
    if verdict.samples is not None:
        record["samples"] = verdict.samples
    return record


# ---------------------------------------------------------------------------
# Session files
# ---------------------------------------------------------------------------

def _group_from_literal(literal: dict) -> Group:
    kind = literal.get("kind")
    if kind == "finite":
        return FiniteGroup(literal["moduli"])
    if kind == "int":
        return IntLattice(literal["dim"])
    if kind == "dyadic":
        return DyadicLattice(literal["dim"])
    raise ParseError(f"unknown group kind {kind!r}")


def _metric_from_literal(literal: dict) -> Metric:
    kind = literal.get("kind")
    if kind in ("cyclic", "linf", "l1"):
        weights = tuple(parse_scalar(str(w)) for w in literal["weights"])
        cls = {"cyclic": CyclicMetric, "linf": LinfMetric, "l1": L1Metric}[kind]
        return cls(weights)
    if kind == "table":
        values = {
            tuple(int(c) for c in key.split(",")): parse_scalar(str(v))
            for key, v in literal["values"].items()
        }
        return TableMetric(tuple(values.items()))
    raise ParseError(f"unknown metric kind {kind!r}")


def _set_from_literal(group: Group, literal: dict) -> PointSet:
    from . import convexity as cx

    kind = literal.get("kind")
    if kind == "finite":
        points = [[parse_scalar(str(c)) for c in row] for row in literal["elements"]]
        return cx.finite_set(group, points)
    if kind == "box":
        lo = [parse_scalar(str(c)) for c in literal["lo"]]
        hi = [parse_scalar(str(c)) for c in literal["hi"]]
        return cx.box_set(group, lo, hi)
    raise ParseError(f"unknown set kind {kind!r}")


@contextmanager
def _reading(what: str):
    """Report a literal of the wrong shape or value as a ParseError naming ``what``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as err:
        raise ParseError(f"malformed {what}: {type(err).__name__}: {err}") from err


def session_from_dict(data: dict) -> Instance:
    if "group" not in data or "metric" not in data:
        raise ParseError("a session needs 'group' and 'metric' entries")
    with _reading("group"):
        group = _group_from_literal(data["group"])
    with _reading("metric"):
        metric = _metric_from_literal(data["metric"])
    verdict = validate_metric(group, metric)
    if not verdict.proved:
        raise ValidationError(
            f"metric failed validation: {verdict.witness[0]}", witness=verdict.witness
        )
    endos = {}
    with _reading("endos"):
        endo_literals = data.get("endos", {}).items()
    for name, rows in endo_literals:
        with _reading(f"endomorphism {name!r}"):
            matrix = [[parse_scalar(str(a)) for a in row] for row in rows]
            endos[name] = en.make_endo(group, matrix)
    sets = {}
    with _reading("sets"):
        set_literals = data.get("sets", {}).items()
    for name, literal in set_literals:
        with _reading(f"set {name!r}"):
            sets[name] = _set_from_literal(group, literal)
    with _reading("params"):
        raw_params = data.get("params", {})
        unknown = set(raw_params) - {f.name for f in fields(Params)}
        if unknown:
            raise ParseError(f"unknown parameter keys {sorted(unknown)}")
        params = Params(**{k: as_int(v) for k, v in raw_params.items()})
    return Instance(group, metric, endos=endos, sets=sets, params=params)


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate name {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_session_text(text: str) -> Instance:
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno) from err
    if not isinstance(data, dict):
        raise ParseError("a session file holds a single JSON object")
    return session_from_dict(data)


def parse_session(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read session file: {err}") from err
    return parse_session_text(text)


def session_to_dict(inst: Instance) -> dict:
    group = inst.group
    data: dict[str, Any] = {"group": group.literal(), "metric": inst.metric.literal()}
    if inst.endos:
        data["endos"] = {
            name: _format_matrix(group, T) for name, T in inst.endos.items()
        }
    if inst.sets:
        data["sets"] = {name: _format_set(A) for name, A in inst.sets.items()}
    params = {
        f.name: getattr(inst.params, f.name)
        for f in fields(Params)
        if getattr(inst.params, f.name) != f.default
    }
    if params:
        data["params"] = params
    return data


def format_session(inst: Instance) -> str:
    return json.dumps(session_to_dict(inst), indent=2)


# ---------------------------------------------------------------------------
# Command handlers: each takes the session, read once in ``main``, and the
# parsed arguments, and returns the exit code.
# ---------------------------------------------------------------------------

def _emit(args, human: str, record: dict) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(human)


def _endo_by_name(inst: Instance, name: str) -> Endomorphism:
    if name not in inst.endos:
        raise ParseError(f"endomorphism {name!r} is not defined in the session")
    return inst.endos[name]


def _set_by_name(inst: Instance, name: str) -> PointSet:
    if name not in inst.sets:
        raise ParseError(f"set {name!r} is not defined in the session")
    return inst.sets[name]


def _family(inst: Instance, names: list[str]) -> list[Endomorphism]:
    if names:
        return [_endo_by_name(inst, n) for n in names]
    if not inst.endos:
        raise ParseError("the session defines no endomorphisms")
    return list(inst.endos.values())


def _cmd_norm(inst: Instance, args) -> int:
    x = _parse_element(inst.group, args.element)
    value = norm(inst.group, inst.metric, x)
    _emit(args, format_rational(value), {"command": "norm", "value": format_rational(value)})
    return EXIT_OK


def _cmd_endo_scalar(inst: Instance, args) -> int:
    """``endo-norm`` (the operator norm) and ``mu`` (the measure of injectivity)."""
    measure = en.op_norm if args.command == "endo-norm" else en.injectivity_measure
    value = measure(_endo_by_name(inst, args.name), inst.metric)
    _emit(args, format_rational(value), {"command": args.command, "value": format_rational(value)})
    return EXIT_OK


def _cmd_rho(inst: Instance, args) -> int:
    T = _endo_by_name(inst, args.name)
    bracket = en.spectral_radius(T, inst.metric, inst.params.horizon)
    if bracket.exact:
        human = f"{format_rational(bracket.value)} (exact)"
    else:
        human = f"[{format_rational(bracket.lower)}, {format_rational(bracket.upper)}]"
    record = {
        "command": "rho",
        "lower": format_rational(bracket.lower),
        "upper": format_rational(bracket.upper),
        "exact": bracket.exact,
    }
    _emit(args, human, record)
    return EXIT_OK


def _cmd_invert(inst: Instance, args) -> int:
    names = args.names
    if len(names) == 1:
        T = _endo_by_name(inst, names[0])
        result = en.neumann_inverse(T, inst.metric)
        label = f"(I - {names[0]})^-1"
    elif len(names) == 2:
        S = _endo_by_name(inst, names[0])
        T = _endo_by_name(inst, names[1])
        result = en.shifted_inverse(S, T, inst.metric)
        label = f"({names[0]} - {names[1]})^-1"
    else:
        raise ParseError("invert takes one endomorphism (I - T) or two (S - T)")
    _emit(
        args,
        f"{label} = {result}",
        {"command": "invert", "matrix": _format_matrix(inst.group, result)},
    )
    return EXIT_OK


def _cmd_hull(inst: Instance, args) -> int:
    from . import convexity as cx

    S = _set_by_name(inst, args.set)
    family = _family(inst, args.names)
    hull, complete = cx.convex_hull(S, family, max_iter=inst.params.max_iter)
    human = f"{hull} ({'complete' if complete else 'budget exhausted'})"
    _emit(
        args,
        human,
        {"command": "hull", "hull": _format_set(hull), "complete": complete},
    )
    return EXIT_OK


def _cmd_is_convex(inst: Instance, args) -> int:
    from . import convexity as cx

    D = _set_by_name(inst, args.set)
    family = _family(inst, args.names)
    verdict = cx.is_family_convex(D, family)
    _emit(args, verdict.status.value, _verdict_record(verdict, inst.group))
    return _STATUS_EXIT[verdict.status]


def _cmd_is_n_convex(inst: Instance, args) -> int:
    from . import convexity as cx

    D = _set_by_name(inst, args.set)
    verdict = cx.is_n_convex(D, args.n)
    _emit(args, verdict.status.value, _verdict_record(verdict, inst.group))
    return _STATUS_EXIT[verdict.status]


def _cmd_family(inst: Instance, args) -> int:
    from . import convexity as cx

    D = _set_by_name(inst, args.set)
    members = cx.family_of(D)
    human = "\n".join(str(T) for T in members)
    record = {
        "command": "family",
        "members": [_format_matrix(inst.group, T) for T in members],
    }
    _emit(args, human, record)
    return EXIT_OK


def _cmd_recursion(inst: Instance, args) -> int:
    T = _endo_by_name(inst, args.name)
    iterate = en.midpoint_recursion(T, args.n)
    closed = en.midpoint_closed_form(T, args.n) if inst.group.divisible_by(2) else None
    agree = closed is None or closed == iterate
    human = f"T_{args.n} = {iterate}" + ("" if agree else "  (closed form DISAGREES)")
    record = {
        "command": "recursion",
        "matrix": _format_matrix(inst.group, iterate),
        "closed_form_agrees": agree,
    }
    _emit(args, human, record)
    return EXIT_OK if agree else EXIT_REFUTED


def _property(value: str) -> PropertyId:
    from .properties import PropertyId

    try:
        return PropertyId[value]
    except KeyError:
        raise ParseError(
            f"unknown property {value!r}; choose from "
            + ", ".join(p.name for p in PropertyId)
        ) from None


def _emit_property(args, inst: Instance, prop: PropertyId, verdict: Verdict) -> int:
    human = f"{prop.name}: {verdict.status.value}"
    if verdict.samples is not None:
        human += f" ({verdict.samples} instances)"
    _emit(args, human, _verdict_record(verdict, inst.group, prop=prop.name))
    return _STATUS_EXIT[verdict.status]


def _cmd_verify(inst: Instance, args) -> int:
    prop = _property(args.property)
    return _emit_property(args, inst, prop, verify(prop, inst))


def _cmd_search(inst: Instance, args) -> int:
    prop = _property(args.property)
    gen = GeneratorConfig(group=inst.group, metric=inst.metric, exhaustive=args.exhaustive)
    verdict = counterexample_search(
        prop, gen, budget=inst.params.budget, seed=inst.params.seed
    )
    return _emit_property(args, inst, prop, verdict)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# One row per subcommand: name, help, handler, and the arguments that follow
# the session file as (name, add_argument keywords).
_COMMANDS = (
    ("norm", "norm of an element", _cmd_norm,
     [("element", {"help": "comma-separated exact coordinates; put -- before an element "
                           "whose first coordinate is negative"})]),
    ("endo-norm", "operator norm of an endomorphism", _cmd_endo_scalar, [("name", {})]),
    ("mu", "measure of injectivity", _cmd_endo_scalar, [("name", {})]),
    ("rho", "spectral radius bracket", _cmd_rho, [("name", {})]),
    ("invert", "geometric-series inversion", _cmd_invert,
     [("names", {"nargs": "+", "help": "T for (I-T)^-1, or S T for (S-T)^-1"})]),
    ("hull", "family-convex hull of a set", _cmd_hull,
     [("set", {}), ("names", {"nargs": "*", "help": "family members (default: all endos)"})]),
    ("is-convex", "family convexity verdict", _cmd_is_convex, [("set", {}), ("names", {"nargs": "*"})]),
    ("is-n-convex", "n-convexity verdict", _cmd_is_n_convex, [("set", {}), ("n", {"type": int})]),
    ("family", "all endomorphisms keeping a set convex", _cmd_family, [("set", {})]),
    ("recursion", "midpoint recursion iterate", _cmd_recursion, [("name", {}), ("n", {"type": int})]),
    ("verify", "run a property checker", _cmd_verify, [("property", {})]),
    ("search", "seeded counterexample search", _cmd_search,
     [("property", {}), ("--exhaustive", {"action": "store_true"})]),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--horizon", type=int, default=None)
    common.add_argument("--max-iter", dest="max_iter", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="gc",
        description="exact computations and property checks on metric Abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("session")
        for argument, options in arguments:
            p.add_argument(argument, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors, which would collide with
        # the Unfalsified exit code; fold usage errors into input errors.
        return EXIT_OK if err.code in (0, None) else EXIT_INPUT
    try:
        inst = parse_session(args.session)
        # a flag overrides the session's value of the run parameter it names
        overrides = {
            f.name: getattr(args, f.name)
            for f in fields(Params)
            if getattr(args, f.name, None) is not None
        }
        if overrides:
            inst = replace(inst, params=replace(inst.params, **overrides))
        return args.handler(inst, args)
    except HypothesisFailed as err:
        if args.json:
            print(json.dumps({"status": "HypothesisFailed", "hypothesis_failed": err.hypothesis}))
        else:
            print(f"hypothesis failed: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except GeneratorExhausted as err:
        if args.json:
            print(json.dumps({"status": "GeneratorExhausted", "reason": str(err)}))
        else:
            print(f"generator exhausted: {err}", file=sys.stderr)
        return EXIT_INPUT
    except GroupConvexError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
