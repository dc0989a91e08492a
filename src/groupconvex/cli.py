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
from fractions import Fraction
from typing import Any

from . import convexity as cx
from . import endo as en
from .convexity import BoxSet, FiniteSet, PointSet
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
from .theorems import (
    GeneratorConfig,
    Instance,
    Params,
    PropertyId,
    counterexample_search,
    verify,
)
from .verdicts import Status, Verdict

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

def _format_element(group: Group, x: Vector) -> str:
    return ",".join(group.format_scalar(c) for c in x)


def _parse_element(group: Group, text: str) -> Vector:
    return group.element([parse_scalar(part) for part in text.split(",")])


def _format_matrix(group: Group, T: Endomorphism) -> list[list[str]]:
    return [[group.format_scalar(a) for a in row] for row in T.matrix]


def _format_set(A: PointSet) -> dict:
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
    out = []
    for item in witness:
        if isinstance(item, Endomorphism):
            out.append({"endo": _format_matrix(group, item)})
        elif isinstance(item, (FiniteSet, BoxSet)):
            out.append({"set": _format_set(item)})
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
    kind = literal.get("kind")
    if kind == "finite":
        points = [[parse_scalar(str(c)) for c in row] for row in literal["elements"]]
        return cx.finite_set(group, points)
    if kind == "box":
        lo = [parse_scalar(str(c)) for c in literal["lo"]]
        hi = [parse_scalar(str(c)) for c in literal["hi"]]
        return cx.box_set(group, lo, hi)
    raise ParseError(f"unknown set kind {kind!r}")


_PARAM_KEYS = ("n0", "horizon", "budget", "seed", "max_iter")


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
        unknown = set(raw_params) - set(_PARAM_KEYS)
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
        key: getattr(inst.params, key)
        for key in _PARAM_KEYS
        if getattr(inst.params, key) != getattr(Params(), key)
    }
    if params:
        data["params"] = params
    return data


def format_session(inst: Instance) -> str:
    return json.dumps(session_to_dict(inst), indent=2)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _emit(args, human: str, record: dict) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(human)


def _override_params(inst: Instance, args) -> Instance:
    updates = {}
    for key in ("seed", "budget", "horizon", "max_iter"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    if updates:
        merged = {k: getattr(inst.params, k) for k in _PARAM_KEYS}
        merged.update(updates)
        inst.params = Params(**merged)
    return inst


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


def _cmd_norm(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    x = _parse_element(inst.group, args.element)
    value = norm(inst.group, inst.metric, x)
    _emit(args, format_rational(value), {"command": "norm", "value": format_rational(value)})
    return EXIT_OK


def _cmd_endo_norm(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    T = _endo_by_name(inst, args.name)
    value = en.op_norm(T, inst.metric)
    _emit(args, format_rational(value), {"command": "endo-norm", "value": format_rational(value)})
    return EXIT_OK


def _cmd_mu(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    T = _endo_by_name(inst, args.name)
    value = en.injectivity_measure(T, inst.metric)
    _emit(args, format_rational(value), {"command": "mu", "value": format_rational(value)})
    return EXIT_OK


def _cmd_rho(args) -> int:
    inst = _override_params(parse_session(args.session), args)
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


def _cmd_invert(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    names = args.names
    if len(names) == 1:
        T = _endo_by_name(inst, names[0])
        result = en.neumann_inverse(T, inst.metric, max_terms=inst.params.max_iter)
        label = f"(I - {names[0]})^-1"
    elif len(names) == 2:
        S = _endo_by_name(inst, names[0])
        T = _endo_by_name(inst, names[1])
        result = en.shifted_inverse(S, T, inst.metric, max_terms=inst.params.max_iter)
        label = f"({names[0]} - {names[1]})^-1"
    else:
        raise ParseError("invert takes one endomorphism (I - T) or two (S - T)")
    _emit(
        args,
        f"{label} = {result}",
        {"command": "invert", "matrix": _format_matrix(inst.group, result)},
    )
    return EXIT_OK


def _cmd_hull(args) -> int:
    inst = _override_params(parse_session(args.session), args)
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


def _cmd_is_convex(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    D = _set_by_name(inst, args.set)
    family = _family(inst, args.names)
    verdict = cx.is_family_convex(
        D, family, samples=inst.params.budget, seed=inst.params.seed
    )
    _emit(args, verdict.status.value, _verdict_record(verdict, inst.group))
    return _STATUS_EXIT[verdict.status]


def _cmd_is_n_convex(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    D = _set_by_name(inst, args.set)
    verdict = cx.is_n_convex(D, args.n)
    _emit(args, verdict.status.value, _verdict_record(verdict, inst.group))
    return _STATUS_EXIT[verdict.status]


def _cmd_family(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    D = _set_by_name(inst, args.set)
    members = cx.family_of(D)
    human = "\n".join(str(T) for T in members)
    record = {
        "command": "family",
        "members": [_format_matrix(inst.group, T) for T in members],
    }
    _emit(args, human, record)
    return EXIT_OK


def _cmd_recursion(args) -> int:
    inst = _override_params(parse_session(args.session), args)
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
    try:
        return PropertyId[value]
    except KeyError:
        raise ParseError(
            f"unknown property {value!r}; choose from "
            + ", ".join(p.name for p in PropertyId)
        ) from None


def _cmd_verify(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    prop = _property(args.property)
    verdict = verify(prop, inst)
    record = _verdict_record(verdict, inst.group, prop=prop.name)
    human = f"{prop.name}: {verdict.status.value}"
    if verdict.samples is not None:
        human += f" ({verdict.samples} samples)"
    _emit(args, human, record)
    return _STATUS_EXIT[verdict.status]


def _cmd_search(args) -> int:
    inst = _override_params(parse_session(args.session), args)
    prop = _property(args.property)
    gen = GeneratorConfig(
        family=inst.group.kind,
        group=inst.group,
        metric=inst.metric,
        exhaustive=args.exhaustive,
    )
    verdict = counterexample_search(
        prop, gen, budget=inst.params.budget, seed=inst.params.seed
    )
    record = _verdict_record(verdict, inst.group, prop=prop.name)
    human = f"{prop.name}: {verdict.status.value}"
    if verdict.samples is not None:
        human += f" ({verdict.samples} instances)"
    _emit(args, human, record)
    return _STATUS_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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

    p = sub.add_parser("norm", parents=[common], help="norm of an element")
    p.add_argument("session")
    p.add_argument("element", help="comma-separated exact coordinates")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("endo-norm", parents=[common], help="operator norm of an endomorphism")
    p.add_argument("session")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_endo_norm)

    p = sub.add_parser("mu", parents=[common], help="measure of injectivity")
    p.add_argument("session")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("rho", parents=[common], help="spectral radius bracket")
    p.add_argument("session")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("invert", parents=[common], help="geometric-series inversion")
    p.add_argument("session")
    p.add_argument("names", nargs="+", help="T for (I-T)^-1, or S T for (S-T)^-1")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("hull", parents=[common], help="family-convex hull of a set")
    p.add_argument("session")
    p.add_argument("set")
    p.add_argument("names", nargs="*", help="family members (default: all endos)")
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("is-convex", parents=[common], help="family convexity verdict")
    p.add_argument("session")
    p.add_argument("set")
    p.add_argument("names", nargs="*")
    p.set_defaults(handler=_cmd_is_convex)

    p = sub.add_parser("is-n-convex", parents=[common], help="n-convexity verdict")
    p.add_argument("session")
    p.add_argument("set")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_is_n_convex)

    p = sub.add_parser("family", parents=[common], help="all endomorphisms keeping a set convex")
    p.add_argument("session")
    p.add_argument("set")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("recursion", parents=[common], help="midpoint recursion iterate")
    p.add_argument("session")
    p.add_argument("name")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_recursion)

    p = sub.add_parser("verify", parents=[common], help="run a property checker")
    p.add_argument("session")
    p.add_argument("property")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("search", parents=[common], help="seeded counterexample search")
    p.add_argument("session")
    p.add_argument("property")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(handler=_cmd_search)

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
        return args.handler(args)
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
