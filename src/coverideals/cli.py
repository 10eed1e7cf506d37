"""Command-line interface.

Verbs:
    cover-ideal       print the ideal of vertex covers of the input
    invariants        h, pd, depth, dim, reg, Cohen-Macaulay verdict
    linear-quotients  linear-quotient certificate plus resolution shifts
    cm-check          Cohen-Macaulay verdict, optional loop-saturation check
    patrol            minimum-size covers (fewest patrol posts)
    oracle-verify     run all applicable routes and compare their results

Input is a JSON object, from --input PATH or inline via --json: a graph
{"n": .., "edges": [[i,j], ..], "loops": [..]}, a block spec
{"alphas": [..], "loops": [..]}, or a monomial ideal {"n": .., "gens": [[..], ..]}.

Exit codes: 0 success, 1 validation error, 2 size guard, undecided search or
out of memory, 3 route disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

from .covers import (
    _OUTPUT_LIMIT,
    cover_ideal_by_intersection,
    kprime_cover_ideal,
    min_patrols,
    minimal_covers_bruteforce,
)
from .errors import (
    CoverIdealsError,
    InconclusiveError,
    OracleDisagreementError,
    SizeGuardError,
    ValidationError,
)
from .graphs import KPrimeSpec, LoopGraph, expand_kprime
from .invariants import invariants
from .monomials import Monomial, MonomialIdeal, _indices_mask
from .quotients import find_linear_order, resolution_shifts

ROUTES = ("auto", "bruteforce", "intersection", "closed-form")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coverideals",
        description="Ideals of vertex covers for graphs with loops: "
        "generators, invariants, linear quotients, and patrol optimization.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_route=True):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="PATH", help="path to the input JSON file")
        source.add_argument("--json", metavar="JSON", help="inline input JSON")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_route:
            p.add_argument("--route", choices=ROUTES, default="auto")

    add_common(sub.add_parser("cover-ideal", help="generators of the ideal of vertex covers"))
    add_common(sub.add_parser("invariants", help="graded invariants of R/I"))
    add_common(sub.add_parser("linear-quotients", help="linear-quotient certificate"))
    cm = sub.add_parser("cm-check", help="Cohen-Macaulay verdict")
    add_common(cm)
    cm.add_argument("--base-ideal", metavar="PATH",
                    help="cover ideal JSON of the loopless base graph, for the saturation check")
    cm.add_argument("--loops", metavar="LIST",
                    help="comma-separated loop vertices overriding the input's loop set")
    add_common(sub.add_parser("patrol", help="minimum number of patrol posts"))
    add_common(sub.add_parser("oracle-verify", help="cross-check all applicable routes"),
               with_route=False)
    return parser


def load_payload(path: str | None, inline: str | None = None):
    """Parse JSON from the file at path, or else from the inline text."""
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    else:
        raw = inline
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        source = "input" if path is None else path
        raise ValidationError(f"{source} is not valid JSON: {exc}") from exc


_SHAPES = ("an integer", "a list of integers", "a list of integer lists")


def _nested_ints(value, depth: int) -> bool:
    level = [value]
    for _ in range(depth):
        if not set(map(type, level)) <= {list}:
            return False
        level = list(chain.from_iterable(level))
    return set(map(type, level)) <= {int}  # JSON true and false are bools


def _check_fields(data, **depths: int) -> None:
    """Reject each named field of a JSON object unless it is an integer
    (depth 0), a list of integers (depth 1) or a list of integer lists
    (depth 2). Absent fields and input that is not an object are left to
    the caller's key checks."""
    if not isinstance(data, dict):
        return
    for key, depth in depths.items():
        if key in data and not _nested_ints(data[key], depth):
            raise ValidationError(f'"{key}" must be {_SHAPES[depth]}')


def _ideal_from_json(data) -> MonomialIdeal:
    _check_fields(data, n=0, gens=2)
    if not isinstance(data, dict) or "n" not in data or "gens" not in data:
        raise ValidationError('ideal JSON needs the keys "n" and "gens"')
    n = data["n"]
    return MonomialIdeal(n, [Monomial.from_indices(ix, n) for ix in data["gens"]])


def classify_input(data):
    """The graph, block spec or ideal that a parsed JSON object describes."""
    if not isinstance(data, dict):
        raise ValidationError("input JSON must be an object")
    if "alphas" in data:
        _check_fields(data, alphas=1, loops=1)
        return KPrimeSpec(data["alphas"], data.get("loops", ()))
    if "gens" in data:
        return _ideal_from_json(data)
    if "edges" in data or "loops" in data:
        _check_fields(data, n=0, edges=2, loops=1)
        if "n" not in data:
            raise ValidationError('graph JSON needs the key "n"')
        return LoopGraph(data["n"], data.get("edges", ()), data.get("loops", ()))
    raise ValidationError("input JSON is not a graph, a block spec, or an ideal")


def compute_cover_ideal(obj, route: str) -> tuple[MonomialIdeal, str]:
    """Resolve the input to its ideal of vertex covers, honoring the route."""
    if isinstance(obj, MonomialIdeal):
        if route != "auto":
            raise ValidationError("route overrides do not apply to ideal input")
        return obj, "ideal-input"
    if isinstance(obj, KPrimeSpec):
        if route in ("auto", "closed-form"):
            return kprime_cover_ideal(obj), "closed-form"
        obj = expand_kprime(obj)
    elif route == "closed-form":
        raise ValidationError("the closed-form route requires a block-spec input")
    if route == "bruteforce":
        return minimal_covers_bruteforce(obj), "bruteforce"
    return cover_ideal_by_intersection(obj), "intersection"


def _printed_cover_ideal(obj, route: str) -> tuple[MonomialIdeal, str]:
    ideal, route = compute_cover_ideal(obj, route)
    if ideal is not obj and (size := sum(g.degree for g in ideal.gens)) > _OUTPUT_LIMIT:
        raise SizeGuardError(f"the ideal holds {size} indices > {_OUTPUT_LIMIT}, too many to print")
    return ideal, route


def _gens_lines(ideal: MonomialIdeal) -> list[str]:
    if ideal.is_zero:
        return ["  (zero ideal)"]
    return [f"  {g.compact()}" for g in ideal.gens]


def run_cover_ideal(obj, args):
    ideal, route = _printed_cover_ideal(obj, args.route)
    report = {"route": route, "ideal": ideal.to_json_dict()}
    lines = [f"route: {route}", f"generators ({len(ideal.gens)}):"] + _gens_lines(ideal)
    return report, lines


def run_invariants(obj, args):
    ideal, route = _printed_cover_ideal(obj, args.route)
    rep = invariants(ideal, None if ideal is obj else obj)  # a graph or spec fixes h
    report = {"route": route, "invariants": rep.to_json_dict(),
              "ideal": ideal.to_json_dict()}
    cm_text = "inconclusive" if rep.cm is None else str(rep.cm).lower()
    lines = [
        f"route: {route} / {rep.route}",
        f"n: {rep.n}  h: {rep.h}  q: {_fmt(rep.q)}",
        f"pd: {_fmt(rep.pd)}  depth: {_fmt(rep.depth)}  dim: {rep.dim}",
        f"reg: {_fmt(rep.reg)}" + (
            f"  (bounds {rep.reg_bounds[0]}..{rep.reg_bounds[1]})" if rep.reg_bounds else ""
        ),
        f"cohen_macaulay: {cm_text}",
    ]
    return report, lines


def _fmt(value) -> str:
    return "-" if value is None else str(value)


def run_linear_quotients(obj, args):
    ideal, route = _printed_cover_ideal(obj, args.route)
    cert = find_linear_order(ideal)
    if cert is None:
        report = {"route": route, "linear": False, "verdict": "absence",
                  "ideal": ideal.to_json_dict()}
        lines = [f"route: {route}", "linear quotients: none exist (all orders fail)"]
        return report, lines
    shifts = resolution_shifts(cert, ideal)
    report = {"route": route, "certificate": cert.to_json_dict(),
              "resolution": shifts.to_json_dict(), "ideal": ideal.to_json_dict()}
    lines = [f"route: {route}", "linear quotients: yes", f"q: {cert.q}", "order:"]
    lines += [f"  {u.compact()}" for u in cert.order]
    lines.append("steps:")
    lines += [f"  {s.compact()}" for s in cert.steps]
    lines.append("resolution shifts:")
    lines += [
        f"  i={i}: " + " ".join(str(-s) for s in level)
        for i, level in enumerate(shifts.levels)
    ]
    return report, lines


def run_cm_check(obj, args):
    if args.loops is not None and args.base_ideal is None:
        raise ValidationError("--loops applies only to the saturation check; pass --base-ideal")
    ideal, route = compute_cover_ideal(obj, args.route)
    rep = invariants(ideal, None if ideal is obj else obj)
    report = {"route": route, "invariants": rep.to_json_dict()}
    cm_text = "inconclusive" if rep.cm is None else str(rep.cm).lower()
    lines = [f"route: {route} / {rep.route}", f"cohen_macaulay: {cm_text}"]
    if args.base_ideal is not None:
        # once the loops hold a minimal cover w of the loopless base graph, the
        # loop set is the one minimal cover left: J is principal, hence CM
        base = _ideal_from_json(load_payload(args.base_ideal))
        loops = _resolve_loops(obj, args, base.n)
        loop_mask = _indices_mask(loops)
        witness = next((w for w in base.gens if not w.mask & ~loop_mask), None)
        # with the input's own loops, the true base has a witness iff G - L
        # has no edge, iff J is principal; any other base is not the input's
        if (isinstance(obj, (LoopGraph, KPrimeSpec)) and set(loops) == set(obj.loops)
                and (witness is not None) != ideal.is_principal):
            found = f"the loops hold {witness.compact()}" if witness else "no cover is in the loops"
            raise ValidationError("the base ideal is not the cover ideal of the input's "
                                  f"loopless graph: {found}, but G - L has "
                                  f"{'an' if witness else 'no'} edge")
        report["saturation"] = {"satisfied": witness is not None,
                                "witness": list(witness.index_seq) if witness else None}
        lines.append(f"loop saturation: satisfied, witness {witness.compact()}" if witness
                     else "loop saturation: not satisfied")
    return report, lines


def _resolve_loops(obj, args, n: int):
    if args.loops is not None:
        try:
            loops = [int(tok) for tok in args.loops.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"--loops must be a comma-separated integer list: {exc}")
        for k in loops:
            if not 1 <= k <= n:
                raise ValidationError(f"--loops vertex {k} leaves the base ideal's range 1..{n}")
        return loops
    if isinstance(obj, (LoopGraph, KPrimeSpec)):
        return obj.loops
    raise ValidationError("ideal input carries no loop set; pass --loops")


def run_patrol(obj, args):
    ideal, route = compute_cover_ideal(obj, args.route)
    solution = min_patrols(ideal)
    report = {"route": route, "patrol": solution.to_json_dict()}
    lines = [
        f"route: {route}",
        f"covering number: {solution.covering_number}",
        f"optimal covers ({len(solution.optimal_covers)}):",
    ]
    lines += ["  {" + ", ".join(map(str, c)) + "}" for c in solution.optimal_covers]
    return report, lines


def run_oracle_verify(obj, args):
    if isinstance(obj, MonomialIdeal):
        raise ValidationError("oracle-verify needs a graph or block-spec input")
    results = {}
    if isinstance(obj, KPrimeSpec):
        results["closed-form"] = kprime_cover_ideal(obj)
        graph = expand_kprime(obj)
    else:
        graph = obj
    results["intersection"] = cover_ideal_by_intersection(graph)
    results["bruteforce"] = minimal_covers_bruteforce(graph)
    ideals = list(results.values())
    agree = all(i == ideals[0] for i in ideals)
    report = {
        "agree": agree,
        "routes": {name: ideal.to_json_dict() for name, ideal in results.items()},
    }
    lines = [f"routes compared: {', '.join(results)}",
             f"agreement: {'yes' if agree else 'NO'}"]
    for name, ideal in results.items():
        lines.append(f"{name}: {ideal.compact()}")
    if not agree:
        raise OracleDisagreementError("computation routes disagree", report=report)
    return report, lines


HANDLERS = {
    "cover-ideal": run_cover_ideal,
    "invariants": run_invariants,
    "linear-quotients": run_linear_quotients,
    "cm-check": run_cm_check,
    "patrol": run_patrol,
    "oracle-verify": run_oracle_verify,
}


def render(report: dict, lines: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = classify_input(load_payload(args.input, args.json))
        report, lines = HANDLERS[args.verb](obj, args)
        output = render(report, lines, args.format)
    except OracleDisagreementError as exc:
        if exc.report is not None:
            print(render(exc.report, [], "json"))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SizeGuardError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):  # an integer too large to allocate
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except CoverIdealsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
