from __future__ import annotations

# the help text, held in a constant so that it outlives -OO
__doc__ = _HELP = """coverideals: ideals of vertex covers for graphs with loops.

usage: coverideals VERB (--input PATH | --json JSON) [--format text|json]
                   [--route auto|bruteforce|intersection|closed-form]

Verbs:
    cover-ideal       print the ideal of vertex covers of the input
    invariants        h, pd, depth, dim, reg, Cohen-Macaulay verdict
    linear-quotients  linear-quotient certificate plus resolution shifts
    cm-check          Cohen-Macaulay verdict; loop saturation with --base-ideal PATH [--loops LIST]
    patrol            minimum-size covers (fewest patrol posts)
    oracle-verify     run all applicable routes and compare them (no --route)

--opt=VALUE is --opt VALUE, and a later value wins. The input is a JSON object:
a graph {"n": .., "edges": [[i,j], ..], "loops": [..]}, a block spec
{"alphas": [..], "loops": [..]}, or a monomial ideal {"n": .., "gens": [[..], ..]};
"alphas", then "gens", picks the kind, and a key of another kind is refused.
Each call builds one report: --format json prints it, --format text a view of it.

In ideal JSON a repeated index raises the exponent ([7, 7] is X7^2), and the
squarefree library gets its polarization over positions: each index that
occurs takes one, in ascending order, followed by one per extra power, so
X_i^a holds i's first a positions and the canonical order carries over; only
positions held by a minimal generator are kept. h, pd, reg, the verdicts and
every colon step stay; n, depth and dim are shifted back by the kept extra
positions, and each position prints as the index it stands for.

Exit codes: 0 success or -h/--help (this text), 1 validation error, malformed
command line or stdout closed by its reader, 2 size guard, undecided search or
out of memory, 3 route disagreement.
"""

import json
import os
import sys
from collections import Counter, namedtuple
from functools import reduce
from itertools import chain, compress, groupby
from json.encoder import encode_basestring_ascii
from operator import eq, or_

from .covers import (
    _walk_covers,
    cover_ideal_by_intersection,
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
from .graphs import KPrimeSpec, LoopGraph
from .invariants import InvariantReport, invariants
from .monomials import (
    MonomialIdeal,
    _indices_mask,
    _mask_indices,
    _minimal_masks,
    _support_mask,
)
from .quotients import find_linear_order, resolution_shifts

ROUTES = ("auto", "bruteforce", "intersection", "closed-form")


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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or too many digits
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


# the ring that the library sees for ideal JSON: position p names the input
# index labels[p] (labels[0] is unused), and each position is its own index
# where labels is empty; copies counts the positions past n, one per extra
# power that a minimal generator holds
_Ring = namedtuple("_Ring", "labels copies")
_PLAIN = _Ring((), 0)
# parsed ideal JSON: the squarefree ideal over positions, and its ring
_IdealInput = namedtuple("_IdealInput", "ideal ring")


def _ideal_from_json(data) -> _IdealInput:
    """Parse ideal JSON, polarized over the indices that occur. Each takes a
    position, in ascending order, followed by one position per extra power,
    so X_i^a holds i's first a positions; the masks are minimalized once and
    the positions that no minimal generator holds are dropped. Where no index
    repeats and the largest is at most 64, each mask is one machine word as
    it stands, so the positions are the indices: the label table would cost
    small input more than it saves."""
    _check_fields(data, n=0, gens=2)
    if not isinstance(data, dict) or "n" not in data or "gens" not in data:
        raise ValidationError('ideal JSON needs the keys "n" and "gens"')
    n, gens = data["n"], data["gens"]
    if n < 1:
        MonomialIdeal(n)  # the constructor's refusal
    for ix in gens:  # the constructor's range check, in the same order
        if ix and (min(ix) < 1 or max(ix) > n):
            _support_mask(ix, n)
    if max(map(max, filter(None, gens)), default=0) <= 64:
        masks = [*map(_indices_mask, gens)]  # a repeat sets its bit once
        if all(map(eq, map(len, gens), map(int.bit_count, masks))):
            return _IdealInput(MonomialIdeal._trusted(n, _minimal_masks(masks)), _PLAIN)
    # each list's extra powers: per index, its equal neighbours once sorted
    extras = [Counter(compress(s, map(eq, s, s[1:]))) for s in map(sorted, gens)]
    powers = reduce(Counter.__ior__, extras, Counter())  # each index's most extra powers
    labels = (0, *sorted(chain(set(chain.from_iterable(gens)), powers.elements())))
    first = dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))  # each index's first
    # X_i^a on i's first a positions: i's first one, then its extra ones
    masks = _minimal_masks(_indices_mask(chain(map(first.__getitem__, ix), *(
        range(first[i] + 1, first[i] + e + 1) for i, e in extra.items())))
        for ix, extra in zip(gens, extras))
    held, width = reduce(or_, masks, 0), len(labels) - 1
    if held != (1 << width) - 1:  # drop the positions no minimal generator holds
        keep = [*map("1".__eq__, f"{held:0{width}b}"[::-1])]  # position p at p - 1
        labels = (0, *compress(labels[1:], keep))
        masks = [int("".join(compress(f"{m:0{width}b}"[::-1], keep))[::-1] or "0", 2)
                 for m in masks]
    copies = sum(map(eq, labels, labels[1:]))
    return _IdealInput(MonomialIdeal._trusted(n + copies, masks), _Ring(labels, copies))


def _labelled(ix, labels) -> list[int]:
    """The input indices that the positions ix name."""
    return [*map(labels.__getitem__, ix)] if labels else list(ix)


def _compact(ix: list[int]) -> str:
    """A report's index list as X3X5X12; a repeated X_i, whose copies map
    back next to each other, is grouped as X_i^a; the unit monomial is 1."""
    if len(set(ix)) == len(ix):
        return "".join(map("X{}".format, ix)) or "1"
    return "".join(f"X{i}^{a}" if (a := len([*run])) > 1 else f"X{i}" for i, run in groupby(ix))


def _ideal_json(ideal: MonomialIdeal | KPrimeSpec, ring: _Ring = _PLAIN) -> dict:
    """A printed ideal: a spec's covers off its walk, else generators in the input's ring."""
    if isinstance(ideal, KPrimeSpec):
        return {"n": ideal.n, "gens": [*map(list, _walk_covers(ideal))]}
    if not ring.labels:
        return ideal.to_json_dict()
    return {"n": ideal.n - ring.copies,
            "gens": [_labelled(_mask_indices(m), ring.labels) for m in ideal.masks]}


# The kinds' keys: block spec "alphas", "loops"; ideal "n", "gens"; graph "n",
# "edges", "loops". "alphas", then "gens", picks the kind, which refuses the
# keys that only other kinds take.
_FOREIGN_KEYS = {"block spec": {"n", "gens", "edges"}, "ideal": {"edges", "loops"}, "graph": ()}


def classify_input(data):
    """The graph, block spec or ideal that a parsed JSON object describes;
    a key of another kind is refused before any field is read."""
    if not isinstance(data, dict):
        raise ValidationError("input JSON must be an object")
    kind = "block spec" if "alphas" in data else "ideal" if "gens" in data else "graph"
    if foreign := sorted(data.keys() & _FOREIGN_KEYS[kind]):
        raise ValidationError(f"{kind} JSON takes no key " + ", ".join(map(json.dumps, foreign)))
    if kind == "block spec":
        _check_fields(data, alphas=1, loops=1)
        return KPrimeSpec(data["alphas"], data.get("loops", ()))
    if kind == "ideal":
        return _ideal_from_json(data)
    if "edges" in data or "loops" in data:
        _check_fields(data, n=0, edges=2, loops=1)
        if "n" not in data:
            raise ValidationError('graph JSON needs the key "n"')
        return LoopGraph(data["n"], data.get("edges", ()), data.get("loops", ()))
    raise ValidationError("input JSON is not a graph, a block spec, or an ideal")


def compute_cover_ideal(obj, route: str) -> tuple[
        MonomialIdeal | KPrimeSpec, str, _Ring, KPrimeSpec | MonomialIdeal]:
    """Resolve the input on the route: its ideal of vertex covers, or on the
    closed form the block spec itself, whose walk ``_ideal_json`` prints; the
    route's name, the ring of its positions, and the source that the library
    answers from, a block spec itself on every route, else the ideal. A graph
    route always runs, so that its refusal stands."""
    if isinstance(obj, _IdealInput):
        if route != "auto":
            raise ValidationError("route overrides do not apply to ideal input")
        return obj.ideal, "ideal-input", obj.ring, obj.ideal
    spec = isinstance(obj, KPrimeSpec)
    if spec and route in ("auto", "closed-form"):
        return obj, "closed-form", _PLAIN, obj
    if route == "closed-form":
        raise ValidationError("the closed-form route requires a block-spec input")
    if route == "bruteforce":
        ideal = minimal_covers_bruteforce(obj)
    else:
        ideal, route = cover_ideal_by_intersection(obj), "intersection"
    return ideal, route, _PLAIN, obj if spec else ideal


def _shifted(rep: InvariantReport, c: int) -> InvariantReport:
    """The report in the input's ring: n, dim and depth shifted back by the c copies."""
    return rep._replace(n=rep.n - c, dim=rep.dim - c,
                        depth=None if rep.depth is None else rep.depth - c) if c else rep


def run_cover_ideal(obj, args):
    ideal, route, ring, _ = compute_cover_ideal(obj, args.route)
    return {"route": route, "ideal": _ideal_json(ideal, ring)}


def _cover_ideal_text(report):
    gens = report["ideal"]["gens"]
    return [f"route: {report['route']}", f"generators ({len(gens)}):",
            *([f"  {_compact(g)}" for g in gens] or ["  (zero ideal)"])]


def run_invariants(obj, args):
    ideal, route, ring, source = compute_cover_ideal(obj, args.route)
    return {"route": route, "invariants": _shifted(invariants(source), ring.copies).to_json_dict(),
            "ideal": _ideal_json(ideal, ring)}


def _invariants_text(report):
    rep, (route, cm) = report["invariants"], _cm_check_text(report)
    bounds = rep["reg_bounds"] and "  (bounds {}..{})".format(*rep["reg_bounds"])
    return [route, f"n: {rep['n']}  h: {rep['h']}  q: {_fmt(rep['q'])}",
            f"pd: {_fmt(rep['pd'])}  depth: {_fmt(rep['depth'])}  dim: {rep['dim']}",
            f"reg: {_fmt(rep['reg'])}{bounds or ''}", cm]


def _fmt(value) -> str:
    return "-" if value is None else str(value)


def run_linear_quotients(obj, args):
    ideal, route, ring, source = compute_cover_ideal(obj, args.route)
    cert = find_linear_order(source)
    if cert is None:
        return {"route": route, "ideal": _ideal_json(ideal, ring),
                "linear": False, "verdict": "absence"}
    # the order lists each generator of the printed ideal once: sorted by
    # degree, then index, it is the canonical order; each step is generated
    # by variables, so the OR of its generators is their mask
    labels = ring.labels
    printed = [_labelled(u, labels) for u in sorted(cert.order, key=lambda u: (len(u), u))]
    return {"route": route, "ideal": {"n": ideal.n - ring.copies, "gens": printed}, "certificate": {
        "order": [_labelled(u, labels) for u in cert.order], "q": cert.q, "linear": True,
        "steps": [_labelled(_mask_indices(reduce(or_, s.masks)), labels) for s in cert.steps]},
        "resolution": resolution_shifts(cert).to_json_dict()}


def _linear_quotients_text(report):
    cert, route = report.get("certificate"), f"route: {report['route']}"
    if cert is None:
        return [route, "linear quotients: none exist (all orders fail)"]
    return [route, "linear quotients: yes", f"q: {cert['q']}", "order:",
            *(f"  {_compact(u)}" for u in cert["order"]), "steps:",
            *("  (" + ", ".join(map("X{}".format, s)) + ")" for s in cert["steps"]),
            "resolution shifts:",
            *(f"  i={i}: " + " ".join(str(-s) for s in level)
              for i, level in enumerate(report["resolution"]["shifts"]))]


def run_cm_check(obj, args):
    if args.loops is not None and args.base_ideal is None:
        raise ValidationError("--loops applies only to the saturation check; pass --base-ideal")
    _, route, ring, source = compute_cover_ideal(obj, args.route)
    rep = _shifted(invariants(source), ring.copies)
    report = {"route": route, "invariants": rep.to_json_dict()}
    if args.base_ideal is not None:
        # once the loops hold a minimal cover w of the loopless base graph, the
        # loop set is the one minimal cover left: J is principal, hence CM;
        # a cover ideal is squarefree, so a base whose minimal generators hold
        # a power is refused
        base, (labels, copies) = _ideal_from_json(load_payload(args.base_ideal))
        if copies:
            raise ValidationError("a variable index repeats in a squarefree monomial")
        loops = _resolve_loops(obj, args, base.n)
        if labels:  # the positions of the loops that the base names
            at = dict(zip(labels, range(len(labels))))
            outside = ~_indices_mask([at[k] for k in loops if k in at])
        else:
            outside = ~_indices_mask(loops)
        # a mask, tested with "is not None": the unit witness 0 is falsy
        witness = next((w for w in base.masks if not w & outside), None)
        held = witness is not None
        shown = _labelled(_mask_indices(witness), labels) if held else None
        # with the input's own loops, the true base has a witness iff G - L
        # has no edge, iff J is principal; any other base is not the input's
        if (isinstance(obj, (LoopGraph, KPrimeSpec)) and set(loops) == set(obj.loops)
                and held != (rep.route == "principal")):
            found = f"the loops hold {_compact(shown)}" if held else "no cover is in the loops"
            raise ValidationError("the base ideal is not the cover ideal of the input's "
                                  f"loopless graph: {found}, but G - L has "
                                  f"{'an' if held else 'no'} edge")
        report["saturation"] = {"satisfied": held, "witness": shown}
    return report


def _cm_check_text(report):
    """The route and Cohen-Macaulay lines, then the saturation verdict if any."""
    rep, saturation = report["invariants"], report.get("saturation")
    cm = "inconclusive" if rep["cm"] is None else str(rep["cm"]).lower()
    lines = [f"route: {report['route']} / {rep['route']}", f"cohen_macaulay: {cm}"]
    if saturation:
        witness = saturation["witness"]
        lines.append("loop saturation: not satisfied" if witness is None
                     else f"loop saturation: satisfied, witness {_compact(witness)}")
    return lines


def _resolve_loops(obj, args, n: int):
    if args.loops is not None:
        tokens = [tok.strip() for tok in args.loops.split(",") if tok.strip()]
        try:  # int() alone would also read "1_0", "+11" and non-ASCII digits
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise ValueError("only ASCII digits name a vertex")
            loops = [int(tok) for tok in tokens]
        except ValueError as exc:  # or past int()'s digit limit
            raise ValidationError(f"--loops must be a comma-separated integer list: {exc}")
        for k in loops:
            if not 1 <= k <= n:
                raise ValidationError(f"--loops vertex {k} leaves the base ideal's range 1..{n}")
        return loops
    if isinstance(obj, (LoopGraph, KPrimeSpec)):
        return obj.loops
    raise ValidationError("ideal input carries no loop set; pass --loops")


def run_patrol(obj, args):
    _, route, (labels, copies), source = compute_cover_ideal(obj, args.route)
    if copies:  # a minimal generator holds a power
        raise ValidationError("patrol selection needs a squarefree (vertex-cover) ideal")
    patrol = min_patrols(source)
    if labels:
        patrol = patrol._replace(optimal_covers=[_labelled(c, labels)
                                                 for c in patrol.optimal_covers])
    return {"route": route, "patrol": patrol.to_json_dict()}


def _patrol_text(report):
    patrol = report["patrol"]
    return [f"route: {report['route']}", f"covering number: {patrol['covering_number']}",
            f"optimal covers ({len(patrol['optimal_covers'])}):",
            *("  {" + ", ".join(map(str, c)) + "}" for c in patrol["optimal_covers"])]


def run_oracle_verify(obj, args):
    if isinstance(obj, _IdealInput):
        raise ValidationError("oracle-verify needs a graph or block-spec input")
    # the graph routes refuse off the walk in O(m); once both pass, the closed
    # form's covers x n are within their output guard, so it refuses no more
    ideals = {name: compute_cover_ideal(obj, name)[0] for name in ("intersection", "bruteforce")}
    agreed = _ideal_json(ideals["intersection"])
    # equal ideals share one printed form; only a disagreeing route is printed apart
    routes = {name: agreed if ideal == ideals["intersection"] else _ideal_json(ideal)
              for name, ideal in ideals.items()}
    if isinstance(obj, KPrimeSpec):
        routes = {"closed-form": _ideal_json(obj), **routes}
    agree = all(printed == agreed for printed in routes.values())
    report = {"agree": agree, "routes": routes}
    if not agree:
        raise OracleDisagreementError("computation routes disagree", report=report)
    return report


def _oracle_verify_text(report):
    routes = report["routes"]
    # every route finds at least one minimal cover, so none prints the zero ideal
    return [f"routes compared: {', '.join(routes)}",
            f"agreement: {'yes' if report['agree'] else 'NO'}",
            *(f"{name}: (" + ", ".join(map(_compact, ideal["gens"])) + ")"
              for name, ideal in routes.items())]


HANDLERS = {
    "cover-ideal": run_cover_ideal,
    "invariants": run_invariants,
    "linear-quotients": run_linear_quotients,
    "cm-check": run_cm_check,
    "patrol": run_patrol,
    "oracle-verify": run_oracle_verify,
}
# verb: the lines of its text format, read off the report alone
_TEXT = dict(zip(HANDLERS, (_cover_ideal_text, _invariants_text, _linear_quotients_text,
                            _cm_check_text, _patrol_text, _oracle_verify_text)))


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts with str keys,
    lists, tuples, strs, ints, bools and None. The stdlib's indented encoder
    runs in pure Python; here a list of ints is one join, a list of nonempty
    int lists (a report's generators) one join per inner list, and a str is
    escaped in C."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind not in (dict, list, tuple):
        return {None: "null", True: "true", False: "false"}[value]
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    kinds, sep = set(map(type, value)), "," + inner
    if kinds == {int}:
        items = map(int.__repr__, value)
    elif kinds == {list} and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
        row = sep + "  "
        items = ["[" + row[1:] + row.join(map(int.__repr__, v)) + inner + "]" for v in value]
    else:
        items = [_json(v, inner) for v in value]
    return "[" + inner + sep.join(items) + pad + "]"


def render(verb: str, report: dict, fmt: str) -> str:
    """The verb's report as JSON, or as the lines of its text format."""
    if fmt == "json":
        return _json(report)
    return "\n".join(_TEXT[verb](report))


_OPTIONS = {  # option: its attribute, the verbs that take it, its values (None: any)
    "--input": ("input", HANDLERS.keys(), None), "--json": ("json", HANDLERS.keys(), None),
    "--format": ("format", HANDLERS.keys(), ("text", "json")),
    "--route": ("route", HANDLERS.keys() - {"oracle-verify"}, ROUTES),
    "--base-ideal": ("base_ideal", {"cm-check"}, None), "--loops": ("loops", {"cm-check"}, None),
}
_Args = namedtuple("_Args", "format route input json base_ideal loops", defaults=(None,) * 4)


def _parse_argv(argv) -> tuple[str, _Args] | None:
    """The verb, then --opt VALUE or --opt=VALUE pairs; a later value wins.
    None asks for help: -h or --help where the verb or an option name stands,
    that is, anywhere but as the value after an option, which never starts with --."""
    if ("-h" in argv or "--help" in argv) and any(
            t == "--help" or t == "-h" and (k < 2 or argv[k - 1] not in _OPTIONS)
            for k, t in enumerate(argv)):
        return None
    if not argv or argv[0] not in HANDLERS:
        raise ValidationError("the first argument must be a verb: " + ", ".join(HANDLERS))
    verb, given, tokens = argv[0], {"format": "text", "route": "auto"}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        attr, verbs, choices = _OPTIONS.get(name, (None, (), None))
        if verb not in verbs:
            raise ValidationError(f"{verb} takes no option {name!r}")
        if not eq and ((value := next(tokens, None)) is None or value.startswith("--")):
            raise ValidationError(f"{name} needs a value")
        if choices and value not in choices:
            raise ValidationError(f"{name} must be one of {', '.join(choices)}, not {value!r}")
        given[attr] = value
    if ("input" in given) == ("json" in given):
        raise ValidationError("give exactly one of --input and --json")
    return verb, _Args(**given)


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str]) -> int:
    try:
        if (parsed := _parse_argv(argv)) is None:
            print(_HELP, end="")
            return 0
        verb, args = parsed
        obj = classify_input(load_payload(args.input, args.json))
        output = render(verb, HANDLERS[verb](obj, args), args.format)
    except OracleDisagreementError as exc:
        if exc.report is not None:
            print(render(verb, exc.report, "json"))
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
