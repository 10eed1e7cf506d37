"""Independent checks for the benchmark's outputs.

Nothing here imports the library. Generators are held as Python ints used as
bitmasks (bit i-1 stands for variable X_i), vertex sets as plain sets, and
every expected value is derived from first principles:

* the ideal of vertex covers of a graph G with loop set L is
  {L + (V - L - S) : S a maximal independent set of G - L}, with the maximal
  independent sets found by Bron-Kerbosch;
* for a block spec G - L is a clique on the unlooped centers with pendant
  leaves, so its maximal independent sets are "one unlooped center plus the
  unlooped leaves outside its block" and, when every unlooped center keeps an
  unlooped leaf, "all unlooped leaves"; each generator is also checked to be
  a minimal cover of the expanded graph with set arithmetic;
* colon steps (u_1..u_{j-1}) : u_j are recomputed from the supports;
* h is the least size of a vertex set meeting every generator, pd = q + 1
  on the linear-quotient route, depth = n - pd, dim = n - h, reg = maxdeg - 1;
* R/J is Cohen-Macaulay exactly when the Alexander dual of J, the edge ideal
  with a variable per loop, has a linear resolution (Eagon-Reiner): with
  loops when the loops cover every edge, without loops when the complement
  of G is chordal (Froberg).

A check returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import re
from functools import cmp_to_key
from itertools import combinations
from math import comb

_B01 = bytes.maketrans(b"\x00\x01", b"01")

# The library searches generator orders only up to this many generators; past
# it an ideal whose canonical order fails is reported as undecided.
SEARCH_LIMIT = 12
# Colon steps the oracle's own order search may try when it checks an exact
# answer past SEARCH_LIMIT; linear orders of the benchmark's ideals are found
# within a few dozen, and this keeps one check under about 0.05 s.
CHECK_BUDGET = 20_000


def mask_of(indices) -> int:
    indices = [int(i) for i in indices]
    if not indices:
        return 0
    bits = bytearray(max(indices))
    for i in indices:
        bits[i - 1] = 1
    return int(bits.translate(_B01)[::-1], 2)


def indices_of(mask: int) -> tuple[int, ...]:
    bits = bin(mask)[:1:-1]
    return tuple(i for i, b in enumerate(bits, start=1) if b == "1")


# ---------------------------------------------------------------------------
# graphs


def cover_ideal_masks(n: int, edges, loops) -> set[int]:
    """Generators of the cover ideal from the maximal independent sets of G - L."""
    loopset = set(loops)
    free = [v for v in range(1, n + 1) if v not in loopset]
    nonadj = {v: set(free) - {v} for v in free}
    for i, j in edges:
        if i in nonadj and j in nonadj:
            nonadj[i].discard(j)
            nonadj[j].discard(i)
    found: list[frozenset[int]] = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            found.append(r)
            return
        pivot = max(p | x, key=lambda w: len(nonadj[w] & p))
        for v in list(p - nonadj[pivot]):
            bron_kerbosch(r | {v}, p & nonadj[v], x & nonadj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(frozenset(), set(free), set())
    base = mask_of(loopset)
    all_free = mask_of(free)
    return {base | (all_free & ~mask_of(s)) for s in found}


def expand_spec(alphas, loops):
    """(n, edges, loops) of a block spec: a clique on the centers plus one
    star edge from every other vertex to its block's center."""
    n = alphas[-1]
    edges = list(combinations(alphas, 2))
    prev = 0
    for a in alphas:
        edges.extend((v, a) for v in range(prev + 1, a))
        prev = a
    return n, edges, list(loops)


def spec_cover_masks(alphas, loops) -> set[int]:
    """Generators of the cover ideal of a block spec, from the maximal
    independent sets of G - L (see the module docstring)."""
    n = alphas[-1]
    everything = (1 << n) - 1
    loopmask = mask_of(loops)
    blocks, prev = {}, 0
    for a in alphas:
        blocks[a] = ((1 << (a - 1)) - 1) & ~((1 << prev) - 1)
        prev = a
    free_leaves = everything & ~mask_of(alphas) & ~loopmask
    free_centers = [a for a in alphas if not loopmask >> (a - 1) & 1]
    independent = [1 << (c - 1) | (free_leaves & ~blocks[c]) for c in free_centers]
    if all(blocks[c] & free_leaves for c in free_centers):
        independent.append(free_leaves)
    return {everything & ~s for s in independent}


def minimal_cover_failure(n, adjacency, loops, cover: set[int]) -> str | None:
    """Why `cover` is not a minimal vertex cover, or None when it is one."""
    if not loops <= cover:
        return "a looped vertex is missing"
    outside = set(range(1, n + 1)) - cover
    for u in outside:
        if not outside.isdisjoint(adjacency[u]):
            return f"an edge at vertex {u} is uncovered"
    for v in cover - loops:
        if outside.isdisjoint(adjacency[v]):
            return f"vertex {v} can be dropped"
    return None


def adjacency_of(n, edges):
    adjacency = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def graph_cm(n, edges, loops) -> bool:
    """Whether R/J is Cohen-Macaulay, J the cover ideal of a graph with at
    least one edge (see the module docstring)."""
    loopset = set(loops)
    if loopset:
        return all(i in loopset or j in loopset for i, j in edges)
    complement = {v: set(range(1, n + 1)) - {v} for v in range(1, n + 1)}
    for i, j in edges:
        complement[i].discard(j)
        complement[j].discard(i)
    return is_chordal(complement)


def is_chordal(adjacency) -> bool:
    """Whether a graph can be emptied by removing simplicial vertices."""
    alive = set(adjacency)
    while alive:
        for v in alive:
            around = adjacency[v] & alive
            if all(around - {u} <= adjacency[u] for u in around):
                alive.discard(v)
                break
        else:
            return False
    return True


def minimalize(masks) -> list[int]:
    uniq = sorted(set(masks), key=int.bit_count)
    kept: list[int] = []
    for m in uniq:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# linear quotients


def _canonical_cmp(a: int, b: int) -> int:
    da, db = a.bit_count(), b.bit_count()
    if da != db:
        return da - db
    if a == b:
        return 0
    low = (a ^ b) & -(a ^ b)
    return -1 if a & low else 1


def canonical(masks) -> list[int]:
    """Degree ascending, ties broken by the lexicographically smaller support."""
    return sorted(masks, key=cmp_to_key(_canonical_cmp))


def colon_step(prefix, u: int) -> int | None:
    """Union of the variables generating (prefix) : u, or None when that
    colon ideal is not generated by variables."""
    reductions = [v & ~u for v in prefix]
    singles = 0
    for r in reductions:
        if r & (r - 1) == 0:
            singles |= r
    if all(r & singles for r in reductions):
        return singles
    return None


def order_steps(order) -> list[int] | None:
    steps = []
    for j in range(1, len(order)):
        step = colon_step(order[:j], order[j])
        if step is None:
            return None
        steps.append(step)
    return steps


class _OutOfBudget(Exception):
    pass


def linear_order(masks, limit=SEARCH_LIMIT, budget=None):
    """('linear', order) for some linear-quotient order, ('none', None) when
    provably none exists, ('undecided', None) when the canonical order fails
    and there are more than `limit` generators to search, or the search
    tries more than `budget` colon steps."""
    gens = canonical(masks)
    if len(gens) <= 1 or order_steps(gens) is not None:
        return "linear", gens
    if limit is not None and len(gens) > limit:
        return "undecided", None
    t = len(gens)
    dead: set[int] = set()
    order: list[int] = []
    tries = 0

    def extend(chosen: int) -> bool:
        nonlocal tries
        if len(order) == t:
            return True
        if chosen in dead:
            return False
        for k, u in enumerate(gens):
            if chosen >> k & 1:
                continue
            tries += 1
            if budget is not None and tries > budget:
                raise _OutOfBudget
            if order and colon_step(order, u) is None:
                continue
            order.append(u)
            if extend(chosen | 1 << k):
                return True
            order.pop()
        dead.add(chosen)
        return False

    try:
        found = extend(0)
    except _OutOfBudget:
        return "undecided", None
    return ("linear", order) if found else ("none", None)


def checked_order(masks):
    """linear_order past the library's search limit, within CHECK_BUDGET: what
    the oracle can still confirm about an answer the library need not give."""
    return linear_order(masks, limit=None, budget=CHECK_BUDGET)


def search_size(masks) -> int:
    """Generator count the library's order search runs over: 0 when the
    canonical order is linear or the count is past the search limit."""
    gens = canonical(masks)
    if len(gens) <= 1 or len(gens) > SEARCH_LIMIT or order_steps(gens) is not None:
        return 0
    return len(gens)


def q_of_order(order) -> int:
    steps = order_steps(order)
    return max((s.bit_count() for s in steps), default=0)


def shifts_of(order) -> list[list[int]]:
    """Graded shifts of the mapping-cone resolution of a linear order."""
    ranks = [0] + [s.bit_count() for s in order_steps(order)]
    levels: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for u, r in zip(order, ranks):
        for i in range(r + 1):
            levels[i].extend([u.bit_count() + i] * comb(r, i))
    return [sorted(level) for level in levels]


def hitting_number(masks) -> int:
    universe = 0
    for m in masks:
        universe |= m
    common = universe
    for m in masks:
        common &= m
    if common:
        return 1
    verts = indices_of(universe)
    for k in range(2, len(verts) + 1):
        for combo in combinations(verts, k):
            c = mask_of(combo)
            if all(m & c for m in masks):
                return k
    raise ValueError("no hitting set")


# ---------------------------------------------------------------------------
# invariants and patrols


def graph_height(loops) -> int:
    """h of the cover ideal of a graph with at least one edge: by Alexander
    duality its minimal hitting sets are the edges and the looped vertices."""
    return 1 if loops else 2


def expected_invariants(n, masks, context_bounds, h=None, route_hint=None):
    """The invariant report the library should give, plus whether it is exact.

    Returns (fields, decided). Where the oracle decides, `fields` holds the
    whole report; where it does not (no linear order exists, or the canonical
    order fails past the search limit), only n, h, dim and the regularity
    bounds of the context.
    `h` is computed by hitting_number unless given; `route_hint` is the
    (status, order) of linear_order, passed when the caller already has it.
    """
    if h is None:
        h = hitting_number(masks)
    maxdeg = max(m.bit_count() for m in masks)
    base = {"n": n, "h": h, "dim": n - h}
    if len(masks) == 1:
        depth = n - 1
        base.update(route="principal", q=0, pd=1, depth=depth, reg=maxdeg - 1,
                    reg_bounds=[0, n - 1], cm=depth == n - h)
        return base, True
    base["reg_bounds"] = context_bounds
    status, order = route_hint or linear_order(masks)
    if status == "linear":
        q = q_of_order(order)
        depth = n - (q + 1)
        base.update(route="linear-quotients", q=q, pd=q + 1, depth=depth,
                    reg=maxdeg - 1, cm=depth == n - h)
        return base, True
    return base, False


def invariants_failure(got: dict, n, masks, context_bounds, h=None, route_hint=None,
                       cm=None) -> str | None:
    """Why the invariant report `got` is wrong, or None when it is right.

    Where the oracle decides, every field must match. Where it does not, a
    report may leave q, pd, depth, reg and cm undecided (None); each value it
    does give must agree with what the oracle knows without the library's
    search: `cm`, the graph's Cohen-Macaulay verdict (None when not known);
    h <= pd <= n, with pd == h exactly when R/J is Cohen-Macaulay; pd and reg
    from a linear order that checked_order finds; reg >= maxdeg - 1; and the
    identities of relation_failure.
    """
    expected, decided = expected_invariants(n, masks, context_bounds, h, route_hint)
    for key, want in expected.items():
        if key in got and got[key] != want:
            return f"invariant {key} is {got[key]!r}, expected {want!r}"
    if decided:
        return None
    h, maxdeg = expected["h"], max(m.bit_count() for m in masks)
    pd, reg = got.get("pd"), got.get("reg")
    if cm is not None and got.get("cm") not in (None, cm):
        return f"CM verdict {got['cm']!r} where the Eagon-Reiner rule gives {cm!r}"
    if reg is not None and reg < maxdeg - 1:
        return f"reg {reg} is below maxdeg - 1 = {maxdeg - 1}"
    if pd is not None:
        if not h <= pd <= n:
            return f"pd {pd} is outside [h, n] = [{h}, {n}]"
        if cm is not None and (pd == h) != cm:
            return f"pd {pd} contradicts the Eagon-Reiner CM verdict {cm!r}"
    if pd is not None or reg is not None:
        status, order = checked_order(masks)
        if status == "linear":
            q = q_of_order(order)
            if pd not in (None, q + 1) or reg not in (None, maxdeg - 1):
                return f"pd or reg differs from a linear order's q + 1 = {q + 1}, maxdeg - 1"
    return relation_failure(got)


def relation_failure(got: dict) -> str | None:
    """The identities every report satisfies, among the fields it gives (the
    text format of cm-check gives only the CM verdict)."""
    n, h, dim = got.get("n"), got.get("h"), got.get("dim")
    pd, q, depth, cm = got.get("pd"), got.get("q"), got.get("depth"), got.get("cm")
    if None not in (n, h, dim) and dim != n - h:
        return "dim does not follow from h"
    if None in (n, pd):
        return None
    if depth != n - pd:
        return "depth does not follow from pd"
    if q is not None and pd != q + 1:
        return "pd != q + 1"
    if None not in (cm, dim) and cm != (depth == dim):
        return "the CM verdict does not follow from depth and dim"
    return None


def patrol_failure(masks, covering_number, covers) -> str | None:
    best = min(m.bit_count() for m in masks)
    want = sorted(indices_of(m) for m in masks if m.bit_count() == best)
    if covering_number != best:
        return f"covering number {covering_number}, expected {best}"
    if sorted(tuple(c) for c in covers) != want:
        return "the optimal covers are not the lowest-degree generators"
    return None


# ---------------------------------------------------------------------------
# CLI text output, parsed into the shape of the JSON report

_MONO = re.compile(r"X(\d+)(?:\^(\d+))?")


def parse_monomial(text: str) -> tuple[int, ...]:
    if text == "1":
        return ()
    out = []
    for idx, power in _MONO.findall(text):
        out.extend([int(idx)] * int(power or 1))
    return tuple(out)


def parse_ideal_text(text: str) -> list[tuple[int, ...]]:
    inner = text.strip()[1:-1].strip()
    if inner in ("", "0"):
        return []
    return [parse_monomial(tok.strip()) for tok in inner.split(",")]


def _int_or_none(tok: str):
    return None if tok == "-" else int(tok)


def _cm_value(tok: str):
    return {"true": True, "false": False, "inconclusive": None}[tok]


def parse_text(verb: str, text: str) -> dict:
    """Normalized report from the text format; fields the text omits are absent."""
    lines = text.splitlines()
    head = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith(" "))
    out: dict = {}
    if "route" in head:
        out["route"] = head["route"].split(" / ")[0]
    if verb == "cover-ideal":
        out["gens"] = [parse_monomial(line.strip()) for line in lines[2:]
                       if line.strip() != "(zero ideal)"]
    elif verb in ("invariants", "cm-check"):
        inv = {"route": head["route"].split(" / ")[1], "cm": _cm_value(head["cohen_macaulay"])}
        if verb == "invariants":
            fields = dict(re.findall(r"(\w+): (-|\d+)", "  ".join(lines[1:4])))
            inv.update({k: _int_or_none(v) for k, v in fields.items()})
            bounds = re.search(r"\(bounds (\d+)\.\.(\d+)\)", lines[3])
            inv["reg_bounds"] = [int(bounds[1]), int(bounds[2])] if bounds else None
        out["invariants"] = inv
        if "loop saturation" in head:
            sat = head["loop saturation"]
            witness = sat.split("witness ")[1] if "witness" in sat else None
            out["saturation"] = {
                "satisfied": sat.startswith("satisfied"),
                "witness": list(parse_monomial(witness)) if witness else None,
            }
    elif verb == "linear-quotients":
        if head["linear quotients"] != "yes":
            out["absence"] = True
            return out
        section = None
        order, steps, shifts = [], [], []
        for line in lines:
            if line in ("order:", "steps:", "resolution shifts:"):
                section = line
            elif line.startswith("  ") and section == "order:":
                order.append(parse_monomial(line.strip()))
            elif line.startswith("  ") and section == "steps:":
                steps.append([g[0] for g in parse_ideal_text(line)])
            elif line.startswith("  ") and section == "resolution shifts:":
                shifts.append([-int(tok) for tok in line.split(":", 1)[1].split()])
        out.update(order=order, steps=steps, q=int(head["q"]), shifts=shifts)
    elif verb == "patrol":
        out["covering_number"] = int(head["covering number"])
        out["optimal_covers"] = [
            tuple(int(v) for v in line.strip()[1:-1].split(",") if v.strip())
            for line in lines[3:]
        ]
    elif verb == "oracle-verify":
        out["agree"] = head["agreement"] == "yes"
        names = head["routes compared"].split(", ")
        out["routes"] = {name: parse_ideal_text(head[name]) for name in names}
    return out


def parse_json(verb: str, report: dict) -> dict:
    """Normalized report from the JSON format."""
    out: dict = {}
    if "route" in report:
        out["route"] = report["route"]
    if verb == "cover-ideal":
        out["gens"] = [tuple(g) for g in report["ideal"]["gens"]]
    elif verb in ("invariants", "cm-check"):
        out["invariants"] = report["invariants"]
        if verb == "invariants":
            out["gens"] = [tuple(g) for g in report["ideal"]["gens"]]
        if "saturation" in report:
            out["saturation"] = report["saturation"]
    elif verb == "linear-quotients":
        if report.get("verdict") == "absence":
            out["absence"] = True
            return out
        cert = report["certificate"]
        out.update(order=[tuple(u) for u in cert["order"]], steps=cert["steps"],
                   q=cert["q"], shifts=report["resolution"]["shifts"])
        if not cert["linear"]:
            out["nonlinear"] = True
    elif verb == "patrol":
        out["covering_number"] = report["patrol"]["covering_number"]
        out["optimal_covers"] = [tuple(c) for c in report["patrol"]["optimal_covers"]]
    elif verb == "oracle-verify":
        out["agree"] = report["agree"]
        out["routes"] = {k: [tuple(g) for g in v["gens"]] for k, v in report["routes"].items()}
    return out
