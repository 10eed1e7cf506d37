"""The benchmark's three workloads: seeded inputs, the timed pipeline, a
compact record of each output, and the check of that record. Every
`heap_stride`-th pool instance is also run once more under tracemalloc.

Each workload builds a pool of distinct instances from the seed alone. The
timed loop in run.py cycles through the pool; `run` is the only code inside
the timer and the only code whose work is measured. `summarize` reads an
output through the library's JSON forms into a fingerprint, compared across
attempts, and a record, and `check` compares a record with the oracles in
oracles.py, which never call the library. `probe_pool` gives inputs that are
run and checked once per run outside the timed loop and reported apart from
it: cli-small's malformed inputs, the unhandled ones among them.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import oracles as orc

OK, UNDECIDED, FAILED, WRONG = "ok", "undecided", "failed", "wrong"


@dataclass
class Instance:
    id: int
    data: dict
    argv: list = field(default_factory=list)


def _pipeline_summary(out, full):
    """(fingerprint, record) of (ideal, report, patrols), read through the
    library's JSON forms, which the CLI's output fixes. The record, with
    generators as bitmasks, is built only when `full`."""
    ideal, report, solution = out
    gens = ideal.to_json_dict()["gens"]
    if isinstance(report, Exception):
        report = ("raise", type(report).__name__)
    else:
        report = report.to_json_dict()
    patrol = solution.to_json_dict()
    patrol = (patrol["covering_number"], tuple(map(tuple, patrol["optimal_covers"])))
    fingerprint = hash((tuple(hash(tuple(g)) for g in gens), repr(report), patrol))
    if not full:
        return fingerprint, None
    return fingerprint, (tuple(orc.mask_of(g) for g in gens), report, patrol)


def _check_pipeline(n, gens, report, patrol, context_bounds, loops, cm=None,
                    size_guard_reason=None):
    """Shared check of (cover ideal, invariants, patrols) against the oracles.
    `cm` is the graph's Cohen-Macaulay verdict from the Eagon-Reiner rule, or
    None; `size_guard_reason` says why a SizeGuardError from invariants is
    allowed."""
    bad = orc.patrol_failure(gens, *patrol)
    if bad:
        return WRONG, bad
    if isinstance(report, tuple):
        if size_guard_reason and report[1] == "SizeGuardError":
            return UNDECIDED, f"SizeGuardError: {size_guard_reason}"
        return FAILED, f"{report[1]} on an instance the oracle decides"
    bad = orc.invariants_failure(report, n, list(gens), context_bounds,
                                 h=orc.graph_height(loops), cm=cm)
    if bad:
        return WRONG, bad
    return (UNDECIDED, "CM verdict left undecided") if report["cm"] is None else (OK, "")


# ---------------------------------------------------------------------------
# blockspec-large


class BlockSpecLarge:
    """Block specs with n in 1,000..20,000, 5..25 centers and 0..5 loops.

    Few generators that each span a huge n: the cost per monomial operation
    (O(n) exponent tuples) and the canonical colon steps dominate; the
    intersection route, the order search and the CLI are bypassed.

    Sizes come from a fixed grid, so every seed carries the same work: slot k
    has m = 5 + k mod 21 centers, k mod 6 loops, and n at an evenly spaced
    quantile of log n over [1,000, top(m)], the quantiles spread over the
    slots by a fixed permutation. The seed places the centers and the loops.
    """

    name = "blockspec-large"
    pool_size = 84
    heap_stride = 6
    n_min, n_max = 1000, 20000
    m_min, m_max = 5, 25
    # n * (m + 1)^2 is the order of the colon work; capping it keeps one
    # instance under about half a second at the seed commit, so a run holds
    # more than a hundred instances.
    work_cap = 1_000_000

    def sizes(self, k):
        """(n, m, loop count) of pool slot k."""
        span = self.m_max - self.m_min + 1
        m = self.m_min + k % span
        top = max(self.n_min, min(self.n_max, self.work_cap // (m + 1) ** 2))
        q = ((k * 17) % self.pool_size + 0.5) / self.pool_size
        n = round(math.exp(math.log(self.n_min) + q * math.log(top / self.n_min)))
        return n, m, k % 6

    def make_pool(self, rng: random.Random, workdir: Path) -> list[Instance]:
        pool = []
        for k in range(self.pool_size):
            n, m, loop_count = self.sizes(k)
            alphas = sorted(rng.sample(range(1, n), m - 1)) + [n]
            loops = sorted(rng.sample(range(1, n + 1), loop_count))
            pool.append(Instance(k, {"alphas": alphas, "loops": loops}))
        return pool

    def run(self, lib, inst):
        spec = lib.coverideals.KPrimeSpec(inst.data["alphas"], inst.data["loops"])
        ideal = lib.coverideals.kprime_cover_ideal(spec)
        try:
            report = lib.coverideals.invariants(ideal, spec)
        except (lib.coverideals.SizeGuardError, lib.coverideals.InconclusiveError) as exc:
            report = exc
        return ideal, report, lib.coverideals.min_patrols(spec)

    def summarize(self, out, full):
        return _pipeline_summary(out, full)

    def probe_pool(self, workdir: Path) -> list[Instance]:
        return []

    def check(self, inst, rec):
        gens, report, patrol = rec
        alphas, loops = inst.data["alphas"], inst.data["loops"]
        n, edges, _ = orc.expand_spec(alphas, loops)
        adjacency = orc.adjacency_of(n, edges)
        loopset = set(loops)
        for g in gens:
            bad = orc.minimal_cover_failure(n, adjacency, loopset, set(orc.indices_of(g)))
            if bad:
                return WRONG, f"generator is not a minimal cover: {bad}"
        if len(set(gens)) != len(gens) or set(gens) != orc.spec_cover_masks(alphas, loops):
            return WRONG, "cover ideal differs from the block-spec oracle"
        common = gens[0]
        for g in gens:
            common &= g
        # h_of refuses a hitting-set search past 25 variables when no
        # variable is shared, which happens exactly when nothing is looped
        size_guard = "no shared variable and n > 25" if not common and n > 25 else None
        sigma = max(b - a for a, b in zip([0] + alphas, alphas))
        bounds = [(len(alphas) - 1) + (sigma - 2), n - 2]
        # the canonical order of these ideals is linear, so the oracle decides
        # every report and needs no CM verdict of its own
        return _check_pipeline(n, gens, report, patrol, bounds, loops,
                               size_guard_reason=size_guard)


# ---------------------------------------------------------------------------
# graph-intersection


class GraphIntersection:
    """G(n, p) with n in 14..24, p in {0.15, 0.3, 0.5} and 0..2 loops.

    Tiny n but tens of generators: the number of lcm and divides calls and
    the intermediate generator sets of the intersection route dominate. The
    closed form is bypassed; with more than 12 generators the quotients
    layer runs only the canonical attempt.

    The pool is a fixed plan of cells (n, p, t, loops, slots). A graph is
    drawn until its cover ideal has t +- 2 generators, so every seed carries
    about the same work: the cost of an instance follows its edge count, its
    generator count and its loops.
    """

    name = "graph-intersection"
    # Cheapest first. The median falls inside the 60 slots of (19, 0.5, 42)
    # and the 90th percentile inside the 30 of (24, 0.5, 72), so neither
    # lands in a gap between cells. Costs within one cell range over 2x, so
    # these two cells are wide enough that the quantile of their slots
    # hardly moves from seed to seed. G(24, p) typically has 80-180
    # generators, which costs up to a second per instance at the seed
    # commit and would leave a run with fewer than a hundred instances, so
    # t stays at or below 72.
    cells = (
        (14, 0.15, 20, 0, 10), (15, 0.3, 24, 1, 10), (16, 0.5, 28, 2, 10),
        (17, 0.15, 32, 0, 10), (19, 0.5, 42, 0, 60), (21, 0.5, 54, 2, 10),
        (22, 0.5, 60, 1, 10), (24, 0.5, 72, 1, 30),
    )
    pool_size = sum(cell[-1] for cell in cells)
    heap_stride = 8
    tolerance = 2
    edge_tolerance = 0.05

    def make_pool(self, rng: random.Random, workdir: Path) -> list[Instance]:
        pool = []
        for n, p, t, loop_count, slots in self.cells:
            mean_edges = p * n * (n - 1) / 2
            for _ in range(slots):
                for _ in range(100_000):
                    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                             if rng.random() < p]
                    loops = sorted(rng.sample(range(1, n + 1), loop_count))
                    if abs(len(edges) - mean_edges) > self.edge_tolerance * mean_edges:
                        continue
                    expected = orc.cover_ideal_masks(n, edges, loops)
                    if abs(len(expected) - t) <= self.tolerance:
                        break
                else:
                    raise RuntimeError(f"no G({n}, {p}) with {t} generators drawn")
                pool.append(Instance(len(pool), {"n": n, "edges": edges, "loops": loops,
                                                 "expected": expected}))
        return pool

    def run(self, lib, inst):
        d = inst.data
        graph = lib.coverideals.LoopGraph(d["n"], d["edges"], d["loops"])
        ideal = lib.coverideals.cover_ideal_by_intersection(graph)
        try:
            report = lib.coverideals.invariants(ideal)
        except (lib.coverideals.SizeGuardError, lib.coverideals.InconclusiveError) as exc:
            report = exc
        return ideal, report, lib.coverideals.min_patrols(ideal)

    def summarize(self, out, full):
        return _pipeline_summary(out, full)

    def probe_pool(self, workdir: Path) -> list[Instance]:
        return []

    def check(self, inst, rec):
        gens, report, patrol = rec
        if len(gens) != len(inst.data["expected"]) or set(gens) != inst.data["expected"]:
            return WRONG, "cover ideal differs from the maximal-independent-set oracle"
        d = inst.data
        cm = orc.graph_cm(d["n"], d["edges"], d["loops"])
        return _check_pipeline(d["n"], gens, report, patrol, None, d["loops"], cm)


# ---------------------------------------------------------------------------
# cli-small


VERBS = ("cover-ideal", "invariants", "linear-quotients", "cm-check", "patrol", "oracle-verify")

# Inputs the CLI must reject with exit 1 and a one-line message. MISSING is
# replaced by a path inside the work directory that does not exist.
# REJECTED are the inputs that the library this benchmark was written against
# rejects cleanly; they make the timed malformed slice, since a workload
# holds no operation that fails. UNHANDLED are those of ROADMAP item 5, which
# it does not reject: they raise, or exit 0 for `true` as a vertex. All of
# MALFORMED run once per run in the untimed probe (CliSmall.probe_pool),
# which reports every failure.
MISSING = "<missing>"
REJECTED = (
    ("invariants", "[1, 2]", []),
    ("cover-ideal", '{"n":0,"edges":[]}', []),
    ("patrol", '{"alphas":[4,2]}', []),
)
UNHANDLED = (
    ("cover-ideal", '{"n":"abc","edges":[]}', []),
    ("invariants", '{"alphas":5}', []),
    ("patrol", '{"n":3,"gens":5}', []),
    ("linear-quotients", '{"n":3,"gens":[[1,"x"]]}', []),
    ("cover-ideal", '{"n":3,"edges":[1]}', []),
    ("patrol", '{"n":3,"edges":[[true,2]]}', []),
    ("cm-check", '{"n":3,"edges":[[1,2]]}', ["--base-ideal", MISSING]),
)
MALFORMED = UNHANDLED + REJECTED


def _malformed_instance(k, entry, fmt, missing):
    verb, payload, extra = entry
    extra = [missing if a == MISSING else a for a in extra]
    argv = [verb, "--json", payload, "--format", fmt] + extra
    return Instance(k, {"verb": verb, "malformed": True}, argv)


class CliSmall:
    """All six verbs through coverideals.cli.main(argv) on small graphs
    (n 7..13), block specs (n <= 24) and raw ideals (<= 12 generators), in
    JSON or text, with one instance in eight malformed (one of REJECTED).

    The cost per call dominates: argparse, JSON in, classification, the
    graphs constructors, rendering, and the order search including proofs
    of absence. Kernel operations run on tiny n.

    Verb, input kind, size, route and format follow fixed cycles, so every
    seed carries the same mix; the seed draws the edges, centers, loops and
    generators. An order search over t generators costs up to 2^t colon
    steps, so outside the fixed search slots inputs that would search more
    than 8 generators are redrawn. One slot in eight is a search slot: a raw
    ideal with 9 generators and no linear order. Their proofs of absence are
    the slowest eighth of the pool, so the 90th latency percentile falls
    among them.
    """

    name = "cli-small"
    pool_size = 960
    heap_stride = 8
    malformed_every = 8
    search_every = 8
    search_n, search_t = 10, 9
    free_search_t = 8
    oracle_verify_max_n = 14

    def make_pool(self, rng: random.Random, workdir: Path) -> list[Instance]:
        bad = list(REJECTED) * (self.pool_size // self.malformed_every // len(REJECTED))
        rng.shuffle(bad)
        pool: list[Instance] = []
        valid = 0
        while len(pool) < self.pool_size:
            k = len(pool)
            fmt = ("json", "text")[(k + k // self.malformed_every) % 2]
            if k % self.malformed_every == self.malformed_every - 1:
                pool.append(_malformed_instance(k, bad.pop(), fmt, None))
                continue
            if k % self.search_every == self.search_every // 2:
                kind, verb, j = "ideal", "linear-quotients", None
            else:
                kind = ("graph", "spec", "ideal")[valid % 3]
                verb = VERBS[(valid // 3) % len(VERBS)]
                j = valid // 18  # ordinal of this (verb, kind) pair, drives the sizes
                valid += 1
                if verb == "oracle-verify" and kind == "ideal":
                    kind = "graph"
            payload = self._draw(rng, kind, verb, j)
            argv = [verb, "--json", json.dumps(payload, separators=(",", ":")), "--format", fmt]
            data = {"verb": verb, "kind": kind, "payload": payload, "fmt": fmt,
                    "malformed": False, "route": "auto"}
            if kind != "ideal" and verb != "oracle-verify":
                routes = ["auto", "intersection"]
                if kind == "spec":
                    routes.append("closed-form")
                if self._graph_of(kind, payload)[0] <= self.oracle_verify_max_n:
                    routes.append("bruteforce")
                data["route"] = routes[j % len(routes)]
                argv += ["--route", data["route"]]
            if verb == "cm-check" and kind != "ideal" and j % 2:
                n, edges, _ = self._graph_of(kind, payload)
                base = sorted(orc.cover_ideal_masks(n, edges, []))
                path = workdir / f"base-ideal-{k}.json"
                path.write_text(json.dumps({"n": n, "gens": [orc.indices_of(b) for b in base]}))
                data["base"] = base
                argv += ["--base-ideal", str(path)]
            pool.append(Instance(k, data, argv))
        return pool

    def probe_pool(self, workdir: Path) -> list[Instance]:
        """Every input of MALFORMED once in each format."""
        missing = str(workdir / "missing-base-ideal.json")
        entries = [(entry, fmt) for entry in MALFORMED for fmt in ("json", "text")]
        return [_malformed_instance(k, entry, fmt, missing)
                for k, (entry, fmt) in enumerate(entries)]

    def _draw(self, rng, kind, verb, j):
        """A payload of the slot's sizes whose order search, if any, fits the slot."""
        for _ in range(100_000):
            payload = self._payload(rng, kind, verb, j)
            gens = self._expected(kind, payload)[1]
            searched = orc.search_size(gens)
            if j is None:
                if searched == self.search_t and orc.linear_order(gens)[0] == "none":
                    return payload
            elif verb not in ("invariants", "linear-quotients", "cm-check") \
                    or searched <= self.free_search_t:
                return payload
        raise RuntimeError(f"no {kind} input for {verb} drawn")

    def _payload(self, rng, kind, verb, j):
        if j is None:
            n = self.search_n
            return {"n": n, "gens": [sorted(rng.sample(range(1, n + 1), rng.randint(2, 4)))
                                     for _ in range(self.search_t + 2)]}
        if kind == "graph":
            n = 7 + j % 7
            while True:
                p = (0.2, 0.35, 0.5)[j % 3]
                edges = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if rng.random() < p]
                if edges:
                    break
            return {"n": n, "edges": edges,
                    "loops": sorted(rng.sample(range(1, n + 1), j % 3))}
        if kind == "spec":
            n = 6 + j % (9 if verb == "oracle-verify" else 19)
            m = 2 + j % 5
            alphas = sorted(rng.sample(range(1, n), m - 1)) + [n]
            return {"alphas": alphas, "loops": sorted(rng.sample(range(1, n + 1), j % 4))}
        n = 4 + j % 9
        gens = [sorted(rng.sample(range(1, n + 1), rng.randint(1, min(4, n))))
                for _ in range(1 + (j * 5) % 12)]
        return {"n": n, "gens": gens}

    @staticmethod
    def _graph_of(kind, payload):
        if kind == "spec":
            return orc.expand_spec(payload["alphas"], payload["loops"])
        return payload["n"], payload["edges"], payload["loops"]

    def _expected(self, kind, payload):
        """(n, cover-ideal generators, regularity bounds) from the oracles."""
        if kind == "ideal":
            return payload["n"], orc.minimalize([orc.mask_of(g) for g in payload["gens"]]), None
        n, edges, loops = self._graph_of(kind, payload)
        bounds = None
        if kind == "spec":
            alphas = payload["alphas"]
            sigma = max(b - a for a, b in zip([0] + alphas, alphas))
            bounds = [(len(alphas) - 1) + (sigma - 2), n - 2]
        return n, sorted(orc.cover_ideal_masks(n, edges, loops)), bounds

    def run(self, lib, inst):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lib.cli.main(inst.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def summarize(self, out, full):
        return out, out

    def check(self, inst, rec):
        if rec[0] == "raise":
            return FAILED, f"{rec[1]} escaped cli.main"
        code, stdout, stderr = rec
        d = inst.data
        if d["malformed"]:
            if code == 1 and not stdout and stderr.count("\n") == 1 \
                    and stderr.startswith("error: "):
                return OK, ""
            return FAILED, f"malformed input gave exit {code}, not 1 with one error line"
        verb = d["verb"]
        n, gens, bounds = self._expected(d["kind"], d["payload"])
        status, order = orc.linear_order(gens)
        if verb == "linear-quotients" and status == "undecided":
            if code == 2 and not stdout and stderr.startswith("error: "):
                return UNDECIDED, "order search refused"
            # an answer past the search limit is checked as far as the
            # oracle's own budgeted search reaches
            status, order = orc.checked_order(gens)
        if code != 0 or stderr:
            return FAILED, f"exit {code} on a valid input"
        if d["fmt"] == "json":
            got = orc.parse_json(verb, json.loads(stdout))
        else:
            got = orc.parse_text(verb, stdout)
        if verb == "linear-quotients" and status == "undecided" and got.get("absence"):
            return UNDECIDED, "absence claimed past the oracle's search budget"
        bad = self._verb_failure(verb, d, got, n, gens, bounds, (status, order))
        if bad:
            return WRONG, bad
        inv = got.get("invariants")
        if inv is not None and inv.get("cm") is None:
            return UNDECIDED, "bounds-only"
        return OK, ""

    @staticmethod
    def _expected_route(d):
        if d["kind"] == "ideal":
            return "ideal-input"
        if d["route"] == "auto":
            return "closed-form" if d["kind"] == "spec" else "intersection"
        return d["route"]

    def _verb_failure(self, verb, d, got, n, gens, bounds, linear):
        if verb != "oracle-verify" and got.get("route") != self._expected_route(d):
            return f"route {got.get('route')!r}, expected {self._expected_route(d)!r}"
        want = sorted(gens)
        if "gens" in got and sorted(orc.mask_of(g) for g in got["gens"]) != want:
            return "cover ideal differs from the oracle"
        if verb in ("invariants", "cm-check"):
            h = cm = None
            if d["kind"] != "ideal":
                h = orc.graph_height(d["payload"]["loops"])
                cm = orc.graph_cm(*self._graph_of(d["kind"], d["payload"]))
            bad = orc.invariants_failure(got["invariants"], n, gens, bounds, h, linear, cm)
            if bad:
                return bad
            if "base" in d:
                return self._saturation_failure(d, got.get("saturation"))
        elif verb == "linear-quotients":
            return self._certificate_failure(got, gens, linear[0])
        elif verb == "patrol":
            return orc.patrol_failure(gens, got["covering_number"], got["optimal_covers"])
        elif verb == "oracle-verify":
            names = {"intersection", "bruteforce"}
            if d["kind"] == "spec":
                names.add("closed-form")
            if not got["agree"] or set(got["routes"]) != names:
                return "routes missing or not in agreement"
            for name, route_gens in got["routes"].items():
                if sorted(orc.mask_of(g) for g in route_gens) != want:
                    return f"route {name} differs from the oracle"
        return None

    @staticmethod
    def _saturation_failure(d, sat):
        if sat is None:
            return "saturation verdict missing"
        loopmask = orc.mask_of(d["payload"]["loops"])
        satisfied = any(b & ~loopmask == 0 for b in d["base"])
        if sat["satisfied"] != satisfied:
            return "loop-saturation verdict is wrong"
        if satisfied:
            witness = orc.mask_of(sat["witness"])
            if witness not in d["base"] or witness & ~loopmask:
                return "saturation witness is not a base generator inside the loops"
        return None

    @staticmethod
    def _certificate_failure(got, gens, status):
        """`status` is the oracle's: 'none', 'linear', or 'undecided' (a
        certificate is then checked on its own)."""
        if status == "none":
            return None if got.get("absence") else "certificate given where no linear order exists"
        if got.get("absence") or got.get("nonlinear"):
            return "absence claimed where a linear order exists"
        order = [orc.mask_of(u) for u in got["order"]]
        if sorted(order) != sorted(gens):
            return "order is not a permutation of the generators"
        steps = orc.order_steps(order)
        if steps is None:
            return "a colon step of the certificate is not generated by variables"
        if [orc.mask_of(s) for s in got["steps"]] != steps:
            return "colon steps differ from the recomputed ones"
        if got["q"] != max((s.bit_count() for s in steps), default=0):
            return "q is not the largest colon step"
        if got["shifts"] != orc.shifts_of(order):
            return "resolution shifts differ from the mapping-cone formula"
        return None


WORKLOADS = {w.name: w for w in (BlockSpecLarge(), GraphIntersection(), CliSmall())}
