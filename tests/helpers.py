"""Shared test data and independent oracles.

The oracles here deliberately avoid the library's own code paths: membership
is enumerated from divisibility alone, colon steps are recomputed with plain
set arithmetic on supports or on exponent tuples, and K-polynomials come from
inclusion-exclusion over generator subsets. Monomials with a power exist only
as exponent tuples here; the library sees them polarized by the CLI.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from coverideals import KPrimeSpec, LoopGraph, MonomialIdeal, cli
from coverideals.monomials import _mask_indices, _support_mask

# ---------------------------------------------------------------------------
# construction shorthands

def mono(indices, n):
    """One generator as the library takes and gives it: the ascending tuple
    of its distinct indices, checked as a monomial in n variables."""
    return tuple(_mask_indices(_support_mask(indices, n)))


def ideal_of(n, *index_lists):
    return MonomialIdeal(n, index_lists)


def polarized(n, index_lists):
    """The CLI's parse of ideal JSON whose index lists may repeat an index:
    the pair (squarefree ideal over positions, ring), the ring's labels
    naming the index of each position and its copies counting the extra
    positions of powers."""
    return cli.classify_input({"n": n, "gens": [list(ix) for ix in index_lists]})


def positions_by_index(index_lists):
    """The per-index reference for the CLI's positions: every index that
    occurs, ascending, followed by one position per extra power that some
    list holds. The labels (labels[p] the index of position p, labels[0]
    unused) and each list's ascending positions, X_i^a on i's first a."""
    counts = [Counter(ix) for ix in index_lists]
    powers = {}
    for c in counts:
        for i, a in c.items():
            powers[i] = max(powers.get(i, 0), a)
    labels, first = [0], {}
    for i in sorted(powers):
        first[i] = len(labels)
        labels += [i] * powers[i]
    return tuple(labels), [sorted(first[i] + k for i, a in c.items() for k in range(a))
                           for c in counts]


def input_gens(parsed):
    """The generators of a CLI-parsed ideal as index lists of the input's
    ring, a repeated index for each power."""
    ideal, ring = parsed
    return [cli._labelled(g, ring.labels) for g in ideal.gens]


def edge_ideal(g):
    """The edge ideal of a graph with loops: X_i*X_j per edge and X_k^2 per
    loop, so its loops give ideals with powers. The CLI polarizes it into a
    pair (ideal, ring) with one copy per loop."""
    return polarized(g.n, [*g.edges, *((k, k) for k in g.loops)])


def expand_kprime(spec):
    """The graph of a block spec, the reference that the library never
    builds: a complete graph on the centers plus one star edge per
    non-center vertex to its block's center, loops verbatim."""
    edges = list(combinations(spec.alphas, 2))
    for prev, a in zip((0,) + spec.alphas, spec.alphas):
        edges.extend((v, a) for v in range(prev + 1, a))
    return LoopGraph(spec.n, edges, spec.loops)


def spec_blocks(spec):
    """(center, block vertices) per block of a spec, read off its alphas:
    block i is the interval (alpha_{i-1}, alpha_i], the center its maximum."""
    return [(a, tuple(range(prev + 1, a + 1)))
            for prev, a in zip((0,) + spec.alphas, spec.alphas)]


def multipass_spec_build(alphas, loops=()):
    """(sigma, walk) of a block spec built in separate passes over the
    centers: the walk without its C + L entry, a test of whether C + L is
    minimal (no omit-one cover of degree below |C + L|), and the largest
    block on its own. The library builds both in one pass."""
    al, looped = tuple(alphas), set(loops)
    cl = sorted(looped.union(al))
    walk, prev, before = [], 0, 0
    for a in al:
        leaves = a - bisect_right(cl, a)
        if a not in looped:
            u = leaves - before
            walk.append((len(cl) - 1 + u, a if u else -a, prev))
        prev, before = a, leaves
    if all(degree >= len(cl) for degree, _, _ in walk):
        walk.append((len(cl), al[-1] + 1, None))
    return max(a - prev for prev, a in zip((0,) + al, al)), tuple(sorted(walk))


def spec_json(spec):
    return json.dumps({"alphas": list(spec.alphas), "loops": list(spec.loops)})


def cm_check_report(tmp_path, capsys, payload, base, loops):
    """The JSON report of ``cm-check --json payload --base-ideal FILE --loops
    LIST``, with the base ideal written to a file under tmp_path."""
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base.to_json_dict()), encoding="utf-8")
    argv = ["cm-check", "--json", payload, "--base-ideal", str(path),
            "--loops", ",".join(map(str, sorted(loops))), "--format", "json"]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def count_ideal_builds(monkeypatch):
    """The list to which every MonomialIdeal constructed from now on, by the
    constructor or by the private ``_trusted`` that the intersection route
    uses, is appended, for the rest of the test."""
    built = []
    init, trusted = MonomialIdeal.__init__, MonomialIdeal._trusted

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_trusted(cls, *args, **kwargs):
        built.append(trusted(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(MonomialIdeal, "__init__", recording_init)
    monkeypatch.setattr(MonomialIdeal, "_trusted", classmethod(recording_trusted))
    return built


def count_spec_walks(monkeypatch):
    """The list to which every KPrimeSpec constructed from now on is
    appended, for the rest of the test: construction is the one place
    where a spec's walk is built."""
    built = []
    init = KPrimeSpec.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(KPrimeSpec, "__init__", recording_init)
    return built


# ---------------------------------------------------------------------------
# golden inputs (block specs and generator lists used across the suite)

THREE_CENTER_ALPHAS = (4, 8, 11)
THREE_CENTER_LOOPS = (2, 5, 7, 11)
THREE_CENTER_GENS = (
    (2, 4, 5, 6, 7, 11),
    (2, 4, 5, 7, 8, 11),
    (1, 2, 3, 5, 7, 8, 11),
)

FIVE_CENTER_ALPHAS = (3, 6, 8, 9, 12)
FIVE_CENTER_LOOPS = (5, 8, 12)
FIVE_CENTER_GENS = (
    (3, 5, 6, 8, 12),
    (3, 4, 5, 8, 9, 12),
    (1, 2, 5, 6, 8, 9, 12),
)

SATURATED_LOOPS = (2, 3, 4, 5, 8, 9, 10, 12)
SATURATED_GEN = (2, 3, 4, 5, 8, 9, 10, 12)
SATURATION_WITNESS = (3, 4, 5, 8, 9, 12)
BASE_COVER_GENS = (
    (1, 2, 6, 8, 9, 12),
    (3, 4, 5, 8, 9, 12),
    (3, 6, 7, 9, 12),
    (3, 6, 8, 9, 10, 11),
    (3, 6, 8, 12),
)

CITY_N = 33
CITY_GENS = (
    (1, 2, 3, 7, 9, 10, 12, 14, 15, 16, 17, 19, 20, 23, 25, 26, 27, 28, 29, 30, 32, 33),
    (2, 3, 4, 7, 9, 10, 11, 12, 13, 15, 16, 17, 19, 20, 23, 25, 26, 27, 28, 29, 30, 32, 33),
    (2, 3, 4, 7, 9, 10, 12, 14, 15, 16, 17, 18, 20, 21, 22, 25, 26, 27, 28, 29, 30, 32, 33),
    (2, 3, 4, 7, 9, 10, 12, 14, 15, 16, 17, 18, 20, 23, 25, 26, 27, 28, 29, 30, 32, 33),
    (2, 3, 4, 7, 9, 10, 12, 14, 15, 16, 17, 19, 20, 21, 22, 25, 26, 27, 28, 29, 30, 32, 33),
    (2, 3, 4, 7, 9, 10, 12, 14, 15, 16, 17, 19, 20, 23, 25, 26, 27, 28, 29, 32, 33),
)
CITY_OPTIMUM = (2, 3, 4, 7, 9, 10, 12, 14, 15, 16, 17, 19, 20, 23, 25, 26, 27, 28, 29, 32, 33)


def three_center_spec():
    return KPrimeSpec(THREE_CENTER_ALPHAS, THREE_CENTER_LOOPS)


def five_center_spec(loops=FIVE_CENTER_LOOPS):
    return KPrimeSpec(FIVE_CENTER_ALPHAS, loops)


def city_ideal():
    return ideal_of(CITY_N, *CITY_GENS)


# ---------------------------------------------------------------------------
# enumeration oracles

def all_monomials(n, max_degree):
    """Every exponent vector in n variables of degree at most max_degree."""
    for exps in product(range(max_degree + 1), repeat=n):
        if sum(exps) <= max_degree:
            yield exps


def brute_minimal_covers(n, edges, loops=()):
    """Inclusion-minimal vertex sets containing all loops and meeting all
    edges, by checking every subset of 1..n independently of the library."""
    loops = set(loops)
    minimal = []
    for r in range(n + 1):
        for combo in combinations(range(1, n + 1), r):
            s = frozenset(combo)
            if not loops <= s:
                continue
            if not all(i in s or j in s for i, j in edges):
                continue
            # subsets come by ascending size, so a qualifying proper subset
            # of s contains a minimal one found already
            if not any(t < s for t in minimal):
                minimal.append(s)
    return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))


def is_minimal_cover(vertices, g):
    """Whether the vertex set contains every loop of g and meets every edge,
    and no set with one vertex fewer does."""
    def covers(s):
        return set(g.loops) <= s and all(i in s or j in s for i, j in g.edges)

    s = set(vertices)
    return covers(s) and not any(covers(s - {v}) for v in s)


def bin_scan_indices(mask):
    """1-based positions of the set bits, read off the binary numeral."""
    return [i for i, c in enumerate(bin(mask)[:1:-1], start=1) if c == "1"]


# ---------------------------------------------------------------------------
# dense exponent-tuple oracle for the monomial kernel: plain tuples, no masks

def dense_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def dense_lcm(a, b):
    return tuple(map(max, a, b))


def dense_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dense_div_by_gcd(a, b):
    return tuple(max(x - y, 0) for x, y in zip(a, b))


def dense_member(gens, a):
    """Whether the monomial with exponent vector a lies in the ideal of the
    exponent vectors gens: some generator is entrywise at most a."""
    return any(dense_divides(g, a) for g in gens)


def dense_indices(a):
    """The ascending index sequence of an exponent vector, an index repeated
    once per unit of its exponent."""
    return tuple(i for i, e in enumerate(a, start=1) for _ in range(e))


def dense_vector(indices, n):
    """The exponent vector in n variables of an index sequence."""
    counts = Counter(indices)
    return tuple(counts[i] for i in range(1, n + 1))


def dense_key(a):
    """Canonical order: degree, then the ascending index sequence."""
    return sum(a), dense_indices(a)


def dense_minimalize(vectors):
    kept = []
    for v in sorted(set(vectors), key=dense_key):
        if not any(dense_divides(k, v) for k in kept):
            kept.append(v)
    return kept


# ---------------------------------------------------------------------------
# closed-form oracle on plain vertex sets

def kprime_candidates_from_intervals(alphas, loops):
    """Candidate covers of a block spec, built as plain sets from its vertex
    intervals (prev, a]: all centers with the looped leaves, and per
    unlooped center a the other centers, a's block without a, and the looped
    leaves outside that block."""
    centers, loops = set(alphas), set(loops)
    looped_leaves = loops - centers
    cands = [centers | looped_leaves]
    prev = 0
    for a in alphas:
        block = set(range(prev + 1, a + 1))
        if a not in loops:
            cands.append((centers - {a}) | (block - {a}) | (looped_leaves - block))
        prev = a
    return cands


def kprime_covers_from_intervals(alphas, loops):
    """Minimal covers of a block spec: the inclusion-minimal candidates."""
    return _minimal_sets(kprime_candidates_from_intervals(alphas, loops))


# ---------------------------------------------------------------------------
# linear-quotient oracle on supports (squarefree ideals only)

def _minimal_sets(sets):
    uniq = set(map(frozenset, sets))
    return {s for s in uniq if not any(t < s for t in uniq)}


def exhaustive_linear_qs(ideal):
    """q of every linear order, found by scanning all generator permutations.

    Colon steps are recomputed as support differences, so this path shares
    nothing with the library's colon implementation.
    """
    supports = [frozenset(g) for g in ideal.gens]
    qs = []
    for perm in permutations(range(len(supports))):
        q = 0
        for j in range(1, len(perm)):
            step = _minimal_sets(
                supports[perm[l]] - supports[perm[j]] for l in range(j)
            )
            if any(len(s) != 1 for s in step):
                q = None
                break
            q = max(q, len(step))
        if q is not None:
            qs.append(q)
    return qs


def dense_check_linear_quotients(order):
    """(order, steps, q, linear) of an order of exponent vectors: every colon
    step is the minimalized list of the reductions v / gcd(v, u), and
    linearity is read off degrees."""
    order = tuple(order)
    steps = tuple(
        tuple(dense_minimalize(dense_div_by_gcd(v, order[j]) for v in order[:j]))
        for j in range(1, len(order))
    )
    q = max((len(s) for s in steps), default=0)
    linear = all(sum(g) == 1 for s in steps for g in s)
    return order, steps, q, linear


def dense_find_linear_order(gens):
    """For minimal exponent vectors in canonical order: the canonical order
    if it is linear, else the first linear order in a depth-first scan over
    canonical rank, every step built in full; None when no order is linear.
    Prefix sets that led nowhere are skipped."""
    gens = tuple(gens)
    cert = dense_check_linear_quotients(gens)
    if cert[3]:
        return cert
    exhausted = set()

    def extend(prefix):
        if len(prefix) == len(gens):
            return prefix
        if frozenset(prefix) in exhausted:
            return None
        for u in gens:
            if u in prefix:
                continue
            step = dense_minimalize(dense_div_by_gcd(v, u) for v in prefix)
            if any(sum(g) != 1 for g in step):
                continue
            found = extend(prefix + [u])
            if found:
                return found
        exhausted.add(frozenset(prefix))
        return None

    found = extend([])
    return None if found is None else dense_check_linear_quotients(found)


def dense_gens(ideal, ring=cli._PLAIN):
    """The generators of a library ideal as exponent vectors of the input's
    ring, each position read as the index it names."""
    n = ideal.n - ring.copies
    return [dense_vector(cli._labelled(g, ring.labels), n) for g in ideal.gens]


def dense_certificate(cert, n, ring=cli._PLAIN):
    """A library certificate in the shape of dense_check_linear_quotients, as
    exponent vectors of the input's ring."""
    def vector(m):
        return dense_vector(cli._labelled(m, ring.labels), n)

    steps = tuple(tuple(map(vector, s.gens)) for s in cert.steps)
    return tuple(map(vector, cert.order)), steps, cert.q, cert.linear


# ---------------------------------------------------------------------------
# K-polynomial oracles (numerator of the Hilbert series of R/I)

def kpoly_inclusion_exclusion(ideal):
    """Alternating sum over generator subsets of t^(deg lcm), as a Counter;
    the lcm of squarefree generators has the union of their supports."""
    coeffs = Counter({0: 1})
    gens = ideal.gens
    for r in range(1, len(gens) + 1):
        for subset in combinations(gens, r):
            deg = len(set().union(*subset))
            coeffs[deg] += (-1) ** r
    return +Counter({d: c for d, c in coeffs.items() if c})


def kpoly_from_shifts(shifts):
    """The same polynomial read off a resolution's graded shifts."""
    coeffs = Counter({0: 1})
    for i, level in enumerate(shifts.levels):
        for s in level:
            coeffs[s] += (-1) ** (i + 1)
    return +Counter({d: c for d, c in coeffs.items() if c})


# ---------------------------------------------------------------------------
# Hochster's formula: graded Betti numbers from simplicial homology, on plain
# sets held as int bitsets, with no library code

HOCHSTER_PRIME = 2**31 - 1


def rank_mod_p(rows):
    """The rank over GF(2^31 - 1) of a sparse matrix, each row a dict from
    column to entry: each row is reduced by the pivot rows at its lowest
    column until it is zero or starts a new pivot row."""
    p, pivots = HOCHSTER_PRIME, {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inverse % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def hochster_betti(n, gens):
    """The graded Betti numbers of the squarefree ideal with these index
    tuples in n variables, as a Counter {(i, j): beta_ij(I)}, by Hochster's
    formula beta_{i,s}(I) = dim H~_{|s|-i-2}(D_s) over GF(2^31 - 1)
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Cor. 5.12): D is
    the Stanley-Reisner complex of I, the vertex sets that hold no
    generator, and D_s its faces inside s. A vertex of s in no generator
    inside s is a cone point of D_s, whose reduced homology then vanishes,
    so only the unions of generators are read. The unit ideal is R itself."""
    supports = {sum(1 << (i - 1) for i in set(g)) for g in gens}
    if 0 in supports:
        return Counter({(0, 0): 1})
    faces = [f for f in range(1 << n) if all(g & f != g for g in supports)]
    betti = Counter()
    for s in range(1, 1 << n):
        union = 0
        for g in supports:
            if g & s == g:
                union |= g
        if union != s:
            continue
        by_size = {}  # the faces of D_s by vertex count, the empty face included
        for f in faces:
            if not f & ~s:
                by_size.setdefault(f.bit_count(), []).append(f)
        column = {f: k for level in by_size.values() for k, f in enumerate(level)}
        ranks = {}  # the boundary from faces of k vertices to those of k - 1
        for k, level in by_size.items():
            rows = []
            for f in level:
                row, sign, rest = {}, 1, f
                while rest:  # drop each vertex in ascending order, signs alternating
                    low = rest & -rest
                    rest ^= low
                    row[column[f ^ low]] = sign % HOCHSTER_PRIME
                    sign = -sign
                rows.append(row)
            ranks[k] = rank_mod_p(rows) if k else 0
        for k, level in by_size.items():
            homology = len(level) - ranks[k] - ranks.get(k + 1, 0)
            if homology:  # H~ of dimension k - 1 = |s| - i - 2
                betti[s.bit_count() - k - 1, s.bit_count()] += homology
    return betti


def hochster_levels(n, gens):
    """The graded shifts per homological degree, generators first, as
    ``ResolutionShifts.levels`` lists them: shift j beta_ij times in level i."""
    betti = hochster_betti(n, gens)
    top = max(i for i, _ in betti)
    return tuple(tuple(sorted(j for (i, j), b in betti.items() if i == level for _ in range(b)))
                 for level in range(top + 1))


def hochster_h(n, gens):
    """The height of the squarefree ideal: n minus the most vertices of a
    face of its Stanley-Reisner complex, which is dim R/I."""
    supports = [sum(1 << (i - 1) for i in set(g)) for g in gens]
    return n - max(f.bit_count() for f in range(1 << n) if all(g & f != g for g in supports))


# ---------------------------------------------------------------------------
# random instances (plain seeded RNG so counts and runtime stay fixed)

def random_loop_graph(rng, n_lo=1, n_hi=10, edge_p=0.35, loop_p=0.25):
    n = rng.randint(n_lo, n_hi)
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < edge_p]
    loops = [v for v in range(1, n + 1) if rng.random() < loop_p]
    return LoopGraph(n, edges, loops)


def random_kprime(
    rng,
    n_lo=4,
    n_hi=12,
    loop_p=0.3,
    require_loop=False,
    allow_center_loops=True,
):
    n = rng.randint(n_lo, n_hi)
    m = rng.randint(2, min(n, 8))
    alphas = sorted(rng.sample(range(1, n), m - 1)) + [n]
    eligible = [
        v for v in range(1, n + 1) if allow_center_loops or v not in set(alphas)
    ]
    loops = [v for v in eligible if rng.random() < loop_p]
    if require_loop and not loops and eligible:
        loops = [rng.choice(eligible)]
    return KPrimeSpec(alphas, loops)


# ---------------------------------------------------------------------------
# hypothesis strategies

@st.composite
def loop_graphs(draw, max_n=12):
    """Graphs with loops on at most max_n vertices: edgeless ones, ones with
    isolated vertices and all-looped ones included."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.5, 0.2, 0.8, 0.0]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    loops = draw(st.lists(st.integers(1, n), unique=True, max_size=3))
    if draw(st.sampled_from((False, False, False, True))):
        loops = range(1, n + 1)
    return LoopGraph(n, edges, loops)


@st.composite
def block_specs(draw, max_n=25, max_loops=3):
    n = draw(st.integers(2, max_n))
    centers = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(n - 1, 8)))
    loops = draw(st.sets(st.integers(1, n), max_size=max_loops))
    return KPrimeSpec(sorted(centers) + [n], loops)
