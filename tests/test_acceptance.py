"""End-to-end acceptance suite.

One test per criterion, every expected value exact. Golden generator lists
live in helpers.py; random families run on fixed seeds so counts and results
are reproducible. Each test prints its own pass line for log scraping.
"""

import random
from itertools import combinations

from coverideals import (
    KPrimeSpec,
    LoopGraph,
    cover_ideal_by_intersection,
    find_linear_order,
    invariants,
    kprime_cover_ideal,
    min_patrols,
    minimal_covers_bruteforce,
    resolution_shifts,
)
from helpers import (
    BASE_COVER_GENS,
    CITY_OPTIMUM,
    FIVE_CENTER_GENS,
    SATURATED_GEN,
    SATURATED_LOOPS,
    SATURATION_WITNESS,
    THREE_CENTER_GENS,
    city_ideal,
    cm_check_report,
    exhaustive_linear_qs,
    expand_kprime,
    five_center_spec,
    ideal_of,
    is_minimal_cover,
    mono,
    random_kprime,
    random_loop_graph,
    spec_json,
    three_center_spec,
)


def _all_routes(spec):
    graph = expand_kprime(spec)
    return (
        kprime_cover_ideal(spec),
        cover_ideal_by_intersection(graph),
        minimal_covers_bruteforce(graph),
    )


def test_01_three_center_golden():
    """Three-center spec yields its three known generators on every route."""
    expected = ideal_of(11, *THREE_CENTER_GENS)
    closed, intersect, brute = _all_routes(three_center_spec())
    assert closed == expected
    assert intersect == expected
    assert brute == expected
    print("criterion 1 (three-center golden generators, all routes): PASS")


def test_02_five_center_golden():
    """Five-center spec: generators, certificate, invariants, shifts, CM."""
    spec = five_center_spec()
    expected = ideal_of(12, *FIVE_CENTER_GENS)
    closed, intersect, brute = _all_routes(spec)
    assert closed == intersect == brute == expected

    cert = find_linear_order(closed)
    assert cert.linear and cert.q == 1
    assert cert.order == closed.gens
    step_sets = {frozenset(g[0] for g in s.gens) for s in cert.steps}
    assert step_sets == {frozenset({6}), frozenset({3})}

    rep = invariants(closed, spec)
    assert rep.h == 1 and rep.q == 1
    assert (rep.pd, rep.depth, rep.dim, rep.reg) == (2, 10, 11, 6)
    assert rep.cm is False

    shifts = resolution_shifts(cert)
    assert shifts.levels == ((5, 6, 7), (7, 8))
    print("criterion 2 (five-center golden certificate and invariants): PASS")


def test_03_saturated_golden(tmp_path, capsys):
    """Loop saturation: principal generator, witness, depth = dim, CM."""
    spec = five_center_spec(SATURATED_LOOPS)
    ideal = kprime_cover_ideal(spec)
    assert ideal == ideal_of(12, SATURATED_GEN)

    base = ideal_of(12, *BASE_COVER_GENS)
    assert kprime_cover_ideal(five_center_spec(loops=())) == base
    report = cm_check_report(tmp_path, capsys, spec_json(spec), base, SATURATED_LOOPS)
    assert report["saturation"]["satisfied"] is True
    assert report["saturation"]["witness"] == list(SATURATION_WITNESS)

    rep = invariants(ideal, spec)
    assert rep.depth == 11 == rep.dim
    assert rep.cm is True
    print("criterion 3 (saturated principal ideal is Cohen-Macaulay): PASS")


def test_04_city_patrol():
    """The 33-vertex generator list selects the unique 21-vertex cover."""
    ideal = city_ideal()
    assert len(ideal.gens) == 6  # the six inputs are pairwise incomparable
    solution = min_patrols(ideal)
    assert solution.covering_number == 21
    assert list(solution.optimal_covers) == [CITY_OPTIMUM]
    print("criterion 4 (city patrol optimum, covering number 21): PASS")


def test_05_closed_form_families_exhaustive():
    """Closed forms for complete graphs and stars, every loop placement."""
    for m in range(2, 9):
        verts = tuple(range(1, m + 1))
        edges = list(combinations(verts, 2))
        for r in range(m + 1):
            for loops in combinations(verts, r):
                g = LoopGraph(m, edges, loops)
                got = cover_ideal_by_intersection(g)
                assert got == minimal_covers_bruteforce(g)
                assert got == kprime_cover_ideal(KPrimeSpec(verts, loops))
                if r == m:
                    want = {mono(verts, m)}
                else:
                    unlooped = [v for v in verts if v not in loops]
                    want = {
                        mono([v for v in verts if v != u], m) for u in unlooped
                    }
                    assert len(got.gens) <= m - r
                assert set(got.gens) == want

    for n in range(3, 9):
        edges = [(i, n) for i in range(1, n)]
        leaves = tuple(range(1, n))
        for r in range(n + 1):
            for loops in combinations(range(1, n + 1), r):
                g = LoopGraph(n, edges, loops)
                got = cover_ideal_by_intersection(g)
                assert got == minimal_covers_bruteforce(g)
                loopset = set(loops)
                if n in loopset:
                    want = {mono(loops, n)}
                elif loopset == set(leaves):
                    want = {mono(leaves, n)}
                else:
                    want = {mono(leaves, n), mono(loopset | {n}, n)}
                assert set(got.gens) == want
                assert len(got.gens) <= 2
    print("criterion 5 (complete and star closed forms, exhaustive): PASS")


def test_06_oracle_equivalence():
    """500 random graphs and 220 random specs: all routes identical, every
    generator a minimal cover, every loop variable in every generator."""
    rng = random.Random(0xC0FFEE)
    for _ in range(500):
        g = random_loop_graph(rng, n_lo=1, n_hi=10)
        brute = minimal_covers_bruteforce(g)
        assert cover_ideal_by_intersection(g) == brute
        loopset = set(g.loops)
        for gen in brute.gens:
            assert is_minimal_cover(gen, g)
            assert loopset <= set(gen)

    for _ in range(220):
        spec = random_kprime(rng, n_lo=4, n_hi=12)
        closed, intersect, brute = _all_routes(spec)
        assert closed == intersect == brute
        graph = expand_kprime(spec)
        loopset = set(spec.loops)
        for gen in closed.gens:
            assert is_minimal_cover(gen, graph)
            assert loopset <= set(gen)
    print("criterion 6 (route oracle equivalence, 720 random instances): PASS")


def test_07_invariant_property_suite():
    """Every looped spec with a multi-generator linear-quotient cover ideal
    has pd 2, depth n-2, dim n-1, reg between (m-1)+(sigma-2) and n-2.

    The regularity lower bound counts on the omit-cover of the biggest star
    surviving, so the sampled loop placements stay off the centers; with a
    looped star center the bound provably fails (see the boundary regression
    in test_invariants). The other three equalities and the upper bound are
    additionally asserted under unrestricted loop placement below.
    """
    rng = random.Random(0xFACADE)
    checked = 0
    while checked < 200:
        spec = random_kprime(rng, n_lo=4, n_hi=12, allow_center_loops=False,
                             require_loop=True)
        if not spec.loops:
            continue
        ideal = kprime_cover_ideal(spec)
        if len(ideal.gens) < 2:
            continue
        cert = find_linear_order(ideal)
        assert cert is not None and cert.linear
        rep = invariants(ideal, spec)
        n, m, sigma = spec.n, spec.m, spec.sigma
        assert rep.pd == 2
        assert rep.depth == n - 2
        assert rep.dim == n - 1
        assert (m - 1) + (sigma - 2) <= rep.reg <= n - 2
        checked += 1

    loose = 0
    while loose < 120:
        spec = random_kprime(rng, n_lo=4, n_hi=14, require_loop=True)
        if not spec.loops:
            continue
        ideal = kprime_cover_ideal(spec)
        if len(ideal.gens) < 2:
            continue
        cert = find_linear_order(ideal)
        assert cert is not None and cert.linear
        rep = invariants(ideal, spec)
        assert rep.pd == 2 and rep.depth == spec.n - 2 and rep.dim == spec.n - 1
        assert rep.reg <= spec.n - 2
        loose += 1
    print("criterion 7 (pd/depth/dim/reg property suite, 320 specs): PASS")


def test_08_q_order_independence():
    """q agrees across all linear orders, exhaustively, for every
    linear-quotient ideal in the suite with at most 7 generators."""
    suite = [
        ideal_of(3, (1, 2), (1, 3), (2, 3)),
        kprime_cover_ideal(three_center_spec()),
        kprime_cover_ideal(five_center_spec()),
        ideal_of(12, *BASE_COVER_GENS),
        kprime_cover_ideal(KPrimeSpec((1, 2, 3, 4))),        # loopless complete core
        kprime_cover_ideal(KPrimeSpec((1, 2, 3, 4, 5), (2,))),
        cover_ideal_by_intersection(
            LoopGraph(5, [(i, 5) for i in range(1, 5)], [1, 3])
        ),
        kprime_cover_ideal(KPrimeSpec((2, 4, 6, 8, 10))),     # 6 generators
        kprime_cover_ideal(KPrimeSpec((2, 4, 6, 8, 10, 12))), # 7 generators
    ]
    for ideal in suite:
        assert len(ideal.gens) <= 7
        qs = exhaustive_linear_qs(ideal)
        assert qs, f"no linear order found for {ideal.gens}"
        assert len(set(qs)) == 1
        assert set(qs) == {find_linear_order(ideal).q}
    print("criterion 8 (q order-independence, exhaustive permutations): PASS")


def test_09_cm_boundary(tmp_path, capsys):
    """CM verdict is true exactly for principal cover ideals, and a satisfied
    saturation check always lands on a principal cover ideal."""
    rng = random.Random(0xBEEF)
    principal_seen = multi_seen = 0
    for _ in range(250):
        spec = random_kprime(rng, n_lo=4, n_hi=12, require_loop=True)
        if not spec.loops:
            continue
        ideal = kprime_cover_ideal(spec)
        rep = invariants(ideal, spec)
        assert rep.cm is not None
        assert rep.cm is ideal.is_principal
        if ideal.is_principal:
            principal_seen += 1
        else:
            multi_seen += 1
    assert principal_seen and multi_seen  # both sides of the boundary hit

    satisfied_seen = 0
    for _ in range(150):
        spec = random_kprime(rng, n_lo=4, n_hi=10, loop_p=0.0)
        base = kprime_cover_ideal(spec)
        if rng.random() < 0.5:
            seed = set(rng.choice(base.gens))
        else:
            seed = set()
        extra = {v for v in range(1, spec.n + 1) if rng.random() < 0.25}
        loops = seed | extra
        looped = KPrimeSpec(spec.alphas, loops)
        report = cm_check_report(tmp_path, capsys, spec_json(looped), base, loops)
        if report["saturation"]["satisfied"]:
            assert report["invariants"]["cm"] is True
            looped_ideal = kprime_cover_ideal(looped)
            assert looped_ideal.is_principal
            assert looped_ideal.gens[0] == mono(sorted(loops), spec.n)
            satisfied_seen += 1
    assert satisfied_seen >= 40
    print("criterion 9 (CM exactly on the principal route): PASS")
