"""Minimal covers, the three cover-ideal routes, and patrol selection."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverideals
from coverideals import (
    KPrimeSpec,
    LoopGraph,
    MonomialIdeal,
    SizeGuardError,
    ValidationError,
    cover_ideal_by_intersection,
    invariants,
    kprime_cover_ideal,
    min_patrols,
    minimal_covers_bruteforce,
)
from coverideals.covers import _MASK_BITS_LIMIT, _spec_free_count, _spec_open_edges, _supersets
from coverideals.monomials import _canonical
from helpers import (
    CITY_OPTIMUM,
    SATURATED_GEN,
    SATURATED_LOOPS,
    FIVE_CENTER_GENS,
    THREE_CENTER_GENS,
    block_specs,
    brute_minimal_covers,
    city_ideal,
    count_ideal_builds,
    count_spec_walks,
    expand_kprime,
    five_center_spec,
    ideal_of,
    is_minimal_cover,
    kprime_candidates_from_intervals,
    kprime_covers_from_intervals,
    loop_graphs,
    mono,
    random_kprime,
    random_loop_graph,
    spec_blocks,
    three_center_spec,
)

TRIANGLE = LoopGraph(3, [(1, 2), (1, 3), (2, 3)])


@st.composite
def graphs_led_by_the_last_vertex(draw):
    """Graphs with loops in which vertex n has the highest degree in G - L,
    so the pivot the intersection route picks first is its last position."""
    g = draw(loop_graphs(max_n=14))
    loops = set(g.loops)
    degree = Counter(v for e in g.edges if not loops & set(e) for v in e)
    top = max(range(1, g.n + 1), key=lambda v: (degree[v], -v))
    swap = {top: g.n, g.n: top}
    edges = [(swap.get(i, i), swap.get(j, j)) for i, j in g.edges]
    return LoopGraph(g.n, edges, [swap.get(k, k) for k in g.loops])


@st.composite
def spread_graphs(draw):
    """A graph with loops on at most 12 vertices, its vertices sent in
    increasing order into 1..n for n <= 60, and up to three more loops on
    vertices it misses, so free vertices sit in several runs with gaps and
    isolated vertices at high indices; returned with its covers, mapped."""
    core = draw(loop_graphs(max_n=12))
    n = draw(st.integers(core.n, 60))
    label = dict(zip(range(1, core.n + 1),
                     sorted(draw(st.sets(st.integers(1, n), min_size=core.n, max_size=core.n)))))
    rest = sorted(set(range(1, n + 1)) - set(label.values()))
    extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)) if rest else []
    g = LoopGraph(n, [(label[i], label[j]) for i, j in core.edges],
                  [label[k] for k in core.loops] + extra)
    covers = brute_minimal_covers(core.n, core.edges, core.loops)
    return g, [tuple(sorted({label[v] for v in c} | set(extra))) for c in covers]


@st.composite
def graphs_with_free_count(draw, f):
    """Graphs with loops whose edges with no looped endpoint touch exactly f
    vertices, with f = 0 or 2 <= f <= 12 (such an edge has two free ends,
    so f = 1 cannot arise). Every other edge meets a loop."""
    n = draw(st.integers(max(f, 1), 12))
    free = draw(st.permutations(range(1, n + 1)))[:f]
    pairs = list(combinations(sorted(free), 2))
    open_edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)
                      .filter(lambda es: {v for e in es for v in e} == set(free))) if f else []
    rest = [v for v in range(1, n + 1) if v not in free]
    loops = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    looped = [(min(i, k), max(i, k)) for k in loops for i in range(1, n + 1) if i != k]
    extra = draw(st.lists(st.sampled_from(looped), unique=True)) if looped else []
    return LoopGraph(n, open_edges + extra, loops)


class TestCover:
    def test_covers_and_minimality(self):
        g = LoopGraph(3, [(1, 2)], [3])
        assert is_minimal_cover((1, 3), g)
        assert not is_minimal_cover((1,), g)  # misses the loop
        assert not is_minimal_cover((1, 2, 3), g)
        assert not is_minimal_cover((3,), g)  # not even a cover
        covers = list(minimal_covers_bruteforce(g).gens)
        assert covers == [(1, 3), (2, 3)]
        assert all(is_minimal_cover(c, g) for c in covers)


class TestBruteForce:
    def test_triangle(self):
        assert list(minimal_covers_bruteforce(TRIANGLE).gens) == [(1, 2), (1, 3), (2, 3)]

    def test_star_with_all_leaves_looped(self):
        g = LoopGraph(4, [(1, 4), (2, 4), (3, 4)], [1, 2, 3])
        assert list(minimal_covers_bruteforce(g).gens) == [(1, 2, 3)]

    def test_three_center_graph(self):
        g = expand_kprime(three_center_spec())
        assert set(minimal_covers_bruteforce(g).gens) == set(THREE_CENTER_GENS)

    def test_output_is_sorted_and_minimal(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_loop_graph(rng, n_hi=8)
            covers = list(minimal_covers_bruteforce(g).gens)
            keys = [(len(c), c) for c in covers]
            assert keys == sorted(keys)
            assert all(is_minimal_cover(c, g) for c in covers)
            expected = brute_minimal_covers(g.n, g.edges, g.loops)
            assert [frozenset(c) for c in covers] == expected

    @settings(max_examples=200)
    @given(loop_graphs())
    def test_equals_the_subset_oracle(self, g):
        expected = brute_minimal_covers(g.n, g.edges, g.loops)
        covers = list(minimal_covers_bruteforce(g).gens)
        assert covers == [tuple(sorted(s)) for s in expected]

    @pytest.mark.parametrize("f", [0, 2, 3])
    @given(data=st.data())
    def test_tables_shorter_than_a_byte(self, f, data):
        # 2^f subsets fit in one byte for f < 3 and fill exactly one at f = 3
        g = data.draw(graphs_with_free_count(f))
        loops = set(g.loops)
        assert len({v for e in g.edges if not loops & set(e) for v in e}) == f
        expected = brute_minimal_covers(g.n, g.edges, g.loops)
        covers = list(minimal_covers_bruteforce(g).gens)
        assert covers == [tuple(sorted(s)) for s in expected]

    @pytest.mark.parametrize("f", range(7))
    def test_superset_tables(self, f):
        for a in range(1 << f):
            table = sum(1 << s for s in range(1 << f)
                        if all(s >> u & 1 for u in range(f) if a >> u & 1))
            assert _supersets(a, f) == table

    def test_builds_only_the_returned_ideal(self, monkeypatch):
        g = LoopGraph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 6), (6, 7)], [7])
        ideals = count_ideal_builds(monkeypatch)
        ideal = minimal_covers_bruteforce(g)
        assert ideals == [ideal]
        covers = brute_minimal_covers(g.n, g.edges, g.loops)
        assert ideal.gens == tuple(tuple(sorted(c)) for c in covers)

    @given(block_specs(max_n=40, max_loops=40))
    def test_free_count_of_a_spec_is_that_of_its_expansion(self, spec):
        # brute force guards a spec on this count, and both graph routes
        # run on these edges of G - L, each read off the spec
        g = expand_kprime(spec)
        assert _spec_free_count(spec) == len({v for e in g.open_edges for v in e})
        assert LoopGraph(spec.n, _spec_open_edges(spec), spec.loops).open_edges == g.open_edges

    def test_size_guard(self):
        # the guard counts the f free vertices, not n
        assert list(minimal_covers_bruteforce(LoopGraph(26, [(1, 2)])).gens) == [(1,), (2,)]
        matching = LoopGraph(26, [(2 * i - 1, 2 * i) for i in range(1, 14)])
        with pytest.raises(SizeGuardError, match="f=26"):
            minimal_covers_bruteforce(matching)

    def test_output_guard(self, monkeypatch):
        # 8 disjoint triangles (f = 24) have 3^8 = 6,561 minimal covers, and
        # loops on 25..n make each hold every one of n's remaining vertices
        def looped_triangles(n):
            edges = [(i, j) for t in range(1, 25, 3) for i, j in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]
            return LoopGraph(n, edges, range(25, n + 1))

        ideal = minimal_covers_bruteforce(looped_triangles(159))  # 6,561 * 159 <= 2^20
        first = tuple(v for t in range(1, 25, 3) for v in (t, t + 1)) + tuple(range(25, 160))
        assert len(ideal.gens) == 6561 and ideal.gens[0] == first
        # few covers on many vertices pass: 2 * 2^19 = 2^20
        assert list(minimal_covers_bruteforce(LoopGraph(1 << 19, [(1, 2)])).gens) == [(1,), (2,)]
        # refused before any generator is built
        monkeypatch.setattr(MonomialIdeal, "_trusted", None)
        for n in (160, 100_000):
            with pytest.raises(SizeGuardError, match=f"6561 minimal covers x n={n} > 1048576"):
                minimal_covers_bruteforce(looped_triangles(n))
        with pytest.raises(SizeGuardError, match="2 minimal covers"):
            minimal_covers_bruteforce(LoopGraph((1 << 19) + 1, [(1, 2)]))

    def test_legal_spec_at_the_guard_matches_the_closed_form(self):
        # n = 25 at the guard with f = 23 free vertices: 2^23 subsets to decide
        spec = KPrimeSpec([2, 16, 25], [1, 18])
        assert _spec_free_count(spec) == 23
        assert minimal_covers_bruteforce(expand_kprime(spec)) == kprime_cover_ideal(spec)
        assert minimal_covers_bruteforce(spec) == kprime_cover_ideal(spec)

    def test_star_at_the_guard_stays_small(self):
        # f = 25: each of the few live subset tables is 4 MB
        star = LoopGraph(25, [(1, v) for v in range(2, 26)])
        tracemalloc.start()
        try:
            covers = list(minimal_covers_bruteforce(star).gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covers == [(1,), tuple(range(2, 26))]
        assert peak < 64 * 2**20

    def test_nothing_to_cover(self):
        assert list(minimal_covers_bruteforce(LoopGraph(3)).gens) == [()]


class TestIntersectionRoute:
    def test_single_edge(self):
        g = LoopGraph(2, [(1, 2)])
        assert cover_ideal_by_intersection(g) == ideal_of(2, (1,), (2,))

    def test_single_edge_with_loop(self):
        g = LoopGraph(2, [(1, 2)], [1])
        assert cover_ideal_by_intersection(g) == ideal_of(2, (1,))

    def test_complete_graph_all_loops(self):
        g = LoopGraph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
                      [1, 2, 3, 4])
        assert cover_ideal_by_intersection(g) == ideal_of(4, (1, 2, 3, 4))

    def test_empty_graph_gives_unit_ideal(self):
        g = LoopGraph(2)
        assert cover_ideal_by_intersection(g).gens == ((),)

    def test_size_guard(self):
        # the guard counts the f free vertices, not n
        assert list(cover_ideal_by_intersection(LoopGraph(30, [(1, 2)])).gens) == [(1,), (2,)]
        matching = LoopGraph(26, [(2 * i - 1, 2 * i) for i in range(1, 14)])
        with pytest.raises(SizeGuardError, match="^prime intersection refused for f=26"):
            cover_ideal_by_intersection(matching)

    def test_builds_only_the_returned_ideal(self, monkeypatch):
        graph = LoopGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)], [3])
        built = count_ideal_builds(monkeypatch)
        ideal = cover_ideal_by_intersection(graph)
        assert built == [ideal]
        covers = brute_minimal_covers(6, graph.edges, graph.loops)
        assert ideal.gens == tuple(tuple(sorted(c)) for c in covers)

    @settings(max_examples=200)
    @given(g=st.one_of(loop_graphs(max_n=14), graphs_led_by_the_last_vertex()))
    def test_equals_the_brute_force_route_without_a_second_minimalization(self, g):
        # _trusted neither minimalizes nor sorts, so a non-minimal generator
        # or one out of canonical order would show against the constructor
        ideal = cover_ideal_by_intersection(g)
        assert ideal == minimal_covers_bruteforce(g)
        assert ideal.masks == MonomialIdeal(g.n, ideal.gens).masks
        assert list(ideal.masks) == _canonical(ideal.masks)

    def test_four_cycle_drops_a_product_holding_a_generator_with_s(self):
        # the maximal independent sets {1, 4} and {2, 3} of the 4-cycle
        # leave the covers x2x3 and x1x4; the cover x1x2x4 of the independent
        # set {3}, not maximal, holds x1x4 and must not be listed
        g = LoopGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        assert cover_ideal_by_intersection(g) == minimal_covers_bruteforce(g)

    def test_five_cycle_drops_a_product_holding_a_smaller_product(self):
        # the maximal independent sets of the 5-cycle are its five
        # non-adjacent pairs; the cover x1x2x4x5 of the independent set {3},
        # not maximal, holds the covers x2x4x5 and x1x4x5 of {1, 3} and {2, 3}
        g = LoopGraph(5, [(1, 2), (1, 5), (2, 4), (3, 4), (3, 5)])
        assert cover_ideal_by_intersection(g) == minimal_covers_bruteforce(g)

    @given(loop_graphs(max_n=8), loop_graphs(max_n=8))
    def test_disjoint_union_equals_the_brute_force_route(self, first, second):
        shift = first.n
        union = LoopGraph(
            first.n + second.n,
            list(first.edges) + [(i + shift, j + shift) for i, j in second.edges],
            list(first.loops) + [k + shift for k in second.loops],
        )
        assert cover_ideal_by_intersection(union) == minimal_covers_bruteforce(union)

    def test_eight_disjoint_triangles(self):
        edges = [e for t in range(0, 24, 3)
                 for e in ((t + 1, t + 2), (t + 1, t + 3), (t + 2, t + 3))]
        ideal = cover_ideal_by_intersection(LoopGraph(24, edges))
        assert len(ideal.gens) == 3 ** 8
        assert set(map(len, ideal.gens)) == {16}
        # the Moon-Moser extremum at the guard: 7 triangles and a K4 (f = 25)
        # have 3^7 * 4 = 8,748 minimal covers, the most any graph on 25 has
        moon_moser = LoopGraph(25, edges[:21] + list(combinations(range(22, 26), 2)))
        ideal = cover_ideal_by_intersection(moon_moser)
        assert len(ideal.gens) == 8748
        assert set(map(len, ideal.gens)) == {17}
        assert ideal == minimal_covers_bruteforce(moon_moser)

    @settings(max_examples=150)
    @given(spread_graphs())
    def test_spread_graphs_equal_brute_force_and_the_subset_oracle(self, drawn):
        # positions and indices differ across several runs of free vertices
        g, covers = drawn
        ideal = cover_ideal_by_intersection(g)
        assert ideal == minimal_covers_bruteforce(g)
        assert ideal.gens == tuple(covers)

    def test_output_guard_builds_no_vertex_table(self):
        # f = 0, so x^L on n = 10^9 is refused for its output slots before
        # its 10^9-bit mask, or any table of n entries, is built
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="^prime intersection refused for 1 minimal "
                                                     "covers x n=1000000000 > 1048576"):
                cover_ideal_by_intersection(LoopGraph(10**9, [(1, 10**9)], [10**9]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestKPrimeRoute:
    def test_three_center_golden(self):
        ideal = kprime_cover_ideal(three_center_spec())
        assert ideal == ideal_of(11, *THREE_CENTER_GENS)

    def test_five_center_discards_all_centers_candidate(self):
        spec = five_center_spec()
        candidates = kprime_candidates_from_intervals(spec.alphas, spec.loops)
        assert {3, 5, 6, 8, 9, 12} in candidates  # all centers plus looped leaf 5
        ideal = kprime_cover_ideal(spec)
        assert mono((3, 5, 6, 8, 9, 12), 12) not in ideal.gens
        assert mono((3, 5, 6, 8, 12), 12) in ideal.gens

    def test_builds_only_the_returned_ideal(self, monkeypatch):
        built = count_ideal_builds(monkeypatch)
        ideal = kprime_cover_ideal(five_center_spec())
        assert built == [ideal]
        assert ideal.gens == FIVE_CENTER_GENS

    @settings(max_examples=300)
    @given(block_specs(max_n=16, max_loops=16))
    def test_walk_equals_brute_force(self, spec):
        # brute force sorts its own masks, so this also holds the walk's order
        assert kprime_cover_ideal(spec) == minimal_covers_bruteforce(spec)

    @pytest.mark.parametrize("alphas, loops", [
        ((1, 2, 3, 7), ()),  # u = 0 ties: three bare centers
        ((2, 4, 6, 8), ()),  # u = 1 ties, then the all-centers cover last
        ((1, 3, 4, 7, 9, 12, 13), (5, 10, 11)),  # u = 0, 1 and 2 ties at once
        ((3, 6, 9, 12), (1, 4, 7, 10)),  # u = 1 ties after looped leaves
        ((2, 4, 7, 9), (4, 9)),  # looped centers give no omit-one cover
    ])
    def test_walk_masks_are_in_canonical_order(self, alphas, loops):
        masks = list(kprime_cover_ideal(KPrimeSpec(alphas, loops)).masks)
        assert len(masks) > 2 and masks == _canonical(masks)

    def test_each_spec_is_walked_once(self, monkeypatch):
        # the constructor builds the walk, and every spec reader takes the
        # stored one: the closed form, invariants, patrols and the f guard
        built = count_spec_walks(monkeypatch)
        spec = five_center_spec()
        ideal = kprime_cover_ideal(spec)
        assert invariants(ideal, spec).route == "linear-quotients"
        assert min_patrols(spec) == min_patrols(ideal)
        assert minimal_covers_bruteforce(spec) == ideal
        assert built == [spec] and len(spec._walk) == len(ideal.masks)
        assert not any(hasattr(module, "_spec_walk") for module in vars(coverideals).values())

    def test_mask_budget(self):
        # 1,000 bare centers and a looped far center: 1,000 generators of
        # 1,000 indices each pass the CLI's print guard, but at n = 10^8
        # their masks would take 10^11 bits, refused before any is built
        alphas = list(range(1, 1001))
        spec = KPrimeSpec(alphas + [10**8], [10**8])
        with pytest.raises(SizeGuardError) as refused:
            kprime_cover_ideal(spec)
        assert str(refused.value) == (f"closed form refused for 1000 generators x "
                                      f"n=100000000 > {_MASK_BITS_LIMIT} mask bits")
        # at n = 10^6 the same 1,000 masks take 10^9 bits and are built
        twin = kprime_cover_ideal(KPrimeSpec(alphas + [10**6], [10**6]))
        assert len(twin.masks) == 1000 and twin.masks[0].bit_count() == 1000

    def test_mask_of_n_bits_costs_n_over_8_bytes(self):
        # the C + L mask at n = 10^8 is built as 12.5 MB of bytes, then an
        # integer of as many; an ASCII numeral of n digits took 100 MB
        tracemalloc.start()
        try:
            ideal = kprime_cover_ideal(KPrimeSpec([1, 10**8], [10**8]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ideal.gens == ((10**8,),)
        assert peak < 48 * 2**20

    def test_saturated_spec_is_principal(self):
        ideal = kprime_cover_ideal(five_center_spec(SATURATED_LOOPS))
        assert ideal == ideal_of(12, SATURATED_GEN)

    def test_generator_bound(self):
        rng = random.Random(5)
        for _ in range(60):
            spec = random_kprime(rng)
            assert len(kprime_cover_ideal(spec).gens) <= spec.m + 1

    def test_closed_form_at_hundred_thousand_vertices(self):
        # the closed form's scaling bound: n = 10^5, one looped center and
        # one looped leaf, so h = 1 and the canonical order runs at full n
        alphas = (1, 20_000, 45_000, 70_001, 100_000)
        loops = (45_000, 50_000)
        spec = KPrimeSpec(alphas, loops)
        ideal = kprime_cover_ideal(spec)
        assert ideal.n == 100_000
        assert set(map(frozenset, ideal.gens)) == kprime_covers_from_intervals(
            alphas, loops
        )
        report = invariants(ideal, spec)
        assert (report.n, report.h, report.dim) == (100_000, 1, 99_999)


class TestLoopSaturatedBoundary:
    def test_all_centers_looped_is_principal(self):
        rng = random.Random(13)
        for _ in range(20):
            spec = random_kprime(rng, loop_p=0.2)
            saturated = KPrimeSpec(spec.alphas, set(spec.loops) | set(spec.alphas))
            assert kprime_cover_ideal(saturated).is_principal

    def test_all_but_one_center_looped_splits_on_leaf_loops(self):
        # principal exactly when the unlooped center keeps no unlooped leaf
        principal = KPrimeSpec((1, 3), loops=(1, 2))
        assert kprime_cover_ideal(principal).is_principal
        two_gen = KPrimeSpec((1, 3), loops=(1,))
        ideal = kprime_cover_ideal(two_gen)
        assert ideal == ideal_of(3, (1, 2), (1, 3))
        g = expand_kprime(two_gen)
        assert minimal_covers_bruteforce(g) == ideal

    def test_principality_condition_on_random_specs(self):
        # principal iff no center is unlooped, or exactly one is and all the
        # leaves of its block carry loops
        rng = random.Random(14)
        for _ in range(60):
            spec = random_kprime(rng)
            loopset = set(spec.loops)
            open_blocks = [
                (center, set(members) - {center})
                for center, members in spec_blocks(spec)
                if center not in loopset
            ]
            expect_principal = not open_blocks or (
                len(open_blocks) == 1 and open_blocks[0][1] <= loopset
            )
            assert kprime_cover_ideal(spec).is_principal == expect_principal


class TestRoutesReturnMinimalCanonicalSets:
    # every route hands its generators to the ideal only sorted, so a
    # non-minimal or duplicate generator would differ from the constructor's
    @settings(max_examples=200)
    @given(loop_graphs(max_n=14))
    def test_graph_routes(self, g):
        for ideal in (minimal_covers_bruteforce(g), cover_ideal_by_intersection(g)):
            assert MonomialIdeal(g.n, ideal.gens) == ideal

    @settings(max_examples=200)
    @given(block_specs(max_n=60))
    def test_closed_form(self, spec):
        ideal = kprime_cover_ideal(spec)
        assert MonomialIdeal(spec.n, ideal.gens) == ideal
        assert set(map(frozenset, ideal.gens)) == kprime_covers_from_intervals(
            spec.alphas, spec.loops
        )


class TestRouteAgreement:
    def test_random_graphs(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_loop_graph(rng, n_hi=9)
            assert cover_ideal_by_intersection(g) == minimal_covers_bruteforce(g)

    def test_random_specs(self):
        rng = random.Random(100)
        for _ in range(30):
            spec = random_kprime(rng, n_hi=11)
            g = expand_kprime(spec)
            closed = kprime_cover_ideal(spec)
            assert closed == cover_ideal_by_intersection(g)
            assert closed == minimal_covers_bruteforce(g)
            assert closed == cover_ideal_by_intersection(spec)
            assert closed == minimal_covers_bruteforce(spec)

    def test_loop_variables_divide_every_generator(self):
        rng = random.Random(101)
        for _ in range(40):
            g = random_loop_graph(rng, n_hi=8, loop_p=0.5)
            ideal = cover_ideal_by_intersection(g)
            for k in g.loops:
                x = 1 << (k - 1)
                assert all(x & ~m == 0 for m in ideal.masks)


class TestMinPatrols:
    def test_city_generators(self):
        solution = min_patrols(city_ideal())
        assert solution.covering_number == 21
        assert list(solution.optimal_covers) == [CITY_OPTIMUM]

    def test_invariants_and_patrols_build_no_monomial(self, monkeypatch):
        # a graph the size of the benchmark's G(n, p) pool: 20 vertices, one
        # loop, tens of generators and no certificate, so no order is built
        rng = random.Random(19)
        g = LoopGraph(20, [e for e in combinations(range(1, 21), 2) if rng.random() < 0.5], [7])
        ideal = cover_ideal_by_intersection(g)
        ideals = count_ideal_builds(monkeypatch)
        report = invariants(ideal)
        solution = min_patrols(ideal)
        assert ideals == []
        assert report.route == "bounds-only" and len(ideal.masks) > 12
        lowest = [u for u in ideal.gens if len(u) == solution.covering_number]
        assert list(solution.optimal_covers) == lowest

    def test_spec_invariants_and_patrols_build_no_ideal_or_monomial(self, monkeypatch):
        # the loopless five-center spec: five generators in a linear canonical
        # order, so q is read off step masks and the patrols off candidates
        spec = KPrimeSpec(five_center_spec().alphas)
        ideal = kprime_cover_ideal(spec)
        ideals = count_ideal_builds(monkeypatch)
        report = invariants(ideal, spec)
        solution = min_patrols(spec)
        assert ideals == []
        assert report.route == "linear-quotients" and len(ideal.masks) == 5 and report.q == 1
        lowest = [u for u in ideal.gens if len(u) == solution.covering_number]
        assert list(solution.optimal_covers) == lowest == [(3, 6, 8, 12)]

    @given(block_specs(max_n=40, max_loops=40))
    def test_spec_patrols_are_those_of_its_ideal(self, spec):
        # ties of the lowest degree, and specs whose all-centers candidate
        # is left out, sorted from the candidates alone
        assert min_patrols(spec) == min_patrols(kprime_cover_ideal(spec))

    def test_triangle(self):
        solution = min_patrols(cover_ideal_by_intersection(TRIANGLE))
        assert solution.covering_number == 2
        assert list(solution.optimal_covers) == [(1, 2), (1, 3), (2, 3)]

    def test_saturated_spec(self):
        solution = min_patrols(five_center_spec(SATURATED_LOOPS))
        assert solution.covering_number == 8
        assert list(solution.optimal_covers) == [SATURATED_GEN]

    def test_nothing_to_cover_signal(self):
        solution = min_patrols(cover_ideal_by_intersection(LoopGraph(3)))
        assert solution.covering_number == 0
        assert list(solution.optimal_covers) == [()]

    def test_rejects_zero_and_non_squarefree_ideals(self):
        with pytest.raises(ValidationError):
            min_patrols(MonomialIdeal(3))
        # a power never reaches the library: its index list is refused, and
        # the CLI refuses patrol on ideal JSON whose minimal generators hold one
        with pytest.raises(ValidationError, match="repeats"):
            min_patrols(ideal_of(3, (1, 1)))
        with pytest.raises(ValidationError):
            min_patrols("not a graph")
        # a graph goes through a route first: min_patrols(cover_ideal_by_intersection(g))
        with pytest.raises(ValidationError, match="^cannot compute patrols for LoopGraph$"):
            min_patrols(TRIANGLE)

    def test_ties_are_all_reported_lexicographically(self):
        ideal = ideal_of(4, (2, 4), (1, 3), (1, 2, 4))
        solution = min_patrols(ideal)
        assert solution.covering_number == 2
        assert list(solution.optimal_covers) == [(1, 3), (2, 4)]
