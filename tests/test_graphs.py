"""Loop graphs, block-spec expansion, and the edge-ideal helper of the tests."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coverideals import (
    KPrimeSpec,
    LoopGraph,
    ValidationError,
)
from coverideals.cli import classify_input
from helpers import (
    FIVE_CENTER_LOOPS,
    edge_ideal,
    expand_kprime,
    five_center_spec,
    ideal_of,
    input_gens,
    random_kprime,
    spec_blocks,
    three_center_spec,
)


@st.composite
def shuffled_edges(draw):
    """(n, edges, loops): distinct pairs of 1..n, n up to 10^30, each given
    in either orientation as a tuple or a list, some repeated, shuffled."""
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 10**30)))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=12))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(pairs)
    edges = [rnd.choice((tuple, list))(p[::rnd.choice((1, -1))]) for p in pairs]
    return n, edges, draw(st.lists(vertex, max_size=3))


@st.composite
def bad_edges(draw, n):
    """An edge that ``LoopGraph(n, ...)`` refuses, with the message it raises."""
    v = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["pair", "loop", "range", "int"]))
    if kind == "pair":
        e = draw(st.lists(st.integers(1, n), max_size=4).filter(lambda e: len(e) != 2))
        return e, f"edge {tuple(e)} is not a pair of vertices"
    if kind == "loop":
        return (v, v), f"edge {{{v},{v}}} is a loop; loops are listed separately"
    if kind == "range":
        e = draw(st.permutations([v, draw(st.sampled_from([0, -v, n + 1, n + v]))]))
        return e, f"edge {{{e[0]},{e[1]}}} leaves the vertex range 1..{n}"
    bad = draw(st.sampled_from(["1", 1.5, None]))
    e = draw(st.permutations([v, bad]))
    return e, f"'{type(bad).__name__}' object cannot be interpreted as an integer"


class TestLoopGraph:
    @given(shuffled_edges())
    def test_edges_normalize_to_the_sorted_distinct_pairs(self, data):
        n, edges, loops = data
        g = LoopGraph(n, edges, loops)
        pairs = tuple(sorted({(min(e), max(e)) for e in edges}))
        looped = set(loops)
        assert g.edges == pairs
        assert g.open_edges == tuple(e for e in pairs if not looped.intersection(e))
        same = LoopGraph(n, pairs, sorted(looped))
        assert g == same and hash(g) == hash(same)

    @given(shuffled_edges(), st.data())
    def test_the_first_bad_edge_names_the_error(self, good, data):
        n, edges, _ = good
        first, second = data.draw(bad_edges(n)), data.draw(bad_edges(n))
        at = data.draw(st.integers(0, len(edges)))
        later = data.draw(st.integers(at, len(edges)))
        edges = edges[:at] + [first[0]] + edges[at:later] + [second[0]] + edges[later:]
        with pytest.raises(ValidationError) as refused:
            LoopGraph(n, edges)
        assert str(refused.value) == first[1]

    def test_normalizes_edges_and_loops(self):
        g = LoopGraph(4, [(2, 1), (1, 2), [3, 4]], [4, 2, 2])
        assert g.edges == ((1, 2), (3, 4))
        assert g.loops == (2, 4)

    def test_open_edges_are_the_edges_of_g_minus_l(self):
        g = LoopGraph(6, [(4, 5), (1, 2), (2, 3), (3, 4), (5, 6)], [3, 6])
        assert g.open_edges == ((1, 2), (4, 5))
        assert LoopGraph(3, [(1, 2)]).open_edges == ((1, 2),)

    def test_open_edges_cost_no_vertex_table(self):
        tracemalloc.start()
        try:
            g = LoopGraph(10**9, [(1, 10**9)], [10**9])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert g.open_edges == ()

    def test_string_vertices_are_refused(self):
        # int() parsed these; the integer protocol refuses them
        for build in (lambda: LoopGraph(3, [("2", "1")]), lambda: LoopGraph(3, [], ["3"]),
                      lambda: LoopGraph("3"), lambda: KPrimeSpec(["1", "3"])):
            with pytest.raises(ValidationError, match="'str' object cannot be interpreted"):
                build()

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError, match=r"^vertex count must be positive$"):
            LoopGraph(0)
        with pytest.raises(ValidationError,
                           match=r"^edge \{1,1\} is a loop; loops are listed separately$"):
            LoopGraph(3, [(1, 1)])
        with pytest.raises(ValidationError,
                           match=r"^edge \{1,4\} leaves the vertex range 1\.\.3$"):
            LoopGraph(3, [(1, 4)])
        # the message keeps the caller's order of the endpoints
        with pytest.raises(ValidationError,
                           match=r"^edge \{4,1\} leaves the vertex range 1\.\.3$"):
            LoopGraph(3, [(4, 1)])
        with pytest.raises(ValidationError, match=r"^loop at 5 leaves the vertex range 1\.\.3$"):
            LoopGraph(3, [], [5])
        with pytest.raises(ValidationError, match=r"^edge \(1, 2, 3\) is not a pair of vertices$"):
            LoopGraph(3, [(1, 2, 3)])

    def test_json_round_trip(self):
        g = LoopGraph(5, [(1, 2), (3, 5)], [2])
        data = {"n": g.n, "edges": [list(e) for e in g.edges], "loops": list(g.loops)}
        assert classify_input(data) == g
        with pytest.raises(ValidationError, match='needs the key "n"'):
            classify_input({"edges": []})


class TestKPrimeSpec:
    def test_blocks_and_sigma(self):
        spec = five_center_spec()
        assert [b for _, b in spec_blocks(spec)] == [
            (1, 2, 3), (4, 5, 6), (7, 8), (9,), (10, 11, 12)
        ]
        assert spec.sigma == 3
        assert spec.m == 5 and spec.n == 12
        assert set(spec.alphas) & set(spec.loops) == {8, 12}

    def test_rejects_invalid_specs(self):
        with pytest.raises(ValidationError):
            KPrimeSpec((5,))  # a lone star has no core
        with pytest.raises(ValidationError):
            KPrimeSpec((3, 3))
        with pytest.raises(ValidationError):
            KPrimeSpec((0, 3))
        with pytest.raises(ValidationError):
            KPrimeSpec((2, 4), loops=[9])

    def test_json_round_trip(self):
        spec = three_center_spec()
        data = {"alphas": list(spec.alphas), "loops": list(spec.loops)}
        assert classify_input(data) == spec


class TestExpandKPrime:
    def test_five_center_expansion(self):
        g = expand_kprime(five_center_spec())
        assert g.n == 12
        core = {(3, 6), (3, 8), (3, 9), (3, 12), (6, 8), (6, 9), (6, 12),
                (8, 9), (8, 12), (9, 12)}
        stars = {(1, 3), (2, 3), (4, 6), (5, 6), (7, 8), (10, 12), (11, 12)}
        assert set(g.edges) == core | stars
        assert g.loops == FIVE_CENTER_LOOPS

    def test_three_center_expansion(self):
        g = expand_kprime(three_center_spec())
        assert g.n == 11
        core = {(4, 8), (4, 11), (8, 11)}
        stars = {(1, 4), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (9, 11), (10, 11)}
        assert set(g.edges) == core | stars
        assert g.loops == (2, 5, 7, 11)

    def test_smallest_spec_is_a_single_edge(self):
        g = expand_kprime(KPrimeSpec((1, 2)))
        assert g.edges == ((1, 2),) and g.loops == ()

    def test_edge_count_and_center_degrees(self):
        rng = random.Random(2024)
        for _ in range(50):
            spec = random_kprime(rng)
            g = expand_kprime(spec)
            m = spec.m
            want = m * (m - 1) // 2 + sum(len(b) - 1 for _, b in spec_blocks(spec))
            assert len(g.edges) == want
            degree = {v: 0 for v in range(1, g.n + 1)}
            for i, j in g.edges:
                degree[i] += 1
                degree[j] += 1
            assert all(degree[a] >= m - 1 for a in spec.alphas)


class TestEdgeIdeal:
    """The edge ideal helper, whose loops (X_k^2) the CLI polarizes."""

    def test_triangle(self):
        g = LoopGraph(3, [(1, 2), (1, 3), (2, 3)])
        assert edge_ideal(g) == (ideal_of(3, (1, 2), (1, 3), (2, 3)), ())

    def test_single_loop(self):
        g = LoopGraph(1, [], [1])
        assert edge_ideal(g) == (ideal_of(2, (1, 2)), (2,))
        assert input_gens(edge_ideal(g)) == [[1, 1]]

    def test_three_center_graph_ideal(self):
        g = expand_kprime(three_center_spec())
        parsed = edge_ideal(g)
        gens = input_gens(parsed)
        assert len(gens) == 11 + 4
        for k in (2, 5, 7, 11):
            assert [k, k] in gens
        squares = [ix for ix in gens if len(set(ix)) < len(ix)]
        assert len(squares) == 4 == len(parsed.copies)
        assert all(len(g_) == 2 for g_ in parsed.ideal.gens)

    def test_generator_count_matches_edges_plus_loops(self):
        rng = random.Random(7)
        for _ in range(30):
            spec = random_kprime(rng)
            g = expand_kprime(spec)
            assert len(edge_ideal(g).ideal.gens) == len(g.edges) + len(g.loops)
