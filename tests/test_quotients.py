"""Linear-quotient orders, q, and mapping-cone resolution shifts."""

import json
import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coverideals import cli, quotients
from coverideals import (
    InconclusiveError,
    KPrimeSpec,
    LoopGraph,
    MonomialIdeal,
    ValidationError,
    check_linear_quotients,
    cover_ideal_by_intersection,
    find_linear_order,
    invariants,
    kprime_cover_ideal,
    resolution_shifts,
)
from helpers import (
    FIVE_CENTER_GENS,
    brute_minimal_covers,
    count_ideal_builds,
    dense_certificate,
    dense_check_linear_quotients,
    dense_find_linear_order,
    dense_gens,
    dense_indices,
    edge_ideal,
    exhaustive_linear_qs,
    five_center_spec,
    ideal_of,
    kpoly_from_shifts,
    kpoly_inclusion_exclusion,
    polarized,
    random_kprime,
)

TRIANGLE_IDEAL = ideal_of(3, (1, 2), (1, 3), (2, 3))
COPRIME_PAIR = ideal_of(4, (1, 2), (3, 4))
# 12 generators, at the search limit, in three degree classes; no order of
# them has linear quotients
NO_LINEAR_ORDER_12 = (
    (4, 11), (5, 6), (5, 8), (6, 7), (6, 11), (7, 8), (7, 11), (8, 11),
    (1, 3, 11), (3, 4, 6), (3, 7, 9, 12), (9, 10, 11, 12),
)


class TestCanonicalOrder:
    """The ideal holds its generators in canonical order: degree ascending,
    ties by ascending index sequence."""

    def test_five_center_degrees(self):
        order = kprime_cover_ideal(five_center_spec()).gens
        assert order == FIVE_CENTER_GENS
        assert [len(u) for u in order] == [5, 6, 7]

    def test_principal_singleton(self):
        assert ideal_of(3, (1, 2)).gens == ((1, 2),)

    def test_same_degree_tiebreak(self):
        assert ideal_of(3, (1, 3), (1, 2)).gens == ((1, 2), (1, 3))

    def test_powers_held_in_canonical_order(self):
        # polarized, X1^2 is X1 times its copy, the new X2, ahead of X1X3
        ideal, copies = polarized(2, [(1, 2), (1, 1)])
        assert ideal.gens[0] == (1, 2)
        assert [cli._compact(cli._indices(u, copies)) for u in ideal.gens] == ["X1^2", "X1X2"]


class TestCheckLinearQuotients:
    def test_five_center_certificate(self):
        ideal = kprime_cover_ideal(five_center_spec())
        cert = check_linear_quotients(ideal, ideal.gens)
        assert cert.linear and cert.q == 1
        assert [s.gens for s in cert.steps] == [((6,),), ((3,),)]
        step_sets = {frozenset(s.gens) for s in cert.steps}
        assert step_sets == {frozenset({(6,)}), frozenset({(3,)})}

    def test_coprime_pair_is_not_linear(self):
        for order in permutations(COPRIME_PAIR.gens):
            cert = check_linear_quotients(COPRIME_PAIR, order)
            assert not cert.linear
            assert [s.gens for s in cert.steps] == [(order[0],)]

    def test_principal_is_vacuously_linear(self):
        ideal = ideal_of(5, (2, 3))
        cert = check_linear_quotients(ideal, ideal.gens)
        assert cert.linear and cert.q == 0 and cert.steps == ()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            check_linear_quotients(TRIANGLE_IDEAL, TRIANGLE_IDEAL.gens[:2])


class TestFindLinearOrder:
    def test_five_center_uses_canonical_order(self):
        ideal = kprime_cover_ideal(five_center_spec())
        cert = find_linear_order(ideal)
        assert cert.order == ideal.gens

    def test_principal_from_loop_saturation(self):
        ideal = kprime_cover_ideal(KPrimeSpec((2, 4), loops=(2, 4)))
        assert ideal.is_principal
        cert = find_linear_order(ideal)
        assert cert.linear and cert.q == 0

    def test_definitive_absence(self):
        assert find_linear_order(COPRIME_PAIR) is None

    def test_backtracking_rescues_degree_ties(self):
        # canonical order fails on this three-generator tie, another order works
        ideal = kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))
        assert not check_linear_quotients(ideal, ideal.gens).linear
        cert = find_linear_order(ideal)
        assert cert.linear and cert.q == 1
        assert cert.order == ((1, 4, 5), (2, 4, 5), (2, 3, 5))

    def test_inconclusive_beyond_limit(self):
        # 13 pairwise-coprime quadratics: canonical order fails, search refused
        gens = [(2 * i + 1, 2 * i + 2) for i in range(13)]
        big = MonomialIdeal(26, gens)
        with pytest.raises(InconclusiveError):
            find_linear_order(big)

    def test_canonical_order_past_limit_with_and_without_powers(self):
        # 13 generators, one past the search limit, whose canonical order is
        # linear with 12 variables in its last step
        tail = [(1, j) for j in range(2, 14)]
        for first in ((1, 1), (1, 14)):
            ideal = polarized(14, [first, *tail]).ideal
            cert = find_linear_order(ideal)
            assert cert.linear and cert.q == 12
            assert list(cert.order) == sorted(ideal.gens)


@st.composite
def ideals_with_powers(draw, max_n=5, max_gens=7):
    """At most max_gens generators with exponents up to 2, one of them a
    square, polarized by the CLI into a pair (ideal, copies): the edge ideal
    of a random graph with loops (X_k^2 per loop), or random generators of
    degree at least 2 next to a square that none of them divides."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        vertex = st.integers(1, n)
        loops = draw(st.lists(vertex, min_size=1, max_size=2, unique=True))
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pairs, min_size=2, max_size=max_gens - len(loops)))
        return edge_ideal(LoopGraph(n, edges, loops))
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda v: sum(v) >= 2)
    vectors = draw(st.lists(vec, min_size=2, max_size=max_gens - 1))
    square = [0] * n
    square[draw(st.integers(0, n - 1))] = 2
    return polarized(n, [dense_indices(v) for v in vectors + [square]])


@st.composite
def squarefree_ideals(draw, max_n=8, max_gens=8):
    """Random squarefree generators, or the cover ideal of a random graph
    with loops from subset enumeration (these more often have linear
    quotients)."""
    n = draw(st.integers(3, max_n))
    vertex = st.integers(1, n)
    if draw(st.booleans()):
        k = draw(st.integers(3, 14))
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=k, max_size=k))
        edges = [e for e in pairs if e[0] != e[1]]
        loops = draw(st.lists(vertex, max_size=2))
        covers = brute_minimal_covers(n, edges, loops)
        return ideal_of(n, *(sorted(c) for c in covers))
    k = draw(st.integers(2, max_gens))
    support = st.lists(vertex, min_size=2, max_size=3, unique=True)
    return ideal_of(n, *draw(st.lists(support, min_size=k, max_size=k)))


def count_linear_steps(monkeypatch):
    """The list to which every ``_linear_step`` call appends its generator,
    for the rest of the test."""
    calls = []
    linear_step = quotients._linear_step

    def counting_step(prefix, u):
        calls.append(u)
        return linear_step(prefix, u)

    monkeypatch.setattr(quotients, "_linear_step", counting_step)
    return calls


def as_parsed(ideal):
    """A squarefree ideal as the CLI's pair (ideal, copies): no copies."""
    return ideal, ()


class TestMaskStepsAgainstDenseOracle:
    """The library's certificates, mapped back to exponent vectors of the
    input's ring, against the oracles on exponent tuples in helpers."""

    @given(st.data())
    @settings(max_examples=150)
    def test_certificate_of_any_order(self, data):
        ideal = data.draw(squarefree_ideals())
        order = data.draw(st.permutations(ideal.gens))
        mapped = dense_certificate(check_linear_quotients(ideal, order), ideal.n)
        assert mapped == dense_check_linear_quotients(mapped[0])

    @given(squarefree_ideals())
    @settings(max_examples=150)
    def test_search_decides_like_the_oracle(self, ideal):
        assume(len(ideal.gens) <= 8)
        cert = find_linear_order(ideal)
        oracle = dense_find_linear_order(dense_gens(ideal))
        assert (cert and dense_certificate(cert, ideal.n)) == oracle

    @given(ideals_with_powers())
    @settings(max_examples=150)
    def test_search_with_powers_decides_like_the_oracle(self, parsed):
        # polarize, search, map back: the dense search on the input's ring
        ideal, copies = parsed
        cert = find_linear_order(ideal)
        oracle = dense_find_linear_order(dense_gens(ideal, copies))
        assert (cert and dense_certificate(cert, ideal.n - len(copies), copies)) == oracle
        if cert is not None:  # q of some order of the polarized supports
            assert cert.q in exhaustive_linear_qs(ideal)

    @given(st.one_of(squarefree_ideals().map(as_parsed), ideals_with_powers()))
    @example(as_parsed(kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))))
    @example(polarized(3, [(1, 3), (2, 2), (2, 3)]))
    @settings(max_examples=200)
    def test_returned_certificate_is_its_order_checked_again(self, parsed):
        # the two examples are rescued by the search, one of them with powers
        ideal, copies = parsed
        try:
            cert = find_linear_order(ideal)
        except InconclusiveError:
            return
        assume(cert is not None)
        assert cert == check_linear_quotients(ideal, cert.order)
        mapped = dense_certificate(cert, ideal.n - len(copies), copies)
        assert mapped == dense_check_linear_quotients(mapped[0])

    def test_canonical_order_is_decided_once(self, monkeypatch):
        ideal = kprime_cover_ideal(five_center_spec())
        calls = count_linear_steps(monkeypatch)
        cert = find_linear_order(ideal)
        assert cert.order == ideal.gens
        assert len(calls) == len(ideal.gens) - 1

    def test_absence_at_the_limit_searches_within_degree_classes(self, monkeypatch):
        # the classes hold 8, 2 and 2 generators: at most 2^8 + 2^2 + 2^2
        # prefix sets, where all 2^12 subsets took 5,505 steps
        ideal = ideal_of(12, *NO_LINEAR_ORDER_12)
        calls = count_linear_steps(monkeypatch)
        assert find_linear_order(ideal) is None
        assert len(calls) <= 600

    def test_absence_at_the_limit_through_the_cli(self, capsys):
        payload = json.dumps({"n": 12, "gens": [list(g) for g in NO_LINEAR_ORDER_12]})
        assert cli.main(["linear-quotients", "--json", payload]) == 0
        assert capsys.readouterr().out == (
            "route: ideal-input\nlinear quotients: none exist (all orders fail)\n"
        )

    @given(st.one_of(squarefree_ideals().map(as_parsed), ideals_with_powers()))
    @example(as_parsed(kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))))
    @example(polarized(3, [(1, 3), (2, 2), (2, 3)]))
    @settings(max_examples=200)
    def test_returned_order_is_degree_nondecreasing(self, parsed):
        # Jahan-Zheng: some degree-nondecreasing order is linear whenever any is
        ideal, copies = parsed
        try:
            cert = find_linear_order(ideal)
        except InconclusiveError:
            return
        assume(cert is not None)
        degrees = [len(u) for u in cert.order]
        assert degrees == sorted(degrees)
        order = dense_certificate(cert, ideal.n - len(copies), copies)[0]
        assert dense_check_linear_quotients(order)[3]

    def test_rejected_orders_build_no_step_ideal(self, monkeypatch):
        gens = [(2 * i + 1, 2 * i + 2) for i in range(13)]
        big = MonomialIdeal(26, gens)
        built = count_ideal_builds(monkeypatch)
        with pytest.raises(InconclusiveError):
            find_linear_order(big)
        assert find_linear_order(COPRIME_PAIR) is None
        assert built == []

    def test_only_the_returned_certificate_builds_steps(self, monkeypatch):
        ideal = kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))
        built = count_ideal_builds(monkeypatch)
        cert = find_linear_order(ideal)
        assert list(cert.steps) == built


def refused_before_the_search(ideal):
    """Whether ``_linear_order_steps`` returns None with no colon step past
    the canonical pass's, which stops at its first failing step; the search
    itself would run at least one more."""
    masks = list(ideal.masks)
    steps = (quotients._linear_step(masks[:j], masks[j]) for j in range(1, len(masks)))
    canonical = next((j for j, step in enumerate(steps, start=1) if step is None), None)
    if canonical is None:
        return False
    with pytest.MonkeyPatch.context() as mp:
        calls = count_linear_steps(mp)
        decided = quotients._linear_order_steps(masks)
    return decided is None and len(calls) == canonical


# the cover ideal of a 7-vertex graph with a loop at 7: four generators
# whose lower-degree reductions miss every single-variable reduction
LOOPED_NO_ORDER = cover_ideal_by_intersection(LoopGraph(
    7, [(1, 2), (1, 5), (2, 4), (3, 6), (4, 5), (4, 6), (5, 6)], [7]))
# 9 generators with no linear order that every generator's lower-degree
# reductions leave open, so only the search proves the absence
NO_LINEAR_ORDER_9 = (
    (4, 8), (5, 7), (5, 8), (6, 10), (7, 8), (7, 10), (8, 9), (1, 3, 4, 7), (3, 4, 7, 9),
)


class TestAbsenceBeforeTheSearch:
    """One pass over each generator's reductions by the generators of degree
    at most its own proves some absences before any search step."""

    @given(squarefree_ideals())
    @example(COPRIME_PAIR)
    @example(LOOPED_NO_ORDER)
    @settings(max_examples=300)
    def test_refused_ideals_have_no_linear_order_at_all(self, ideal):
        # the oracle searches every order, not only degree-nondecreasing ones
        assume(len(ideal.gens) <= 8)
        if refused_before_the_search(ideal):
            assert dense_find_linear_order(dense_gens(ideal)) is None

    def test_the_examples_are_refused(self):
        assert refused_before_the_search(COPRIME_PAIR)
        assert refused_before_the_search(LOOPED_NO_ORDER)

    def test_absence_at_the_limit_takes_one_colon_step(self, monkeypatch):
        # the canonical pass fails at its first step, and the pass refuses
        ideal = ideal_of(12, *NO_LINEAR_ORDER_12)
        calls = count_linear_steps(monkeypatch)
        assert find_linear_order(ideal) is None
        assert len(calls) == 1

    def test_an_absence_the_pass_leaves_open_is_searched(self, monkeypatch):
        ideal = ideal_of(10, *NO_LINEAR_ORDER_9)
        assert not refused_before_the_search(ideal)
        calls = count_linear_steps(monkeypatch)
        assert find_linear_order(ideal) is None
        assert len(calls) > len(ideal.gens)  # more than the canonical pass can take
        assert dense_find_linear_order(dense_gens(ideal)) is None


# the 24 edges of K8 less the 4-cycle 1-2-3-4: the complement holds a
# 4-cycle, not chordal, so no order is linear, and 24 > 12 generators
K8_LESS_C4 = tuple(
    e for e in combinations(range(1, 9), 2) if e not in ((1, 2), (2, 3), (3, 4), (1, 4))
)


class TestInvariantsShareTheDecision:
    """``invariants`` reads q off the decision that ``find_linear_order``
    builds its certificate from, so the two agree on every ideal."""

    @given(st.one_of(squarefree_ideals(max_n=10, max_gens=24).map(as_parsed), ideals_with_powers()))
    @example(as_parsed(kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))))
    @example(polarized(3, [(1, 3), (2, 2), (2, 3)]))
    @example(as_parsed(ideal_of(8, *K8_LESS_C4)))
    @settings(max_examples=200)
    def test_q_and_pd_are_those_of_the_certificate(self, parsed):
        # the examples: two orders rescued by the search, one of them with
        # powers, and an order search refused past the generator limit
        ideal, _ = parsed
        assume(all(ideal.masks))  # the unit ideal has no invariants
        report = invariants(ideal)
        try:
            cert = find_linear_order(ideal)
        except InconclusiveError:
            cert = None
        assert (report.route == "bounds-only") == (cert is None)
        if cert is not None:
            assert report.q == cert.q and report.pd == cert.q + 1


class TestQOf:
    def test_five_center(self):
        assert find_linear_order(kprime_cover_ideal(five_center_spec())).q == 1

    def test_principal(self):
        assert find_linear_order(ideal_of(4, (1, 2, 3))).q == 0

    def test_triangle_against_exhaustive_oracle(self):
        oracle_qs = exhaustive_linear_qs(TRIANGLE_IDEAL)
        assert oracle_qs and set(oracle_qs) == {1}
        assert find_linear_order(TRIANGLE_IDEAL).q == 1

    def test_undefined_without_linear_order(self):
        assert find_linear_order(COPRIME_PAIR) is None

    def test_order_independent_on_random_cover_ideals(self):
        rng = random.Random(17)
        checked = 0
        while checked < 15:
            spec = random_kprime(rng, n_hi=9)
            ideal = kprime_cover_ideal(spec)
            if not 2 <= len(ideal.gens) <= 5:
                continue
            qs = exhaustive_linear_qs(ideal)
            if not qs:
                continue
            assert set(qs) == {find_linear_order(ideal).q}
            checked += 1


class TestLinearOrderCoverage:
    def test_specs_with_few_looped_centers_have_center_variable_orders(self):
        """With at most m-2 looped centers and two or more generators, some
        order has every colon step equal to a single center variable, and the
        search always succeeds with q = 1.

        The canonical order itself is not always that order (degree ties can
        put an omit-cover before the all-centers cover, leaving a quadratic
        first step), which is why the claim is existential over heads.
        """
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            spec = random_kprime(rng, n_hi=11)
            if len(set(spec.alphas) & set(spec.loops)) > spec.m - 2:
                continue
            ideal = kprime_cover_ideal(spec)
            if len(ideal.gens) < 2:
                continue
            cert = find_linear_order(ideal)
            assert cert is not None and cert.linear and cert.q == 1
            centers = set(spec.alphas)
            rest = list(ideal.gens)

            def steps_are_single_centers(head):
                order = [head] + [g for g in rest if g != head]
                c = check_linear_quotients(ideal, order)
                return c.linear and all(
                    len(s.gens) == 1
                    and len(s.gens[0]) == 1
                    and s.gens[0][0] in centers
                    for s in c.steps
                )

            assert any(steps_are_single_centers(head) for head in rest)
            checked += 1


class TestResolutionShifts:
    def test_five_center_levels(self):
        ideal = kprime_cover_ideal(five_center_spec())
        shifts = resolution_shifts(find_linear_order(ideal))
        assert shifts.levels == ((5, 6, 7), (7, 8))
        assert len(shifts.levels) == 2
        assert len(shifts.levels[0]) == 3 and len(shifts.levels[1]) == 2

    def test_principal(self):
        ideal = ideal_of(6, (2, 4, 6))
        shifts = resolution_shifts(find_linear_order(ideal))
        assert shifts.levels == ((3,),)

    def test_triangle_levels_and_hilbert_cross_check(self):
        cert = find_linear_order(TRIANGLE_IDEAL)
        shifts = resolution_shifts(cert)
        assert shifts.levels == ((2, 2, 2), (3, 3))
        assert kpoly_from_shifts(shifts) == kpoly_inclusion_exclusion(TRIANGLE_IDEAL)

    def test_rejects_non_linear_certificate(self):
        cert = check_linear_quotients(COPRIME_PAIR, COPRIME_PAIR.gens)
        with pytest.raises(ValidationError):
            resolution_shifts(cert)

    def test_structure_on_random_cover_ideals(self):
        rng = random.Random(23)
        checked = 0
        while checked < 25:
            spec = random_kprime(rng, n_hi=10)
            ideal = kprime_cover_ideal(spec)
            cert = find_linear_order(ideal)
            if cert is None or not cert.linear:
                continue
            shifts = resolution_shifts(cert)
            assert shifts.levels[0] == tuple(sorted(len(g) for g in ideal.gens))
            if cert.q >= 1:
                assert len(shifts.levels) == cert.q + 1
            assert kpoly_from_shifts(shifts) == kpoly_inclusion_exclusion(ideal)
            checked += 1
