"""Graded Betti numbers against Hochster's formula.

Every linear certificate's resolution shifts, from the order search and from
a block spec's walk, and every exact pd, depth and Cohen-Macaulay verdict of
``invariants`` are checked against ``helpers.hochster_betti``, which reads
them off the simplicial homology of the Stanley-Reisner complex, on cover
ideals of graphs with loops on at most 8 vertices.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverideals import (
    InconclusiveError,
    KPrimeSpec,
    LoopGraph,
    MonomialIdeal,
    ResolutionShifts,
    check_linear_quotients,
    cover_ideal_by_intersection,
    find_linear_order,
    invariants,
    kprime_cover_ideal,
    resolution_shifts,
)
from helpers import (
    block_specs,
    hochster_betti,
    hochster_h,
    hochster_levels,
    ideal_of,
    kpoly_from_shifts,
    kpoly_inclusion_exclusion,
    loop_graphs,
)


@st.composite
def squarefree_ideals(draw, max_n=7, max_gens=7):
    """Random squarefree generators of degree 1 to 3 in at most max_n variables."""
    n = draw(st.integers(2, max_n))
    support = st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True)
    return ideal_of(n, *draw(st.lists(support, min_size=1, max_size=max_gens)))


def certificate(ideal):
    """The library's linear order of the ideal, None without one or past the search cap."""
    try:
        cert = find_linear_order(ideal)
    except InconclusiveError:
        return None
    return cert


class TestOracle:
    @pytest.mark.parametrize("n, gens, levels", [
        (3, [(1, 2, 3)], ((3,),)),
        (2, [(1,), (2,)], ((1, 1), (2,))),  # the Koszul complex on two variables
        (3, [(1, 2), (2, 3)], ((2, 2), (3,))),
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], ((2, 2, 2, 2), (3, 3, 3, 3), (4,))),  # the 4-cycle
        (4, [(1, 2), (3, 4)], ((2, 2), (4,))),  # a complete intersection
        (2, [()], ((0,),)),  # the unit ideal is R itself
    ])
    def test_known_resolutions(self, n, gens, levels):
        assert hochster_levels(n, gens) == levels

    def test_five_cycle_is_not_linear(self):
        # I(C5) has beta_{2,5} = 1 beside its linear strands (Froberg: the
        # complement of C5 is not chordal)
        betti = hochster_betti(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert betti == {(0, 2): 5, (1, 3): 5, (2, 5): 1}

    @settings(max_examples=60, deadline=None)
    @given(squarefree_ideals())
    def test_alternating_sum_is_the_k_polynomial(self, ideal):
        levels = hochster_levels(ideal.n, ideal.gens)
        assert kpoly_from_shifts(ResolutionShifts(levels)) == kpoly_inclusion_exclusion(ideal)


class TestLinearCertificates:
    @settings(max_examples=100, deadline=None)
    @given(loop_graphs(max_n=8))
    @example(LoopGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    def test_search_shifts_on_cover_ideals(self, g):
        ideal = cover_ideal_by_intersection(g)
        cert = certificate(ideal)
        if cert is not None:
            assert resolution_shifts(cert).levels == hochster_levels(g.n, ideal.gens)

    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    def test_search_shifts_on_raw_ideals(self, ideal):
        cert = certificate(ideal)
        if cert is not None:
            assert resolution_shifts(cert).levels == hochster_levels(ideal.n, ideal.gens)

    def test_an_order_found_by_the_search(self):
        # the canonical order fails on a degree tie; the searched order holds
        ideal = kprime_cover_ideal(KPrimeSpec((2, 4, 5), loops=(5,)))
        assert not check_linear_quotients(ideal, ideal.gens).linear
        cert = find_linear_order(ideal)
        assert resolution_shifts(cert).levels == hochster_levels(5, ideal.gens)

    @settings(max_examples=100, deadline=None)
    @given(block_specs(max_n=8))
    @example(KPrimeSpec((2, 4, 6, 8)))
    def test_walk_shifts_on_block_specs(self, spec):
        gens = kprime_cover_ideal(spec).gens
        assert resolution_shifts(find_linear_order(spec)).levels == hochster_levels(spec.n, gens)


def check_report(rep, n, gens):
    """Every exact number of an invariant report against Hochster's formula:
    h always; pd and depth when given; the verdict unless inconclusive."""
    pd, h = len(hochster_levels(n, gens)), hochster_h(n, gens)  # pd of R/I is pd(I) + 1
    assert rep.h == h and rep.dim == n - h
    if rep.pd is not None:
        assert (rep.pd, rep.depth) == (pd, n - pd)
    if rep.cm is not None:
        assert rep.cm == (pd == h)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(loop_graphs(max_n=8))
    def test_cover_ideals_of_graphs(self, g):
        ideal = cover_ideal_by_intersection(g)
        if ideal.gens != ((),):  # the unit ideal has no invariant report
            check_report(invariants(ideal), g.n, ideal.gens)

    @settings(max_examples=100, deadline=None)
    @given(block_specs(max_n=8))
    def test_block_specs_off_the_walk(self, spec):
        check_report(invariants(spec), spec.n, kprime_cover_ideal(spec).gens)

    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    def test_raw_ideals(self, ideal):
        if ideal.gens != ((),):
            check_report(invariants(ideal), ideal.n, ideal.gens)

    def test_bounds_only_verdict_with_a_shared_variable(self):
        # X1 times two coprime quadrics: h = 1 with no linear order, so R/I
        # is not CM, and Hochster agrees (pd 2)
        ideal = MonomialIdeal(5, [(1, 2, 3), (1, 4, 5)])
        rep = invariants(ideal)
        assert rep.route == "bounds-only" and rep.cm is False
        check_report(rep, 5, ideal.gens)
