"""Graded invariants, Cohen-Macaulay verdicts, and loop saturation."""

import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverideals import (
    InconclusiveError,
    KPrimeSpec,
    LoopGraph,
    MonomialIdeal,
    SizeGuardError,
    ValidationError,
    cli,
    check_linear_quotients,
    cover_ideal_by_intersection,
    covers,
    find_linear_order,
    h_of,
    invariants,
    kprime_cover_ideal,
    minimal_covers_bruteforce,
    quotients,
)
from coverideals.monomials import _indices_mask, _mask_indices
from helpers import (
    BASE_COVER_GENS,
    SATURATED_LOOPS,
    SATURATION_WITNESS,
    block_specs,
    cm_check_report,
    expand_kprime,
    five_center_spec,
    ideal_of,
    loop_graphs,
    mono,
    random_kprime,
    spec_json,
    three_center_spec,
)

TRIANGLE_IDEAL = ideal_of(3, (1, 2), (1, 3), (2, 3))


def brute_h(ideal):
    supports = [set(g) for g in ideal.gens]
    for k in range(1, ideal.n + 1):
        for combo in combinations(range(1, ideal.n + 1), k):
            if all(set(combo) & s for s in supports):
                return k
    raise AssertionError("no hitting set found")


class TestHOf:
    def test_looped_cover_ideal_is_one(self):
        assert h_of(kprime_cover_ideal(five_center_spec())) == 1
        assert h_of(kprime_cover_ideal(three_center_spec())) == 1

    def test_triangle_ideal_is_two(self):
        assert h_of(TRIANGLE_IDEAL) == 2 == brute_h(TRIANGLE_IDEAL)

    def test_principal_is_one(self):
        assert h_of(ideal_of(5, (2, 3, 4))) == 1

    def test_random_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 10)
            gens = [
                mono(rng.sample(range(1, n + 1), rng.randint(1, n)), n)
                for _ in range(rng.randint(1, 12))
            ]
            ideal = MonomialIdeal(n, gens)
            assert h_of(ideal) == brute_h(ideal)

    def test_rejects_zero_and_unit(self):
        with pytest.raises(ValidationError):
            h_of(MonomialIdeal(3))
        with pytest.raises(ValidationError):
            h_of(MonomialIdeal(3, [()]))

    def test_shared_variable_skips_the_guard(self):
        n = 40
        gens = [(1, k) for k in range(2, 12)]
        assert h_of(MonomialIdeal(n, gens)) == 1

    def test_guard_without_shared_variable(self):
        # 13 disjoint pairs: 26 occurring variables, one past the guard
        n = 30
        ideal = MonomialIdeal(n, [(k, k + 1) for k in range(1, 27, 2)])
        with pytest.raises(SizeGuardError, match="26 occurring variables > 25"):
            h_of(ideal)

    def test_guard_counts_occurring_variables_not_n(self, capsys):
        assert h_of(ideal_of(30, (1, 2), (3, 4))) == 2
        assert cli.main(["invariants", "--json", '{"n":30,"gens":[[1,2],[3,4]]}']) == 0
        assert "n: 30  h: 2  q: -" in capsys.readouterr().out


class TestContextH:
    @given(block_specs())
    def test_matches_hitting_set_search(self, spec):
        ideal = kprime_cover_ideal(spec)
        assert invariants(ideal, spec).h == h_of(ideal)

    def test_loopless_spec_past_the_search_guard(self):
        spec = KPrimeSpec((6, 37, 45))
        ideal = kprime_cover_ideal(spec)
        with pytest.raises(SizeGuardError):
            h_of(ideal)
        rep = invariants(ideal, spec)
        assert rep.route == "linear-quotients"
        assert rep.h == 2 and rep.dim == 43
        # every cover holds all centers but one, so two centers meet them all
        assert all({6, 37} & set(g) for g in ideal.gens)

    @settings(max_examples=200)
    @given(loop_graphs(max_n=14),
           st.sampled_from((cover_ideal_by_intersection, minimal_covers_bruteforce)))
    @example(LoopGraph(40, [(1, 2), (2, 3)]), minimal_covers_bruteforce)
    @example(LoopGraph(40, [(1, 2), (2, 3)], [40]), minimal_covers_bruteforce)
    def test_graph_matches_hitting_set_search(self, g, route):
        # the search answers every ideal that a graph route returns with the
        # loop rule's h: 1 with a loop, else 2 with an edge
        ideal = route(g)
        if not g.edges and not g.loops:  # the unit ideal: nothing to cover
            with pytest.raises(ValidationError):
                invariants(ideal)
        else:
            assert invariants(ideal).h == h_of(ideal) == (1 if g.loops else 2)

    @pytest.mark.parametrize("ideal", [
        ideal_of(5, (1, 4), (2, 3), (2, 4)),  # n
        ideal_of(4, (1, 4), (2, 3)),  # generator count
        ideal_of(4, (1,), (2, 3), (2, 4)),  # first degree
        ideal_of(4, (1, 4), (2, 4), (1, 2, 3)),  # last degree
    ])
    def test_refuses_an_ideal_off_the_spec_walk(self, ideal):
        # the walk of KPrimeSpec([2, 4]) holds three covers of degree 2 in n = 4
        assert kprime_cover_ideal(KPrimeSpec([2, 4])).gens == ((1, 4), (2, 3), (2, 4))
        with pytest.raises(ValidationError,
                           match="^the ideal is not the cover ideal of this block spec$"):
            invariants(ideal, KPrimeSpec([2, 4]))

    def test_refuses_anything_but_a_spec(self):
        spec = five_center_spec()
        ideal = kprime_cover_ideal(spec)
        for other in (expand_kprime(spec), spec.alphas):
            with pytest.raises(ValidationError, match="KPrimeSpec"):
                invariants(ideal, other)


class TestInvariants:
    def test_five_center_report(self):
        spec = five_center_spec()
        rep = invariants(kprime_cover_ideal(spec), spec)
        assert (rep.pd, rep.depth, rep.dim, rep.reg) == (2, 10, 11, 6)
        assert rep.route == "linear-quotients" and rep.q == 1
        assert rep.h == 1 and rep.cm is False
        assert rep.reg_bounds == (5, 10)

    def test_saturated_principal_report(self):
        spec = five_center_spec(SATURATED_LOOPS)
        rep = invariants(kprime_cover_ideal(spec), spec)
        assert rep.route == "principal"
        assert rep.depth == 11 == rep.dim
        assert rep.cm is True and rep.pd == 1

    def test_smallest_principal(self):
        rep = invariants(ideal_of(1, (1,)))
        assert (rep.pd, rep.depth, rep.dim) == (1, 0, 0)
        assert rep.cm is True and rep.reg == 0

    def test_bounds_only_route(self):
        rep = invariants(ideal_of(4, (1, 2), (3, 4)))
        assert rep.route == "bounds-only"
        assert rep.pd is None and rep.depth is None and rep.cm is None
        assert rep.dim == 4 - 2

    def test_depth_dim_pd_relations_on_random_specs(self):
        rng = random.Random(37)
        for _ in range(40):
            spec = random_kprime(rng, n_hi=11)
            ideal = kprime_cover_ideal(spec)
            rep = invariants(ideal, spec)
            assert rep.dim == rep.n - rep.h
            if rep.pd is not None:
                assert rep.depth == rep.n - rep.pd
                assert rep.cm is (rep.depth == rep.dim)
            if rep.route == "principal":
                assert rep.pd == 1
            elif rep.route == "linear-quotients":
                assert rep.pd == rep.q + 1
                assert rep.reg == ideal.max_degree - 1

    def test_rejects_zero_ideal(self):
        with pytest.raises(ValidationError):
            invariants(MonomialIdeal(2))


class TestCohenMacaulay:
    def test_golden_verdicts(self):
        assert invariants(kprime_cover_ideal(five_center_spec(SATURATED_LOOPS))).cm is True
        assert invariants(kprime_cover_ideal(five_center_spec())).cm is False

    def test_principal_cover_ideal_is_always_cm(self):
        rng = random.Random(41)
        seen = 0
        while seen < 10:
            spec = random_kprime(rng, require_loop=True)
            ideal = kprime_cover_ideal(spec)
            if not ideal.is_principal:
                continue
            assert invariants(ideal).cm is True
            seen += 1

    @settings(max_examples=200)
    @given(loop_graphs(max_n=12))
    def test_looped_non_principal_is_not_cm(self, g):
        # h = 1 gives dim = n - 1, and depth = n - 1 needs pd = 1: a principal ideal
        ideal = cover_ideal_by_intersection(g)
        if g.loops and not ideal.is_principal:
            assert invariants(ideal).cm is False

    def test_inconclusive_on_bounds_only(self):
        rep = invariants(ideal_of(4, (1, 2), (3, 4)))
        assert rep.route == "bounds-only" and rep.cm is None


class TestLoopSaturation:
    """The saturation check of ``cm-check --base-ideal``."""

    def test_five_center_witness(self, tmp_path, capsys):
        base = ideal_of(12, *BASE_COVER_GENS)
        payload = spec_json(five_center_spec(SATURATED_LOOPS))
        report = cm_check_report(tmp_path, capsys, payload, base, SATURATED_LOOPS)
        assert report["saturation"] == {"satisfied": True,
                                        "witness": list(SATURATION_WITNESS)}

    def test_empty_loops(self, tmp_path, capsys):
        base = ideal_of(12, *BASE_COVER_GENS)
        payload = spec_json(five_center_spec(()))
        report = cm_check_report(tmp_path, capsys, payload, base, ())
        assert report["saturation"] == {"satisfied": False, "witness": None}

    def test_principal_base_containment_identity(self, tmp_path, capsys):
        base = ideal_of(5, (1, 3, 4))
        payload = json.dumps(base.to_json_dict())
        report = cm_check_report(tmp_path, capsys, payload, base, (1, 3, 4))
        assert report["saturation"] == {"satisfied": True,
                                        "witness": list(base.gens[0])}

    def test_satisfied_implies_principal_looped_ideal(self, tmp_path, capsys):
        rng = random.Random(43)
        hits = 0
        while hits < 12:
            spec = random_kprime(rng, n_hi=10, loop_p=0.0)
            base = kprime_cover_ideal(spec)
            seed = set(rng.choice(base.gens))
            extra = {v for v in range(1, spec.n + 1) if rng.random() < 0.2}
            looped = KPrimeSpec(spec.alphas, seed | extra)
            report = cm_check_report(tmp_path, capsys, spec_json(looped), base, looped.loops)
            if not report["saturation"]["satisfied"]:
                continue
            assert report["invariants"]["cm"] is True
            looped_ideal = kprime_cover_ideal(looped)
            assert looped_ideal.is_principal
            assert looped_ideal.gens[0] == mono(looped.loops, spec.n)
            hits += 1


def block_spec_report(spec):
    return invariants(spec)


class TestRegBounds:
    def test_five_center(self):
        assert block_spec_report(five_center_spec()).reg_bounds == (5, 10)

    def test_three_center_contains_exact_value(self):
        rep = block_spec_report(three_center_spec())
        lo, hi = rep.reg_bounds
        assert (lo, hi) == (4, 9)
        assert rep.reg == 6 and lo <= rep.reg <= hi

    def test_two_block_formula(self):
        assert block_spec_report(KPrimeSpec((2, 4))).reg_bounds == (1, 2)

    def test_principal_route_reports_the_trivial_interval(self):
        # the block-spec interval (1, 2) is for two or more generators; a
        # principal cover ideal gets (0, n - 1) from the principal route
        rep = block_spec_report(KPrimeSpec((2, 4), loops=(2, 4)))
        assert rep.route == "principal" and rep.reg_bounds == (0, 3)

    def test_lower_bound_fails_when_biggest_star_center_is_looped(self):
        # documented boundary: a looped center removes its omit-cover, and with
        # it the high-degree generator the lower bound counts on
        spec = KPrimeSpec((4, 6), loops=(4,))
        ideal = kprime_cover_ideal(spec)
        assert ideal == ideal_of(6, (4, 5), (4, 6))
        rep = invariants(ideal, spec)
        lo, hi = rep.reg_bounds
        assert rep.reg == 1 and (lo, hi) == (3, 4)
        assert rep.reg < lo  # the claimed lower bound does not hold here

    def test_lower_bound_holds_with_unlooped_centers(self):
        rng = random.Random(47)
        for _ in range(40):
            spec = random_kprime(rng, allow_center_loops=False, require_loop=True)
            ideal = kprime_cover_ideal(spec)
            if len(ideal.gens) < 2:
                continue
            rep = invariants(ideal, spec)
            lo, hi = rep.reg_bounds
            assert lo <= rep.reg <= hi


class TestBlockSpecClosedForm:
    """invariants(spec) and find_linear_order(spec) read q, pd, reg and the
    order off the spec's walk: G - L is split, so R/J is Cohen-Macaulay with
    pd 2, or pd 1 when principal, and some order has every step one variable."""

    @settings(max_examples=300)
    @given(block_specs(max_n=16, max_loops=16))
    def test_matches_the_order_search_and_an_explicit_linear_order(self, spec):
        ideal = kprime_cover_ideal(spec)
        rep = invariants(spec)
        assert rep.pd == (1 if ideal.is_principal else 2) and rep.cm == (rep.pd == rep.h)
        # without the spec the order search runs, and it agrees wherever it decides
        searched = invariants(ideal)
        if searched.route != "bounds-only":
            assert rep._replace(reg_bounds=None) == searched._replace(reg_bounds=None)
        # the generators inside C + L first, then the rest in canonical order:
        # each later omit-one step is (X_a), a its omitted center
        inside = _indices_mask(spec.alphas) | _indices_mask(spec.loops)
        order = sorted(ideal.masks, key=lambda m: bool(m & ~inside))
        cert = check_linear_quotients(ideal, [_mask_indices(m) for m in order])
        assert cert.linear and cert.q == rep.q
        # the spec's certificate, read off the walk, is linear, and it is the
        # order search's own (at most 10 generators here, so the search answers)
        walked = find_linear_order(spec)
        checked = check_linear_quotients(ideal, walked.order)
        assert checked.linear and checked.steps == walked.steps and walked.q == rep.q
        assert walked == find_linear_order(ideal)

    @settings(max_examples=300)
    @given(block_specs())
    def test_spec_answers_are_those_of_its_ideal(self, spec):
        ideal = kprime_cover_ideal(spec)
        cert = find_linear_order(spec)
        checked = check_linear_quotients(ideal, cert.order)
        assert cert.linear and checked.linear
        assert (checked.steps, checked.q) == (cert.steps, cert.q) and cert.q <= 1
        # at most 9 centers, so at most 10 generators: the ideal's search answers
        assert cert == find_linear_order(ideal)
        assert invariants(spec) == invariants(ideal, spec)

    def test_one_leaf_blocks_get_their_order_with_no_search(self, monkeypatch):
        # 14 generators: the ideal's own search is refused, the spec's order
        # is read off its walk, with no colon step and no closed-form mask
        spec = KPrimeSpec(range(2, 27, 2))
        with pytest.raises(InconclusiveError, match="14 generators"):
            find_linear_order(kprime_cover_ideal(spec))
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("no colon step or closed form is needed")

        monkeypatch.setattr(quotients, "_linear_step", refuse)
        monkeypatch.setattr(covers, "kprime_cover_ideal", refuse)
        cert = find_linear_order(spec)
        assert calls == [] and (cert.q, cert.linear, len(cert.order)) == (1, True, 14)
        # the omit-one cover of center 2, then C + L with step (X1), its one
        # leaf, then the other omit-one covers in walk order, each step (X_a)
        centers = tuple(range(2, 27, 2))
        assert cert.order[:2] == ((1, *centers[1:]), centers)
        assert [s.gens for s in cert.steps] == [((1,),), *(((a,),) for a in centers[1:])]

    def test_a_linear_order_bounds_only_the_step_masks_it_builds(self):
        # 1,000 bare centers below a looped n = 10^8: the closed form's masks
        # would hold 10^11 bits, the order's steps hold 1 + 2 + ... + 1,000
        cert = find_linear_order(KPrimeSpec(list(range(1, 1001)) + [10**8], [10**8]))
        assert (cert.q, len(cert.order), len(cert.order[0])) == (1, 1000, 1000)
        # two covers of two indices, but the steps X(9,999,999,999) and
        # X(10^10) would hold 2 * 10^10 bits: refused before either is built
        with pytest.raises(SizeGuardError) as refused:
            find_linear_order(KPrimeSpec([9999999998, 9999999999, 10**10], [9999999998]))
        assert str(refused.value) == ("the linear order's steps hold 19999999999 mask bits "
                                      "> 4294967296")

    def test_reaches_no_colon_step(self, monkeypatch):
        steps = []

        def counting_step(prefix, u):
            steps.append(u)
            return linear_step(prefix, u)

        linear_step = quotients._linear_step
        monkeypatch.setattr(quotients, "_linear_step", counting_step)
        specs = [five_center_spec(), three_center_spec(), KPrimeSpec(range(2, 27, 2)),
                 KPrimeSpec((2, 4, 5), (5,))]
        reports = [block_spec_report(spec) for spec in specs]
        assert steps == [] and {rep.route for rep in reports} == {"linear-quotients"}
        invariants(kprime_cover_ideal(specs[0]))  # the general path still steps
        assert steps

    @pytest.mark.parametrize("m", [2, 13, 10**4])
    def test_one_leaf_blocks_are_cohen_macaulay(self, m):
        # the canonical order is not linear here, and past 12 generators the
        # search is refused, yet the walk answers at once
        spec = KPrimeSpec(range(2, 2 * m + 1, 2))
        start = time.perf_counter()
        rep = block_spec_report(spec)
        assert time.perf_counter() - start < 1.0
        assert (rep.route, rep.q, rep.pd, rep.h, rep.cm) == ("linear-quotients", 1, 2, 2, True)
        assert rep.reg == m - 1 and rep.depth == 2 * m - 2
