"""The oracles agree with each other, and accept every correct answer.

    python3 -m pytest -q perfbench/test_oracles.py

Nothing here imports the library: the closed forms of oracles.py are checked
against its Bron-Kerbosch cover ideals and its own order search.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as orc  # noqa: E402


def random_graphs(seed, count, n_range=(3, 9)):
    rng = random.Random(seed)
    while count:
        n = rng.randint(*n_range)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
        if edges:
            count -= 1
            yield n, edges, sorted(rng.sample(range(1, n + 1), rng.choice((0, 0, 1, 2))))


def test_block_spec_closed_form_matches_bron_kerbosch():
    rng = random.Random(1)
    for _ in range(400):
        m = rng.randint(2, 6)
        n = rng.randint(m + 3, 16)
        alphas = sorted(rng.sample(range(1, n), m - 1)) + [n]
        loops = sorted(rng.sample(range(1, n + 1), rng.randint(0, 3)))
        expected = orc.cover_ideal_masks(*orc.expand_spec(alphas, loops))
        assert orc.spec_cover_masks(alphas, loops) == expected


def test_cm_rule_matches_the_linear_quotient_verdict():
    verdicts = set()
    for n, edges, loops in random_graphs(2, 1500):
        gens = sorted(orc.cover_ideal_masks(n, edges, loops))
        expected, decided = orc.expected_invariants(n, gens, None, h=orc.graph_height(loops))
        if decided:
            assert orc.graph_cm(n, edges, loops) == expected["cm"]
            verdicts.add(expected["cm"])
    assert verdicts == {True, False}


def undecided_graph():
    """A graph whose canonical order fails past the search limit, though the
    budgeted search finds a linear order."""
    for n, edges, loops in random_graphs(3, 10_000, (12, 16)):
        gens = sorted(orc.cover_ideal_masks(n, edges, loops))
        if orc.linear_order(gens)[0] == "undecided" and orc.checked_order(gens)[0] == "linear":
            return n, edges, loops, gens
    raise AssertionError("no such graph drawn")


def test_undecided_instance_accepts_bounds_only_and_checked_exact_reports():
    n, edges, loops, gens = undecided_graph()
    h = orc.graph_height(loops)
    cm = orc.graph_cm(n, edges, loops)
    q = orc.q_of_order(orc.checked_order(gens)[1])
    maxdeg = max(g.bit_count() for g in gens)
    bounds_only = {"n": n, "h": h, "dim": n - h, "route": "bounds-only", "q": None,
                   "pd": None, "depth": None, "reg": None, "reg_bounds": None, "cm": None}
    exact = dict(bounds_only, route="linear-quotients", q=q, pd=q + 1, depth=n - q - 1,
                 reg=maxdeg - 1, cm=n - q - 1 == n - h)
    assert exact["cm"] == cm

    def failure(report):
        return orc.invariants_failure(report, n, gens, None, h=h, cm=cm)

    assert failure(bounds_only) is None
    assert failure(exact) is None
    assert failure(dict(bounds_only, cm=cm)) is None
    assert failure(dict(bounds_only, cm=not cm)) is not None
    assert failure(dict(exact, q=q + 1, pd=q + 2, depth=n - q - 2)) is not None
    assert failure(dict(exact, depth=n - q)) is not None
    assert failure(dict(bounds_only, h=h + 1, dim=n - h - 1)) is not None


def test_decided_instance_rejects_an_undecided_report():
    for n, edges, loops in random_graphs(4, 200):
        gens = sorted(orc.cover_ideal_masks(n, edges, loops))
        h = orc.graph_height(loops)
        expected, decided = orc.expected_invariants(n, gens, None, h=h)
        if decided and len(gens) > 1:
            undecided = dict(expected, route="bounds-only", q=None, pd=None, depth=None,
                             reg=None, cm=None)
            assert orc.invariants_failure(expected, n, gens, None, h=h) is None
            assert orc.invariants_failure(undecided, n, gens, None, h=h) is not None
            return
    raise AssertionError("no decided graph drawn")
