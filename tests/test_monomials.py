"""Monomial and monomial-ideal arithmetic, checked against enumeration oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverideals import Monomial, MonomialIdeal, ValidationError
from coverideals.cli import classify_input
from coverideals.monomials import _mask_indices
from helpers import (
    all_monomials,
    bin_scan_indices,
    dense_div_by_gcd,
    dense_divides,
    dense_key,
    dense_lcm,
    dense_member,
    dense_minimalize,
    dense_mul,
    ideal_of,
    mono,
)


@st.composite
def monomial_pair(draw, max_n=5, max_e=3):
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n)
    return Monomial(draw(vec)), Monomial(draw(vec))


@st.composite
def small_ideal(draw, max_n=4, max_e=2, max_gens=4, min_gens=0):
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n)
    gens = draw(st.lists(vec, min_size=min_gens, max_size=max_gens))
    return MonomialIdeal(n, [Monomial(g) for g in gens])


@st.composite
def ideal_with_monomial(draw, max_n=4, max_e=2, max_gens=4):
    ideal = draw(small_ideal(max_n=max_n, max_e=max_e, max_gens=max_gens))
    vec = st.lists(st.integers(0, max_e), min_size=ideal.n, max_size=ideal.n)
    return ideal, Monomial(draw(vec))


@st.composite
def dense_generators(draw, max_n=20, max_gens=6):
    """Squarefree exponent vectors over up to 20 variables (so masks span
    several bytes), and, when mixed, a powered vector of the same degree for
    each squarefree one of degree >= 2: one exponent moved onto another."""
    n = draw(st.integers(1, max_n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    vectors = [tuple(v) for v in draw(st.lists(bits, min_size=1, max_size=max_gens))]
    if draw(st.booleans()):
        for v in list(vectors):
            support = [i for i, e in enumerate(v) if e]
            if len(support) >= 2:
                i, j = draw(st.permutations(support))[:2]
                p = list(v)
                p[i], p[j] = 2, 0
                vectors.append(tuple(p))
    return n, vectors


class TestMaskAgainstDenseOracle:
    @given(dense_generators())
    @settings(max_examples=150)
    def test_operations_order_and_minimalization(self, data):
        n, vectors = data
        monos = [Monomial(v) for v in vectors]
        for a, ma in zip(vectors, monos):
            assert ma.exponents == a and ma.degree == sum(a)
            assert ma.is_squarefree == (max(a) <= 1)
            for b, mb in zip(vectors, monos):
                assert ma.divides(mb) == dense_divides(a, b)
                assert ma.div_by_gcd(mb).exponents == dense_div_by_gcd(a, b)
                assert (ma < mb) == (dense_key(a) < dense_key(b))
        assert [m.exponents for m in sorted(monos)] == sorted(vectors, key=dense_key)
        ideal = MonomialIdeal(n, monos)
        assert [g.exponents for g in ideal.gens] == dense_minimalize(vectors)
        assert [g.index_seq for g in ideal.gens] == [
            dense_key(v)[1] for v in dense_minimalize(vectors)
        ]


class TestMonomial:
    def test_construction_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError):
            Monomial(())
        with pytest.raises(ValidationError):
            Monomial((1, -1))

    def test_divides_basic(self):
        assert mono([1], 2).divides(mono([1, 2], 2))
        assert not mono((1, 1), 1).divides(mono([1], 1))  # X1^2 does not divide X1
        assert mono((), 3).divides(mono([1, 2, 3], 3))

    def test_divides_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mono([1], 2).divides(mono([1], 3))

    @given(monomial_pair())
    def test_div_by_gcd_membership(self, pair):
        a, b = pair
        q = a.div_by_gcd(b)
        assert dense_mul(q.exponents, b.exponents) == dense_lcm(a.exponents, b.exponents)

    def test_from_indices_counts_multiplicity(self):
        assert mono([7, 7], 8).exponents[6] == 2
        with pytest.raises(ValidationError):
            mono([0], 3)
        with pytest.raises(ValidationError):
            mono([4], 3)

    def test_text_forms(self):
        assert mono([3, 5, 12], 12).text() == "X3*X5*X12"
        assert mono([5, 5, 3], 5).text() == "X3*X5^2"
        assert mono([3, 5, 12], 12).compact() == "X3X5X12"
        assert mono((), 4).text() == "1"

    def test_canonical_comparison(self):
        # degree first, then index sequence
        assert mono([1, 2], 3) < mono([1, 2, 3], 3)
        assert mono([1, 2], 3) < mono([1, 3], 3)
        assert Monomial((2, 0, 0)) < mono([1, 2], 3)  # (1,1) before (1,2)


class TestMinimalize:
    def test_drops_divisible_generator(self):
        assert ideal_of(3, (1, 2), (1, 2, 3)) == ideal_of(3, (1, 2))

    def test_keeps_incomparable_generators(self):
        ideal = ideal_of(3, (1, 2), (1, 3), (2, 3))
        assert len(ideal.gens) == 3

    @given(small_ideal())
    def test_idempotent(self, ideal):
        assert MonomialIdeal(ideal.n, ideal.gens) == ideal

    @given(small_ideal(min_gens=1))
    def test_order_insensitive(self, ideal):
        reversed_ideal = MonomialIdeal(ideal.n, reversed(ideal.gens))
        assert reversed_ideal == ideal

    def test_gens_stored_in_canonical_order(self):
        ideal = ideal_of(4, (1, 2, 3), (2, 4), (1, 4))
        assert [g.compact() for g in ideal.gens] == ["X1X4", "X2X4", "X1X2X3"]


class TestColon:
    def test_single_generator_reduction(self):
        ideal = ideal_of(12, (3, 5, 6, 8, 12))
        assert ideal.colon(mono((3, 4, 5, 8, 9, 12), 12)) == ideal_of(12, (6,))

    def test_two_generator_reduction(self):
        ideal = ideal_of(12, (3, 5, 6, 8, 12), (3, 4, 5, 8, 9, 12))
        f = mono((1, 2, 5, 6, 8, 9, 12), 12)
        assert ideal.colon(f) == ideal_of(12, (3,))

    def test_colon_by_unit_is_identity(self):
        ideal = ideal_of(3, (1, 2), (3,))
        assert ideal.colon(mono((), 3)) == ideal

    @given(ideal_with_monomial())
    @settings(max_examples=40)
    def test_membership_equivalence(self, data):
        ideal, f = data
        quot = ideal.colon(f)
        for g in all_monomials(ideal.n, 3):
            e = g.exponents
            assert dense_member(quot, e) == dense_member(ideal, dense_mul(e, f.exponents))


class TestMonomialIdeal:
    def test_zero_and_unit(self):
        zero = MonomialIdeal(3)
        assert zero.is_zero and zero.text() == "(0)"
        unit = MonomialIdeal(3, [mono((), 3), mono([1], 3)])
        assert unit.gens == (mono((), 3),)
        assert unit.text() == "(1)"

    def test_text(self):
        assert ideal_of(3, (1, 2), (1, 3)).text() == "(X1*X2, X1*X3)"

    def test_json_round_trip_with_squares(self):
        ideal = ideal_of(4, (1, 2), (3, 3))
        assert classify_input(ideal.to_json_dict()) == ideal
        with pytest.raises(ValidationError, match='needs the keys "n" and "gens"'):
            classify_input({"gens": [[1]]})

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValidationError):
            MonomialIdeal(3, [mono([1], 2)])
        with pytest.raises(ValidationError):
            ideal_of(3, (1,)).colon(mono([1], 2))


class TestMaskIndices:
    @pytest.mark.parametrize("bits", [
        [],
        [0],
        [7],
        [8],
        list(range(8)),
        list(range(8, 16)),
        [7, 8, 15, 16],
        list(range(64)),
        # a sparse 2^20-bit table: long zero runs, bits on byte edges
        [0, 8, (1 << 19) - 1, 1 << 19, (1 << 20) - 1],
    ])
    def test_edges_against_the_binary_numeral(self, bits):
        mask = sum(1 << b for b in bits)
        assert _mask_indices(mask) == bin_scan_indices(mask) == [b + 1 for b in bits]

    @given(st.integers(0, 1 << 300))
    def test_random_against_the_binary_numeral(self, mask):
        assert _mask_indices(mask) == bin_scan_indices(mask)
