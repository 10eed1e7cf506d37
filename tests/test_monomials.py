"""Monomial and monomial-ideal arithmetic, checked against enumeration oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverideals import Monomial, MonomialIdeal, ValidationError, cli
from coverideals.cli import classify_input
from coverideals.monomials import _mask_indices
from helpers import (
    all_monomials,
    bin_scan_indices,
    dense_div_by_gcd,
    dense_divides,
    dense_gens,
    dense_indices,
    dense_key,
    dense_lcm,
    dense_member,
    dense_minimalize,
    dense_mul,
    dense_vector,
    ideal_of,
    input_gens,
    mono,
    polarized,
)


def polarize(n, vectors):
    """The CLI's polarization of exponent vectors in n variables, all in one
    ring: the squarefree monomials and a map back to exponent vectors."""
    monos, copies = cli._polarize(n, [dense_indices(v) for v in vectors])
    return monos, lambda m: dense_vector(cli._indices(m, copies), n)


@st.composite
def monomial_pair(draw, max_n=5, max_e=3):
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n).map(tuple)
    return n, draw(vec), draw(vec)


@st.composite
def small_ideal(draw, max_n=4, max_e=2, max_gens=4, min_gens=0):
    """An ideal with exponents up to max_e, polarized by the CLI."""
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n)
    gens = draw(st.lists(vec, min_size=min_gens, max_size=max_gens))
    return polarized(n, [dense_indices(v) for v in gens]).ideal


@st.composite
def ideal_with_monomial(draw, max_n=4, max_e=2, max_gens=4):
    """Exponent vectors of generators and of one more monomial f."""
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(vec, max_size=max_gens)), draw(vec)


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
    """Squarefree vectors go to the library as they are; vectors with a power
    go through the CLI's polarization and are mapped back to compare."""

    @given(dense_generators())
    @settings(max_examples=150)
    def test_operations_order_and_minimalization(self, data):
        n, vectors = data
        for v in vectors:
            if max(v) <= 1:
                assert Monomial(v).support == dense_indices(v)
            else:
                with pytest.raises(ValidationError):
                    Monomial(v)
        monos, back = polarize(n, vectors)
        for a, ma in zip(vectors, monos):
            assert back(ma) == a and ma.degree == sum(a)
            for b, mb in zip(vectors, monos):
                assert ma.divides(mb) == dense_divides(a, b)
                assert back(ma.div_by_gcd(mb)) == dense_div_by_gcd(a, b)
                assert (ma < mb) == (dense_key(a) < dense_key(b))
        assert [back(m) for m in sorted(monos)] == sorted(vectors, key=dense_key)
        ring = monos[0].n
        assert [back(g) for g in MonomialIdeal(ring, monos).gens] == dense_minimalize(vectors)
        parsed = polarized(n, [dense_indices(v) for v in vectors])
        assert dense_gens(*parsed) == dense_minimalize(vectors)
        assert input_gens(parsed) == [list(dense_indices(v)) for v in dense_minimalize(vectors)]


class TestMonomial:
    def test_construction_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError):
            Monomial(())
        with pytest.raises(ValidationError):
            Monomial((1, -1))

    def test_construction_rejects_powers(self):
        with pytest.raises(ValidationError, match="exponent 0 or 1"):
            Monomial((2, 0, 0))

    def test_divides_basic(self):
        assert mono([1], 2).divides(mono([1, 2], 2))
        (square, x1), _ = polarize(1, [(2,), (1,)])
        assert not square.divides(x1) and x1.divides(square)  # X1^2 does not divide X1
        assert mono((), 3).divides(mono([1, 2, 3], 3))

    def test_divides_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mono([1], 2).divides(mono([1], 3))

    @given(monomial_pair())
    def test_div_by_gcd_membership(self, pair):
        n, a, b = pair
        (ma, mb), back = polarize(n, [a, b])
        q = back(ma.div_by_gcd(mb))
        assert dense_mul(q, b) == dense_lcm(a, b)

    def test_from_indices_counts_multiplicity(self):
        # the library refuses a repeated index; the CLI polarizes it into
        # X7 and its copy, which prints as X7 again
        with pytest.raises(ValidationError, match="index repeats"):
            mono([7, 7], 8)
        (m,), copies = cli._polarize(8, [[7, 7]])
        assert (m.n, m.support, copies) == (9, (7, 8), (8,))
        assert cli._indices(m, copies) == [7, 7]
        with pytest.raises(ValidationError):
            mono([0], 3)
        with pytest.raises(ValidationError):
            mono([4], 3)

    def test_text_forms(self):
        assert mono([3, 5, 12], 12).text() == "X3*X5*X12"
        (m,), copies = cli._polarize(5, [[5, 5, 3]])
        assert cli._compact(m, copies) == "X3X5^2"
        assert mono([3, 5, 12], 12).compact() == "X3X5X12"
        assert mono((), 4).text() == "1"

    def test_canonical_comparison(self):
        # degree first, then index sequence
        assert mono([1, 2], 3) < mono([1, 2, 3], 3)
        assert mono([1, 2], 3) < mono([1, 3], 3)
        (square, x1x2), _ = polarize(3, [(2, 0, 0), (1, 1, 0)])
        assert square < x1x2  # (1,1) before (1,2)


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
        # the ideal and f are polarized in one ring, as the CLI does
        n, vectors, f = data
        monos, back = polarize(n, vectors + [f])
        ring = monos[-1].n
        quot = [back(g) for g in MonomialIdeal(ring, monos[:-1]).colon(monos[-1]).gens]
        for e in all_monomials(n, 3):
            assert dense_member(quot, e) == dense_member(vectors, dense_mul(e, f))


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
        ideal = ideal_of(4, (1, 2), (3, 4))
        assert classify_input(ideal.to_json_dict()) == (ideal, ())
        # X3^2 is polarized into X3 and its copy, the new X4; X4 becomes X5
        parsed = classify_input({"n": 4, "gens": [[1, 2], [3, 3]]})
        assert parsed == (ideal_of(5, (1, 2), (3, 4)), (4,))
        assert cli._ideal_json(*parsed) == {"n": 4, "gens": [[1, 2], [3, 3]]}
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
