"""Generator and monomial-ideal arithmetic, checked against enumeration oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverideals import (
    KPrimeSpec,
    LoopGraph,
    MonomialIdeal,
    ValidationError,
    check_linear_quotients,
    cli,
)
from coverideals.cli import classify_input
from coverideals.monomials import (
    _canonical,
    _indices_mask,
    _mask_indices,
    _minimal_masks,
    _support_mask,
)
from helpers import (
    FIVE_CENTER_GENS,
    all_monomials,
    bin_scan_indices,
    dense_check_linear_quotients,
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
    ring: its size, the support mask of each vector, and a map from an index
    sequence back to its exponent vector."""
    masks, copies = cli._polarize([dense_indices(v) for v in vectors])
    ring = n + len(copies)
    assert all(m >> ring == 0 for m in masks)  # every polarized mask lies in the ring
    return ring, masks, lambda g: dense_vector(cli._indices(g, copies), n)


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
def ideal_with_order(draw, max_n=4, max_e=2, max_gens=5):
    """Exponent vectors of generators polarized in one ring, the map back,
    the minimal ideal they generate, and an order of its generators."""
    n = draw(st.integers(1, max_n))
    vec = st.lists(st.integers(0, max_e), min_size=n, max_size=n).map(tuple)
    vectors = draw(st.lists(vec, min_size=1, max_size=max_gens))
    ring, masks, back = polarize(n, vectors)
    ideal = MonomialIdeal(ring, map(_mask_indices, masks))
    return n, back, ideal, draw(st.permutations(ideal.gens))


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
                assert MonomialIdeal(n, [dense_indices(v)]).gens == (dense_indices(v),)
            else:
                with pytest.raises(ValidationError):
                    MonomialIdeal(n, [dense_indices(v)])
        ring, masks, back = polarize(n, vectors)
        for a, ma in zip(vectors, masks):
            assert back(_mask_indices(ma)) == a and ma.bit_count() == sum(a)
            for b, mb in zip(vectors, masks):
                # divisibility and the colon reduction are a & ~b on masks
                assert (not ma & ~mb) == dense_divides(a, b)
                assert back(_mask_indices(ma & ~mb)) == dense_div_by_gcd(a, b)
        canonical = [back(_mask_indices(m)) for m in _canonical(masks)]
        assert canonical == sorted(vectors, key=dense_key)
        ideal = MonomialIdeal(ring, map(_mask_indices, masks))
        assert [back(g) for g in ideal.gens] == dense_minimalize(vectors)
        # every step of the reversed order, non-linear ones included
        order = ideal.gens[::-1]
        cert = check_linear_quotients(ideal, order)
        steps = tuple(tuple(map(back, s.gens)) for s in cert.steps)
        assert ((tuple(map(back, order)), steps, cert.q, cert.linear)
                == dense_check_linear_quotients(map(back, order)))
        parsed = polarized(n, [dense_indices(v) for v in vectors])
        assert dense_gens(*parsed) == dense_minimalize(vectors)
        assert input_gens(parsed) == [list(dense_indices(v)) for v in dense_minimalize(vectors)]


class TestMonomial:
    """A generator crosses the API as a tuple of distinct 1-based indices,
    checked by ``MonomialIdeal(n, gens)``, and is a support mask inside."""

    def test_construction_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError, match="positive"):
            MonomialIdeal(0, [()])
        with pytest.raises(ValidationError, match="index -1 outside 1..3"):
            MonomialIdeal(3, [(1, -1)])
        unit = MonomialIdeal(3, [()])
        assert (unit.n, unit.masks, unit.gens) == (3, (0,), ((),))

    def test_construction_rejects_powers(self):
        with pytest.raises(ValidationError, match="index repeats"):
            MonomialIdeal(3, [(2,), (1, 1)])

    def test_string_indices_are_refused(self):
        # as LoopGraph vertices are; the CLI admits only JSON integers
        with pytest.raises(ValidationError, match="'str' object cannot be interpreted"):
            MonomialIdeal(3, [("2", "1")])
        with pytest.raises(ValidationError):
            MonomialIdeal("3", [(1,)])

    def test_constructors_refuse_floats_instead_of_truncating(self):
        # int() truncated each of these: X1, n = 2, edge (1, 2), a loop at 2,
        # centers (1, 3)
        for build in (lambda: MonomialIdeal(3, [(1.9,)]), lambda: MonomialIdeal(2.5),
                      lambda: LoopGraph(3, [(1.5, 2)]), lambda: LoopGraph(3, [], [2.0]),
                      lambda: KPrimeSpec([1.5, 3])):
            with pytest.raises(ValidationError, match="'float' object cannot be interpreted"):
                build()

    def test_bools_are_integers(self):
        # Python's integer protocol admits them: True is index 1
        ideal = MonomialIdeal(3, [(True, 2)])
        assert ideal == ideal_of(3, (1, 2)) and type(ideal.gens[0][0]) is int

    def test_divides_basic(self):
        # a divides b iff a & ~b == 0
        assert not _support_mask([1], 2) & ~_support_mask([1, 2], 2)
        _, (square, x1), _ = polarize(1, [(2,), (1,)])
        assert square & ~x1 and not x1 & ~square  # X1^2 does not divide X1
        assert not _support_mask((), 3) & ~_support_mask([1, 2, 3], 3)

    def test_divides_dimension_mismatch(self):
        # an index tuple carries no ring: an order entry is checked in the
        # ideal's ring with the constructor's checks, so (1, 1) is not X1
        ideal = ideal_of(2, (1,))
        with pytest.raises(ValidationError, match="index 3 outside 1..2"):
            check_linear_quotients(ideal, [(3,)])
        with pytest.raises(ValidationError, match="index repeats"):
            check_linear_quotients(ideal, [(1, 1)])
        assert check_linear_quotients(ideal, [[1]]) == (((1,),), (), 0, True)

    @given(monomial_pair())
    def test_div_by_gcd_membership(self, pair):
        # u / gcd(u, v) is the mask u & ~v
        n, a, b = pair
        _, (ma, mb), back = polarize(n, [a, b])
        q = back(_mask_indices(ma & ~mb))
        assert dense_mul(q, b) == dense_lcm(a, b)

    def test_from_indices_counts_multiplicity(self):
        # the library refuses a repeated index; the CLI polarizes it into
        # X7 and its copy, which prints as X7 again
        with pytest.raises(ValidationError, match="index repeats"):
            mono([7, 7], 8)
        (m,), copies = cli._polarize([[7, 7]])
        assert (_mask_indices(m), copies) == ([7, 8], (8,))
        assert cli._indices(_mask_indices(m), copies) == [7, 7]
        with pytest.raises(ValidationError):
            MonomialIdeal(3, [[0]])
        with pytest.raises(ValidationError):
            MonomialIdeal(3, [[4]])


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
        assert ideal.gens == ((1, 4), (2, 4), (1, 2, 3))
        assert ideal_of(4, (2, 4), (1, 4), (1, 2, 3)).gens == ideal.gens


class TestColon:
    """The colon steps (u_1..u_{j-1}) : (u_j) of ``check_linear_quotients``."""

    def test_single_generator_reduction(self):
        ideal = ideal_of(12, *FIVE_CENTER_GENS[:2])
        cert = check_linear_quotients(ideal, ideal.gens)
        assert cert.steps == (ideal_of(12, (6,)),)

    def test_two_generator_reduction(self):
        ideal = ideal_of(12, *FIVE_CENTER_GENS)
        cert = check_linear_quotients(ideal, ideal.gens)
        assert cert.steps[1] == ideal_of(12, (3,))

    def test_colon_by_unit_is_identity(self):
        # the unit reduces nothing: v & ~0 == v; a generator coprime to its
        # prefix acts alike, so that step is the prefix itself
        ideal = ideal_of(3, (1, 2), (3,))
        assert _minimal_masks(m & ~0 for m in ideal.masks) == ideal.masks
        order = [(1, 2), (3,), (4, 5)]
        cert = check_linear_quotients(ideal_of(5, (1, 2), (3,), (4, 5)), order)
        assert cert.steps[1] == ideal_of(5, (1, 2), (3,)) and not cert.linear

    @given(ideal_with_order())
    @settings(max_examples=40)
    def test_membership_equivalence(self, data):
        # the generators are polarized in one ring, as the CLI does, and
        # each step is mapped back: e lies in it iff e * u_j lies in the prefix
        n, back, ideal, order = data
        cert = check_linear_quotients(ideal, order)
        for j, step in enumerate(cert.steps, start=1):
            quot = [back(g) for g in step.gens]
            prefix = [back(u) for u in order[:j]]
            u = back(order[j])
            for e in all_monomials(n, 3):
                assert dense_member(quot, e) == dense_member(prefix, dense_mul(e, u))


class TestMonomialIdeal:
    def test_zero_and_unit(self):
        zero = MonomialIdeal(3)
        assert zero.is_zero and repr(zero) == "MonomialIdeal(n=3, gens=())"
        unit = MonomialIdeal(3, [(), [1]])
        assert unit.gens == ((),)
        assert repr(unit) == "MonomialIdeal(n=3, gens=((),))"

    def test_text(self):
        # the text form of an ideal is its repr, the constructor call
        ideal = ideal_of(3, (1, 3), (1, 2))
        assert repr(ideal) == "MonomialIdeal(n=3, gens=((1, 2), (1, 3)))"

    @given(small_ideal())
    def test_repr_round_trips_through_eval(self, ideal):
        for i in (ideal, MonomialIdeal(ideal.n), MonomialIdeal(ideal.n, [()])):
            assert eval(repr(i), {"MonomialIdeal": MonomialIdeal}) == i

    def test_json_round_trip_with_squares(self):
        ideal = ideal_of(4, (1, 2), (3, 4))
        assert classify_input(ideal.to_json_dict()) == (ideal, ())
        # X3^2 is polarized into X3 and its copy, the new X4; X4 becomes X5
        parsed = classify_input({"n": 4, "gens": [[1, 2], [3, 3]]})
        assert parsed == (ideal_of(5, (1, 2), (3, 4)), (4,))
        assert cli._ideal_json(*parsed) == {"n": 4, "gens": [[1, 2], [3, 3]]}
        with pytest.raises(ValidationError, match='needs the keys "n" and "gens"'):
            classify_input({"gens": [[1]]})


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
        # the one-word path ends at 64 bits, index 64; the byte path starts at index 65
        [62],
        list(range(63)),
        [63],
        [0, 63],
        [64],
        [63, 64],
        list(range(65)),
    ])
    def test_edges_against_the_binary_numeral(self, bits):
        mask = sum(1 << b for b in bits)
        assert _mask_indices(mask) == bin_scan_indices(mask) == [b + 1 for b in bits]
        assert _indices_mask(b + 1 for b in bits) == mask

    @pytest.mark.parametrize("indices, mask", [
        ([1, 1], 1),  # an OR: cm-check --loops 1,1 names vertex 1 once
        ([64, 64, 1], 1 | 1 << 63),
        ([65, 65, 1], 1 | 1 << 64),
        ([], 0),
    ])
    def test_a_repeated_index_sets_its_bit_once(self, indices, mask):
        assert _indices_mask(indices) == mask

    @given(st.integers(0, 1 << 300))
    def test_random_against_the_binary_numeral(self, mask):
        assert _mask_indices(mask) == bin_scan_indices(mask)
        assert _indices_mask(_mask_indices(mask)) == mask


class TestCanonical:
    @given(st.lists(st.one_of(
        st.integers(0, 1 << 130),
        st.frozensets(st.integers(0, 129), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
    ), max_size=30))
    def test_degree_then_index_tuple(self, masks):
        # masks past 64 bits included; few bits from a wide range force ties
        def key(mask):
            return mask.bit_count(), [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]
        assert _canonical(masks) == sorted(masks, key=key)
