"""Minimal vertex covers and the ideal of vertex covers, by three routes.

The routes are deliberately independent so that each can serve as an oracle
for the others: an exhaustive decision of every subset of the free vertices,
evaluated bit-parallel on Python integers; an intersection of primes, where
the loop primes (X_k) give the factor x^L and each connected component of
G - L meets one star prime (X_v, x^S) per vertex, the meet of the edge
primes (X_v, X_s) for s in S; and a closed form for complete-core-plus-stars
graphs, read off the walk that a ``KPrimeSpec`` builds once. Both graph
routes take a ``LoopGraph`` or a ``KPrimeSpec``: each applies its own guard,
then reads G - L off ``LoopGraph.open_edges`` or off the spec, never expanded.
Each route finds exactly the minimal covers, every loop vertex in each, and
hands them to the ideal as support masks in canonical order, neither
minimalized nor sorted there: the graph routes sort with ``_canonical``, and
the walk yields its covers in order, so no n-bit sort key is built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import combinations, takewhile

from .errors import SizeGuardError, ValidationError
from .graphs import KPrimeSpec, LoopGraph
from .monomials import MonomialIdeal, _canonical, _indices_mask, _mask_indices

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "PatrolSolution",
    "minimal_covers_bruteforce",
    "cover_ideal_by_intersection",
    "kprime_cover_ideal",
    "min_patrols",
]

# Brute force is refused past this many free vertices (a few 2^f-bit tables,
# 4 MB each at f = 25), the intersection route past this many vertices; larger
# block specs go through the closed form.
BRUTE_FORCE_LIMIT = 25
# Brute force also refuses covers * n past this, before building any generator;
# a graph with n <= 25 has at most 8,748 minimal covers (Moon-Moser), so fits.
# The CLI refuses to print a computed cover ideal holding more indices.
_OUTPUT_LIMIT = 1 << 20
# The closed form refuses generators * n past this many mask bits (512 MiB).
_MASK_BITS_LIMIT = 1 << 32


class PatrolSolution(namedtuple("PatrolSolution", "covering_number optimal_covers")):
    """All minimum-cardinality minimal covers as ascending vertex tuples:
    ``covering_number`` (int) and ``optimal_covers`` (tuple[tuple[int, ...], ...])."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "optimal_covers": [list(c) for c in self.optimal_covers]}


def _guard_bruteforce(f: int) -> None:
    if f > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(
            f"brute force refused for f={f} free vertices > {BRUTE_FORCE_LIMIT}; "
            "use the structured closed form"
        )


def _spec_free_count(spec: KPrimeSpec) -> int:
    """The free vertex count f of ``expand_kprime(spec)``, read off the
    walk's omit-one covers, one per unlooped center, of degree |C + L| - 1 + u
    with u its unlooped leaves. A leaf's one edge goes to its center, so it
    is free iff both are unlooped; an unlooped center is free iff another
    center or a leaf of its own block is unlooped."""
    size = len(spec._cl)
    leaves = [degree - size + 1 for degree, _, prev in spec._walk if prev is not None]
    return sum(u + (u > 0 or len(leaves) > 1) for u in leaves)


def _spec_open_edges(spec: KPrimeSpec) -> list[tuple[int, int]]:
    """The edges of G - L for ``expand_kprime(spec)``, read off the spec:
    the core pairs of unlooped centers, and each unlooped center's edges to
    its unlooped leaves. Only the blocks of unlooped centers are walked;
    past either graph route's guard each holds at most 25 unlooped leaves,
    so the walk costs O(m + |L|) and the answer has at most 300 edges."""
    looped = set(spec.loops)
    edges = list(combinations([a for a in spec.alphas if a not in looped], 2))
    prev = 0
    for a in spec.alphas:
        if a not in looped:
            edges += [(v, a) for v in range(prev + 1, a) if v not in looped]
        prev = a
    return edges


_LOW_PATTERNS = (0xAA, 0xCC, 0xF0)


def _membership(k: int, f: int) -> int:
    """The 2^f-bit integer whose bit s is set iff bit k of s is, built from
    a repeated byte pattern: 0xAA, 0xCC or 0xF0 for k < 3, else 2^(k-3)
    zero bytes followed by as many 0xFF bytes."""
    if f < 3:
        return _LOW_PATTERNS[k] & ((1 << (1 << f)) - 1)
    nbytes = 1 << (f - 3)
    if k < 3:
        return int.from_bytes(bytes([_LOW_PATTERNS[k]]) * nbytes, "little")
    run = 1 << (k - 3)
    return int.from_bytes((bytes(run) + b"\xff" * run) * (nbytes // (2 * run)), "little")


def minimal_covers_bruteforce(g: LoopGraph | KPrimeSpec) -> MonomialIdeal:
    """The ideal of vertex covers of a graph or spec, generated by every
    minimal vertex cover, by deciding every subset of the free vertices at
    once. A spec's f is counted before its G - L is read off it.

    Loop vertices are mandatory, so only the f free vertices, those on an
    edge with no looped endpoint, are chosen. Subset s holds free vertex k
    iff bit k of s is set, and a 2^f-bit integer holds one bit per subset:
    ``_membership(k, f)`` has bit s set iff s holds k, and ``nb`` ANDs those
    of k's neighbours. s is a cover iff it holds k or all of k's neighbours,
    for every k; a cover is redundant at k iff it holds k and all of k's
    neighbours, since dropping k leaves a cover. The minimal covers are the
    covers redundant at no vertex. That costs O(|E| * 2^f / 64) machine
    words, with a few 2^f-bit integers live at a time (4 MB each at f = 25),
    so the guard counts f, not n; the answer costs O(n) per cover, so
    ``_OUTPUT_LIMIT`` bounds their product, a popcount, before any is built.
    """
    if isinstance(g, KPrimeSpec):
        _guard_bruteforce(_spec_free_count(g))
        open_edges = _spec_open_edges(g)
    else:
        open_edges = g.open_edges
    free = sorted({v for e in open_edges for v in e})
    f = len(free)
    _guard_bruteforce(f)
    position = {v: k for k, v in enumerate(free)}
    neighbours: list[list[int]] = [[] for _ in free]
    for i, j in open_edges:
        neighbours[position[i]].append(position[j])
        neighbours[position[j]].append(position[i])
    covers = (1 << (1 << f)) - 1
    redundant = 0
    for k, adjacent in enumerate(neighbours):
        has = _membership(k, f)
        nb = _membership(adjacent[0], f)
        for u in adjacent[1:]:
            nb &= _membership(u, f)
        covers &= has | nb
        redundant |= has & nb
    minimal = covers & ~redundant
    count = minimal.bit_count()
    if count * g.n > _OUTPUT_LIMIT:
        raise SizeGuardError(
            f"brute force refused for {count} minimal covers x n={g.n} > "
            f"{_OUTPUT_LIMIT} output slots; use the structured closed form"
        )
    loop_mask = _indices_mask(g.loops)
    bits = [1 << (v - 1) for v in free]
    # subset s is the set bit at 1-based position s + 1 of the table
    return MonomialIdeal._trusted(g.n, _canonical(
        loop_mask | sum(b for k, b in enumerate(bits) if (p - 1) >> k & 1)
        for p in _mask_indices(minimal)
    ))


def _star_step(gens: list[int], v: int, ends: int) -> list[int]:
    """The minimal generators of (gens) intersected with (X_v, x^S), where
    S = ``ends`` is v's unvisited neighbours and ``gens`` lists the minimal
    covers of the edges already intersected; see cover_ideal_by_intersection."""
    bv = 1 << v
    rests = []
    hold_s = []
    miss = []
    for m in gens:
        if m & bv:
            rests.append(m ^ bv)
        elif ends & ~m:
            miss.append(m)
        else:
            hold_s.append(m)
    # m | v is new iff every rest r has a bit outside m: all(r & ~m)
    out = [m | bv for m in miss if all(map((~m).__and__, rests))]
    out += [r | bv for r in rests]  # the generators holding v
    # by ascending degree, so only a smaller product can lie inside p;
    # hold_s grows by each product kept
    for p in sorted([m | ends for m in miss], key=int.bit_count):
        if all(map((~p).__and__, hold_s)):
            hold_s.append(p)
    return out + hold_s


def cover_ideal_by_intersection(g: LoopGraph | KPrimeSpec) -> MonomialIdeal:
    """The ideal of vertex covers of a graph or spec: the intersection of
    one prime per edge and one principal ideal per loop, on support masks.

    The loop ideals intersect to the single generator x^L, which divides
    every later generator, so an edge at a loop never changes the result and
    the edge primes run on G - L only: ``g.open_edges``, or on a spec the
    edges read off it once n passes the guard. The cover ideal of a disjoint
    union is the product of its components' cover ideals, so each
    connected component of G - L is intersected on its own, from the unit
    ideal, and the answer is x^L times one generator per component: such
    products are minimal and distinct, since the components share no vertex.

    Within a component the edge primes run star by star: vertices by
    descending degree in G - L, ties by index. The primes (X_v, X_s) for
    the vertices s of S, v's neighbours not yet visited, meet in the one
    star prime (X_v, x^S), so each vertex takes one step. A step keeps
    every generator that holds v or all of S, and replaces each other
    generator m by m*X_v and m*x^S:

    * m*X_v is kept unless a kept h that holds v has h - v inside m;
    * m*x^S is kept unless a kept generator that holds S, or a smaller
      kept product m'*x^S, lies inside it. Products are taken by
      ascending degree, since products of equal degree never divide each
      other;
    * nothing else can divide a product, nor a product a kept generator.

    No two products m*x^S coincide: were m*x^S = m'*x^S with m != m', the
    two would differ only inside S, so some u in S would lie in m but not
    m'. m is a minimal cover of the edges already intersected, so one of
    them joins u to a w outside m, and m' must hold w; then u and w both lie
    in S, unvisited, yet every edge already intersected has a visited end.
    The generators stay minimal and distinct after every step, so the
    answer is built without a second minimalization.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(f"prime intersection refused for n={g.n} > {BRUTE_FORCE_LIMIT}; "
                             "use the structured closed form")
    adjacent = [0] * g.n
    for i, j in _spec_open_edges(g) if isinstance(g, KPrimeSpec) else g.open_edges:
        adjacent[i - 1] |= 1 << (j - 1)
        adjacent[j - 1] |= 1 << (i - 1)
    # sorted() is stable, so equal degrees keep ascending index
    order = sorted(range(g.n), key=lambda v: -adjacent[v].bit_count())
    gens = [_indices_mask(g.loops)]
    visited = 0
    for root in order:
        if visited >> root & 1 or not adjacent[root]:
            continue
        component = frontier = 1 << root
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached = adjacent[low.bit_length() - 1] & ~component
            component |= reached
            frontier |= reached
        part = [0]
        for v in order:
            if component >> v & 1:
                visited |= 1 << v
                ends = adjacent[v] & ~visited
                if ends:
                    part = _star_step(part, v, ends)
        gens = [m | p for m in gens for p in part]
    return MonomialIdeal._trusted(g.n, _canonical(gens))


def _walk_cover(cl: tuple[int, ...], key: int, prev: int | None) -> tuple[int, ...]:
    """A walk entry's cover as ascending indices, ``cl`` being C + L sorted:
    an omit-one cover of center a swaps cl's part in (prev, a] for (prev, a)."""
    if prev is None:
        return cl
    a = abs(key)
    return (*cl[:bisect_right(cl, prev)], *range(prev + 1, a), *cl[bisect_right(cl, a):])


def kprime_cover_ideal(spec: KPrimeSpec) -> MonomialIdeal:
    """Closed-form ideal of vertex covers for a block spec; no enumeration.
    The walk's masks, in its canonical order: C + L, with an omit-one
    cover's center cleared by one XOR and its leaves (prev, a) ORed in.
    Their t * n bits are bounded by ``_MASK_BITS_LIMIT`` before any exists."""
    t = len(spec._walk)
    if t * spec.n > _MASK_BITS_LIMIT:
        raise SizeGuardError(f"closed form refused for {t} generators x n={spec.n} > "
                             f"{_MASK_BITS_LIMIT} mask bits")
    base = _indices_mask(spec._cl)
    masks = []
    for _, key, prev in spec._walk:
        center = 0 if prev is None else 1 << (abs(key) - 1)
        masks.append((base ^ center) | (center - (1 << prev)) if center else base)
    return MonomialIdeal._trusted(spec.n, masks)


def min_patrols(source: KPrimeSpec | MonomialIdeal) -> PatrolSolution:
    """Minimum-size minimal covers: the supports of the lowest-degree
    generators of the ideal of vertex covers.

    Accepts a KPrimeSpec, or a MonomialIdeal that already is an ideal of
    vertex covers; for a LoopGraph g, pass ``cover_ideal_by_intersection(g)``.
    An ideal with nothing to cover, the unit ideal, yields covering number 0
    with the empty cover. Both read the lowest degree off the front of the
    canonical order, an ideal's masks or a spec's walk, whose covers of that
    degree alone are built, as index tuples, after the ``_OUTPUT_LIMIT`` guard.
    """
    if isinstance(source, KPrimeSpec):
        best = source._walk[0][0]
        lowest = list(takewhile(lambda e: e[0] == best, source._walk))
    elif not isinstance(source, MonomialIdeal):
        raise ValidationError(f"cannot compute patrols for {type(source).__name__}")
    elif source.is_zero:
        raise ValidationError("the zero ideal covers nothing")
    else:
        best = source.masks[0].bit_count()
        lowest = list(takewhile(lambda m: m.bit_count() == best, source.masks))
    if (size := best * len(lowest)) > _OUTPUT_LIMIT:
        raise SizeGuardError(f"the optimal covers hold {size} indices > {_OUTPUT_LIMIT}, "
                             "too many to print")
    if isinstance(source, KPrimeSpec):
        return PatrolSolution(best, tuple(_walk_cover(source._cl, key, prev)
                                          for _, key, prev in lowest))
    return PatrolSolution(best, tuple(tuple(_mask_indices(m)) for m in lowest))
