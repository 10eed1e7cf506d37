"""Minimal vertex covers and the ideal of vertex covers, by three routes.

A loop puts its vertex in every cover, so J(G, L) = x^L * J(G - L), and only
the f free vertices, those on an edge of G - L, are chosen. Both graph
routes take a ``LoopGraph`` or a ``KPrimeSpec`` and read G - L through
``_free_graph``, never expanding a spec: it refuses f > ``BRUTE_FORCE_LIMIT``
(a spec's f counted off its walk before any edge is read), then gives each
free vertex's closed neighbourhood as a mask of free-vertex positions.
Beyond that the routes are deliberately independent, so that each can serve
as an oracle for the others: brute force decides every subset of the free
vertices at once, bit-parallel on Python integers, in O(f * 2^f / 64)
machine words; the intersection route lists each connected component's
minimal covers, the complements of its maximal independent sets. Both
hand one list of position masks per part to ``_cover_ideal``, which guards
the output, multiplies the parts, lifts positions to vertex indices and
adds x^L, then sorts with ``_canonical``.
The closed form for complete-core-plus-stars graphs reads the walk that a
``KPrimeSpec`` builds once, which yields its covers in canonical order as
index tuples (``_walk_covers``); only ``kprime_cover_ideal`` builds their
n-bit masks. Each route finds exactly the minimal covers, every loop vertex
in each, and hands them to the ideal as support masks in canonical order,
neither minimalized nor sorted there.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import reduce
from itertools import chain, combinations, takewhile
from math import prod

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

# Both graph routes refuse past this many free vertices, brute force keeping a
# few 2^f-bit tables live (4 MB each at f = 25); larger block specs go through
# the closed form.
BRUTE_FORCE_LIMIT = 25
# Both graph routes refuse covers * n past this before building a generator;
# at f <= 25 there are at most 8,748 minimal covers (Moon-Moser), so only a
# large n is refused. ``_walk_covers`` refuses a spec's indices past it.
_OUTPUT_LIMIT = 1 << 20
# A caller refuses past this many bits (512 MiB) in the masks it builds:
# ``kprime_cover_ideal`` counts generators * n, a linear order its steps.
_MASK_BITS_LIMIT = 1 << 32


class PatrolSolution(namedtuple("PatrolSolution", "covering_number optimal_covers")):
    """All minimum-cardinality minimal covers as ascending vertex tuples:
    ``covering_number`` (int) and ``optimal_covers`` (tuple[tuple[int, ...], ...])."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "optimal_covers": [list(c) for c in self.optimal_covers]}


def _spec_free_count(spec: KPrimeSpec) -> int:
    """The free vertex count f of the spec's graph, read off the
    walk's omit-one covers, one per unlooped center, of degree |C + L| - 1 + u
    with u its unlooped leaves. A leaf's one edge goes to its center, so it
    is free iff both are unlooped; an unlooped center is free iff another
    center or a leaf of its own block is unlooped."""
    size = len(spec._cl)
    leaves = [degree - size + 1 for degree, _, prev in spec._walk if prev is not None]
    return sum(u + (u > 0 or len(leaves) > 1) for u in leaves)


def _spec_open_edges(spec: KPrimeSpec) -> list[tuple[int, int]]:
    """The edges of G - L for the spec's graph, read off the spec:
    the core pairs of unlooped centers, and each unlooped center's edges to
    its unlooped leaves. Only the blocks of unlooped centers are walked;
    past the f guard each holds at most 25 unlooped leaves, so the walk
    costs O(m + |L|) and the answer has at most 300 edges."""
    looped = set(spec.loops)
    edges = list(combinations([a for a in spec.alphas if a not in looped], 2))
    prev = 0
    for a in spec.alphas:
        if a not in looped:
            edges += [(v, a) for v in range(prev + 1, a) if v not in looped]
        prev = a
    return edges


def _free_graph(g: LoopGraph | KPrimeSpec, route: str) -> tuple[list[int], dict[int, int]]:
    """G - L on its free vertices, read once f passes the guard: each free
    vertex's closed neighbourhood as a mask of positions, position k being
    the k-th smallest free vertex, and the runs that lift a position mask to
    vertex indices. A run of consecutive free vertices shares one shift, so
    ``runs`` maps each shift to the mask of its positions, and a lift costs
    one AND and one shift per run, never O(n)."""
    spec = isinstance(g, KPrimeSpec)
    if not spec and not isinstance(g, LoopGraph):
        raise ValidationError(f"{route} takes a LoopGraph or a KPrimeSpec, not {type(g).__name__}")
    f = _spec_free_count(g) if spec else 0  # a spec's f is counted before any edge is read
    if f <= BRUTE_FORCE_LIMIT:
        open_edges = _spec_open_edges(g) if spec else g.open_edges
        f = len(free := sorted(set(chain.from_iterable(open_edges))))
    if f > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(f"{route} refused for f={f} free vertices > {BRUTE_FORCE_LIMIT}; "
                             "use the structured closed form")
    bit, runs = {}, {}
    for k, v in enumerate(free):
        bit[v] = 1 << k
        runs[v - 1 - k] = runs.get(v - 1 - k, 0) | 1 << k
    closed = dict(bit)  # in ascending order of free vertices, so of positions
    for i, j in open_edges:
        closed[i] |= bit[j]
        closed[j] |= bit[i]
    return list(closed.values()), runs


def _cover_ideal(g: LoopGraph | KPrimeSpec, route: str, runs: dict[int, int],
                 parts: list[list[int]]) -> MonomialIdeal:
    """x^L times one minimal cover of each part, given as position masks,
    lifted to vertex indices. The parts share no free vertex, so these
    products are minimal and distinct; their count times n is bounded by
    ``_OUTPUT_LIMIT`` before any generator is built."""
    count = prod(map(len, parts))
    if count * g.n > _OUTPUT_LIMIT:
        raise SizeGuardError(
            f"{route} refused for {count} minimal covers x n={g.n} > "
            f"{_OUTPUT_LIMIT} output slots; use the structured closed form"
        )
    covers = reduce(lambda left, part: [c | p for c in left for p in part], parts or [[0]])
    lifted = [_indices_mask(g.loops)] * count
    for shift, mask in runs.items():
        lifted = [m | (c & mask) << shift for m, c in zip(lifted, covers)]
    return MonomialIdeal._trusted(g.n, _canonical(lifted))


def _supersets(a: int, f: int) -> int:
    """The 2^f-bit integer whose bit s is set iff s holds every bit of a,
    built by doubling: the table over positions below u + 1 is the one over
    positions below u, shifted up by 2^u, with its low half kept iff a
    lacks bit u."""
    table = 1
    for u in range(f):
        table = (0 if a >> u & 1 else table) | table << (1 << u)
    return table


def minimal_covers_bruteforce(g: LoopGraph | KPrimeSpec) -> MonomialIdeal:
    """The ideal of vertex covers of a graph or spec, generated by every
    minimal vertex cover, by deciding every subset of the free vertices at
    once.

    Subset s holds free vertex k iff bit k of s is set, so s is a position
    mask, and a 2^f-bit integer holds one bit per subset: ``has`` has bit s
    set iff s holds k, and ``nb`` iff s holds all of k's neighbours, each
    one ``_supersets`` table. s is a cover iff it holds k or all of k's
    neighbours, for every k; a cover is redundant at k iff it holds k and
    all of k's neighbours, since dropping k leaves a cover. The minimal
    covers are the covers redundant at no vertex. That costs O(f * 2^f / 64)
    machine words, with a few 2^f-bit integers live at a time (4 MB each at
    f = 25).
    """
    closed, runs = _free_graph(g, "brute force")
    f = len(closed)
    covers = (1 << (1 << f)) - 1
    redundant = 0
    for k, near in enumerate(closed):
        has, nb = _supersets(1 << k, f), _supersets(near ^ 1 << k, f)
        covers &= has | nb
        redundant |= has & nb
    # subset s is the set bit at 1-based position s + 1 of the table
    return _cover_ideal(g, "brute force", runs,
                        [[p - 1 for p in _mask_indices(covers & ~redundant)]])


def _component_covers(closed: list[int], component: int) -> list[int]:
    """The minimal covers of one connected component of G - L as position
    masks: the complements of its maximal independent sets, listed by
    Bron-Kerbosch on a stack. ``chosen`` is independent, ``cand`` holds the
    vertices that may still join it, and ``done`` those that may join but
    were branched on already, so ``chosen`` is maximal, and new, once both
    are empty. Every maximal extension holds a candidate in the closed
    neighbourhood of any vertex of ``cand | done``, so only those are
    branched on, for a pivot that leaves the fewest (Tomita, Tanaka and
    Takahashi, TCS 363, 2006), or the first that leaves at most one: then
    each branch still drops at least as many candidates as there are
    branches, so the bound O(3^(f/3)) of their proof, the Moon-Moser count,
    holds."""
    covers, stack = [], [(0, component, 0)]
    while stack:
        chosen, cand, done = stack.pop()
        while cand:
            fewest, pool = cand.bit_count() + 1, cand | done
            while pool:
                low = pool & -pool
                pool ^= low
                near = cand & closed[low.bit_length() - 1]
                if (size := near.bit_count()) < fewest:
                    branches, fewest = near, size
                    if size < 2:
                        break
            if not fewest:  # a vertex of done sees no candidate: nothing new is maximal here
                break
            while (low := branches & -branches) != branches:
                near = closed[low.bit_length() - 1]
                stack.append((chosen | low, cand & ~near, done & ~near))
                cand, done, branches = cand ^ low, done | low, branches ^ low
            near = closed[low.bit_length() - 1]  # the last branch is followed in place
            chosen, cand, done = chosen | low, cand & ~near, done & ~near
        else:
            if not done:
                covers.append(component ^ chosen)
    return covers


def cover_ideal_by_intersection(g: LoopGraph | KPrimeSpec) -> MonomialIdeal:
    """The ideal of vertex covers of a graph or spec: the intersection of
    one prime per edge and one principal ideal per loop.

    The loop ideals intersect to x^L, which divides every later generator,
    so only the edge primes of G - L count. They intersect to the ideal of
    the minimal covers of G - L, and the cover ideal of a disjoint union is
    the product of its components' cover ideals. So each connected component
    of G - L lists its minimal covers on its own, and the answer is x^L
    times one cover per component.
    """
    closed, runs = _free_graph(g, "prime intersection")
    parts, rest = [], (1 << len(closed)) - 1
    while rest:
        component = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached = closed[low.bit_length() - 1] & ~component
            component |= reached
            frontier |= reached
        rest ^= component
        parts.append(_component_covers(closed, component))
    return _cover_ideal(g, "prime intersection", runs, parts)


def _walk_cover(cl: tuple[int, ...], key: int, prev: int | None) -> tuple[int, ...]:
    """A walk entry's cover as ascending indices, ``cl`` being C + L sorted:
    an omit-one cover of center a swaps cl's part in (prev, a] for (prev, a)."""
    if prev is None:
        return cl
    a = abs(key)
    return (*cl[:bisect_right(cl, prev)], *range(prev + 1, a), *cl[bisect_right(cl, a):])


def _walk_covers(spec: KPrimeSpec) -> list[tuple[int, ...]]:
    """The spec's minimal covers as index tuples, in canonical order; refused
    past ``_OUTPUT_LIMIT`` indices, summed off the walk before any is built."""
    if (size := sum(degree for degree, _, _ in spec._walk)) > _OUTPUT_LIMIT:
        raise SizeGuardError(f"the ideal holds {size} indices > {_OUTPUT_LIMIT}, too many to print")
    return [_walk_cover(spec._cl, key, prev) for _, key, prev in spec._walk]


def _walk_linear_order(spec: KPrimeSpec) -> tuple[list[tuple[int, ...]], list[int]]:
    """The walk's covers as index tuples, C + L moved up to second place, and
    each later step's one variable as a mask: X_a for the omit-one cover of
    center a; for C + L, the first cover's one unlooped leaf (its u is 1).
    A step's mask holds at most as many bits as its center's index, so the
    centers' sum is bounded by ``_MASK_BITS_LIMIT`` before any step is built."""
    order, walk = _walk_covers(spec), spec._walk
    if (bits := sum(abs(key) for _, key, prev in walk if prev is not None)) > _MASK_BITS_LIMIT:
        raise SizeGuardError(f"the linear order's steps hold {bits} mask bits > {_MASK_BITS_LIMIT}")
    top = next((i for i, (_, _, prev) in enumerate(walk) if prev is None), 0)
    if top > 1:  # the other covers keep their order, and so do their steps
        order.insert(1, order.pop(top))
    steps = [1 << (abs(key) - 1) for _, key, prev in walk[1:] if prev is not None]
    if top:
        steps.insert(0, _indices_mask(set(order[0]).difference(spec._cl)))
    return order, steps


def kprime_cover_ideal(spec: KPrimeSpec) -> MonomialIdeal:
    """Closed-form ideal of vertex covers for a block spec; no enumeration.
    The walk's masks, in its canonical order: C + L, with an omit-one
    cover's center cleared by one XOR and its leaves (prev, a) ORed in.
    Their t * n bits are bounded by ``_MASK_BITS_LIMIT`` before any exists."""
    if not isinstance(spec, KPrimeSpec):
        raise ValidationError(f"the closed form takes a KPrimeSpec, not {type(spec).__name__}")
    if (t := len(spec._walk)) * spec.n > _MASK_BITS_LIMIT:
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
