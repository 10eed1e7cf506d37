"""Minimal vertex covers and the ideal of vertex covers, by three routes.

The routes are deliberately independent so that each can serve as an oracle
for the others: an exhaustive decision of every subset of the free vertices,
evaluated bit-parallel on Python integers, prime-by-prime intersection of the
edge primes (X_i, X_j) and loop primes (X_k), and a closed-form candidate
construction for complete-core-plus-stars graphs that never enumerates
subsets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SizeGuardError, ValidationError
from .graphs import KPrimeSpec, LoopGraph
from .monomials import Monomial, MonomialIdeal

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "Cover",
    "PatrolSolution",
    "minimal_covers_bruteforce",
    "cover_ideal_from_covers",
    "cover_ideal_by_intersection",
    "kprime_candidate_covers",
    "kprime_cover_ideal",
    "min_patrols",
]

# Exactness over scalability: instances beyond this go through the closed form.
BRUTE_FORCE_LIMIT = 25


@dataclass(frozen=True)
class Cover:
    """A vertex set meant to meet every edge and contain every loop vertex."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", tuple(sorted({int(v) for v in vertices})))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def covers(self, g: LoopGraph) -> bool:
        s = set(self.vertices)
        if not set(g.loops) <= s:
            return False
        return all(i in s or j in s for i, j in g.edges)

    def is_minimal(self, g: LoopGraph) -> bool:
        """True iff this covers g and no loop-respecting proper subset does."""
        if not self.covers(g):
            return False
        loops = set(g.loops)
        s = set(self.vertices)
        for v in self.vertices:
            if v in loops:
                continue
            t = s - {v}
            if all(i in t or j in t for i, j in g.edges):
                return False
        return True

    def monomial(self, n: int) -> Monomial:
        return Monomial.from_indices(self.vertices, n)


@dataclass(frozen=True)
class PatrolSolution:
    """All minimum-cardinality minimal covers, i.e. the optimal patrol layouts."""

    covering_number: int
    optimal_covers: tuple[Cover, ...]

    def to_json_dict(self) -> dict:
        return {
            "covering_number": self.covering_number,
            "optimal_covers": [list(c.vertices) for c in self.optimal_covers],
        }


_NONZERO_BYTE = re.compile(rb"[^\x00]")
# the positions of the set bits of each byte value
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
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


def minimal_covers_bruteforce(g: LoopGraph) -> list[Cover]:
    """Every minimal vertex cover, sorted by size and then vertices, by
    deciding every subset of the free vertices at once.

    Loop vertices are mandatory, so only the f free vertices, those on an
    edge with no looped endpoint, are chosen. Subset s holds free vertex k
    iff bit k of s is set, and a 2^f-bit integer holds one bit per subset:
    ``_membership(k, f)`` has bit s set iff s holds k, and ``nb`` ANDs those
    of k's neighbours. s is a cover iff it holds k or all of k's neighbours,
    for every k; a cover is redundant at k iff it holds k and all of k's
    neighbours, since dropping k leaves a cover. The minimal covers are the
    covers redundant at no vertex. That costs O(|E| * 2^f / 64) machine
    words, with a few 2^f-bit integers live at a time (4 MB each at f = 25).
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(
            f"brute force refused for n={g.n} > {BRUTE_FORCE_LIMIT}; "
            "use the structured closed form"
        )
    loops = set(g.loops)
    open_edges = [e for e in g.edges if e[0] not in loops and e[1] not in loops]
    free = sorted({v for e in open_edges for v in e})
    f = len(free)
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
    minimal = (covers & ~redundant).to_bytes(((1 << f) + 7) >> 3, "little")
    out = []
    for hit in _NONZERO_BYTE.finditer(minimal):
        at = hit.start()
        for bit in _BYTE_BITS[minimal[at]]:
            s = at << 3 | bit
            out.append(Cover(loops | {v for k, v in enumerate(free) if s >> k & 1}))
    return sorted(out, key=lambda c: (c.size, c.vertices))


def cover_ideal_from_covers(covers, n: int) -> MonomialIdeal:
    """Transcribe covers to squarefree generators (one product per cover)."""
    return MonomialIdeal(n, (c.monomial(n) for c in covers))


def cover_ideal_by_intersection(g: LoopGraph) -> MonomialIdeal:
    """The ideal of vertex covers as the intersection of one prime per edge
    and one principal ideal per loop, on support masks.

    The loop ideals intersect to the single generator x^L, which divides
    every later generator, so an edge at a loop never changes the result and
    the edge primes run on G - L only. They run star by star: vertices by
    descending degree in G - L, ties by index, each with its edges to the
    vertices not yet visited. Intersecting with (X_i, X_j) keeps every
    generator that meets i or j (a hit) and replaces each other generator m
    by m*X_i and m*X_j. Those products never divide each other or a hit,
    and m*X_i is divisible only by a hit containing i, so each is kept
    unless such a hit divides it; the generators stay minimal and distinct
    after every step, so the answer is built without a second
    minimalization.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(
            f"prime intersection refused for n={g.n} > {BRUTE_FORCE_LIMIT}; "
            "use the structured closed form"
        )
    loops = 0
    for k in g.loops:
        loops |= 1 << (k - 1)
    adjacent = [0] * g.n
    for i, j in g.edges:
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        if not (bi | bj) & loops:
            adjacent[i - 1] |= bj
            adjacent[j - 1] |= bi
    gens = [loops]
    visited = 0
    # sorted() is stable, so equal degrees keep ascending index
    for v in sorted(range(g.n), key=lambda v: -adjacent[v].bit_count()):
        bi = 1 << v
        visited |= bi
        ends = adjacent[v] & ~visited
        while ends:
            bj = ends & -ends
            ends ^= bj
            edge = bi | bj
            hit = [h for h in gens if h & edge]
            miss = [m for m in gens if not m & edge]
            gens = list(hit)
            for b in (bi, bj):
                rests = [h & ~b for h in hit if h & b]
                # m | b is new iff every rest r has a bit outside m: all(r & ~m)
                gens += [m | b for m in miss if all(map((~m).__and__, rests))]
    return MonomialIdeal._trusted(g.n, gens)


def _kprime_candidate_masks(spec: KPrimeSpec) -> list[int]:
    """Candidate minimal covers of a complete-core-plus-stars graph, as masks.

    The core forces all centers but one into any cover, and a skipped center
    forces its whole block in. That leaves exactly these candidates:

    * all centers, plus every looped leaf;
    * per unlooped center a, all other centers, all of a's block except a,
      and the looped leaves of the other blocks.

    Each block is the interval (prev, a], so a candidate takes O(m) integer
    operations on n-bit masks. Divisible candidates (an all-centers set
    swallowing an omit-one set) are discarded downstream by ideal
    minimalization.
    """
    centers = loops = 0
    for a in spec.alphas:
        centers |= 1 << (a - 1)
    for k in spec.loops:
        loops |= 1 << (k - 1)
    looped_leaves = loops & ~centers
    cands = [centers | looped_leaves]
    prev = 0
    for a in spec.alphas:
        bit = 1 << (a - 1)
        if not loops & bit:
            block = ((1 << a) - 1) ^ ((1 << prev) - 1)
            cands.append(((centers | block) & ~bit) | (looped_leaves & ~block))
        prev = a
    return cands


def kprime_candidate_covers(spec: KPrimeSpec) -> list[Cover]:
    """Candidate minimal covers of a complete-core-plus-stars graph; see
    ``_kprime_candidate_masks`` for the construction."""
    return [Cover(Monomial._make(spec.n, c).support) for c in _kprime_candidate_masks(spec)]


def kprime_cover_ideal(spec: KPrimeSpec) -> MonomialIdeal:
    """Closed-form ideal of vertex covers for a block spec; no enumeration."""
    n = spec.n
    return MonomialIdeal(n, (Monomial._make(n, c) for c in _kprime_candidate_masks(spec)))


def min_patrols(source) -> PatrolSolution:
    """Minimum-size minimal covers: the supports of the lowest-degree
    generators of the ideal of vertex covers.

    Accepts a LoopGraph, a KPrimeSpec, or a squarefree MonomialIdeal that
    already is an ideal of vertex covers. A graph with nothing to cover
    yields covering number 0 with the empty cover.
    """
    if isinstance(source, KPrimeSpec):
        ideal = kprime_cover_ideal(source)
    elif isinstance(source, LoopGraph):
        ideal = cover_ideal_by_intersection(source)
    elif isinstance(source, MonomialIdeal):
        ideal = source
    else:
        raise ValidationError(f"cannot compute patrols for {type(source).__name__}")
    if ideal.is_zero:
        raise ValidationError("the zero ideal covers nothing")
    if not ideal.is_squarefree:
        raise ValidationError("patrol selection needs a squarefree (vertex-cover) ideal")
    best = min(g.degree for g in ideal.gens)
    covers = sorted(
        (Cover(g.support) for g in ideal.gens if g.degree == best),
        key=lambda c: c.vertices,
    )
    return PatrolSolution(best, tuple(covers))
