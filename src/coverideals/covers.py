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
    "kprime_cover_ideal",
    "min_patrols",
]

# Brute force is refused past this many free vertices (a few 2^f-bit tables,
# 4 MB each at f = 25), the intersection route past this many vertices; larger
# block specs go through the closed form.
BRUTE_FORCE_LIMIT = 25
# Brute force also refuses covers * n past this, before building any cover; a
# graph with n <= 25 has at most 8,748 minimal covers (Moon-Moser), so fits.
_OUTPUT_LIMIT = 1 << 20


@dataclass(frozen=True)
class Cover:
    """A vertex set meant to meet every edge and contain every loop vertex."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", tuple(sorted({int(v) for v in vertices})))

    @property
    def size(self) -> int:
        return len(self.vertices)


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
    words, with a few 2^f-bit integers live at a time (4 MB each at f = 25),
    so the guard counts f, not n; the answer costs O(n) per cover, so
    ``_OUTPUT_LIMIT`` bounds their product, a popcount, before any is built.
    """
    loops = set(g.loops)
    open_edges = [e for e in g.edges if e[0] not in loops and e[1] not in loops]
    free = sorted({v for e in open_edges for v in e})
    f = len(free)
    if f > BRUTE_FORCE_LIMIT:
        raise SizeGuardError(
            f"brute force refused for f={f} free vertices > {BRUTE_FORCE_LIMIT}; "
            "use the structured closed form"
        )
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
    minimal = minimal.to_bytes(((1 << f) + 7) >> 3, "little")
    out = []
    for hit in _NONZERO_BYTE.finditer(minimal):
        at = hit.start()
        for bit in _BYTE_BITS[minimal[at]]:
            s = at << 3 | bit
            out.append(Cover(loops | {v for k, v in enumerate(free) if s >> k & 1}))
    return sorted(out, key=lambda c: (c.size, c.vertices))


def cover_ideal_from_covers(covers, n: int) -> MonomialIdeal:
    """Transcribe covers to squarefree generators (one product per cover)."""
    return MonomialIdeal(n, (Monomial.from_indices(c.vertices, n) for c in covers))


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
