"""Graphs with loops and the complete-core-plus-stars family.

A loop puts its vertex in every cover, so the ideal of vertex covers of a
graph with loop set L is x^L times that of G - L, the edges with no looped
end. ``LoopGraph`` builds that normal form once, as ``open_edges``, and every
graph route reads it; a ``KPrimeSpec`` builds its walk once, which every
spec answer reads: its cover ideal, a linear order and its invariants. A
spec reaches the graph routes unexpanded: they read its G - L off the blocks.
Counts and vertices must be ints: a float or a string is refused.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterable
from itertools import repeat

from .errors import ValidationError
from .monomials import _ints

__all__ = ["LoopGraph", "KPrimeSpec"]


def _loop_set(loops: Iterable[int], n: int) -> tuple[int, ...]:
    """The distinct loop vertices, ascending; each must lie in 1..n."""
    ls = set()
    for k in _ints(loops):
        if not 1 <= k <= n:
            raise ValidationError(f"loop at {k} leaves the vertex range 1..{n}")
        ls.add(k)
    return tuple(sorted(ls))


def _refuse_edge(e, n: int) -> None:
    """Raise the error for an edge that is not a pair of distinct vertices
    in 1..n, its checks in this order: ints, a pair, no loop, the range."""
    pair = _ints(e)
    if len(pair) != 2:
        raise ValidationError(f"edge {tuple(pair)} is not a pair of vertices")
    i, j = pair
    if i == j:
        raise ValidationError(f"edge {{{i},{j}}} is a loop; loops are listed separately")
    raise ValidationError(f"edge {{{i},{j}}} leaves the vertex range 1..{n}")


class LoopGraph:
    """An undirected graph on vertices 1..n with an optional loop at any vertex.

    Edges are unordered pairs of distinct vertices; loops are listed apart.
    Values are immutable, with edges and loops stored sorted and deduplicated.
    Each edge is keyed by the int lo * (n + 1) + hi, whose order is that of
    its (lo, hi) pair, so the edges are deduplicated and sorted as ints and
    decoded once by divmod. An edge is checked by one comparison chain,
    either way round; only a refused one is read again for its message.
    ``open_edges`` are the edges of G - L, those with no looped end, in the
    same order; neither costs O(n).
    """

    __slots__ = ("n", "edges", "loops", "open_edges")

    def __init__(self, n: int, edges: Iterable = (), loops: Iterable[int] = ()):
        (n,) = _ints((n,))
        if n < 1:
            raise ValidationError("vertex count must be positive")
        base, keys, index = n + 1, set(), operator.index
        for e in edges:
            try:
                i, j = e
                i, j = index(i), index(j)
                if 0 < i < j <= n:
                    keys.add(i * base + j)
                    continue
                if 0 < j < i <= n:
                    keys.add(j * base + i)
                    continue
            except (TypeError, ValueError):  # not two items, or one is not an int
                pass
            _refuse_edge(e, n)
        self.n = n
        self.edges = tuple(map(divmod, sorted(keys), repeat(base)))
        self.loops = _loop_set(loops, n)
        ls = set(self.loops)
        self.open_edges = self.edges if not ls else tuple(
            e for e in self.edges if e[0] not in ls and e[1] not in ls
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LoopGraph)
            and (self.n, self.edges, self.loops) == (other.n, other.edges, other.loops)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.loops))

    def __repr__(self) -> str:
        return f"LoopGraph(n={self.n}, edges={list(self.edges)}, loops={list(self.loops)})"


class KPrimeSpec:
    """Block description of a complete core with a star hung on each core vertex.

    ``alphas`` lists the core ("center") vertices in increasing order, the last
    one equal to the total vertex count n. Block i is the vertex interval
    (alpha_{i-1}, alpha_i], so every non-center vertex is a leaf of the star
    whose center is its block's alpha; a block of size one is a bare center.
    Loops may sit on any vertex.

    Construction also builds, once, in one pass over the centers with a
    bisect each, the private ``_cl``, C + L (the centers and loops) ascending,
    ``_sigma``, the largest block, and ``_walk``, the minimal covers of the
    closed form as (degree, tie key, prev) in canonical order, with no n-bit
    integer. The core forces all centers but one into any cover, and a
    skipped center forces its block in. So an unlooped center a of block
    (prev, a] with u_a unlooped leaves has the omit-one cover
    (C + L + block) - a, of degree |C + L| - 1 + u_a, and C + L is minimal
    unless some u_a = 0. An equal-degree A precedes B iff the lowest bit of
    A ^ B lies in A. Omit-one covers of equal degree share u: at u = 0 the
    larger center comes first (key -a), at u > 0 the lower block's first
    leaf decides (key +a). C + L ties only u = 1 and comes last (key n + 1,
    prev None).
    """

    __slots__ = ("alphas", "loops", "_cl", "_sigma", "_walk")

    def __init__(self, alphas: Iterable[int], loops: Iterable[int] = ()):
        al = tuple(_ints(alphas))
        if len(al) < 2:
            raise ValidationError("at least two centers are required (m >= 2)")
        if al[0] < 1:
            raise ValidationError("centers must be positive vertex indices")
        if not all(map(operator.lt, al, al[1:])):
            raise ValidationError(f"centers must be strictly increasing, got {al}")
        self.alphas = al
        self.loops = _loop_set(loops, al[-1])
        looped = set(self.loops)
        self._cl = cl = tuple(sorted(looped.union(al)))
        walk, prev, before, top, sigma, minimal = [], 0, 0, len(cl) - 1, 0, True
        for a in al:
            if a - prev > sigma:
                sigma = a - prev
            leaves = a - bisect_right(cl, a)  # the vertices up to a outside C + L
            if a not in looped:
                u = leaves - before
                walk.append((top + u, a if u else -a, prev))
                minimal = minimal and u
            prev, before = a, leaves
        if minimal:
            walk.append((top + 1, prev + 1, None))
        self._sigma, self._walk = sigma, tuple(sorted(walk))

    @property
    def n(self) -> int:
        return self.alphas[-1]

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def sigma(self) -> int:
        """Largest block size (vertices of the biggest star, center included)."""
        return self._sigma

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KPrimeSpec)
            and (self.alphas, self.loops) == (other.alphas, other.loops)
        )

    def __hash__(self) -> int:
        return hash((self.alphas, self.loops))

    def __repr__(self) -> str:
        return f"KPrimeSpec(alphas={list(self.alphas)}, loops={list(self.loops)})"
