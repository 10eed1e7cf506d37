"""Graded invariants of R/I for cover ideals: h, projective dimension, depth,
Krull dimension, regularity, and Cohen-Macaulay verdicts.

Each report is read off an ideal alone, or off a block spec's walk.
Depth is always derived as n - pd (Auslander-Buchsbaum); dim as n - h(I).
pd is q + 1, with q the largest step of the linear order that the decision
behind ``find_linear_order`` returns as masks (q = 0 for a principal ideal);
no certificate, step ideal or index tuple is built for it.
Without one only dim is reported, and the Cohen-Macaulay verdict is False
when h = 1 (dim n - 1 needs pd 1, i.e. a principal ideal) and inconclusive
otherwise rather than guessed.

``invariants(spec)`` reads a block spec's report off the walk that it built at
construction (see ``KPrimeSpec``), with no colon step and no mask: G - L is
split (unlooped centers a clique, unlooped leaves independent), so its
complement is chordal, I(G - L) has a linear resolution (Fröberg, 1990) and
R/J(G - L) is Cohen-Macaulay (Eagon–Reiner, JPAA 130, 1998). J = x^L J(G - L)
with x^L in variables of its own, so pd = 2, or 1 when J is principal.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import count
from operator import and_, or_

from .errors import InconclusiveError, SizeGuardError, ValidationError
from .graphs import KPrimeSpec
from .monomials import MonomialIdeal, _mask_indices
from .quotients import _linear_order_steps

__all__ = [
    "HITTING_SET_LIMIT",
    "InvariantReport",
    "h_of",
    "invariants",
]

HITTING_SET_LIMIT = 25


class InvariantReport(namedtuple("InvariantReport", "n h dim route q pd depth reg reg_bounds cm",
                                 defaults=(None,) * 6)):
    """Invariants of R/I with the route that determined them: ints ``n``, ``h``
    and ``dim``; ``route``, one of "principal", "linear-quotients" and
    "bounds-only"; then, None by default, ints ``q``, ``pd``, ``depth`` and
    ``reg`` (exact where the route pins it: max generator degree - 1), the int
    pair ``reg_bounds``, known independently of ``reg``, and the bool ``cm``,
    which stays None when depth could not be determined."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "reg_bounds": list(self.reg_bounds) if self.reg_bounds else None}


def h_of(ideal: MonomialIdeal) -> int:
    """Minimum size of a variable set meeting every minimal generator. Past
    ``HITTING_SET_LIMIT`` occurring variables with none shared, the generators
    split into variable-disjoint parts, whose h add; a part past the limit
    without a shared variable is refused."""
    if not isinstance(ideal, MonomialIdeal):
        raise ValidationError(f"h_of takes a MonomialIdeal, not {type(ideal).__name__}")
    if ideal.is_zero:
        raise ValidationError("the zero ideal has no vertex covers")
    masks = ideal.masks
    if not all(masks):
        raise ValidationError("the unit ideal has no vertex cover")
    if reduce(and_, masks):
        return 1
    if reduce(or_, masks).bit_count() <= HITTING_SET_LIMIT:
        # the whole search answers within the guard; splitting such ideals
        # first cost graph-intersection's cover ideals 24% of their throughput
        return next(k for k in count(2) if _hit_within(masks, k))
    h = 0
    for part in _disjoint_parts(masks):
        if reduce(and_, part):
            h += 1
            continue
        occurring = reduce(or_, part).bit_count()
        if occurring > HITTING_SET_LIMIT:
            raise SizeGuardError(
                f"hitting-set search refused for {occurring} occurring variables > "
                f"{HITTING_SET_LIMIT} without a shared variable"
            )
        h += next(k for k in count(2) if _hit_within(part, k))
    return h


def _disjoint_parts(masks: list[int]) -> list[list[int]]:
    """The masks grouped into parts on disjoint variable sets, in order of
    their first mask. A union-find over the masks hangs under mask i the
    root of each earlier part that holds one of i's variables; the positions
    come from ``_mask_indices``, so the pass is linear in the bits set, not
    in their product with the mask width as peeling bit by bit would be."""
    first, parent = {}, list(range(len(masks)))
    for i, mask in enumerate(masks):
        for p in _mask_indices(mask):
            j = first.setdefault(p, i)
            while parent[j] != j:  # path halving
                parent[j] = j = parent[parent[j]]
            parent[j] = i
    parts = {}
    for i, mask in enumerate(masks):
        j = i
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parts.setdefault(j, []).append(mask)
    return list(parts.values())


def _hit_within(masks: list[int], k: int) -> bool:
    """Whether at most k variables meet every mask. The branches take the
    variables of the smallest mask in turn, and each one tried is struck from
    every mask for the later branches, so no variable set is visited twice."""
    if not masks:
        return True
    if k == 1:
        return bool(reduce(and_, masks))
    smallest = min(masks, key=int.bit_count)
    while smallest:
        bit = smallest & -smallest
        if _hit_within([m for m in masks if not m & bit], k - 1):
            return True
        masks = [m & ~bit for m in masks]
        if not all(masks):
            return False
        smallest ^= bit
    return False


def invariants(source: KPrimeSpec | MonomialIdeal, spec: KPrimeSpec | None = None
               ) -> InvariantReport:
    """Full invariant report for R/I, I an ideal or a block spec's cover ideal.

    A spec's report is read off its walk (see the module docstring): q = 0 for
    one generator, else 1; reg from the last, largest degree; bounds
    ((m - 1) + (sigma - 2), n - 2); h = 1 with loops, as a loop vertex lies in
    every cover, else 2: two centers meet every cover, and each vertex v is
    missed by the complement of a maximal independent set holding v.

    An ideal's h comes from the hitting-set search. A linear-quotient order
    gives pd = q + 1 and reg exact; a principal ideal is the order with q = 0,
    reported under the route "principal" with reg bounds (0, n - 1). Without an
    order only dim is exact, and R/I is not Cohen-Macaulay when h = 1.
    ``invariants(ideal, spec)`` is ``invariants(spec)`` for an ideal of the
    walk's n, generator count and end degrees, refused otherwise.
    """
    if isinstance(source, KPrimeSpec) and spec is None:
        walk, n = source._walk, source.n
        return _exact_report(n, 1 if source.loops else 2, min(len(walk) - 1, 1), walk[-1][0] - 1,
                             ((source.m - 1) + (source._sigma - 2), n - 2))
    if not isinstance(source, MonomialIdeal):
        raise ValidationError(f"cannot compute invariants for {type(source).__name__}")
    if source.is_zero:
        raise ValidationError("invariants are undefined for the zero ideal")
    n, masks = source.n, source.masks
    if spec is not None:
        if not isinstance(spec, KPrimeSpec):
            raise ValidationError(f"invariants take a KPrimeSpec, not {type(spec).__name__}")
        walk = spec._walk
        if (n, len(masks), masks[0].bit_count(), masks[-1].bit_count()) != (
                spec.n, len(walk), walk[0][0], walk[-1][0]):
            raise ValidationError("the ideal is not the cover ideal of this block spec")
        return invariants(spec)
    h = h_of(source)
    try:
        decided = _linear_order_steps(masks)
    except InconclusiveError:
        decided = None
    if decided is None:
        return InvariantReport(n=n, h=h, dim=n - h, route="bounds-only",
                               cm=False if h == 1 else None)
    q = max((v.bit_count() for v in decided[1]), default=0)
    return _exact_report(n, h, q, source.max_degree - 1)


def _exact_report(n: int, h: int, q: int, reg: int, reg_bounds=None) -> InvariantReport:
    """The report of a linear order with largest step q: principal iff q = 0."""
    pd = q + 1
    return InvariantReport(
        n=n, h=h, dim=n - h, route="linear-quotients" if q else "principal",
        q=q, pd=pd, depth=n - pd, reg=reg,
        reg_bounds=reg_bounds if q else (0, n - 1), cm=pd == h,
    )
