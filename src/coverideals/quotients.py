"""Linear-quotient detection, canonical generator orders, and the graded
shifts of the resulting minimal free resolution.

An ideal has linear quotients when its generators can be ordered so that each
prefix colon ideal (u_1..u_{j-1}) : (u_j) is generated by variables. The
canonical order (degree ascending, lexicographic tie-break on index
sequences) is tried first; a pruned backtracking search covers orders the
canonical one misses. An ideal with linear quotients has them in some
degree-nondecreasing order (Jahan–Zheng, J. Combin. Theory Ser. A 117, 2010,
Lemma 2.1), so the search only permutes generators within a degree class.
Before it searches, one pass over each generator's reductions by the
generators of degree at most its own proves many absences with no search.
One private decision on the canonical masks returns the chosen positions
and step variable masks: ``find_linear_order`` builds its certificate from
them, and ``invariants`` reads q off them with no ideal built. A block
spec's order is read off its walk instead, with no search.
``check_linear_quotients`` evaluates any order. An order, given or
returned, is a sequence of generators as ascending index tuples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from math import comb

from .covers import _walk_linear_order
from .errors import InconclusiveError, ValidationError
from .graphs import KPrimeSpec
from .monomials import MonomialIdeal, _mask_indices, _minimal_masks, _support_mask

__all__ = [
    "BACKTRACK_GENERATOR_LIMIT",
    "QuotientCertificate",
    "ResolutionShifts",
    "check_linear_quotients",
    "find_linear_order",
    "resolution_shifts",
]

# Past this many generators the order search is refused as inconclusive, and
# so is the O(t^2) pass that proves absences before it. Where that pass lets
# the search run, it visits at most the sum of 2^|class| prefix sets over the
# degree classes, so the cap bounds the worst case, one class of 12, at
# 4,096 prefixes.
BACKTRACK_GENERATOR_LIMIT = 12


class QuotientCertificate(namedtuple("QuotientCertificate", "order steps q linear")):
    """One generator ordering with its prefix colon ideals: ``order``, the
    generators u_1, ..., u_t as ascending index tuples; ``steps``,
    MonomialIdeals with ``steps[j-2]`` = (u_1..u_{j-1}) : (u_j); the int
    ``q``, the largest step generator count (0 for at most one generator);
    and the bool ``linear``, whether every step is generated by single
    variables."""

    __slots__ = ()


class ResolutionShifts(namedtuple("ResolutionShifts", "levels")):
    """Multisets of graded shifts per homological degree, generators first:
    ``levels`` (tuple[tuple[int, ...], ...])."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"shifts": [list(level) for level in self.levels]}


def _linear_step(prefix_masks, u: int) -> int | None:
    """The variables generating (prefix) : u as one mask, or None when that
    colon ideal is not generated by variables; squarefree masks only.

    Each prefix generator v reduces to v & ~u. The colon ideal is generated
    by variables iff every reduction meets the union of the single-variable
    reductions; an empty reduction (v divides u) gives the unit ideal.
    """
    keep = ~u
    reduced = [v & keep for v in prefix_masks]
    variables = 0
    for w in reduced:
        if not w & (w - 1):
            variables |= w
    if all(w & variables for w in reduced):
        return variables
    return None


def _variables_ideal(n: int, variables: int) -> MonomialIdeal:
    """The ideal of the variables in a mask, one generator per bit peeled
    off with v & -v: distinct bits, so minimal."""
    bits = []
    while variables:
        bit = variables & -variables
        bits.append(bit)
        variables ^= bit
    return MonomialIdeal._trusted(n, bits)


def check_linear_quotients(ideal: MonomialIdeal, order) -> QuotientCertificate:
    """Evaluate one ordering: all prefix colon ideals, q, and the linear flag.

    The order's index sequences must be the ideal's minimal generators, each
    once. A variable-generated step is built from its variable mask; any
    other step from the minimal masks among its prefix's reductions v & ~u.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise ValidationError(f"an order belongs to a MonomialIdeal, not {type(ideal).__name__}")
    masks = [_support_mask(u, ideal.n) for u in order]
    if sorted(masks) != sorted(ideal.masks):
        raise ValidationError("order is not a permutation of the minimal generators")
    n = ideal.n
    steps, linear = [], True
    for j, u in enumerate(masks[1:], start=1):
        variables = _linear_step(masks[:j], u)
        if variables is None:
            linear = False
            steps.append(MonomialIdeal._trusted(n, _minimal_masks(v & ~u for v in masks[:j])))
        else:
            steps.append(_variables_ideal(n, variables))
    q = max((len(s.masks) for s in steps), default=0)
    order = tuple(tuple(_mask_indices(u)) for u in masks)
    return QuotientCertificate(order, tuple(steps), q, linear)


def _linear_order_steps(masks) -> tuple[list[int], list[int]] | None:
    """The decision behind ``find_linear_order``, on an ideal's canonical
    masks: the chosen positions, in order, and the variable mask of each
    step after the first; None when provably no order is linear, and
    InconclusiveError past ``BACKTRACK_GENERATOR_LIMIT`` generators."""
    masks = list(masks)  # a list: its prefix slices would linger on tuple free lists
    t = len(masks)
    step_masks = []
    for j in range(1, t):
        variables = _linear_step(masks[:j], masks[j])
        if variables is None:
            break
        step_masks.append(variables)
    else:
        return list(range(t)), step_masks
    if t > BACKTRACK_GENERATOR_LIMIT:
        raise InconclusiveError(
            f"{t} generators exceed the search limit {BACKTRACK_GENERATOR_LIMIT}; "
            "linear quotients undecided"
        )
    # the c-th pick comes from the degree class of canonical position c
    degrees = [m.bit_count() for m in masks]
    classes = [range(bisect_left(degrees, d), bisect_right(degrees, d)) for d in degrees]
    # before any search, the necessary condition of find_linear_order's
    # docstring: V_u is the OR of the single-variable reductions v & ~u over
    # v of degree <= deg u, and every lower-degree reduction must meet it
    firsts = 0  # generators with V_u = 0: each one can only come first
    for u, cls in zip(masks, classes):
        keep = ~u
        variables = 0
        for v in masks[:cls.stop]:
            w = v & keep
            if not w & (w - 1):
                variables |= w
        if not variables:
            firsts += 1
            if firsts > 1:
                return None
        for v in masks[:cls.start]:
            if not v & keep & variables:
                return None
    chosen: list[int] = []  # positions in masks, in order
    step_masks = []  # the step of each chosen generator, 0 for the first
    dead: set[int] = set()  # exhausted prefixes, as bitsets of positions

    def search(used: int) -> bool:
        c = len(chosen)
        if c == t:
            return True
        if used in dead:
            return False
        prefix = [masks[i] for i in chosen]
        for k in classes[c]:
            if used >> k & 1:
                continue
            variables = _linear_step(prefix, masks[k]) if prefix else 0
            if variables is None:
                continue
            chosen.append(k)
            step_masks.append(variables)
            if search(used | 1 << k):
                return True
            chosen.pop()
            step_masks.pop()
        dead.add(used)
        return False

    return (chosen, step_masks[1:]) if search(0) else None


def find_linear_order(source: KPrimeSpec | MonomialIdeal) -> QuotientCertificate | None:
    """A linear-quotient certificate, or None when provably none exists.

    A KPrimeSpec's order is read off its walk with no search, each later step
    one variable; past 2^20 cover indices or 2^32 step bits, a SizeGuardError.

    For a MonomialIdeal the canonical order is tried first. When it fails, one
    pass checks a necessary condition. In a degree-nondecreasing order every
    predecessor of u has degree at most deg u, and every generator of lower
    degree precedes u. A colon step of u is generated by the single-variable
    reductions v & ~u of its predecessors v, so its variables lie in V_u, the
    OR of the single-variable reductions over all v of degree at most deg u,
    and each lower-degree reduction must meet them, so it meets V_u. A
    generator with V_u = 0 has no variable to meet a nonzero reduction with, so
    it can only come first. So None is returned, with no search, when some
    lower-degree reduction misses V_u or when two generators have V_u = 0
    (outside the lowest degree class, V_u = 0 already fails the first test).
    Otherwise degree-nondecreasing orders are searched with backtracking: the
    c-th pick comes from the degree class of canonical position c, which loses
    no ideal with linear quotients (Jahan–Zheng, JCTA 117, 2010, Lemma 2.1). A
    prefix whose next colon step is not variable-generated is pruned;
    feasibility from a prefix depends only on the prefix as a set, so exhausted
    sets are memoized. Candidates are taken in canonical rank, so the returned
    order is the first linear one of the searched orders in that rank. Beyond
    ``BACKTRACK_GENERATOR_LIMIT`` generators the pass and the search are
    refused with InconclusiveError, which is distinct from a definitive
    absence.

    Each step is decided once, as the mask of its variables. The certificate is
    built from the order that passed: only its steps become ideals, one
    variable per bit, and no order is checked twice.
    """
    if isinstance(source, KPrimeSpec):
        order, step_masks = _walk_linear_order(source)
    elif not isinstance(source, MonomialIdeal):
        raise ValidationError(f"cannot find a linear order for {type(source).__name__}")
    elif (decided := _linear_order_steps(source.masks)) is None:
        return None
    else:
        chosen, step_masks = decided
        order = [tuple(_mask_indices(source.masks[i])) for i in chosen]
    steps = tuple(_variables_ideal(source.n, v) for v in step_masks)
    q = max((v.bit_count() for v in step_masks), default=0)
    return QuotientCertificate(tuple(order), steps, q, True)


def resolution_shifts(cert: QuotientCertificate) -> ResolutionShifts:
    """Graded shifts of the minimal free resolution built by iterated mapping
    cones over a linear order: a generator of degree d whose colon step has
    r variables contributes C(r, i) copies of shift d + i in homological
    degree i, for 0 <= i <= r."""
    if not isinstance(cert, QuotientCertificate):
        raise ValidationError(f"resolution shifts take a QuotientCertificate, not "
                              f"{type(cert).__name__}")
    if not cert.linear:
        raise ValidationError("resolution shifts require a linear-quotient certificate")
    if not cert.order:
        return ResolutionShifts(())
    ranks = [0] + [len(s.masks) for s in cert.steps]
    levels: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for u, r in zip(cert.order, ranks):
        for i in range(r + 1):
            levels[i].extend([len(u) + i] * comb(r, i))
    return ResolutionShifts(tuple(tuple(sorted(level)) for level in levels))
