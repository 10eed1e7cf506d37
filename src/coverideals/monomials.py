"""Exact arithmetic on monomials and monomial ideals.

Monomials live in a fixed ambient ring K[X1..Xn]; ideals are held as their
unique minimal generating set. Coefficients never appear: edge ideals and
ideals of vertex covers only need divisibility arithmetic, so everything here
is a pure function over immutable values.

Representation. Every ideal of vertex covers is squarefree, and so is every
monomial here: it is a support bitmask (bit i-1 set iff X_i divides it).
Divisibility, the colon reduction and the degree are ``a & ~b == 0``,
``a & ~b`` and ``bit_count()``, each running in C over n/64 machine words.
Indices and masks convert both ways on two paths: a mask of at most 64
bits, one machine word, is built by OR-ing shifted bits and read by peeling
its lowest bit; a wider one goes through a bytearray of (largest index)/8
bytes and a byte table that skips zero bytes.
``MonomialIdeal`` holds the canonical tuple ``masks``, which every layer
reads; generators cross the API as tuples of distinct 1-based indices, in
and out (``gens``). A repeated index is refused: the CLI polarizes ideal
JSON that repeats an index. Nothing here prints X-notation; the CLI
renders generators itself.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable

from .errors import ValidationError

__all__ = ["MonomialIdeal"]

_NONZERO_BYTE = re.compile(rb"[^\x00]")
# each byte value reversed, and the 1-based positions of its set bits, doubled
# one bit at a time: for u < 2^b, byte 2^b + u is u plus bit b, reversed 7 - b
_REVERSED_BYTE, _BYTE_BITS = [0], [()]
for _b in range(8):
    _REVERSED_BYTE += [r | 0x80 >> _b for r in _REVERSED_BYTE]
    _BYTE_BITS += [t + (_b + 1,) for t in _BYTE_BITS]
_REVERSED_BYTE, _BYTE_BITS = bytes(_REVERSED_BYTE), tuple(_BYTE_BITS)


def _ints(values: Iterable) -> list[int]:
    """The values as ints by Python's integer protocol, so a float or a
    string is refused, never truncated or parsed; a bool is 0 or 1."""
    try:  # a display takes its list off the free list; list() allocates a new one
        return [*map(operator.index, values)]
    except TypeError as exc:
        raise ValidationError(str(exc)) from None


def _indices_mask(indices: Iterable[int]) -> int:
    """Bitmask of positive 1-based indices; a repeated index sets its bit
    once. Up to index 64 the shifted bits are ORed into one word; past it
    each bit is set in a bytearray of (largest index)/8 bytes, read as one
    little-endian integer, so the cost is O(largest index / 8), never that
    of an n-digit numeral or of OR-ing wide integers."""
    indices = list(indices)
    if not indices or (top := max(indices)) <= 64:
        mask = 0
        for i in indices:
            mask |= 1 << (i - 1)
        return mask
    buf = bytearray((top + 7) >> 3)
    for i in indices:
        buf[(i - 1) >> 3] |= 1 << ((i - 1) & 7)
    return int.from_bytes(buf, "little")


def _support_mask(indices: Iterable[int], n: int) -> int:
    """The support mask of one squarefree generator in n variables, given
    as distinct 1-based indices; an index outside 1..n or a repeated one is
    refused."""
    indices = _ints(indices)
    if indices and (min(indices) < 1 or max(indices) > n):
        i = next(i for i in indices if not 1 <= i <= n)
        raise ValidationError(f"variable index {i} outside 1..{n}")
    mask = _indices_mask(indices)
    if mask.bit_count() != len(indices):
        raise ValidationError("a variable index repeats in a squarefree monomial")
    return mask


def _mask_indices(mask: int) -> list[int]:
    """1-based positions of the set bits, ascending. A mask of one word is
    read by peeling its lowest bit, O(bits set); a wider one byte by byte
    from a table that skips zero bytes, O(bit length / 8) in C plus the bits
    set, where peeling would cost O(bits set x bit length / 64)."""
    if mask < 1 << 64:  # 1 << 64 is folded at compile time
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return out
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    out: list[int] = []
    for hit in _NONZERO_BYTE.finditer(data):
        at = hit.start()
        base = at * 8
        for b in _BYTE_BITS[data[at]]:
            out.append(base + b)
    return out


def _canonical(masks: Iterable[int]) -> list[int]:
    """Squarefree masks in canonical order: degree, then ascending index
    sequence. For equal degree, A precedes B iff the lowest set bit of A ^ B
    lies in A, i.e. iff the bit-reversed A is the larger integer."""
    masks = list(masks)
    if len(masks) > 1:
        nbytes = (max(masks).bit_length() + 7) // 8
        masks.sort(key=lambda mask: int.from_bytes(
            mask.to_bytes(nbytes, "little").translate(_REVERSED_BYTE), "big"), reverse=True)
        masks.sort(key=int.bit_count)  # stable, so equal degrees keep the first order
    return masks


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal masks, duplicates dropped, in canonical order: a mask is
    kept unless a smaller kept one lies inside it (a divides m iff a & m == a)."""
    kept: list[int] = []
    for m in _canonical(set(masks)):
        if all(a & m != a for a in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating set.

    ``masks`` is the tuple of their support masks in canonical order (degree
    ascending, then lexicographic on the index sequence); construction drops
    duplicates and generators divisible by another. ``gens`` gives each
    generator as its ascending index tuple, the form the constructor takes,
    and ``repr`` is the constructor call that rebuilds the ideal. n and the
    indices are taken by Python's integer protocol: a float or a string is
    refused, and a bool counts as 0 or 1. An empty generating set is the
    zero ideal; the unit monomial, the empty tuple, generates the whole ring.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, gens: Iterable[Iterable[int]] = ()):
        (n,) = _ints((n,))
        if n < 1:
            raise ValidationError("ambient variable count must be positive")
        self.n, self.masks = n, _minimal_masks(_support_mask(g, n) for g in gens)

    @classmethod
    def _trusted(cls, n: int, masks: Iterable[int]) -> MonomialIdeal:
        """Build from distinct squarefree masks in 1..n already known to be
        a minimal generating set and already in canonical order: they are
        neither minimalized nor sorted, so each caller orders its own."""
        ideal = object.__new__(cls)
        ideal.n, ideal.masks = n, tuple(masks)
        return ideal

    @property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_mask_indices(m)) for m in self.masks)

    @property
    def is_zero(self) -> bool:
        return not self.masks

    @property
    def is_principal(self) -> bool:
        return len(self.masks) == 1

    @property
    def max_degree(self) -> int:
        if self.is_zero:
            raise ValidationError("the zero ideal has no generator degrees")
        return self.masks[-1].bit_count()  # the canonical order ends at the largest

    def to_json_dict(self) -> dict:
        return {"n": self.n, "gens": [_mask_indices(m) for m in self.masks]}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={self.gens})"
