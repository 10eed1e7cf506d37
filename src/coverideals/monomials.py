"""Exact arithmetic on monomials and monomial ideals.

Monomials live in a fixed ambient ring K[X1..Xn]; ideals are held as their
unique minimal generating set. Coefficients never appear: edge ideals and
ideals of vertex covers only need divisibility arithmetic, so everything here
is a pure function over immutable values.

Representation. Every ideal of vertex covers is squarefree, and so is every
monomial here: it is held as its support bitmask ``mask`` (bit i-1 set iff
X_i divides it). Divisibility, the colon reduction and the degree are the
integer operations ``a & ~b == 0``, ``a & ~b`` and ``bit_count()``, each
running in C over n/64 machine words. A repeated index or an exponent above
one is refused: the CLI polarizes ideal JSON that repeats an index.

Ideal operations are methods: ``MonomialIdeal(n, gens)`` minimalizes and
``colon`` builds the colon ideal. The routes intersect their primes on plain
masks, and the CLI parses ideal JSON with ``Monomial.from_indices``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import ValidationError

__all__ = ["Monomial", "MonomialIdeal"]

_NONZERO_BYTE = re.compile(rb"[^\x00]")
# each byte value reversed, and the 1-based positions of its set bits, doubled
# one bit at a time: for u < 2^b, byte 2^b + u is u plus bit b, reversed 7 - b
_REVERSED_BYTE, _BYTE_BITS = [0], [()]
for _b in range(8):
    _REVERSED_BYTE += [r | 0x80 >> _b for r in _REVERSED_BYTE]
    _BYTE_BITS += [t + (_b + 1,) for t in _BYTE_BITS]
_REVERSED_BYTE, _BYTE_BITS = bytes(_REVERSED_BYTE), tuple(_BYTE_BITS)


def _indices_mask(indices: Iterable[int]) -> int:
    """Bitmask of positive 1-based indices, built in O(largest index) as a
    binary numeral rather than by OR-ing wide integers."""
    indices = list(indices)
    top = max(indices, default=0)
    if not top:
        return 0
    digits = bytearray(b"0" * top)
    for i in indices:
        digits[top - i] = 49  # ord("1")
    return int(digits, 2)


def _mask_indices(mask: int) -> list[int]:
    """1-based positions of the set bits, ascending, read off a byte table."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    out: list[int] = []
    for hit in _NONZERO_BYTE.finditer(data):
        at = hit.start()
        base = at * 8
        for b in _BYTE_BITS[data[at]]:
            out.append(base + b)
    return out


def _squarefree_key(mask: int, nbytes: int) -> tuple[int, int]:
    """Canonical sort key of a squarefree mask: degree, then ascending index
    sequence. For equal degree, A precedes B iff the lowest set bit of A ^ B
    lies in A, i.e. iff the bit-reversed A is the larger integer."""
    reversed_bits = mask.to_bytes(nbytes, "little").translate(_REVERSED_BYTE)
    return mask.bit_count(), -int.from_bytes(reversed_bits, "big")


class Monomial:
    """A squarefree power product X_i1 * ... * X_ik, built from its 0/1
    exponent vector and held as its support bitmask.

    The unit monomial (empty support) is a valid value; a zero monomial has
    no representation. Instances are immutable and hashable.
    """

    __slots__ = ("n", "mask")

    def __init__(self, vector: Iterable[int]):
        bits = tuple(int(e) for e in vector)
        if not bits:
            raise ValidationError("monomial needs a positive ambient variable count")
        if any(e not in (0, 1) for e in bits):
            raise ValidationError(f"a squarefree monomial has exponent 0 or 1, got {bits}")
        self.n = len(bits)
        self.mask = _indices_mask(i for i, e in enumerate(bits, start=1) if e)

    @classmethod
    def _make(cls, n: int, mask: int) -> Monomial:
        """Build from a mask already known to be valid for n."""
        m = object.__new__(cls)
        m.n, m.mask = n, mask
        return m

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> Monomial:
        """Build from distinct 1-based variable indices."""
        if n < 1:
            raise ValidationError("monomial needs a positive ambient variable count")
        indices = [int(i) for i in indices]
        if indices and (min(indices) < 1 or max(indices) > n):
            i = next(i for i in indices if not 1 <= i <= n)
            raise ValidationError(f"variable index {i} outside 1..{n}")
        mask = _indices_mask(indices)
        if mask.bit_count() != len(indices):
            raise ValidationError("a variable index repeats in a squarefree monomial")
        return cls._make(n, mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(_mask_indices(self.mask))

    @property
    def is_unit(self) -> bool:
        return not self.mask

    def _check_same_ring(self, other: Monomial) -> None:
        if self.n != other.n:
            raise ValidationError(
                f"monomials in {self.n} and {other.n} variables cannot be combined"
            )

    def divides(self, other: Monomial) -> bool:
        self._check_same_ring(other)
        return not self.mask & ~other.mask

    def div_by_gcd(self, other: Monomial) -> Monomial:
        """self / gcd(self, other): the colon reduction of one generator."""
        self._check_same_ring(other)
        return Monomial._make(self.n, self.mask & ~other.mask)

    def text(self) -> str:
        """Starred form, e.g. X3*X5*X12; the unit monomial prints as 1."""
        return "*".join(f"X{i}" for i in _mask_indices(self.mask)) or "1"

    def compact(self) -> str:
        """Compressed form without separators, e.g. X3X5X12."""
        return self.text().replace("*", "")

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: Monomial) -> bool:
        """Canonical order: degree ascending, then lexicographic index sequence."""
        a, b = self.mask, other.mask
        da, db = a.bit_count(), b.bit_count()
        if da != db:
            return da < db
        diff = a ^ b
        return bool(diff & -diff & a)

    def __repr__(self) -> str:
        return f"Monomial({self.text()!r}, n={self.n})"


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating set.

    Construction minimalizes: duplicates and generators divisible by another
    are dropped, and the survivors are stored in canonical order (degree
    ascending, then lexicographic on the index sequence). An empty generating
    set is the zero ideal; the unit monomial generates the whole ring.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: Iterable[Monomial] = ()):
        n = int(n)
        if n < 1:
            raise ValidationError("ambient variable count must be positive")
        pool = list(gens)
        for g in pool:
            if g.n != n:
                raise ValidationError(
                    f"generator in {g.n} variables placed in a {n}-variable ring"
                )
        self.n = n
        # a divides m iff a & m == a
        by_mask = {g.mask: g for g in pool}
        nbytes = (max(by_mask, default=0).bit_length() + 7) // 8
        kept: list[int] = []
        for m in sorted(by_mask, key=lambda m: _squarefree_key(m, nbytes)):
            if all(a & m != a for a in kept):
                kept.append(m)
        self.gens = tuple(by_mask[m] for m in kept)

    @classmethod
    def _trusted(cls, n: int, masks: Iterable[int]) -> MonomialIdeal:
        """Build from distinct squarefree masks in 1..n already known to be
        a minimal generating set: they are only sorted into canonical order."""
        masks = list(masks)
        if len(masks) > 1:
            nbytes = (max(masks).bit_length() + 7) // 8
            masks.sort(key=lambda m: _squarefree_key(m, nbytes))
        ideal = object.__new__(cls)
        ideal.n = n
        ideal.gens = tuple(Monomial._make(n, m) for m in masks)
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_principal(self) -> bool:
        return len(self.gens) == 1

    @property
    def max_degree(self) -> int:
        if self.is_zero:
            raise ValidationError("the zero ideal has no generator degrees")
        return max(g.degree for g in self.gens)

    def colon(self, f: Monomial) -> MonomialIdeal:
        """The colon ideal (self : f), all g with g*f in self."""
        if f.n != self.n:
            raise ValidationError(
                f"monomial in {f.n} variables cannot divide into a {self.n}-variable ideal"
            )
        return MonomialIdeal(self.n, (u.div_by_gcd(f) for u in self.gens))

    def text(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(g.text() for g in self.gens) + ")"

    def compact(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(g.compact() for g in self.gens) + ")"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g.support) for g in self.gens]}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={self.text()})"
