"""Exact permutations of {1..n} with the degree carried explicitly.

The product ``a * b`` is the composition ``a after b``: ``(a * b)(x) = a(b(x))``.
Text form is 1-based disjoint cycle notation with cycles ordered by their
smallest moved point and fixed points omitted; the identity prints as ``()``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError


class Perm:
    """A permutation of {1..n}.  Immutable and hashable.

    The identity on 5 points and the identity on 6 points are distinct
    values: the degree is part of the object.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ParseError(f"not a bijection of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """Wrap an image tuple already known to be a bijection of 1..n.

        Skips the bijection check; only products and inverses of valid
        permutations come through here.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int) -> "Perm":
        images = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= n:
                    raise ParseError(f"symbol {a} out of range 1..{n}")
                if a in seen:
                    raise ParseError(f"repeated symbol {a}")
                seen.add(a)
            for a, b in zip(cyc, cyc[1:]):
                images[a - 1] = b
            if len(cyc) > 1:
                images[cyc[-1] - 1] = cyc[0]
        return cls(images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        images = self.images
        if len(images) != len(other.images):
            raise ParseError("degree mismatch in product")
        return Perm._trusted(tuple([images[i - 1] for i in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm._trusted(tuple(inv))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images, start=1))

    def cycles(self) -> tuple:
        """Moved cycles, least point first in each, ordered by least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self.images[start - 1]
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self.images[x - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> "CycleType":
        return CycleType(tuple(len(c) for c in self.cycles()), self.degree)

    def _cycle_lengths(self) -> list:
        """Length of every cycle, fixed points included, in one walk."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            k, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = images[x] - 1
                k += 1
            if k:
                out.append(k)
        return out

    def order(self) -> int:
        return math.lcm(*self._cycle_lengths())

    def is_even(self) -> bool:
        # a k-cycle is k - 1 transpositions: n minus the number of cycles
        return (self.degree - len(self._cycle_lengths())) % 2 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return (self.degree, self.images) < (other.degree, other.images)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm[{self.degree}]{self}"


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths >= 2 inside an ambient degree n, stored
    ascending, so CycleType((3, 2), 5).parts == (2, 3).

    Fixed points are implied: there are n - sum(parts) of them.
    """

    parts: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        if any(k < 2 for k in self.parts):
            raise ParseError("cycle type parts must be >= 2")
        if sum(self.parts) > self.n:
            raise ParseError("cycle type exceeds ambient degree")

    @property
    def fixed_points(self) -> int:
        return self.n - sum(self.parts)

    def order(self) -> int:
        return math.lcm(*self.parts) if self.parts else 1

    def is_even(self) -> bool:
        return sum(k - 1 for k in self.parts) % 2 == 0

    def splits(self) -> bool:
        """Whether this even type is a split class of the alternating group.

        True exactly when all cycle lengths are distinct odd integers, with
        fixed points counted as 1-cycles (so at most one fixed point).
        """
        if not self.is_even():
            return False
        if self.fixed_points > 1:
            return False
        if any(k % 2 == 0 for k in self.parts):
            return False
        return len(set(self.parts)) == len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(k) for k in self.parts) + ")"


@functools.lru_cache(maxsize=1024)
def least_perm_of_type(ct: CycleType) -> Perm:
    """Lexicographically least permutation (by image tuple) of a cycle type.

    Fixed points sit on the smallest symbols, then cycles in ascending length
    occupy consecutive blocks, each cycle mapping a -> a+1 -> ... -> a.
    Memoized (a CycleType and a Perm are immutable): canonical forms and
    split-class labels ask for the same few types again and again.
    """
    cycles = []
    start = ct.fixed_points + 1
    for k in ct.parts:
        cycles.append(tuple(range(start, start + k)))
        start += k
    return Perm.from_cycles(cycles, ct.n)


_CYCLE_RE = re.compile(r"\(\s*((?:\d+\s*)*)\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation, e.g. ``(1 2)(3 4 5)`` or ``()``.

    Rejects repeated symbols and symbols outside 1..degree.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation text")
    pos = 0
    cycles = []
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ParseError(f"bad permutation syntax at {stripped[pos:]!r}")
        body = m.group(1).split()
        if body:
            cycles.append([int(x) for x in body])
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    return Perm.from_cycles(cycles, degree)
