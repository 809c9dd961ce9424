"""Quotient-orbifold signatures and cyclic data sets.

All arithmetic is exact: genus equations are solved in integers over the lcm
of the periods, and any non-integrality is surfaced, never rounded.

Signatures and cyclic data sets are multisets: each type stores its periods
or cones sorted, in whatever order they are given, so Signature(0, (3, 2))
== Signature(0, (2, 3)).

Text grammars:
  signature        (g0;m1,m2,...)          cone orders ascending, (g0;-) if none
  cyclic data set  (n,g0;(c1,m1)^[l1],...) cones by (order, rotation), - if none
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .errors import ParseError, ValidationFailure
from .groups import GroupSpec


@dataclass(frozen=True)
class Signature:
    """Orbifold signature: genus g0 plus the multiset of cone-point orders,
    stored ascending."""

    g0: int
    periods: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(sorted(self.periods)))
        if self.g0 < 0:
            raise ParseError("orbifold genus must be >= 0")
        if min(self.periods, default=2) < 2:
            raise ParseError("periods must be >= 2")

    @property
    def r(self) -> int:
        return len(self.periods)

    def __str__(self) -> str:
        body = ",".join(str(m) for m in self.periods) if self.periods else "-"
        return f"({self.g0};{body})"


def rh_genus(group_order: int, sig: Signature) -> Optional[int]:
    """Surface genus determined by 2-2g = |H| * chi(orbifold).

    Returns None when the equation has no non-negative integer solution.
    Solved in integers over the lcm L of the periods: 2 - 2g is
    |H| * ((2 - 2*g0) * L - sum((m - 1) * (L/m))) / L.
    """
    lcm = math.lcm(*sig.periods)
    area = (2 - 2 * sig.g0) * lcm - sum((m - 1) * (lcm // m) for m in sig.periods)
    two_minus_2g, rest = divmod(group_order * area, lcm)
    if rest or two_minus_2g % 2 != 0:
        return None
    g = (2 - two_minus_2g) // 2
    return g if g >= 0 else None


def quotient_genus(g: int, order: int, periods: Sequence[int],
                   error: Callable[[Fraction], Exception]) -> int:
    """The g0 with 2 - 2g = order * (2 - 2*g0 - sum(1 - 1/m)).

    Solved in integers over the lcm L of the order and the periods:
    (2 - 2*g0) * L = (2 - 2g) * (L/order) + sum((m - 1) * (L/m)).  When g0
    is not a non-negative integer, raises error(g0), g0 as a Fraction.
    """
    lcm = math.lcm(order, *periods)
    chi_lcm = (2 - 2 * g) * (lcm // order) + sum((m - 1) * (lcm // m) for m in periods)
    g0, rest = divmod(2 * lcm - chi_lcm, 2 * lcm)
    if rest or g0 < 0:
        raise error(Fraction(2 * lcm - chi_lcm, 2 * lcm))
    return g0


def enumerate_signatures(group: GroupSpec, g: int) -> list:
    """All signatures whose periods are element orders of the group and whose
    RH genus is exactly g, listed in (g0, periods) order.

    Solved in integers over the lcm L of the element orders: a period m
    weighs (m - 1) * (L/m), and the weights of a signature's periods sum to
    (2 - 2*g0) * L - (2 - 2g) * L / |G|.  Each order gets a multiplicity, so
    the search is as deep as the number of distinct orders, whatever g is.
    One g0's weight sums agree, so multiplicities running down list in order.
    """
    if g < 2:
        raise ParseError("genus must be >= 2")
    orders = sorted(o for o in group.element_orders() if o >= 2)
    lcm = math.lcm(*orders)
    chi_lcm, rest = divmod((2 - 2 * g) * lcm, group.order)
    if rest:
        return []  # the weight sums are integers, so no g0 can match
    weights = [(m - 1) * (lcm // m) for m in orders]
    out = []
    g0 = 0
    while (need := (2 - 2 * g0) * lcm - chi_lcm) >= 0:
        for mults in _multiplicities(weights, need):
            periods = sum(((m,) * k for m, k in zip(orders, mults)), ())
            out.append(Signature(g0, periods))
        g0 += 1
    return out


def _multiplicities(weights: Sequence[int], need: int):
    """Every tuple k of non-negative integers with sum(k[j] * weights[j])
    equal to need, for a non-empty list of weights, the first multiplicity
    running down from its largest value; recursion depth len(weights)."""
    w = weights[0]
    if len(weights) == 1:  # the last multiplicity is forced
        if need % w == 0:
            yield (need // w,)
        return
    for k in range(need // w, -1, -1):
        for tail in _multiplicities(weights[1:], need - k * w):
            yield (k,) + tail


# ---------------------------------------------------------------------------
# cyclic data sets


@dataclass(frozen=True)
class CyclicDataSet:
    """Conjugacy invariant of one periodic map: degree, quotient genus, and
    the multiset of (rotation number, order) pairs at the cone points,
    stored sorted by (order, rotation)."""

    degree: int
    g0: int
    cones: Tuple[Tuple[int, int], ...]  # (c, m) pairs, repetition = multiplicity

    def __post_init__(self):
        object.__setattr__(self, "cones",
                           tuple(sorted(self.cones, key=lambda cm: (cm[1], cm[0]))))
        if self.degree < 2:
            raise ParseError("cyclic data set degree must be >= 2")
        if self.g0 < 0:
            raise ParseError("quotient genus must be >= 0")

    @property
    def signature(self) -> Signature:
        return Signature(self.g0, [m for _, m in self.cones])

    @functools.cached_property
    def _text(self) -> str:
        # formatted once per instance: a memoized factor is printed each
        # time it is asked for
        if not self.cones:  # most factors a sweep prints: skip the run scan
            return f"({self.degree},{self.g0};-)"
        return format_runs(self.degree, self.g0,
                           [(f"({c},{m})", k) for (c, m), k in run_lengths(self.cones)])

    def __str__(self) -> str:
        return self._text


def validate_cyclic(d: CyclicDataSet) -> int:
    """Check the defining conditions and return the genus.

    Raises ValidationFailure tagged divisibility / lcm / congruence /
    integrality.  The cone checks run once per distinct cone and weigh it
    by its multiplicity; the cones are sorted, so the first distinct cone
    that fails is the first cone that fails.
    """
    n = d.degree
    counts = collections.Counter()  # order -> cones of that order
    total = 0
    for (c, m), k in run_lengths(d.cones):
        if m < 2 or n % m != 0 or math.gcd(c, m) != 1 or not 1 <= c < m:
            raise ValidationFailure("divisibility", f"cone ({c},{m}) in degree {n}")
        counts[m] += k
        total += (n // m) * c * k
    full = math.lcm(*counts)
    # only an order that occurs once can be lcm-essential; the distinct
    # orders are divisors of n, so there are few of them
    for m, k in counts.items():
        if k == 1 and math.lcm(*(o for o in counts if o != m)) != full:
            raise ValidationFailure("lcm", f"order {m} is lcm-essential")
    if d.g0 == 0 and full != n:
        raise ValidationFailure("lcm", f"lcm {full} != degree {n} with g0 = 0")
    if total % n != 0:
        raise ValidationFailure("congruence", f"sum (n/m)c = {total} mod {n}")
    g = rh_genus(n, d.signature)
    if g is None:
        raise ValidationFailure("integrality", "genus is not a non-negative integer")
    return g


# ---------------------------------------------------------------------------
# text and JSON forms


def run_lengths(items: Sequence) -> list:
    """[(item, count)] for each run of equal consecutive items, in order."""
    return [(item, len(list(run))) for item, run in itertools.groupby(items)]


def format_runs(n: int, g0: int, runs: Iterable[Tuple[str, int]]) -> str:
    """``(n,g0;item^[k],...)`` from (item text, k) pairs: ``^[k]`` only for
    k > 1, and ``-`` for an empty list."""
    body = ",".join([text + f"^[{k}]" if k > 1 else text for text, k in runs])
    return f"({n},{g0};{body or '-'})"


_HEADER_RE = re.compile(r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*;(.*)\)\s*")
_MULT_RE = re.compile(r"\^\[(\d+)\]")


def parse_runs(text: str, item: re.Pattern, what: str, unit: str,
               gap: str = "") -> tuple:
    """(n, g0, runs) from ``(n,g0;item^[k],...)``, the inverse of
    format_runs.  runs yields (item match, k) lazily, so an error a caller
    finds in an item comes before any scan error after it.  The messages
    name a bad `what` syntax, a bad `unit` list and, with `gap`, a missing
    comma."""
    m = _HEADER_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"bad {what} syntax: {text!r}")
    body = m.group(3).strip()

    def runs():
        pos = 0
        while body != "-" and pos < len(body):
            im = item.match(body, pos)
            if im is None:
                raise ParseError(f"bad {unit} list at {body[pos:]!r}")
            km = _MULT_RE.match(body, im.end())
            yield im, int(km.group(1)) if km else 1
            pos = km.end() if km else im.end()
            if pos < len(body):
                if body[pos] != ",":
                    raise ParseError(f"expected ','{gap} at {body[pos:]!r}")
                pos += 1
    return int(m.group(1)), int(m.group(2)), runs()


_CONE_RE = re.compile(r"\((\d+),(\d+)\)")


def parse_cyclic(text: str) -> CyclicDataSet:
    """Parse e.g. ``(5,3;(1,5)^[2],(4,5)^[2])`` or ``(3,7;-)``."""
    degree, g0, runs = parse_runs(text, _CONE_RE, "cyclic data set", "cone")
    cones = [(int(cm.group(1)), int(cm.group(2))) for cm, k in runs for _ in range(k)]
    return CyclicDataSet(degree, g0, cones)
