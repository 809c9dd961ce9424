"""Symmetric, alternating, and A_n x C_2 groups with exact class machinery.

A_n x C_2 is realized concretely inside Sym(n+2): the A_n part acts on
{1..n} and the central involution is the transposition (n+1 n+2).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DegreeCapExceeded, MembershipError, ParseError
from .perm import CycleType, Perm, least_perm_of_type

# Element tables back the enumeration searches; groups above this order
# would need a different engine entirely.
TABLE_ORDER_CAP = 250_000

SYM, ALT, ALT_C2 = "S", "A", "AxC2"


@dataclass(frozen=True)
class GroupSpec:
    """One of Sym(n), Alt(n), Alt(n) x C_2."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in (SYM, ALT, ALT_C2):
            raise ParseError(f"unknown group family {self.family!r}")
        if self.family == SYM and self.n < 3:
            raise ParseError("Sym(n) requires n >= 3")
        if self.family in (ALT, ALT_C2) and self.n < 4:
            raise ParseError(f"{self.family}(n) requires n >= 4")

    @property
    def degree(self) -> int:
        return self.n + 2 if self.family == ALT_C2 else self.n

    @functools.cached_property
    def order(self) -> int:
        if self.family == SYM:
            return math.factorial(self.n)
        if self.family == ALT:
            return math.factorial(self.n) // 2
        return math.factorial(self.n)  # (n!/2) * 2

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}"

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            return False
        if self.family == SYM:
            return True
        if self.family == ALT:
            return p.is_even()
        # ALT_C2: fixes {1..n} setwise (hence the tail too), even on the block
        n = self.n
        if any(p(i) > n for i in range(1, n + 1)):
            return False
        a, _ = split_alt_c2(p)
        return a.is_even()

    @functools.cache
    def standard_generators(self) -> tuple:
        """A fixed generating pair: (1 2), (1 2 .. n) for Sym(n); (1 2 3) and
        the n- or (n-1)-cycle for Alt(n); for Alt(n) x C_2 the 3-cycle paired
        with the central swap plus the long Alt-cycle.  Built once per group:
        the handle solver asks for it once per class tuple at g0 >= 2."""
        n = self.n
        if self.family == SYM:
            return (Perm.from_cycles([(1, 2)], n), Perm.from_cycles([tuple(range(1, n + 1))], n))
        sigma = Perm.from_cycles([(1, 2, 3)], n)
        if n % 2 == 1:
            tau = Perm.from_cycles([tuple(range(1, n + 1))], n)
        else:
            tau = Perm.from_cycles([tuple(range(2, n + 1))], n)
        if self.family == ALT:
            return (sigma, tau)
        return (embed_alt_c2(sigma, True), embed_alt_c2(tau, False))

    @functools.cache
    def element_orders(self) -> frozenset:
        """All element orders, computed from cycle types (no element table)."""
        if self.family == ALT_C2:
            base = GroupSpec(ALT, self.n).element_orders()
            return frozenset(base | {math.lcm(o, 2) for o in base})
        orders = set()
        for parts in _partitions(self.n):
            ct = CycleType(tuple(k for k in parts if k >= 2), self.n)
            if self.family == SYM or ct.is_even():
                orders.add(ct.order())
        return frozenset(orders)

    def __str__(self) -> str:
        return self.name


def sym(n: int) -> GroupSpec:
    return GroupSpec(SYM, n)


def alt(n: int) -> GroupSpec:
    return GroupSpec(ALT, n)


def alt_c2(n: int) -> GroupSpec:
    return GroupSpec(ALT_C2, n)


def parse_group(name: str) -> GroupSpec:
    name = name.strip()
    for prefix, family in (("AxC2", ALT_C2), ("A", ALT), ("S", SYM)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return GroupSpec(family, int(name[len(prefix):]))
    raise ParseError(f"bad group name {name!r}; expected e.g. A5, S5, AxC25")


def _partitions(n: int, largest: Optional[int] = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def split_alt_c2(p: Perm) -> tuple:
    """Split an Alt(n) x C_2 element (degree n+2) into (A_n part, swapped?)."""
    n = p.degree - 2
    a = Perm(tuple(p(i) for i in range(1, n + 1)))
    return a, p(n + 1) == n + 2


def embed_alt_c2(a: Perm, swapped: bool) -> Perm:
    """Inverse of split_alt_c2."""
    n = a.degree
    tail = (n + 2, n + 1) if swapped else (n + 1, n + 2)
    return Perm(a.images + tail)


def require_member(spec: GroupSpec, p: Perm) -> None:
    if not spec.contains(p):
        raise MembershipError(f"{p} is not in {spec.name}")


def normal_rank(spec: GroupSpec, p: Perm) -> tuple:
    """(rank, swapped) of p, a member of spec's group: the one encoding of
    the group's normal subgroups.  Those of Sym(n) and Alt(n) form a chain,
    1 < V_4 < A_4 < S_4 at n = 4 and 1 < A_n < S_n otherwise, and the rank
    names the least member holding p: 0 for the identity, 1 for type (2,2)
    at n = 4, 2 for any other even p, 3 for an odd one.  Alt(n), n >= 4,
    has no subgroup of index 2, and V_4's are not normal in Alt(4), so by
    Goursat's lemma the normal subgroups of Alt(n) x C_2 are the products
    M x W: the rank is that of p's Alt(n) part, and `swapped` says whether
    p lies outside Alt(n) x 1 (never, in the other families)."""
    swapped = False
    if spec.family == ALT_C2:
        p, swapped = split_alt_c2(p)
    if p.is_identity():
        return 0, swapped
    if spec.n == 4 and p.cycle_type().parts == (2, 2):
        return 1, swapped
    return (2 if p.is_even() else 3), swapped


def in_derived_subgroup(spec: GroupSpec, p: Perm) -> bool:
    """Whether p, a member of spec's group, lies in its derived subgroup G':
    Alt(n) in Sym(n), V_4 in Alt(4), all of Alt(n) for n >= 5, and
    Alt(n)' x 1 in Alt(n) x C_2, read off normal_rank.  Every element of G'
    is a single commutator (O. Ore, "Some remarks on commutators", Proc. AMS
    2 (1951), for Sym(n) and Alt(n); V_4 directly), so at quotient genus
    >= 1 the long relation closes exactly when the elliptic product passes."""
    rank, swapped = normal_rank(spec, p)
    return not swapped and rank <= (1 if spec.family != SYM and spec.n == 4 else 2)


# ---------------------------------------------------------------------------
# conjugacy


def conjugator_in_sym(a: Perm, b: Perm) -> Optional[Perm]:
    """Some c with c a c^-1 = b, or None when the cycle types differ.

    Cycles of equal length (fixed points included) are aligned in order of
    least element, which makes the choice deterministic.
    """
    if a.cycle_type() != b.cycle_type():
        return None

    def full_cycles(p):
        moved = list(p.cycles())
        fixed = [(i,) for i in range(1, p.degree + 1) if p(i) == i]
        return sorted(moved + fixed, key=lambda c: (len(c), c[0]))

    images = [0] * a.degree
    for ca, cb in zip(full_cycles(a), full_cycles(b)):
        for x, y in zip(ca, cb):
            images[x - 1] = y
    return Perm(images)


def split_label(p: Perm) -> str:
    """Tag an even permutation: "whole", or "plus"/"minus" for split types.

    "plus" is the Alt-class of the lexicographically least permutation of
    the same cycle type.
    """
    t = p.cycle_type()
    if not t.splits():
        return "whole"
    c = conjugator_in_sym(least_perm_of_type(t), p)
    return "plus" if c.is_even() else "minus"


def flip_label(label: str) -> str:
    return {"plus": "minus", "minus": "plus"}.get(label, label)


def are_conjugate(spec: GroupSpec, a: Perm, b: Perm) -> bool:
    """Exact conjugacy in Sym(n), Alt(n) or Alt(n) x C_2."""
    require_member(spec, a)
    require_member(spec, b)
    if spec.family == SYM:
        return a.cycle_type() == b.cycle_type()
    if spec.family == ALT:
        if a.cycle_type() != b.cycle_type():
            return False
        if not a.cycle_type().splits():
            return True
        # all conjugators share one parity here: the Sym-centralizer is even
        return conjugator_in_sym(a, b).is_even()
    a0, wa = split_alt_c2(a)
    b0, wb = split_alt_c2(b)
    return wa == wb and are_conjugate(GroupSpec(ALT, spec.n), a0, b0)


def _odd_centralizer_element(p: Perm) -> Perm:
    """An odd permutation commuting with p, an even permutation whose class
    does not split in Alt(n).

    Such a class has an even-length cycle, two fixed points, or two odd
    cycles of equal length, and each gives one: the cycle itself, the swap
    of the fixed points, or the swap of the two cycles.
    """
    n = p.degree
    cycles = list(p.cycles())
    for c in cycles:
        if len(c) % 2 == 0:
            return Perm.from_cycles([c], n)
    by_len = {}
    fixed = [i for i in range(1, n + 1) if p(i) == i]
    if len(fixed) >= 2:
        return Perm.from_cycles([(fixed[0], fixed[1])], n)
    for c in cycles:
        if len(c) in by_len:
            other = by_len[len(c)]
            # swapping two odd-length cycles costs len(c) transpositions
            return Perm.from_cycles(list(zip(other, c)), n)
        by_len[len(c)] = c


def conjugator_in_group(spec: GroupSpec, a: Perm, b: Perm) -> Perm:
    """Some c in the group with c a c^-1 = b, for a and b in one class of
    the group.

    A Sym-conjugator serves unless it is odd in Alt(n).  Every conjugator
    of a split class is even, so an odd one means the class does not split,
    and the odd one times an odd element of a's centralizer is an even
    conjugator.  In Alt(n) x C_2, a and b share their C_2 part, and the
    Alt(n) parts are conjugated.
    """
    if spec.family == ALT_C2:
        c0 = conjugator_in_group(GroupSpec(ALT, spec.n), split_alt_c2(a)[0],
                                 split_alt_c2(b)[0])
        return embed_alt_c2(c0, False)
    c = conjugator_in_sym(a, b)
    if spec.family == ALT and not c.is_even():
        c = c * _odd_centralizer_element(a)
    return c


def centralizer_order(spec: GroupSpec, p: Perm) -> int:
    """Exact order of the centralizer, by the cycle-type formula."""
    require_member(spec, p)
    if spec.family == ALT_C2:
        a0, _ = split_alt_c2(p)
        return 2 * centralizer_order(GroupSpec(ALT, spec.n), a0)
    counts = {}
    for c in p.cycles():
        counts[len(c)] = counts.get(len(c), 0) + 1
    counts[1] = p.degree - sum(len(c) for c in p.cycles())
    total = 1
    for k, m in counts.items():
        total *= (k ** m) * math.factorial(m)
    if spec.family == SYM:
        return total
    return total if p.cycle_type().splits() else total // 2


# ---------------------------------------------------------------------------
# subgroup order (closure or deterministic Schreier-Sims) and generation tests


# Largest containing order for which subgroup_order enumerates <gens>
# instead of running Schreier-Sims.  Mean ms per call over 20 random 2-, 4-
# and 8-element tuples per group, closure with the Lagrange cut against
# Schreier-Sims (2-core shared host, Python 3.11.7): S5 0.02-0.03 vs
# 0.16-0.40, S6 0.10-0.24 vs 0.24-1.07, AxC26 0.16-0.20 vs 0.34-1.33, A7
# 0.49-0.51 vs 0.45-1.05, S7 0.99-1.09 vs 0.56-1.38, A8 4.9-6.8 vs 0.9-2.8,
# S8 11-14 vs 1.2-2.4: closure wins to A7 and S7 is about even.  Without the
# cut, 8 generators of S7 take 17 ms.  factors.cyclic_factor reads the cap
# too, so moving it would change which factor queries build a group table.
CLOSURE_ORDER_CAP = 5040


def subgroup_order(gens: Sequence[Perm], degree: int,
                   within: Optional[int] = None) -> int:
    """Exact order of <gens> inside Sym(degree).

    `within` is the order of a group known to contain every generator
    (default degree!).  Up to order 5040 (CLOSURE_ORDER_CAP), <gens> is
    enumerated breadth-first on image tuples, and once more than within/2
    elements are found it has index < 2, so it is the whole containing
    group; above, one incremental Schreier-Sims pass decides.
    """
    if within is None:
        within = math.factorial(degree)
    if within <= CLOSURE_ORDER_CAP:
        return _closure_order(gens, degree, within)
    return _schreier_sims_order(gens, degree)


def _closure_order(gens: Sequence[Perm], degree: int, within: int) -> int:
    """Order of <gens> by closure, returning `within` as soon as more than
    half of it is found."""
    identity = tuple(range(1, degree + 1))
    padded = {(0,) + g.images for g in gens if g.images != identity}
    if not padded:
        return 1
    seen = {identity}
    if not _close(seen, [identity], padded, within // 2):
        return within
    return len(seen)


def _close(seen: set, frontier: list, padded: Iterable[tuple], cap: int) -> bool:
    """Close `seen`, a set of image tuples, under left multiplication by the
    padded generators, expanding from the elements listed in `frontier`.

    A leading 0 makes a generator's image tuple indexable by 1-based points,
    so itemgetter(*h)(g) is the image tuple of g * h.  Returns False as soon
    as `seen` holds more than `cap` elements, leaving it partial.
    """
    while frontier:
        fresh = []
        for h in frontier:
            compose = operator.itemgetter(*h)
            for g in padded:
                k = compose(g)
                if k not in seen:
                    seen.add(k)
                    if len(seen) > cap:
                        return False
                    fresh.append(k)
        frontier = fresh
    return True


def _schreier_sims_order(gens: Sequence[Perm], degree: int) -> int:
    """Exact order of <gens> inside Sym(degree), by incremental Schreier-Sims
    (C. C. Sims 1970; A. Seress, Permutation Group Algorithms, 2003, ch. 4).

    Level i holds strong generators fixing base[:i] and the orbit of base[i]
    under them, each point with a u mapping base[i] to it.  The generators
    are sifted in; then, from the last level to the first, each Schreier
    generator u_{g(b)}^-1 * g * u_b of level i is sifted from level i + 1.
    A residue other than the identity joins only the levels from i + 1 to
    the one it stopped at (a new one, with a point it moves, if it passed
    them all), and the check resumes there.  Once level 0 passes, the order
    is the product of the orbit sizes.
    """
    identity = Perm.identity(degree)
    base, level_gens, orbits = [], [], []

    def sift(h, i):
        """h reduced through the levels from i, and the level it stopped at."""
        for j in range(i, len(base)):
            u = orbits[j].get(h(base[j]))
            if u is None:
                return h, j
            h = u.inverse() * h
        return h, len(base)

    def join(h, low, high):
        if high == len(base):
            point = next(x for x in range(1, degree + 1) if h(x) != x)
            base.append(point)
            level_gens.append([])
            orbits.append({point: identity})
        for i in range(low, high + 1):
            level_gens[i].append(h)
            orbit = orbits[i]
            frontier = list(orbit)  # the transversal found so far stays
            for point in frontier:
                u = orbit[point]
                for g in level_gens[i]:
                    if g(point) not in orbit:
                        orbit[g(point)] = g * u
                        frontier.append(g(point))

    def residue(i):
        """sift's answer for the first Schreier generator of level i that
        does not sift, or None."""
        orbit = orbits[i]
        for point, u in orbit.items():
            for g in level_gens[i]:
                gu, v = g * u, orbit[g(point)]
                if gu != v:
                    h, j = sift(v.inverse() * gu, i + 1)
                    if h != identity:
                        return h, j
        return None

    for g in gens:
        h, j = sift(g, 0)
        if h != identity:
            join(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
        else:
            join(found[0], i + 1, found[1])
            i = found[1]
    return math.prod(map(len, orbits))


def spans(spec: GroupSpec, gens: Sequence[Perm]) -> bool:
    """Whether gens, all members of spec's group, generate the whole of it.

    Exact: the order of <gens> is compared with the group's, by closure with
    a Lagrange cut up to order 5040 and Schreier-Sims above
    (subgroup_order).  The cut assumes membership; `generates` checks it.
    """
    return subgroup_order(gens, spec.degree, spec.order) == spec.order


def generates(spec: GroupSpec, elems: Iterable[Perm]) -> bool:
    """Whether the given elements generate the whole group.  Exact, at any
    degree; membership is checked, which callers holding members skip."""
    elems = list(elems)
    for p in elems:
        require_member(spec, p)
    return spans(spec, elems)


# ---------------------------------------------------------------------------
# element tables and conjugacy classes


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class of a group table."""

    rep: Perm
    elements: tuple
    key: tuple  # family-specific class invariant, e.g. (type, label)

    @property
    def size(self) -> int:
        return len(self.elements)


class GroupTable:
    """Explicit element list plus conjugacy classes, built once per spec.

    Elements are listed in lexicographic order of their image tuples.  Each
    class is built as the orbit of its least element under conjugation by
    the standard generators, and keyed once, from that element; classes are
    sorted by key, and each class's first element is the least of the
    class.  Class lookups go by image tuple.  `flip` is the global split-class
    flip on class ids: the class of each representative conjugated by
    (1 2).  That is the identity on Sym(n); on Alt(n) and Alt(n) x C_2 it
    swaps the two halves of each split class and keeps the C_2 part.
    `least_second` holds the one orbit-least list.  TABLE_ORDER_CAP is the
    package's only size limit (DegreeCapExceeded).

    Every derived lookup is memoized per table by `functools.cache`, whose
    key holds the table (compared by identity) until the process exits, so
    a table built directly lives as long as one from `group_table`.
    """

    def __init__(self, spec: GroupSpec):
        if spec.order > TABLE_ORDER_CAP:
            raise DegreeCapExceeded(
                f"{spec.name} has order {spec.order}, above the element-table cap")
        self.spec = spec
        self.identity = Perm.identity(spec.degree)
        self.elements = tuple(map(Perm._trusted, self._element_images()))
        self.classes, self._class_of = self._build_classes()
        t = Perm.from_cycles([(1, 2)], spec.degree)
        self.flip = tuple(self._class_of[(t * cl.rep * t).images] for cl in self.classes)
        self.class_orders = tuple(cl.rep.order() for cl in self.classes)
        self.classes_by_order = {}
        for ci, m in enumerate(self.class_orders):
            self.classes_by_order.setdefault(m, []).append(ci)
        # Subgroups as int bitmasks over `elements`: bit i marks elements[i].
        self.trivial_mask = 1 << self.elements.index(self.identity)
        self.full_mask = (1 << len(self.elements)) - 1
        self._mask_gens = {self.trivial_mask: ()}

    def _element_images(self) -> list:
        """Image tuples of the elements, in lexicographic order."""
        spec = self.spec
        images = itertools.permutations(range(1, spec.n + 1))
        if spec.family == SYM:
            return list(images)
        even = list(itertools.compress(images, _lex_evenness(spec.n)))
        if spec.family == ALT:
            return even
        fixed, swapped = (spec.n + 1, spec.n + 2), (spec.n + 2, spec.n + 1)
        return [im + tail for im in even for tail in (fixed, swapped)]

    def class_key(self, p: Perm) -> tuple:
        spec = self.spec
        if spec.family == SYM:
            return (p.cycle_type().parts,)
        if spec.family == ALT:
            return (p.cycle_type().parts, split_label(p))
        a0, w = split_alt_c2(p)
        return (a0.cycle_type().parts, split_label(a0), w)

    def _build_classes(self) -> tuple:
        """(classes, {image tuple: class id}).

        Scanning the elements in order, each one not yet placed starts a new
        orbit, so it is the least element of its class.  Conjugates are
        composed on image tuples padded with a leading 0, as in _close:
        itemgetter at g^-1's images applied to padded x gives x * g^-1, and
        itemgetter at those images applied to padded g gives g x g^-1.
        """
        conjugators = []
        for g in self.spec.standard_generators():
            conjugators.append((operator.itemgetter(*g.inverse().images),
                                (0,) + g.images))
        class_of = {}
        reps = []
        for p in self.elements:
            if p.images in class_of:
                continue
            orbit_id = len(reps)
            reps.append(p)
            class_of[p.images] = orbit_id
            orbit = [p.images]
            for x in orbit:
                for at_inverse, padded in conjugators:
                    y = operator.itemgetter(*at_inverse((0,) + x))(padded)
                    if y not in class_of:
                        class_of[y] = orbit_id
                        orbit.append(y)
        keys = [self.class_key(rep) for rep in reps]
        order = sorted(range(len(reps)), key=keys.__getitem__)
        class_id = [0] * len(reps)
        for ci, orbit_id in enumerate(order):
            class_id[orbit_id] = ci
        # one pass in element order renumbers the orbits and leaves every
        # class's elements sorted
        members = [[] for _ in reps]
        for p in self.elements:
            ci = class_of[p.images] = class_id[class_of[p.images]]
            members[ci].append(p)
        classes = [ConjClass(rep=elems[0], elements=tuple(elems),
                             key=keys[orbit_id])
                   for elems, orbit_id in zip(members, order)]
        return classes, class_of

    def class_id(self, p: Perm) -> int:
        """Class id of a member; KeyError for anything else."""
        return self._class_of[p.images]

    @functools.cache
    def centralizer(self, p: Perm) -> tuple:
        """Elements commuting with p, in element order.

        z commutes with p when z(p(i)) == p(z(i)) at every point i.  Both
        sides are composed on image tuples: z after p by itemgetter at p's
        images, 0-based, and p after z by indexing p's padded images.
        """
        z_after_p = operator.itemgetter(*(k - 1 for k in p.images))
        p_at = ((0,) + p.images).__getitem__
        return tuple(z for z in self.elements
                     if z_after_p(z.images) == tuple(map(p_at, z.images)))

    @functools.cache
    def least_second(self, c0: int, c1: int) -> tuple:
        """The elements of class c1 least in their orbit under conjugation by
        the centralizer of class c0's representative, in element order: the
        second elliptic's choices once the first is pinned to that
        representative, and weak generation's choices of tau once sigma is.

        Elements are listed in lexicographic order of their image tuples, so
        the test compares tuples.  z x z^-1 is z after x, by itemgetter at
        x's images on z's padded images, then after z^-1, by itemgetter at
        z^-1's images, 0-based.  A central z maps x to itself, which passes.
        """
        # sorting the points by their images lists z^-1's images, 0-based
        conjugators = [((0,) + z.images,
                        operator.itemgetter(*sorted(range(len(z.images)),
                                                    key=z.images.__getitem__)))
                       for z in self.centralizer(self.classes[c0].rep)]

        def least(x: tuple) -> bool:
            z_after_x = operator.itemgetter(*x)
            return all(after_z_inverse(z_after_x(padded)) >= x
                       for padded, after_z_inverse in conjugators)
        return tuple(x for x in self.classes[c1].elements if least(x.images))

    @functools.cache
    def power_class(self, ci: int, k: int) -> int:
        """Class id of rep ** k for the representative of class ci: the
        power map, a class function."""
        return self._class_of[(self.classes[ci].rep ** k).images]

    def centralizer_order(self, ci: int) -> int:
        """Order of the centralizer of any element of class ci."""
        return self.spec.order // self.classes[ci].size

    @functools.cache
    def product_support(self, i: int, j: int) -> frozenset:
        """Class ids reachable as products: {class(a*b) : a in C_i, b in C_j}.

        class(a*b) = class(b*a), so the answer is symmetric in i and j, and
        b * rep runs over those classes as b runs over one class and rep is
        the other class's representative: the smaller class is scanned.
        itemgetter at rep's images, 0-based, composes the product.
        """
        scanned, other = self.classes[i], self.classes[j]
        if scanned.size > other.size:
            scanned, other = other, scanned
        class_of = self._class_of
        after_rep = operator.itemgetter(*(k - 1 for k in other.rep.images))
        return frozenset(class_of[after_rep(b.images)] for b in scanned.elements)

    @functools.cache
    def class_ranks(self) -> tuple:
        """normal_rank of each class, by class id."""
        return tuple(normal_rank(self.spec, cl.rep) for cl in self.classes)

    @functools.cache
    def commutator_class_ids(self) -> frozenset:
        """Class ids of the derived subgroup, whose elements are exactly the
        single commutators [a, b] (in_derived_subgroup)."""
        return frozenset(ci for ci, cl in enumerate(self.classes)
                         if in_derived_subgroup(self.spec, cl.rep))

    @functools.cached_property
    def _index(self) -> dict:
        return {p.images: i for i, p in enumerate(self.elements)}

    @functools.cache
    def join(self, mask: int, x: Perm) -> int:
        """Bitmask of <H, x>, where `mask` is the bitmask of H.

        H must be trivial_mask or a mask join returned, since each mask
        keeps the generators it was closed from.  The closure expands H's
        elements breadth-first on image tuples and stops with full_mask once
        more than half the group is found (Lagrange).
        """
        index = self._index
        if mask >> index[x.images] & 1:
            return mask
        gens = self._mask_gens[mask] + ((0,) + x.images,)
        # bit i of mask is character -1 - i of its binary text
        seen = {self.elements[i].images
                for i, bit in enumerate(reversed(bin(mask))) if bit == "1"}
        if _close(seen, list(seen), gens, len(self.elements) // 2):
            out = 0
            for k in seen:
                out |= 1 << index[k]
        else:
            out = self.full_mask
        self._mask_gens.setdefault(out, gens)
        return out

    def identity_class_id(self) -> int:
        return self._class_of[self.identity.images]


def _lex_evenness(n: int) -> list:
    """Whether each permutation of 1..n is even, in lexicographic order.

    The k-th permutation's Lehmer code is the factorial-base digits of k,
    and its parity is their sum: the block led by the d-th least symbol
    repeats the parities on n - 1 symbols, flipped when d is odd.
    """
    even = [True]
    for m in range(2, n + 1):
        flipped = [not e for e in even]
        even = (even + flipped) * (m // 2) + (even if m % 2 else [])
    return even


@functools.cache
def group_table(spec: GroupSpec) -> GroupTable:
    return GroupTable(spec)


# ---------------------------------------------------------------------------
# commutator presentations


def commutator_witness(spec: GroupSpec, target: Perm) -> Optional[tuple]:
    """A pair (r1, r2) with r1 r2 r1^-1 r2^-1 = target, or None.

    The scan over r2 is exhaustive, so None is a proof of absence.
    """
    require_member(spec, target)
    return next(commutator_witnesses(spec, target), None)


def commutator_witnesses(spec: GroupSpec, target: Perm):
    """All commutator presentations of target, lazily, in deterministic order.

    [r1, r2] = target is solved as r1 r2 r1^-1 = target * r2, so for each r2
    the candidates r1 run over one conjugator times the centralizer of r2.
    r2 and target * r2 share a table class, so the conjugator exists, and
    it and the centralizer lie in the group, so every r1 does.  The target
    must be a member, as table elements and validated entries are.
    """
    table = group_table(spec)
    for r2 in table.elements:
        c = target * r2
        if table.class_id(c) != table.class_id(r2):
            continue
        c0 = conjugator_in_group(spec, r2, c)
        for z in table.centralizer(r2):
            yield (c0 * z, r2)
