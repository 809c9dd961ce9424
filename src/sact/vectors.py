"""Generating-vector search and reduction to weak conjugacy classes.

A generating vector realizes one group action: images of the elliptic
generators (one per cone point, order-exact) and of the handle generators,
subject to the long relation

    s_1 ... s_r [a_1,b_1] ... [a_g0,b_g0] = 1      with [a,b] = a b a^-1 b^-1

and joint generation of the whole group.

The search is keyed by conjugacy-class tuples first.  With quotient genus 0
a class tuple whose normal closure (GroupTable.normal_closure) is a proper
normal subgroup cannot generate and is dropped before any search; the rest
have their per-position class choices pruned by exact class-product
reachability, then representatives are filled in by depth-first search with
the last elliptic forced (quotient genus 0) or the handles solved by an
exhaustive commutator scan (genus >= 1, datasets.handle_solutions).

Below position i the subtree depends only on i, the partial product and,
for quotient genus 0 or 1, the subgroup H the chosen elliptics generate,
kept as a bitmask on the group table (GroupTable.join).  Each search keeps
the states whose subtree yielded nothing and skips them when they recur
(nogood recording), which is exact.  A genus-0 leaf generates exactly when
H is the whole group, so it runs no generation test; a genus-1 leaf tests
each commutator solution with groups.spans, which compares the order of
the subgroup they generate with the group's.

Existence searches (normalize_first, as in weak-class enumeration) at
quotient genus 0 or 1 also break symmetry: they branch only on choices
least, in element order, in their orbit under conjugation by the
centralizer of what is already fixed.  The first elliptic is pinned to its
class representative, so the second runs over the orbit-least elements of
its class under that representative's centralizer
(GroupTable.least_second); a genus-1 leaf scans only the handle elements r2
that are least under the common centralizer of the chosen elliptics
(GroupTable.least_under_centralizer).  Conjugating a solution by such an
element keeps every fixed choice and the partial product and gives a
solution with a smaller entry at the branch point, so a subtree has a
solution exactly when its pruned subtree has one: dead-state records stay
exact, and the first solution in DFS order, which is orbit-least at every
pruned position, is the one found.  Pruned choices cost no node.  At genus
>= 2 the leaf pins the first handle pair, which conjugation moves, so
those searches, and the full listings (enumerate_vectors,
vectors_for_dataset), are not pruned.

Weak classes are keyed by class multisets.  Two multisets are one weak
class when the global split-class flip (GroupTable.flip), conjugation by
(1 2) in Sym(n), carries one onto the other.  For n != 6 that is all of
Aut(G); at n = 6 the outer automorphisms of Sym(6) and Alt(6) relate
further pairs, which stay separate (pinned in tests/test_vectors.py).

Everything is deterministic: classes, elements, and emitted vectors follow a
fixed sort order.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from .datasets import GroupDataSet, dataset, handle_solutions, validate
from .errors import (BudgetExhausted, InconsistencyError, NotApplicable,
                     ParseError, PeriodNotRealizable, ValidationFailure)
from .groups import ALT, SYM, GroupSpec, group_table, spans
from .orbifold import Signature, enumerate_signatures, run_lengths
from .perm import Perm


@dataclass
class SearchBudget:
    """Node-count and wall-clock ceilings for the backtracking searches."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


class _Clock:
    """Shared tick counter for one search run."""

    __slots__ = ("budget", "nodes", "t0")

    def __init__(self, budget: Optional[SearchBudget]):
        self.budget = budget or SearchBudget()
        self.nodes = 0
        self.t0 = time.monotonic()

    def tick(self):
        self.nodes += 1
        b = self.budget
        if b.max_nodes is not None and self.nodes > b.max_nodes:
            raise BudgetExhausted(f"node ceiling {b.max_nodes} hit")
        if b.max_seconds is not None and (self.nodes & 0x3FF) == 0:
            if time.monotonic() - self.t0 > b.max_seconds:
                raise BudgetExhausted(f"wall-clock ceiling {b.max_seconds}s hit")


@dataclass(frozen=True)
class GeneratingVector:
    spec: GroupSpec
    sig: Signature
    elliptic: Tuple[Perm, ...]
    handles: Tuple[Tuple[Perm, Perm], ...]

    def long_relation_value(self) -> Perm:
        identity = Perm.identity(self.spec.degree)
        word = list(self.elliptic)
        for a, b in self.handles:
            # [a, b] is trivial when a or b is, as in the identity pairs
            # that pad the handles at g0 > 2
            if identity not in (a, b):
                word += (a, b, a.inverse(), b.inverse())
        # the product applies its last factor first; following each point
        # through the word builds no intermediate product
        word = [p.images for p in reversed(word)]
        images = []
        for x in identity.images:
            for at in word:
                x = at[x - 1]
            images.append(x)
        return Perm._trusted(tuple(images))

    def all_images(self) -> list:
        out = list(self.elliptic)
        for a, b in self.handles:
            out.extend((a, b))
        return out


def validate_vector(v: GeneratingVector) -> bool:
    """Order-exactness, the long relation, and generation, all exact.

    Elliptic entries may sit in any order; their order multiset must match
    the signature periods (restrictions emit pair-first, not sorted).
    """
    if len(v.elliptic) != v.sig.r or len(v.handles) != v.sig.g0:
        return False
    if tuple(sorted(s.order() for s in v.elliptic)) != v.sig.periods:
        return False
    if not v.long_relation_value().is_identity():
        return False
    return spans(v.spec, v.all_images())


@functools.lru_cache(maxsize=4096)
def _feasible_end_ids(table, g0: int) -> frozenset:
    """Class ids the elliptic product may land in, given the handle budget:
    the identity, the single commutators, or at g0 >= 2 the derived
    subgroup, the normal closure of the commutators."""
    if g0 == 0:
        return frozenset({table.identity_class_id()})
    if g0 == 1:
        return table.commutator_class_ids()
    return table.normal_closure(table.commutator_class_ids())


@functools.lru_cache(maxsize=1 << 14)
def _reach_before(table, class_id: int, after: frozenset) -> frozenset:
    """Class ids x such that an element of class x times one of class_id
    can land in a class of after.

    A suffix's reach set is this step applied position by position from
    `_feasible_end_ids`, so the memo serves every class tuple that shares a
    suffix, or only its reach set.
    """
    return frozenset(x for x in range(len(table.classes))
                     if table.product_support(x, class_id) & after)


def _vectors_for_classes(spec: GroupSpec, g0: int, class_ids: Sequence[int],
                         clock: _Clock, normalize_first: bool = False
                         ) -> Iterator[GeneratingVector]:
    """All vectors whose i-th elliptic lies in the i-th listed class.

    With normalize_first, the first elliptic is pinned to its class
    representative; every solution is simultaneously conjugate to such a
    vector, so this is complete for existence questions.
    """
    table = group_table(spec)
    if g0 == 0 and len(table.normal_closure(class_ids)) < len(table.classes):
        # every image lies in a proper normal subgroup: nothing generates
        return
    r = len(class_ids)
    sig = Signature(g0, [table.class_orders[c] for c in class_ids])
    # reach[i]: the classes from which the product of the first i elliptics
    # can still close the relation
    reach = [None] * (r + 1)
    reach[r] = _feasible_end_ids(table, g0)
    for i in range(r - 1, -1, -1):
        reach[i] = _reach_before(table, class_ids[i], reach[i + 1])
    if table.identity_class_id() not in reach[0]:
        return

    identity = table.identity
    # the subgroup the chosen elliptics generate, as a table bitmask; at
    # g0 >= 2 the standard handle pair generates, so it is not tracked
    track = g0 <= 1
    # symmetry breaking: an existence search branches only on orbit-least
    # choices; at g0 >= 2 the leaf pins a handle pair that conjugation moves
    prune = normalize_first and track
    chosen: list = []
    # (i, partial product, subgroup) states whose subtree yielded nothing:
    # the subtree below position i depends on nothing else
    dead = set()

    def leaf(product: Perm, group: Optional[int]) -> Iterator[GeneratingVector]:
        if g0 == 0:
            # the forced last elliptic makes the product trivial
            if group == table.full_mask:
                yield GeneratingVector(spec, sig, tuple(chosen), ())
            return
        least = table.least_under_centralizer(group) if prune else None
        for handles in handle_solutions(spec, g0, chosen, product, clock.tick, least):
            yield GeneratingVector(spec, sig, tuple(chosen), handles)

    def steps(i: int, partial: Perm) -> Iterator[tuple]:
        """(x, partial * x) for each admissible choice at position i."""
        if g0 == 0 and i == r - 1:
            forced = partial.inverse()
            if table.class_id(forced) == class_ids[i]:
                yield forced, identity
            return
        if normalize_first and i == 0:
            candidates = (table.classes[class_ids[0]].rep,)
        elif prune and i == 1:
            candidates = table.least_second(class_ids[0], class_ids[1])
        else:
            candidates = table.classes[class_ids[i]].elements
        for x in candidates:
            p2 = partial * x
            if table.class_id(p2) in reach[i + 1]:
                yield x, p2

    def frame(i: int, partial: Perm, group: Optional[int]) -> list:
        """[i, partial, subgroup, pending steps or leaf vectors, found]."""
        clock.tick()
        pending = leaf(partial, group) if i == r else steps(i, partial)
        return [i, partial, group, pending, False]

    def descend(i: int, group: Optional[int], pending: Iterator[tuple]) -> bool:
        """Push the next child of the frame at i < r not yet proven dead;
        False when its steps are used up."""
        for x, p2 in pending:
            h2 = table.join(group, x) if track else None
            if (i + 1, p2.images, h2) not in dead:
                chosen.append(x)
                stack.append(frame(i + 1, p2, h2))
                return True
        return False

    # depth-first over an explicit stack, so the depth is not bounded by
    # the recursion limit; `found` marks frames whose subtree yielded
    stack = [frame(0, identity, table.trivial_mask if track else None)]
    while stack:
        top = stack[-1]
        i, partial, group, pending, _ = top
        if i < r:
            if descend(i, group, pending):
                continue
        else:
            for vec in pending:
                # found frames form a prefix of the stack
                for f in reversed(stack):
                    if f[4]:
                        break
                    f[4] = True
                yield vec
        # reached only when the subtree ran to the end: a budget stop or a
        # closed generator records nothing
        stack.pop()
        if not top[4]:
            dead.add((i, partial.images, group))
        if stack:
            chosen.pop()


def _class_tuples(table, periods: Sequence[int]):
    """Per-position class choices, non-decreasing inside equal-period blocks."""
    blocks = []
    for m, block in itertools.groupby(periods):
        size = len(list(block))
        ids = table.classes_by_order.get(m, [])
        blocks.append(list(itertools.combinations_with_replacement(ids, size)))
    for combo in itertools.product(*blocks):
        yield tuple(itertools.chain.from_iterable(combo))


def enumerate_vectors(spec: GroupSpec, sig: Signature,
                      budget: Optional[SearchBudget] = None
                      ) -> Iterator[GeneratingVector]:
    """All generating vectors for the signature, deterministically ordered.

    Raises PeriodNotRealizable when some period is not an element order.
    """
    orders = spec.element_orders()
    for m in sig.periods:
        if m not in orders:
            raise PeriodNotRealizable(f"{spec.name} has no element of order {m}")
    if sig.area_term() >= 0:
        raise ParseError(f"signature {sig} is not hyperbolic")
    table = group_table(spec)
    clock = _Clock(budget)
    for ids in _class_tuples(table, sig.periods):
        yield from _vectors_for_classes(spec, sig.g0, ids, clock)


def vectors_for_dataset(ds: GroupDataSet, budget: Optional[SearchBudget] = None
                        ) -> Iterator[GeneratingVector]:
    """Vectors whose positional classes match the data set's stored entries."""
    spec = ds.spec
    table = group_table(spec)
    ids = [table.class_id(rep) for rep in ds.expanded()]
    clock = _Clock(budget)
    return _vectors_for_classes(spec, ds.g0, ids, clock)


def resolved_representative(ds: GroupDataSet) -> GroupDataSet:
    """A fully valid data set in the same per-position classes.

    Canonical forms carry display representatives whose product need not be
    the identity; re-solving inside the stored classes recovers a realizable
    tuple (position for position, so cone indexing is preserved).  Raises the
    original failure when the class pattern is not realizable at all.
    """
    try:
        validate(ds)
        return ds
    except ValidationFailure as failure:
        if failure.condition not in ("product", "generation", "witness"):
            raise
        vec = next(vectors_for_dataset(ds), None)
        if vec is None:
            raise
        return dataset_from_vector(vec)


def materialize_vector(ds: GroupDataSet) -> GeneratingVector:
    """One concrete vector for a valid data set, its handles solved afresh."""
    spec = ds.spec
    reps = ds.expanded()
    sig = Signature(ds.g0, [rep.order() for rep in reps])
    handles = next(handle_solutions(spec, ds.g0, reps, ds.product()), None)
    if handles is None:
        raise NotApplicable("no handle images close the relation")
    # keep the stored entry order: the product relation depends on it
    return checked_vector(GeneratingVector(spec, sig, tuple(reps), handles))


def checked_vector(vec: GeneratingVector) -> GeneratingVector:
    """vec, once it is seen to close the long relation.  Every vector the
    searches build does, so a failure is an internal inconsistency."""
    if not vec.long_relation_value().is_identity():
        raise InconsistencyError(f"vector {', '.join(map(str, vec.all_images()))} "
                                 "does not close the long relation")
    return vec


# ---------------------------------------------------------------------------
# weak conjugacy classes


@dataclass(frozen=True)
class WeakClass:
    """One weak conjugacy class, with a witness vector.

    `key` is the class ids of the witness's elliptics, sorted, or their
    sorted flip when that is less (_canonical_key).  `ds` is filled for
    Sym/Alt; the A_n x C_2 family is reported at the vector level (`ds` is
    None) since its classes have no data-set form here.
    """

    spec: GroupSpec
    sig: Signature
    key: tuple
    vector: GeneratingVector
    ds: Optional[GroupDataSet]

    def sort_token(self) -> tuple:
        # vector items sort by repr of their class keys: lift reports the
        # first matching Alt(n) x C_2 witness, so this order is output
        body = str(self.ds) if self.ds is not None else repr(
            tuple(group_table(self.spec).classes[i].key for i in self.key))
        return (self.sig.g0, self.sig.periods, body)


@dataclass
class WeakClassList:
    items: list = field(default_factory=list)
    complete: bool = True
    # the signatures a budget stop left unfinished, in search order
    unfinished: Sequence[Signature] = ()

    @property
    def incomplete_signatures(self) -> list:
        """The unfinished signatures as text, rendered when read: a stop
        early in a long signature list leaves tens of thousands."""
        return [str(s) for s in self.unfinished]


def _canonical_key(table, ids: Sequence[int]) -> tuple:
    """The weak-class key of a class tuple: the lesser of its sorted class
    ids and their sorted image under the split-class flip."""
    flip = table.flip
    return min(tuple(sorted(ids)), tuple(sorted([flip[i] for i in ids])))


def dataset_from_vector(vec: GeneratingVector) -> GroupDataSet:
    return dataset(vec.spec.family, vec.spec.n, vec.sig.g0, run_lengths(vec.elliptic))


def enumerate_weak_classes(spec: GroupSpec, g: int,
                           budget: Optional[SearchBudget] = None,
                           signatures: Optional[Sequence[Signature]] = None,
                           raise_on_budget: bool = False) -> WeakClassList:
    """All weak conjugacy classes of spec-actions at genus g.

    For Sym/Alt each class is returned as a GroupDataSet; class multisets
    related by the global split-class flip, conjugation in Sym(n), are
    identified.  That is all of Aut(G) except at n = 6, whose outer
    automorphisms are not applied.  For A_n x C_2 the classes are vector
    orbits reduced by the same key.
    """
    table = group_table(spec)
    clock = _Clock(budget)
    sigs = list(signatures) if signatures is not None else enumerate_signatures(spec, g)
    orders = spec.element_orders()
    result = WeakClassList()
    try:
        for i, sig in enumerate(sigs):
            if any(m not in orders for m in sig.periods):
                continue
            seen = set()
            for ids in _class_tuples(table, sig.periods):
                key = _canonical_key(table, ids)
                if key in seen:
                    continue
                seen.add(key)
                vec = next(_vectors_for_classes(spec, sig.g0, ids, clock,
                                                normalize_first=True), None)
                if vec is None:
                    continue
                ds = dataset_from_vector(vec) if spec.family in (ALT, SYM) else None
                result.items.append(WeakClass(spec, sig, key, vec, ds))
    except BudgetExhausted:
        if raise_on_budget:
            raise
        result.complete = False
        result.unfinished = sigs[i:]
    result.items.sort(key=WeakClass.sort_token)
    return result
