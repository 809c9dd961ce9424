"""Alternating and symmetric data sets: validation, equivalence, canonical form.

A data set records one weak conjugacy class of a Sym(n)- or Alt(n)-action:
the quotient genus plus an ordered list of entries [rep, order; cycle type],
possibly with multiplicities.  A data set is exactly its text: it stores no
handle images, so equal text means equal data sets, and at g0 >= 1 the
handle pair is always re-derived (handle_solutions).  Validation checks the
defining conditions (genus integrality, product relation, generation,
parity, handle solvability); equivalence matches entries by cycle type,
with the split-class dichotomy for the alternating kind: over entries whose
Sym-class splits in Alt, either all matched pairs are Alt-conjugate or none
are.  That is the global split-class flip, conjugation in Sym(n), which is
all of Aut(G) except at n = 6: the outer automorphisms of Sym(6) and Alt(6)
are not applied.

Text grammar: ``(n,g0;[(1 2)(3 4),2;2,2]^[2],[(1 2 3 4 5),5;5],...)`` with
``-`` for an empty entry list.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import KindMismatch, ParseError, ValidationFailure
from .groups import (ALT, SYM, GroupSpec, GroupTable, commutator_witnesses,
                     flip_label, in_derived_subgroup, spans, split_label)
from .orbifold import Signature, format_runs, parse_runs, rh_genus, run_lengths
from .perm import CycleType, Perm, least_perm_of_type, parse_perm

# a data set's kind is its group family
ALTERNATING, SYMMETRIC = ALT, SYM

_LABEL_RANK = {"whole": 0, "plus": 1, "minus": 2}


@dataclass(frozen=True)
class Entry:
    """One cone-point entry: representative, order, cycle type, multiplicity."""

    rep: Perm
    order: int
    ctype: CycleType
    mult: int = 1


def make_entry(rep: Perm, mult: int = 1) -> Entry:
    return Entry(rep, rep.order(), rep.cycle_type(), mult)


@dataclass(frozen=True)
class GroupDataSet:
    kind: str  # ALTERNATING or SYMMETRIC
    n: int
    g0: int
    entries: Tuple[Entry, ...]

    @functools.cached_property
    def _hash(self) -> int:
        # the hash the dataclass would compute, once per instance: data sets
        # key the factor memos, and rehashing nests down to every Perm
        return hash((self.kind, self.n, self.g0, self.entries))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def spec(self) -> GroupSpec:
        return GroupSpec(self.kind, self.n)

    def expanded(self) -> list:
        """Entry representatives repeated by multiplicity, in stored order."""
        return [e.rep for e in self.entries for _ in range(e.mult)]

    def product(self) -> Perm:
        p = Perm.identity(self.n)
        for rep in self.expanded():
            p = p * rep
        return p

    def signature(self) -> Signature:
        return Signature(self.g0, [e.order for e in self.entries for _ in range(e.mult)])

    def __str__(self) -> str:
        return format_dataset(self)


def dataset(kind: str, n: int, g0: int, reps_with_mult: Sequence) -> GroupDataSet:
    """Build a data set from (rep, mult) pairs or bare reps."""
    entries = []
    for item in reps_with_mult:
        if isinstance(item, Perm):
            entries.append(make_entry(item))
        else:
            rep, mult = item
            entries.append(make_entry(rep, mult))
    return GroupDataSet(kind, n, g0, tuple(entries))


# ---------------------------------------------------------------------------
# validation


@functools.lru_cache(maxsize=4096)
def validate(ds: GroupDataSet, structure_only: bool = False) -> int:
    """Check every defining condition and return the genus (>= 2).

    Raises ValidationFailure tagged genus-integrality / order-mismatch /
    parity / product / generation / witness.  A data set is exactly its
    text, so at g0 >= 1 the handle pair is re-derived, never read: the g0 = 1
    clause asks handle_solutions for a pair that closes the relation and
    generates together with the entries; at g0 >= 2 the entry product must
    lie in the derived subgroup (groups.in_derived_subgroup, no search),
    which is proper only in Sym(n), tagged parity, and Alt(4), tagged
    witness.  With structure_only the realizability clauses (product,
    generation, witness) are skipped; canonical forms are shape-checked
    this way, since their display representatives need not multiply to
    the identity.  Answers are memoized, so a data set is checked once per
    process; a failure is not, and raises again on the next call.
    """
    spec = ds.spec
    for e in ds.entries:
        if e.mult < 1:
            raise ValidationFailure("order-mismatch", "multiplicity must be >= 1")
        if e.rep.degree != ds.n:
            raise ValidationFailure("order-mismatch", f"entry degree {e.rep.degree} != {ds.n}")
        if e.rep.is_identity():
            raise ValidationFailure("order-mismatch", "trivial entry")
        if e.order != e.rep.order() or e.ctype != e.rep.cycle_type():
            raise ValidationFailure("order-mismatch", f"declared data wrong on {e.rep}")
        if ds.kind == ALTERNATING and not e.rep.is_even():
            raise ValidationFailure("parity", f"odd entry {e.rep} in alternating data set")
    g = rh_genus(spec.order, ds.signature())
    if g is None or g < 2:
        raise ValidationFailure("genus-integrality", f"signature {ds.signature()}")
    if structure_only:
        return g

    reps = ds.expanded()
    if ds.g0 == 0:
        if not ds.product().is_identity():
            raise ValidationFailure("product", "entry product is not the identity")
        if not spans(spec, reps):  # members, by the entry checks above
            raise ValidationFailure("generation", "entries do not generate the group")
    elif ds.g0 == 1:
        if next(handle_solutions(spec, 1, reps, ds.product()), None) is None:
            raise ValidationFailure("witness", "no handle pair closes the relation")
    elif not in_derived_subgroup(spec, ds.product()):
        if ds.kind == SYMMETRIC:
            raise ValidationFailure("parity", "entry product is odd with g0 >= 2")
        raise ValidationFailure("witness", "handle relation unsatisfiable in Alt(4)")
    return g


def handle_solutions(spec: GroupSpec, g0: int, elliptic: Sequence[Perm],
                     product: Perm, tick: Optional[Callable[[], None]] = None
                     ) -> Iterator[tuple]:
    """All handle tuples closing s_1 .. s_r [a_1,b_1] .. [a_g0,b_g0] = 1.

    `product` is s_1 .. s_r, the product of the `elliptic` images.  g0 = 0
    yields () when the product is trivial and the elliptics generate; g0 = 1
    scans every commutator presentation of the product and keeps those that
    generate together with the elliptics; g0 >= 2 pins the first pair to the
    standard generators (generation for free), scans commutator
    presentations for the second pair and pads the rest with identity pairs.
    The scans are exhaustive, so an empty result is a proof of absence.
    `tick` runs once per scanned presentation.
    """
    if g0 == 0:
        if product.is_identity() and spans(spec, elliptic):
            yield ()
        return
    if g0 == 1:
        for r1, r2 in commutator_witnesses(spec, product):
            if tick is not None:
                tick()
            if spans(spec, list(elliptic) + [r1, r2]):
                # product = [r1, r2] closes s_1..s_r [a,b] = 1 with (a,b) = (r2, r1)
                yield ((r2, r1),)
        return
    s, t = spec.standard_generators()
    first = s * t * s.inverse() * t.inverse()
    target = first.inverse() * product.inverse()
    idpair = (Perm.identity(spec.degree), Perm.identity(spec.degree))
    for r1, r2 in commutator_witnesses(spec, target):
        if tick is not None:
            tick()
        yield ((s, t), (r1, r2)) + (idpair,) * (g0 - 2)


# ---------------------------------------------------------------------------
# equivalence and canonical form


@functools.lru_cache(maxsize=4096)
def cone_slots(ds: GroupDataSet) -> tuple:
    """Per cone point, in entry order: (order, cycle type parts, split tag),
    the tag being "whole" throughout for the symmetric kind."""
    out = []
    for e in ds.entries:
        label = split_label(e.rep) if ds.kind == ALTERNATING else "whole"
        out.extend([(e.order, e.ctype.parts, label)] * e.mult)
    return tuple(out)


def class_slots(table: GroupTable, class_ids: Iterable[int]) -> tuple:
    """cone_slots read off the Sym(n) or Alt(n) table, one slot per class id:
    the class order and the cycle type and tag of its key."""
    tagged = table.spec.family == ALT
    out = []
    for ci in class_ids:
        key = table.classes[ci].key
        out.append((table.class_orders[ci], key[0], key[1] if tagged else "whole"))
    return tuple(out)


def _canonical_key(slots: Sequence[tuple]) -> tuple:
    """The slots sorted by (order, type, tag), as they are or with every tag
    flipped, whichever tag sequence is less (whole < plus < minus): equal
    exactly on slot multisets related by the global split-class flip.  The
    symmetric kind tags every slot "whole", which the flip keeps."""
    rank = lambda slot: (slot[0], slot[1], _LABEL_RANK[slot[2]])
    plain = sorted(slots, key=rank)
    flipped = sorted([(m, parts, flip_label(tag)) for m, parts, tag in slots], key=rank)
    # both sort their (order, type) pairs alike, so ties keep plain
    return tuple(min(plain, flipped, key=lambda seq: list(map(rank, seq))))


def equivalent(a: GroupDataSet, b: GroupDataSet) -> bool:
    """Equivalence of data sets: cycle types match under some matching; for
    the alternating kind the split-class tags must agree entrywise either
    everywhere or nowhere (a single global flip).  Compares canonical keys."""
    if a.kind != b.kind:
        raise KindMismatch(f"{a.kind} vs {b.kind}")
    return (a.n, a.g0) == (b.n, b.g0) and \
        _canonical_key(cone_slots(a)) == _canonical_key(cone_slots(b))


def class_representative(kind: str, n: int, ctype: CycleType, label: str) -> Perm:
    """Least permutation in the named class, built without a group table.

    The least permutation p of a cycle type lies in the "plus" class by
    definition.  For a split type the least element of the "minus" class
    is q = t p t with t = (n-1 n):
    - a split type has distinct odd cycle lengths and at most one fixed
      point, so p's longest cycle (a ... n) has length >= 3 and ends at n;
      t is odd, and a split class's Sym-centralizer is even, so every
      Sym-conjugator from p to q is odd and q lies in the other Alt-class;
    - q first differs from p at n-2, where the image rises from n-1 to n;
      then q maps n-1 to a and n to n-1;
    - any other permutation of the type first exceeds p somewhere: before
      n-2 that makes it larger than q; at n-2 it maps n-2 to n, and then it
      is q or it fixes n-1, which is larger; after n-2 the only change
      left fixes n, which is another type.
    """
    least = least_perm_of_type(ctype)
    if kind == SYMMETRIC or label in ("whole", "plus"):
        return least
    t = Perm.from_cycles([(n - 1, n)], n)
    return t * least * t


def canonical_entries(kind: str, n: int, slots: Sequence[tuple]) -> Tuple[Entry, ...]:
    """Entries of the canonical form of a data set with these cone slots,
    listed as cone_slots lists them.

    The slots go through _canonical_key.  Each run of equal slots is one
    entry, whose representative is the least permutation in its named
    class: one class_representative call per run.
    """
    entries = []
    for (m, parts, label), mult in run_lengths(_canonical_key(slots)):
        ctype = CycleType(parts, n)
        entries.append(Entry(class_representative(kind, n, ctype, label), m, ctype, mult))
    return tuple(entries)


def canonical_form(ds: GroupDataSet) -> GroupDataSet:
    """Deterministic representative of the equivalence class.

    The data set is shape-checked, then its cone slots go through
    canonical_entries.  Idempotent; equal exactly on equivalent data sets.
    The output is a comparison and display form: its representatives keep
    the entry classes but need not multiply to the identity.
    """
    validate(ds, structure_only=True)
    return GroupDataSet(ds.kind, ds.n, ds.g0, canonical_entries(ds.kind, ds.n, cone_slots(ds)))


# ---------------------------------------------------------------------------
# text form


def format_dataset(ds: GroupDataSet) -> str:
    return format_runs(ds.n, ds.g0, [
        (f"[{e.rep},{e.order};{','.join(map(str, e.ctype.parts))}]", e.mult)
        for e in ds.entries])


_ENTRY_RE = re.compile(r"\[([^]]*)\]")


def parse_dataset(text: str, kind: str) -> GroupDataSet:
    """Parse the bracketed entry grammar; `kind` is ALTERNATING or SYMMETRIC."""
    if kind not in (ALTERNATING, SYMMETRIC):
        raise ParseError(f"unknown data set kind {kind!r}")
    n, g0, runs = parse_runs(text, _ENTRY_RE, "data set", "entry", " between entries")
    entries = []
    for em, mult in runs:
        inner = em.group(1)
        head, _, types = inner.rpartition(";")
        perm_text, _, order_text = head.rpartition(",")
        if not head or not perm_text:
            raise ParseError(f"bad entry {inner!r}")
        rep = parse_perm(perm_text.strip(), n)
        try:
            declared_order = int(order_text)
            declared_type = tuple(int(k) for k in types.split(",") if k.strip())
        except ValueError:
            raise ParseError(f"bad entry {inner!r}") from None
        entries.append(Entry(rep, declared_order, CycleType(declared_type, n), mult))
    return GroupDataSet(kind, n, g0, tuple(entries))
