"""Index-2 descent of actions and liftability of involutions.

A symmetric action restricts to its alternating half; going the other way, an
involution on the quotient orbifold lifts to a degree-2 extension of an
alternating action.  The descent of one generating vector works cone by cone:

  * an elliptic inside the subgroup splits into two cone points of the same
    order, swapped by the descended involution;
  * an elliptic outside the subgroup of order m > 2 contributes one cone
    point of order m/2 (its square), fixed by the involution;
  * an elliptic outside of order 2 contributes nothing.

The descended involution itself is recorded as a degree-2 cyclic data set D
together with the induced permutation of the cone points.  Liftability is
decided by enumerating candidate extensions over Sym(n) and Alt(n) x C_2 on
the forced quotient signature and comparing descents.

A descent is read off the cones, compared by class and never re-solved.
Matching compares orbit multisets: fixed cones and swapped pairs, tagged by
cycle type (the Sym-class data).  Whether they also agree when tagged by the
finer split classes, up to one global flip, is reported on the verdict as
`strict_class_match`, not used to prune.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .datasets import (ALTERNATING, SYMMETRIC, GroupDataSet, cone_slots, dataset,
                       validate)
from .errors import (BudgetExhausted, GenusMismatch, NotIndexTwo, ParseError,
                     ValidationFailure)
from .groups import ALT, ALT_C2, SYM, GroupSpec, flip_label, split_alt_c2
from .orbifold import (CyclicDataSet, Signature, quotient_genus, rh_genus,
                       validate_cyclic)
from .perm import Perm
from .vectors import (GeneratingVector, SearchBudget, WeakClass,
                      enumerate_weak_classes, materialize_vector,
                      resolved_representative)


@dataclass(frozen=True)
class InvolutionDescent:
    """Class of the descended involution plus its cone-point permutation."""

    d: CyclicDataSet
    perm: Perm  # acts on the cone-point indices 1..r of the alternating data set

    def __post_init__(self):
        if self.d.degree != 2:
            raise ValidationFailure("admissibility", f"descended class {self.d} is not degree 2")
        if not (self.perm * self.perm).is_identity():
            raise ValidationFailure("admissibility", "cone permutation must be an involution")


@dataclass(frozen=True)
class Restriction:
    """Descent of one generating vector to the index-2 subgroup; alt_ds is a
    display form, like a classify row: its entries name the cone classes."""

    alt_ds: GroupDataSet
    descent: InvolutionDescent
    genus: int


def _coset_data(spec: GroupSpec):
    """(membership test, projection to Alt(n), odd-coset conjugation)."""
    n = spec.n
    if spec.family == SYM:
        omega = Perm.from_cycles([(1, 2)], n)
        return (lambda p: p.is_even(),
                lambda p: p,
                lambda p: omega * p * omega)
    if spec.family == ALT_C2:
        return (lambda p: not split_alt_c2(p)[1],
                lambda p: split_alt_c2(p)[0],
                lambda p: split_alt_c2(p)[0])  # the swap is central
    raise NotIndexTwo(f"{spec.name} has no canonical index-2 subgroup here")


def _non_integral_descent(g0: Fraction) -> ValidationFailure:
    return ValidationFailure("genus-integrality", f"descended quotient genus {g0}")


def index2_restrict(v: GeneratingVector) -> Restriction:
    """Descend a Sym(n) or Alt(n) x C_2 vector to its alternating half.

    Cone points are emitted in parent-entry order, pair first.  The data set
    is read off the cones, with no search: each entry is in its cone's class,
    which is all that matching reads (see Restriction).
    """
    spec = v.spec
    in_sub, project, odd_conj = _coset_data(spec)

    cones = []      # (representative in Alt(n), order)
    pairing = []    # 2-cycles of the induced cone permutation, 1-based
    ell = 0
    for s in v.elliptic:
        m = s.order()
        if in_sub(s):
            i = len(cones)
            cones.append((project(s), m))
            cones.append((odd_conj(s), m))
            pairing.append((i + 1, i + 2))
        else:
            ell += 1
            if m > 2:
                cones.append((project(s * s), m // 2))

    g = rh_genus(spec.order, v.sig)
    if g is None:
        raise ValidationFailure("genus-integrality", f"vector signature {v.sig}")
    g0_prime = quotient_genus(g, spec.order // 2, [m for _, m in cones],
                              _non_integral_descent)

    d = CyclicDataSet(2, v.sig.g0, [(1, 2)] * ell)
    if validate_cyclic(d) != g0_prime:
        raise ValidationFailure("congruence", "descended involution class is inconsistent")

    alt_ds = dataset(ALTERNATING, spec.n, g0_prime, [rep for rep, _ in cones])
    perm = Perm.from_cycles(pairing, len(cones))
    return Restriction(alt_ds, InvolutionDescent(d, perm), g)


def psi_map(ds: GroupDataSet) -> Restriction:
    """Descent of a symmetric data set, from one vector; alt_ds is a display form."""
    if ds.kind != SYMMETRIC:
        raise NotIndexTwo("psi_map descends symmetric data sets")
    return index2_restrict(materialize_vector(resolved_representative(ds)))


# ---------------------------------------------------------------------------
# admissible cone permutations and descent matching


def admissible_permutations(ds: GroupDataSet) -> list:
    """All involutive cone permutations matching entries of equal Sym-class.

    This is the coarse necessary condition; the alternating-class relation
    between matched entries is left to the verdict metadata.
    """
    slots = cone_slots(ds)
    r = len(slots)
    types = [(o, parts) for o, parts, _ in slots]
    out = []

    def build(remaining, cycles):
        if not remaining:
            out.append(Perm.from_cycles(cycles, r))
            return
        i = remaining[0]
        build(remaining[1:], cycles)  # i stays fixed
        for j in remaining[1:]:
            if types[i - 1] == types[j - 1]:
                rest = [x for x in remaining[1:] if x != j]
                build(rest, cycles + [(i, j)])

    build(list(range(1, r + 1)), [])
    return sorted(out)


def _orbits(perm: Perm, tags) -> Counter:
    """The involution's orbits as a multiset: each is a fixed cone or a
    swapped pair, recorded as (fixed?, its cones' tags in sorted order)."""
    return Counter((i == j, *sorted((tags[i - 1], tags[j - 1])))
                   for i, j in enumerate(perm.images, start=1) if i <= j)


def match_descent(target_ds: GroupDataSet, target_inv: InvolutionDescent,
                  cand: Restriction) -> Tuple[bool, bool]:
    """(loose, strict) match of a candidate descent against a target pair.

    Loose: same degree and quotient genus, equal involution class D, and
    equal multisets of type-tagged orbits, which is when the cone
    permutations are conjugate under a type-preserving matching of cone
    points.  Every cone lies in exactly one orbit, so equal orbits imply
    equal cycle-type multisets.  Strict: equal orbits tagged with split
    classes too, as they are or all flipped.
    """
    a, b = target_ds, cand.alt_ds
    if (a.n, a.g0) != (b.n, b.g0):
        return (False, False)
    sa, sb = cone_slots(a), cone_slots(b)
    if target_inv.d != cand.descent.d:
        return (False, False)
    pa, pb = target_inv.perm, cand.descent.perm
    if _orbits(pa, [s[:2] for s in sa]) != _orbits(pb, [s[:2] for s in sb]):
        return (False, False)
    # "whole" is its own flip, so flipping every tag flips the split ones
    target = _orbits(pa, sa)
    strict = target == _orbits(pb, sb) or target == _orbits(
        pb, [(o, p, flip_label(label)) for o, p, label in sb])
    return (True, strict)


# ---------------------------------------------------------------------------
# the lifting decision


WLS = "wls"
ALT_TIMES_C2 = "alt_times_c2"
NOT_LIFTABLE = "not_liftable"
UNDETERMINED = "undetermined"


@dataclass
class LiftVerdict:
    kind: str
    ds: GroupDataSet
    descent: InvolutionDescent
    witness_symmetric: Optional[GroupDataSet] = None
    witness_vector: Optional[GeneratingVector] = None
    strict_class_match: Optional[bool] = None
    normalized_perm: Optional[Perm] = None
    notes: tuple = ()

    def to_json(self) -> dict:
        obj = {
            "verdict": self.kind,
            "data_set": str(self.ds),
            "descent": {"d": str(self.descent.d), "perm": str(self.descent.perm)},
            "notes": list(self.notes),
        }
        if self.witness_symmetric is not None:
            obj["witness_symmetric"] = str(self.witness_symmetric)
        if self.witness_vector is not None:
            vec = self.witness_vector
            obj["witness_vector"] = {
                "group": vec.spec.name,
                "signature": str(vec.sig),
                "elliptic": [str(s) for s in vec.elliptic],
                "handles": [[str(x), str(y)] for x, y in vec.handles],
            }
        if self.strict_class_match is not None:
            obj["strict_class_match"] = self.strict_class_match
        if self.normalized_perm is not None:
            obj["normalized_perm"] = str(self.normalized_perm)
        return obj


def _check_descent(ds: GroupDataSet, inv: InvolutionDescent) -> None:
    slots = cone_slots(ds)
    r = len(slots)
    if inv.perm.degree != r:
        raise ValidationFailure("admissibility",
                                f"cone permutation degree {inv.perm.degree} != {r}")
    for i in range(1, r + 1):
        j = inv.perm(i)
        if (slots[i - 1][0], slots[i - 1][1]) != (slots[j - 1][0], slots[j - 1][1]):
            raise ValidationFailure("admissibility",
                                    f"cone {i} maps to a different class at {j}")
    if validate_cyclic(inv.d) != ds.g0:
        raise GenusMismatch("involution class lives on the wrong surface")


def _normalize_perm(ds: GroupDataSet, inv: InvolutionDescent):
    """Pair up surplus fixed cone points: an involution with k branch points
    cannot fix more than k cones.  Pairs are formed among equal-type fixed
    indices, lowest first."""
    slots = cone_slots(ds)
    k = len(inv.d.cones)
    perm = inv.perm
    notes = []
    while sum(1 for i in range(1, perm.degree + 1) if perm(i) == i) > k:
        fixed = [i for i in range(1, perm.degree + 1) if perm(i) == i]
        paired = None
        for i, j in itertools.combinations(fixed, 2):
            if (slots[i - 1][0], slots[i - 1][1]) == (slots[j - 1][0], slots[j - 1][1]):
                paired = (i, j)
                break
        if paired is None:
            return None, notes
        perm = perm * Perm.from_cycles([paired], perm.degree)
        notes.append(f"paired fixed cones {paired[0]},{paired[1]}: "
                     f"only {k} branch points are available")
    return perm, notes


def quotient_signature(ds: GroupDataSet, inv: InvolutionDescent) -> Signature:
    """Signature of the extension's quotient orbifold: swapped cone pairs
    keep their order, fixed cones double theirs, and leftover branch points
    of the involution add cones of order 2."""
    slots = cone_slots(ds)
    perm = inv.perm
    periods = []
    fixed = 0
    for i in range(1, perm.degree + 1):
        j = perm(i)
        if j == i:
            periods.append(2 * slots[i - 1][0])
            fixed += 1
        elif i < j:
            periods.append(slots[i - 1][0])
    periods.extend([2] * (len(inv.d.cones) - fixed))
    return Signature(inv.d.g0, periods)


@dataclass
class _ExtensionSearches(SearchBudget):
    """A search budget that also keeps the extension searches run under it.

    self_normalizing passes one to every decide_lift call, so the calls
    share one weak-class search per (group, genus, quotient signature).
    Each search still runs under a fresh clock with this budget, so node
    budgets give the verdicts that separate searches give; a search that
    runs out of budget is not kept and runs again when next asked.  Each
    weak class is descended once, when its search runs; a descent is
    arithmetic on the vector and runs no search.  Each data set asked about
    is resolved once, in resolve, under this budget.
    """

    # (spec, genus, signature) -> [(weak class, its descent)]
    found: dict = field(default_factory=dict, repr=False, compare=False)
    # data set -> (its resolved representative, genus)
    resolved: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def under(cls, budget: Optional[SearchBudget]) -> "_ExtensionSearches":
        if budget is None:
            return cls()
        return cls(budget.max_nodes, budget.max_seconds)

    def resolve(self, ds: GroupDataSet) -> Tuple[GroupDataSet, int]:
        """The resolved representative of ds (resolved_representative) and
        its genus; the representative resolves to itself."""
        try:
            return self.resolved[ds]
        except KeyError:
            rep = resolved_representative(ds, self)
            pair = (rep, validate(rep, structure_only=True))
            self.resolved[ds] = self.resolved[rep] = pair
            return pair

    def candidates(self, spec: GroupSpec, g: int, sig: Signature
                   ) -> List[Tuple[WeakClass, Restriction]]:
        """Each weak class of spec-actions on sig at genus g, with its descent."""
        if any(m not in spec.element_orders() for m in sig.periods):
            return []
        key = (spec, g, sig)
        if key not in self.found:
            found = enumerate_weak_classes(spec, g, self, signatures=[sig],
                                           raise_on_budget=True)
            self.found[key] = [(item, index2_restrict(item.vector))
                               for item in found.items]
        return self.found[key]


def decide_lift(ds: GroupDataSet, inv: InvolutionDescent,
                budget: Optional[SearchBudget] = None) -> LiftVerdict:
    """Decide whether the pair extends: a symmetric witness on the forced
    quotient signature wins, else an Alt(n) x C_2 vector, else not liftable
    (undetermined for n = 6, whose exotic extensions are out of scope)."""
    searches = budget if isinstance(budget, _ExtensionSearches) \
        else _ExtensionSearches.under(budget)
    ds, g = searches.resolve(ds)
    _check_descent(ds, inv)
    n = ds.n
    perm, notes = _normalize_perm(ds, inv)
    if perm is None:
        return LiftVerdict(NOT_LIFTABLE, ds, inv, notes=tuple(
            notes + ["no realizable cone pairing for this involution class"]))
    normalized = perm if perm != inv.perm else None
    working = InvolutionDescent(inv.d, perm)
    sig = quotient_signature(ds, working)

    # Sym(n) before Alt(n) x C_2; in each, a strict match wins at once,
    # otherwise the first loose one
    families = ((SYM, WLS, lambda item: {"witness_symmetric": item.ds}),
                (ALT_C2, ALT_TIMES_C2, lambda item: {"witness_vector": item.vector}))
    try:
        for family, kind, witness in families:
            best = None
            for item, restriction in searches.candidates(GroupSpec(family, n), g, sig):
                loose, strict = match_descent(ds, working, restriction)
                if loose:
                    verdict = LiftVerdict(kind, ds, inv, strict_class_match=strict,
                                          normalized_perm=normalized, notes=tuple(notes),
                                          **witness(item))
                    if strict:
                        return verdict
                    best = best or verdict
            if best is not None:
                return best
    except BudgetExhausted as exc:
        return LiftVerdict(UNDETERMINED, ds, inv, normalized_perm=normalized,
                           notes=tuple(notes + [str(exc)]))
    if n == 6:
        return LiftVerdict(UNDETERMINED, ds, inv, normalized_perm=normalized,
                           notes=tuple(notes + ["degree 6 admits extensions beyond "
                                                "Sym(6) and Alt(6) x C_2"]))
    return LiftVerdict(NOT_LIFTABLE, ds, inv, normalized_perm=normalized,
                       notes=tuple(notes))


# ---------------------------------------------------------------------------
# self-normalizing test and free actions


@dataclass
class SelfNormalizingReport:
    ds: GroupDataSet
    by_condition: bool
    by_exhaustion: Optional[bool]
    extensions: list = field(default_factory=list)

    @property
    def overall(self) -> Optional[bool]:
        if self.by_condition or self.by_exhaustion:
            return True
        return self.by_exhaustion  # False or None (undetermined)


def involution_classes_on(genus0: int) -> list:
    """All degree-2 cyclic data sets of the given genus (involutions on
    the quotient surface of that genus), by quotient genus q.

    Riemann-Hurwitz for degree 2 gives 2*genus0 - 2 = 2(2q - 2) + k with k
    cones (1,2), so k = 2 + 2*genus0 - 4q, for q from 0 while k >= 0.  Each
    one is valid: k is even, so the rotations sum to 0 mod 2, and k = 0
    only when q >= 1.
    """
    return [CyclicDataSet(2, q, [(1, 2)] * (2 + 2 * genus0 - 4 * q))
            for q in range((genus0 + 1) // 2 + 1)]


def self_normalizing(ds: GroupDataSet, budget: Optional[SearchBudget] = None
                     ) -> SelfNormalizingReport:
    """Two routes, reported separately: the quick sufficient condition
    (sphere quotient, pairwise non-conjugate entries), and exhaustion of
    every admissible involution descent through decide_lift."""
    searches = _ExtensionSearches.under(budget)
    ds, _ = searches.resolve(ds)
    slots = cone_slots(ds)
    by_condition = ds.g0 == 0 and len(
        {(o, parts) for o, parts, _ in slots}) == len(slots)

    undetermined = False
    extensions = []
    # product lists the admissible permutations once, d outermost
    for d, perm in itertools.product(involution_classes_on(ds.g0),
                                     admissible_permutations(ds)):
        if sum(1 for i in range(1, perm.degree + 1) if perm(i) == i) > len(d.cones):
            continue
        verdict = decide_lift(ds, InvolutionDescent(d, perm), searches)
        if verdict.kind == UNDETERMINED:
            undetermined = True
        elif verdict.kind != NOT_LIFTABLE:
            extensions.append(verdict)
    if extensions:
        by_exhaustion = False
    elif undetermined:
        by_exhaustion = None
    else:
        by_exhaustion = True
    return SelfNormalizingReport(ds, by_condition, by_exhaustion, extensions)


@dataclass
class FreeReport:
    n: int
    genus: int
    k: Optional[int]
    status: str  # "no_free_action" | "ok"
    free_alternating: Optional[GroupDataSet] = None
    extension: Optional[str] = None  # "free_sym" | "nonfree_sym" | "unknown_k1"
    witness_symmetric: Optional[GroupDataSet] = None
    witness_descent: Optional[CyclicDataSet] = None

    def to_json(self) -> dict:
        obj = {"n": self.n, "genus": self.genus, "k": self.k, "status": self.status}
        if self.free_alternating is not None:
            obj["free_alternating"] = str(self.free_alternating)
        if self.extension is not None:
            obj["extension"] = self.extension
        if self.witness_symmetric is not None:
            obj["witness_symmetric"] = str(self.witness_symmetric)
        if self.witness_descent is not None:
            obj["witness_descent"] = str(self.witness_descent)
        return obj


def free_action_analysis(n: int, g: int) -> FreeReport:
    """Free alternating actions exist exactly at g = 1 + k * n!/2.

    k even extends to a free symmetric action; odd k >= 3 to a branched one;
    k = 1 is reported unknown (it hinges on whether a torus quotient with two
    order-2 cones carries a symmetric action, which this tool does not rule
    on here).  Raises ParseError for n < 4 and for g < 2.
    """
    half = GroupSpec(ALT, n).order
    if g < 2:
        raise ParseError("genus must be >= 2")
    if (g - 1) % half != 0:
        return FreeReport(n, g, None, "no_free_action")
    k = (g - 1) // half
    free_ds = dataset(ALTERNATING, n, k + 1, [])
    validate(free_ds)
    report = FreeReport(n, g, k, "ok", free_alternating=free_ds)
    if k % 2 == 0:
        witness = dataset(SYMMETRIC, n, 1 + k // 2, [])
        validate(witness)
        report.extension = "free_sym"
        report.witness_symmetric = witness
        report.witness_descent = CyclicDataSet(2, 1 + k // 2, [])
    elif k >= 3:
        swap = Perm.from_cycles([(1, 2)], n)
        witness = dataset(SYMMETRIC, n, (k + 1) // 2, [(swap, 2)])
        validate(witness)
        report.extension = "nonfree_sym"
        report.witness_symmetric = witness
        report.witness_descent = CyclicDataSet(2, (k + 1) // 2, [(1, 2), (1, 2)])
    else:
        report.extension = "unknown_k1"
    return report
