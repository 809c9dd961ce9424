"""Fixed-point counts, cyclic factors, weak generation, and obstruction sweeps.

The fixed-point count of an element x of order m at rotation unit u is

    |F_x(u, m)| = |C_H(x)| * sum over entries i with m | m_i and
                  x ~_H rep_i^(m_i*u/m) of 1/m_i,

an exact rational that must come out a non-negative integer.  The cyclic
factor of sigma unwinds these counts down the divisor lattice of d = |sigma|:
processing divisors t of d in decreasing order,

    (d/t) * mult[t][u] = |F_(sigma^(d/t))(u, t)|
                         - sum over t | t' | d, t' != t, u' = u (mod t') ...
                           of mult[t'][u']

and each cone pair is (u^-1 mod t, t) with that multiplicity.

The count and the factor are class functions.  In groups up to order 5040
(CLOSURE_ORDER_CAP) the factor is read from the class power map and the
centralizer orders of the group table, in integer arithmetic: one factor
table per data set (FactorTable) keeps the factor of every class read so
far, so a repeated query is a class-id lookup; class_factor serves
callers that already hold the entry classes and the genus, as the
classify rows do.  Larger groups have no table built for them and run
the direct formula on sigma, which fixed_point_count keeps as the
reference.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .datasets import GroupDataSet, validate
from .errors import (GenusMismatch, InconsistencyError, MembershipError,
                     NegativeMultiplicityError, NonIntegralError)
from .groups import (CLOSURE_ORDER_CAP, GroupSpec, GroupTable, are_conjugate,
                     centralizer_order, group_table, require_member, spans)
from .orbifold import CyclicDataSet, quotient_genus, validate_cyclic
from .perm import Perm
from .vectors import SearchBudget, enumerate_weak_classes


def fixed_point_count(ds: GroupDataSet, x: Perm, u: int, m: int) -> int:
    """Number of fixed points of x with rotation unit u, read off the entries."""
    spec = ds.spec
    require_member(spec, x)
    if x.order() != m:
        raise MembershipError(f"{x} has order {x.order()}, not {m}")
    if math.gcd(u, m) != 1:
        raise NonIntegralError(f"u = {u} is not a unit mod {m}")
    total = Fraction(0)
    for e in ds.entries:
        if e.order % m != 0:
            continue
        power = e.rep ** (e.order * u // m)
        if are_conjugate(spec, x, power):
            total += Fraction(e.mult, e.order)
    count = centralizer_order(spec, x) * total
    if count.denominator != 1:
        raise NonIntegralError(f"fixed-point count {count} for {x}")
    return int(count)


_TRIVIAL = "cyclic factor needs a non-trivial element"


def cyclic_factor(ds: GroupDataSet, sigma: Perm) -> CyclicDataSet:
    """Cyclic data set of the action restricted to <sigma>.

    Depends only on the entry classes; the data set is shape-checked, the
    realizability clauses being the caller's business.  Groups of order up
    to CLOSURE_ORDER_CAP answer from the data set's factor table
    (FactorTable.factor); larger ones, which have no table built for them,
    run the direct formula on sigma.
    """
    if ds.spec.order <= CLOSURE_ORDER_CAP:
        return factor_table(ds).factor(sigma)
    require_member(ds.spec, sigma)
    if sigma.is_identity():
        raise MembershipError(_TRIVIAL)
    return _direct_factor(ds, sigma)


def _direct_factor(ds: GroupDataSet, sigma: Perm) -> CyclicDataSet:
    """cyclic_factor by the direct formula on sigma and its powers."""
    g = validate(ds, structure_only=True)
    d = sigma.order()
    powers = {t: sigma ** (d // t) for t in _divisors(d)}
    return _unwind(g, d, lambda t, u: fixed_point_count(ds, powers[t], u, t))


class FactorTable:
    """The cyclic factor of every class of a data set's group table, by
    class id, each computed by class_factor when it is first read.

    The identity's slot is empty, and so is the slot of any class not read
    yet or whose counts raise.  Reading the identity's slot raises
    MembershipError; reading another empty slot computes it, so a class
    that raised raises again, with the same message, while every other
    class of the data set still answers.  Membership and the identity are
    checked before the data set is read, so a bad element is reported
    ahead of a bad data set.
    """

    def __init__(self, ds: GroupDataSet):
        self.ds = ds
        self.table = group_table(ds.spec)
        self.identity = self.table.identity_class_id()
        self._factors = [None] * len(self.table.classes)

    @functools.cached_property
    def _entries(self) -> tuple:
        return class_entries(self.table, self.ds.entries)

    def __getitem__(self, ci: int) -> CyclicDataSet:
        if ci == self.identity:
            raise MembershipError(_TRIVIAL)
        factor = self._factors[ci]
        if factor is None:
            factor = self._factors[ci] = class_factor(
                self.table, validate(self.ds, structure_only=True), self._entries, ci)
        return factor

    def factor(self, sigma: Perm) -> CyclicDataSet:
        """The factor of sigma's class; one lookup of sigma's image tuple
        gives the class and proves membership."""
        try:
            ci = self.table.class_id(sigma)
        except KeyError:
            # the table lists every member, so this raises
            require_member(self.table.spec, sigma)
            raise
        return self[ci]


@functools.lru_cache(maxsize=1024)
def factor_table(ds: GroupDataSet) -> FactorTable:
    """The data set's FactorTable, one per data set."""
    return FactorTable(ds)


def class_entries(table: GroupTable, entries: Sequence) -> tuple:
    """Data-set entries as (class id, order, mult), the form class_factor reads."""
    return tuple((table.class_id(e.rep), e.order, e.mult) for e in entries)


def class_factor(table: GroupTable, g: int, entries: Sequence, ci: int) -> CyclicDataSet:
    """The cyclic factor of the elements of class ci on the genus-g surface
    of a data set whose entries are (class id, order, mult): read off the
    class power map and centralizer orders, with no permutation."""
    d = table.class_orders[ci]
    return _unwind(g, d, lambda t, u: _class_fixed_points(
        table, entries, table.power_class(ci, d // t), u, t))


def _class_fixed_points(table: GroupTable, entries: Sequence, ci: int,
                        u: int, m: int) -> int:
    """fixed_point_count at unit u of the elements of class ci, of order m,
    given each entry as (class id, order, mult); the sum of mult/order is
    taken over the lcm of the entry orders."""
    lcm = math.lcm(*(order for _, order, _ in entries))
    weight = sum(mult * (lcm // order) for ce, order, mult in entries
                 if order % m == 0 and table.power_class(ce, order * u // m) == ci)
    total = table.centralizer_order(ci) * weight
    if total % lcm:
        raise NonIntegralError(
            f"fixed-point count {Fraction(total, lcm)} for {table.classes[ci].rep}")
    return total // lcm


def _divisors(d: int) -> list:
    """Divisors t >= 2 of d, in decreasing order."""
    return [t for t in range(d, 1, -1) if d % t == 0]


def _unwind(g: int, d: int, count: Callable[[int, int], int]) -> CyclicDataSet:
    """The cyclic factor of an element of order d on a genus-g surface, from
    count(t, u), the fixed points of its (d/t)-th power at unit u."""
    divisors = _divisors(d)
    mult: dict = {}
    for t in divisors:
        mult[t] = {}
        for u in range(1, t):
            if math.gcd(u, t) != 1:
                continue
            fixed = count(t, u)
            for t2 in divisors:
                if t2 == t or t2 % t != 0:
                    continue
                for u2, m2 in mult[t2].items():
                    if u2 % t == u:
                        fixed -= m2
            value, rest = divmod(fixed * t, d)
            if rest:
                raise NonIntegralError(
                    f"multiplicity {Fraction(fixed * t, d)} at (u={u}, t={t})")
            if value < 0:
                raise NegativeMultiplicityError(f"multiplicity {value} at (u={u}, t={t})")
            mult[t][u] = value

    cones = []
    for t in divisors:
        for u, k in mult[t].items():
            if k:
                cones.extend([(pow(u, -1, t), t)] * k)
    g0 = quotient_genus(g, d, [t for _, t in cones], _non_integral_quotient)
    factor = CyclicDataSet(d, g0, cones)
    genus = validate_cyclic(factor)
    if genus != g:
        raise InconsistencyError(f"factor {factor} has genus {genus}, not {g}")
    return factor


def _non_integral_quotient(g0: Fraction) -> NonIntegralError:
    return NonIntegralError(f"quotient genus {g0}")


def standard_factors(ds: GroupDataSet) -> tuple:
    """Cyclic factors of the standard generating pair."""
    s, t = ds.spec.standard_generators()
    return (cyclic_factor(ds, s), cyclic_factor(ds, t))


# ---------------------------------------------------------------------------
# weak generation


@dataclass(frozen=True)
class GenerationWitness:
    ds: GroupDataSet
    sigma: Perm
    tau: Perm


def weakly_generates(d_f: CyclicDataSet, d_g: CyclicDataSet, spec: GroupSpec,
                     budget: Optional[SearchBudget] = None):
    """A witness (data set, sigma, tau) with the prescribed cyclic factors and
    <sigma, tau> the whole group, or None after a complete sweep.

    tau runs over the searches' orbit-least lists (GroupTable.least_second).
    Raises GenusMismatch up front and BudgetExhausted (never a false None)
    when the class enumeration could not finish.
    """
    genus_f, genus_g = validate_cyclic(d_f), validate_cyclic(d_g)
    if genus_f != genus_g:
        raise GenusMismatch(f"genus {genus_f} vs {genus_g}")
    orders = spec.element_orders()
    if d_f.degree not in orders or d_g.degree not in orders:
        return None
    table = group_table(spec)
    for item in enumerate_weak_classes(spec, genus_f, budget, raise_on_budget=True).items:
        factors = factor_table(item.ds)
        sigma_classes = [ci for ci in table.classes_by_order[d_f.degree]
                         if factors[ci] == d_f]
        if not sigma_classes:
            continue
        tau_ok = {ci for ci in table.classes_by_order[d_g.degree] if factors[ci] == d_g}
        for s_ci in sigma_classes:
            sigma = table.classes[s_ci].rep
            # one tau per orbit of sigma's centralizer: conjugating the pair
            # by it fixes sigma and keeps generation and tau's class
            for tau in heapq.merge(*(table.least_second(s_ci, t) for t in tau_ok)):
                if spans(spec, [sigma, tau]):
                    return GenerationWitness(item.ds, sigma, tau)
    return None


# ---------------------------------------------------------------------------
# order bounds and obstructions


def is_irreducible(factor: CyclicDataSet) -> bool:
    """Whether the factor is an irreducible periodic mapping class: sphere
    quotient with three cone points."""
    return factor.g0 == 0 and len(factor.cones) == 3


def is_hyperelliptic(factor: CyclicDataSet, g: int) -> bool:
    """Whether the factor is the hyperelliptic involution of the genus-g
    surface, (2,0;(1,2)^[2g+2])."""
    return (factor.degree, factor.g0) == (2, 0) and \
        factor.cones == ((1, 2),) * (2 * g + 2)


@dataclass
class ObstructionReport:
    spec: GroupSpec
    genus: int
    irreducible: list = field(default_factory=list)  # (ds, element, factor)
    hyperelliptic: list = field(default_factory=list)
    factor_tables: list = field(default_factory=list)  # (ds, [(rep, factor)])
    classes_swept: int = 0

    @property
    def clean(self) -> bool:
        return not self.irreducible and not self.hyperelliptic

    def to_json(self) -> dict:
        def row(entry):
            ds, x, factor = entry
            return {"data_set": str(ds), "element": str(x), "factor": str(factor)}
        return {
            "group": self.spec.name,
            "genus": self.genus,
            "classes_swept": self.classes_swept,
            "irreducible": [row(e) for e in self.irreducible],
            "hyperelliptic": [row(e) for e in self.hyperelliptic],
            "factor_tables": [
                {"data_set": str(ds),
                 "factors": [{"element": str(x), "factor": str(f)} for x, f in rows]}
                for ds, rows in self.factor_tables
            ],
            "clean": self.clean,
        }


def obstruction_report(spec: GroupSpec, g: int,
                       budget: Optional[SearchBudget] = None) -> ObstructionReport:
    """Sweep every element class of every weak class at genus g, flagging
    irreducible factors (is_irreducible) and the hyperelliptic involution
    factor (is_hyperelliptic)."""
    table = group_table(spec)
    report = ObstructionReport(spec, g)
    for item in enumerate_weak_classes(spec, g, budget, raise_on_budget=True).items:
        report.classes_swept += 1
        factors = factor_table(item.ds)
        rows = []
        for ci, cl in enumerate(table.classes):
            if ci == factors.identity:
                continue
            factor = factors[ci]
            rows.append((cl.rep, factor))
            if is_irreducible(factor):
                report.irreducible.append((item.ds, cl.rep, factor))
            if is_hyperelliptic(factor, g):
                report.hyperelliptic.append((item.ds, cl.rep, factor))
        report.factor_tables.append((item.ds, rows))
    return report
