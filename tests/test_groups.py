import itertools
import math
import random

import pytest

import sact.groups
import sact.vectors
from sact.errors import MembershipError
from sact.groups import (ALT, SYM, GroupSpec, _schreier_sims_order, alt, alt_c2,
                         are_conjugate, centralizer_order, commutator_witness,
                         conjugator_in_sym, embed_alt_c2, flip_label, generates,
                         group_table, in_derived_subgroup, parse_group, spans,
                         split_alt_c2, split_label, subgroup_order, sym)
from sact.perm import CycleType, Perm, parse_perm


def all_perms(n):
    return [Perm(im) for im in itertools.permutations(range(1, n + 1))]


def alt_orbit(x):
    """Oracle: the Alt-class of x by exhaustive even-conjugator search."""
    n = x.degree
    return {g * x * g.inverse() for g in all_perms(n) if g.is_even()}


# ---------------------------------------------------------------------------
# class splitting


def test_class_splits_examples():
    # orbit sizes computed by the exhaustive oracle
    assert CycleType((5,), 5).splits()
    assert len(alt_orbit(parse_perm("(1 2 3 4 5)", 5))) == 12
    assert not CycleType((2, 2), 5).splits()
    assert len(alt_orbit(parse_perm("(1 2)(3 4)", 5))) == 15
    assert CycleType((3,), 4).splits()
    assert len(alt_orbit(parse_perm("(1 2 3)", 4))) == 4


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_split_classes_partition_evenly(n):
    """Every split type breaks the Sym-class into two Alt-classes of equal
    size; non-split types keep one class.  Verified by orbit counting."""
    seen = set()
    for p in all_perms(n):
        if not p.is_even():
            continue
        t = p.cycle_type()
        if t in seen:
            continue
        seen.add(t)
        sym_class = {g * p * g.inverse() for g in all_perms(n)}
        orbit = alt_orbit(p)
        if t.splits():
            assert len(orbit) * 2 == len(sym_class)
            other = next(iter(sym_class - orbit))
            assert alt_orbit(other) == sym_class - orbit
        else:
            assert orbit == sym_class


# ---------------------------------------------------------------------------
# conjugacy


def test_are_conjugate_examples():
    a5 = alt(5)
    assert are_conjugate(a5, parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 5 4 3 2)", 5))
    assert not are_conjugate(a5, parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 3 5 2 4)", 5))
    assert are_conjugate(sym(5), parse_perm("(1 2)", 5), parse_perm("(4 5)", 5))


def test_are_conjugate_membership():
    with pytest.raises(MembershipError):
        are_conjugate(alt(5), parse_perm("(1 2)", 5), parse_perm("(1 2)", 5))


@pytest.mark.parametrize("spec", [alt(4), sym(4), alt(5), alt_c2(4)])
def test_are_conjugate_matches_class_partition(spec):
    """are_conjugate agrees with the table's class partition on all pairs,
    which makes it an equivalence relation by construction."""
    table = group_table(spec)
    elements = table.elements
    for a in elements:
        for b in elements:
            assert are_conjugate(spec, a, b) == (table.class_id(a) == table.class_id(b))


def test_are_conjugate_oracle_sweep_alt5():
    """Exhaustive even-conjugator oracle against the split-class decision."""
    a5 = alt(5)
    reps = [parse_perm(t, 5) for t in
            ["(1 2 3 4 5)", "(1 3 5 2 4)", "(1 2 3)", "(1 2)(3 4)"]]
    for a in reps:
        orbit = alt_orbit(a)
        for b in all_perms(5):
            if not b.is_even():
                continue
            assert are_conjugate(a5, a, b) == (b in orbit)


def test_conjugator_in_sym_is_deterministic_and_correct():
    a = parse_perm("(1 2 3)(4 5)", 6)
    b = parse_perm("(2 4 6)(1 3)", 6)
    c = conjugator_in_sym(a, b)
    assert c * a * c.inverse() == b
    assert conjugator_in_sym(a, parse_perm("(1 2)", 6)) is None


def test_split_label_reference():
    # the least permutation of a split type is the "plus" anchor
    assert split_label(parse_perm("(2 3 4)", 4)) == "plus"
    assert split_label(parse_perm("(1 2 3)", 4)) == "minus"
    assert split_label(parse_perm("(1 2)(3 4)", 4)) == "whole"


# ---------------------------------------------------------------------------
# centralizers and orbit-stabilizer


def test_centralizer_order_examples():
    assert centralizer_order(alt(5), parse_perm("(1 2 3 4 5)", 5)) == 5
    assert centralizer_order(alt(5), parse_perm("(1 2)(3 4)", 5)) == 4
    assert centralizer_order(sym(5), Perm.identity(5)) == 120


@pytest.mark.parametrize("spec", [alt(4), sym(4), alt(5), sym(5), alt(6), alt_c2(4)])
def test_orbit_stabilizer_identity(spec):
    table = group_table(spec)
    for cl in table.classes:
        assert centralizer_order(spec, cl.rep) * cl.size == spec.order


@pytest.mark.parametrize("spec", [alt(5), sym(4), alt_c2(4)])
def test_centralizer_order_against_scan(spec):
    table = group_table(spec)
    for cl in table.classes:
        scan = tuple(z for z in table.elements if z * cl.rep == cl.rep * z)
        assert centralizer_order(spec, cl.rep) == len(scan)
        assert table.centralizer(cl.rep) == scan
        assert table.centralizer(cl.rep) is table.centralizer(cl.rep)


# ---------------------------------------------------------------------------
# generation


def closure_order(gens):
    """Oracle: breadth-first multiplicative closure."""
    if not gens:
        return 1
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                k = g * h
                if k not in els:
                    els.add(k)
                    new.append(k)
        frontier = new
    return len(els)


def test_generates_examples():
    assert generates(alt(5), [parse_perm("(1 2 3)", 5), parse_perm("(1 2 3 4 5)", 5)])
    assert not generates(alt(5), [parse_perm("(1 2 3)", 5)])
    assert generates(sym(4), [parse_perm("(1 2)", 4), parse_perm("(1 2 3 4)", 4)])


def test_subgroup_order_against_closure():
    cases = [
        [parse_perm("(1 2 3)", 5)],
        [parse_perm("(1 2 3)", 5), parse_perm("(3 4 5)", 5)],
        [parse_perm("(1 2)", 5), parse_perm("(1 2 3 4 5)", 5)],
        [parse_perm("(1 2)(3 4)", 6), parse_perm("(1 3 5)(2 4 6)", 6)],
        [parse_perm("(1 2 3 4)", 4), parse_perm("(1 3)", 4)],
        [],
    ]
    for gens in cases:
        degree = gens[0].degree if gens else 5
        assert subgroup_order(gens, degree) == closure_order(gens)


def test_standard_generators_generate():
    for spec in [sym(4), sym(5), alt(4), alt(5), alt(6), alt_c2(4), alt_c2(5)]:
        assert generates(spec, spec.standard_generators())


@pytest.mark.parametrize("spec", [sym(4), alt(5), alt_c2(4)], ids=str)
def test_spans_agrees_with_schreier_sims_on_every_pair(spec):
    elements = group_table(spec).elements
    for a in elements:
        for b in elements:
            assert spans(spec, [a, b]) == \
                (_schreier_sims_order([a, b], spec.degree) == spec.order), (a, b)


def _random_member(rng, spec, fixing_last=False):
    """A uniform random element of spec's group, or of its stabilizer of
    the last point of {1..n}."""
    while True:
        images = list(range(1, spec.degree + 1))
        rng.shuffle(images)
        p = Perm(images)
        if spec.contains(p) and not (fixing_last and p(spec.n) != spec.n):
            return p


@pytest.mark.parametrize("spec", [sym(6), alt_c2(5), sym(7)], ids=str)
def test_closure_order_agrees_with_schreier_sims(spec):
    """Random 2-8-element tuples from the group, from its even part (index
    2, where the Lagrange cut must not fire) and from a point stabilizer."""
    rng = random.Random(20261018)
    for case in range(60):
        pool, size = case % 3, rng.randint(2, 8)
        gens = []
        while len(gens) < size:
            p = _random_member(rng, spec, fixing_last=pool == 2)
            if pool != 1 or p.is_even():
                gens.append(p)
        assert subgroup_order(gens, spec.degree, spec.order) == \
            _schreier_sims_order(gens, spec.degree), gens


def test_schreier_sims_decides_above_the_closure_cap(monkeypatch):
    # PSL(2,7) inside Alt(8): order 168, decided by Schreier-Sims alone
    gens = [parse_perm("(1 2 3 4 5 6 7)", 8), parse_perm("(1 8)(2 7)(3 4)(5 6)", 8)]
    calls = []

    def counted(gens, degree):
        calls.append(degree)
        return _schreier_sims_order(gens, degree)

    def no_closure(gens, degree, within):
        raise AssertionError("order 20160 is above the closure cap")

    monkeypatch.setattr(sact.groups, "_schreier_sims_order", counted)
    monkeypatch.setattr(sact.groups, "_closure_order", no_closure)
    assert not spans(alt(8), gens)
    assert calls == [8]
    assert subgroup_order(gens, 8, alt(8).order) == 168


def test_subgroup_order_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(8)
    for degree, spec in [(8, sym(8)), (9, sym(9)), (10, sym(10)),
                         (8, alt_c2(6)), (9, alt_c2(7))]:
        for case in range(6):
            gens = [_random_member(rng, spec, fixing_last=case % 2 == 1)
                    for _ in range(rng.randint(2, 4))]
            ref = combinatorics.PermutationGroup(
                [combinatorics.Permutation([x - 1 for x in g.images]) for g in gens])
            assert subgroup_order(gens, degree) == ref.order(), gens
            assert subgroup_order(gens, degree, spec.order) == ref.order(), gens


M11 = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]
M12 = M11 + ["(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]


@pytest.mark.parametrize("cycles,degree,order", [(M11, 11, 7920), (M12, 12, 95040)],
                         ids=["M11", "M12"])
def test_schreier_sims_orders_the_mathieu_groups(cycles, degree, order):
    gens = [parse_perm(c, degree) for c in cycles]
    assert _schreier_sims_order(gens, degree) == order
    assert subgroup_order(gens, degree) == order
    assert not spans(alt(degree), gens)


def test_schreier_sims_against_sympy_at_degrees_11_and_12():
    """Random tuples, half of them raised to powers so that they land in
    proper subgroups (cyclic, intransitive or imprimitive ones among them)."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(1112)
    for case in range(24):
        degree = 11 + case % 2
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            p = Perm(images)
            gens.append(p ** rng.randint(2, 6) if case % 4 >= 2 else p)
        ref = combinatorics.PermutationGroup(
            [combinatorics.Permutation([x - 1 for x in g.images]) for g in gens])
        assert _schreier_sims_order(gens, degree) == ref.order(), gens


def _class_ids(table, *keys):
    return frozenset(i for i, cl in enumerate(table.classes) if cl.key in keys)


def normal_closure_by_products(table, ids):
    """Reference for the closed-form closure rule: class ids of the normal
    subgroup generated by the given classes.  A union of classes closed
    under products is a normal subgroup, so the identity class plus ids is
    closed under product_support."""
    members = set(ids) | {table.identity_class_id()}
    pending = list(members)
    while pending:
        i = pending.pop()
        for j in list(members):
            for k in table.product_support(i, j):
                if k not in members:
                    members.add(k)
                    pending.append(k)
    return frozenset(members)


def test_normal_closure_examples():
    """The reference closure and the search's closed-form verdicts on the
    proper normal subgroups of the n = 4 groups."""
    allows = sact.vectors._closure_allows
    a4 = group_table(alt(4))
    v4 = _class_ids(a4, ((), "whole"), ((2, 2), "whole"))
    assert normal_closure_by_products(a4, v4 - {a4.identity_class_id()}) == v4
    assert [allows(a4, g0, (ci,)) for g0 in (0, 1) for ci in sorted(v4)] == \
        [False, False, False, True]
    three = tuple(_class_ids(a4, ((3,), "plus")))
    assert normal_closure_by_products(a4, three) == frozenset(range(len(a4.classes)))
    assert allows(a4, 0, three)
    # the even classes of Sym(4) close to Alt(4), a transposition to Sym(4)
    s4 = group_table(sym(4))
    even = _class_ids(s4, ((),), ((2, 2),), ((3,),))
    three = tuple(_class_ids(s4, ((3,),)))
    assert normal_closure_by_products(s4, three) == even
    assert (allows(s4, 0, three), allows(s4, 1, three)) == (False, True)
    double = tuple(_class_ids(s4, ((2, 2),)))
    assert (allows(s4, 0, double), allows(s4, 1, double)) == (False, False)
    swap = tuple(_class_ids(s4, ((2,),)))
    assert normal_closure_by_products(s4, swap) == frozenset(range(len(s4.classes)))
    assert allows(s4, 0, swap)
    # Alt(4) x C_2: V_4 x C_2 and Alt(4) x 1 are proper
    axc = group_table(alt_c2(4))
    v4c2 = _class_ids(axc, ((), "whole", False), ((), "whole", True),
                      ((2, 2), "whole", False), ((2, 2), "whole", True))
    double = tuple(_class_ids(axc, ((2, 2), "whole", True)))
    assert normal_closure_by_products(axc, double) == v4c2
    assert (allows(axc, 0, double), allows(axc, 1, double)) == (False, True)
    alt_part = frozenset(i for i, cl in enumerate(axc.classes) if not cl.key[2])
    three = tuple(_class_ids(axc, ((3,), "minus", False)))
    assert normal_closure_by_products(axc, three) == alt_part
    assert len(alt_part) < len(axc.classes)
    assert (allows(axc, 0, three), allows(axc, 1, three)) == (False, True)
    assert allows(axc, 0, three + double)


def test_membership_alt_c2():
    spec = alt_c2(4)
    inside = embed_alt_c2(parse_perm("(1 2 3)", 4), True)
    assert spec.contains(inside)
    a, w = split_alt_c2(inside)
    assert str(a) == "(1 2 3)" and w
    assert not spec.contains(parse_perm("(1 2)", 6))  # odd on the block
    assert not spec.contains(parse_perm("(4 5)", 6))  # moves the block into the tail


# ---------------------------------------------------------------------------
# element tables


def _element_key(spec, p):
    """The class key GroupTable.class_key gives p."""
    if spec.family == SYM:
        return (p.cycle_type().parts,)
    if spec.family == ALT:
        return (p.cycle_type().parts, split_label(p))
    a0, w = split_alt_c2(p)
    return (a0.cycle_type().parts, split_label(a0), w)


def _table_by_element_keys(spec):
    """(elements, [(key, class elements)]) as GroupTable built them before
    it built classes as conjugation orbits: every element checked by Perm,
    sorted, and keyed one by one."""
    perms = [Perm(im) for im in itertools.permutations(range(1, spec.n + 1))]
    if spec.family == SYM:
        elements = perms
    elif spec.family == ALT:
        elements = [p for p in perms if p.is_even()]
    else:
        elements = [embed_alt_c2(a, w) for a in perms if a.is_even() for w in (False, True)]
    elements = tuple(sorted(elements))
    buckets = {}
    for p in elements:
        buckets.setdefault(_element_key(spec, p), []).append(p)
    return elements, [(key, tuple(sorted(buckets[key]))) for key in sorted(buckets)]


TABLE_SPECS = [f(n) for f in (alt, sym, alt_c2) for n in (4, 5, 6, 7)]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_orbit_table_matches_the_element_keyed_build(spec):
    table = sact.groups.GroupTable(spec)
    elements, classes = _table_by_element_keys(spec)
    assert table.elements == elements
    assert [(cl.key, cl.elements) for cl in table.classes] == classes
    assert [cl.rep for cl in table.classes] == [elems[0] for _, elems in classes]
    assert table.class_orders == tuple(elems[0].order() for _, elems in classes)
    by_order = {}
    for ci, (_, elems) in enumerate(classes):
        by_order.setdefault(elems[0].order(), []).append(ci)
    assert table.classes_by_order == by_order
    assert table.identity_class_id() == next(
        ci for ci, (_, elems) in enumerate(classes) if table.identity in elems)
    # the classes share the element list's objects, and lookups agree
    shared = {p.images: p for p in table.elements}
    for ci, cl in enumerate(table.classes):
        for x in cl.elements:
            assert x is shared[x.images]
            assert table.class_id(x) == ci


FLIP_SPECS = ([sym(n) for n in range(3, 9)] + [alt(n) for n in range(4, 9)]
              + [alt_c2(n) for n in range(4, 9)])


@pytest.mark.parametrize("spec", FLIP_SPECS, ids=str)
def test_flip_is_the_label_flip(spec):
    """GroupTable.flip is an involution on class ids, and it swaps the tags
    "plus" and "minus" of each key, keeping the cycle type and C_2 part: on
    Sym(n), whose keys carry no tag, it is the identity."""
    table = group_table(spec)
    flip = table.flip
    assert len(flip) == len(table.classes)
    assert all(flip[flip[ci]] == ci for ci in range(len(flip)))
    by_key = {cl.key: ci for ci, cl in enumerate(table.classes)}
    for ci, cl in enumerate(table.classes):
        key = cl.key if len(cl.key) == 1 else \
            cl.key[:1] + (flip_label(cl.key[1]),) + cl.key[2:]
        assert flip[ci] == by_key[key], (spec.name, cl.key)


@pytest.mark.parametrize("spec", [alt(4), alt(5), alt(6), sym(4), sym(5), sym(6),
                                  alt_c2(4), alt_c2(5)], ids=str)
def test_product_support_is_the_class_product(spec):
    """Every class pair against all products a*b, in both orders."""
    table = sact.groups.GroupTable(spec)
    for i, ci in enumerate(table.classes):
        for j, cj in enumerate(table.classes):
            want = frozenset(table.class_id(a * b) for a in ci.elements for b in cj.elements)
            assert table.product_support(i, j) == want, (ci.key, cj.key)
            assert table.product_support(j, i) == want, (cj.key, ci.key)


# ---------------------------------------------------------------------------
# commutator witnesses


def commutator_oracle(spec, target):
    """Oracle: literal exhaustive double loop."""
    table = group_table(spec)
    for a in table.elements:
        for b in table.elements:
            if a * b * a.inverse() * b.inverse() == target:
                return (a, b)
    return None


def test_every_alt5_element_is_a_commutator():
    table = group_table(alt(5))
    for x in table.elements:
        w = commutator_witness(alt(5), x)
        assert w is not None
        r1, r2 = w
        assert r1 * r2 * r1.inverse() * r2.inverse() == x


def test_alt4_three_cycles_are_not_commutators():
    assert commutator_witness(alt(4), parse_perm("(1 2 3)", 4)) is None
    assert commutator_oracle(alt(4), parse_perm("(1 2 3)", 4)) is None
    w = commutator_witness(alt(4), parse_perm("(1 2)(3 4)", 4))
    assert w is not None


def test_commutator_witness_sampled_alt6_alt7():
    for spec, texts in [(alt(6), ["(1 2 3 4 5)", "(1 2)(3 4)", "(1 2 3)(4 5 6)"]),
                        (alt(7), ["(1 2 3 4 5 6 7)", "(1 2)(3 4)"])]:
        for t in texts:
            x = parse_perm(t, spec.n)
            r1, r2 = commutator_witness(spec, x)
            assert r1 * r2 * r1.inverse() * r2.inverse() == x


def test_witness_agrees_with_oracle_on_alt4():
    table = group_table(alt(4))
    for x in table.elements:
        assert (commutator_witness(alt(4), x) is None) == \
               (commutator_oracle(alt(4), x) is None)


# ---------------------------------------------------------------------------
# specs


def test_parse_group():
    assert parse_group("A5") == alt(5)
    assert parse_group("S4") == sym(4)
    assert parse_group("AxC25") == alt_c2(5)
    assert parse_group("AxC25").degree == 7


def test_element_orders():
    assert sorted(sym(5).element_orders()) == [1, 2, 3, 4, 5, 6]
    assert sorted(alt(6).element_orders()) == [1, 2, 3, 4, 5]
    assert sorted(alt_c2(5).element_orders()) == [1, 2, 3, 5, 6, 10]
    assert sorted(alt_c2(4).element_orders()) == [1, 2, 3, 6]


def _commutator_classes_by_scan(table):
    """Oracle: the class of [a, b] for each class representative a and
    every element b."""
    found = set()
    for cl in table.classes:
        a = cl.rep
        for b in table.elements:
            found.add(table.class_id(a * b * a.inverse() * b.inverse()))
    return frozenset(found)


def commutator_classes_by_products(table):
    """Reference for in_derived_subgroup: the classes of single commutators
    read off class products.  [a, b] = a * (b a^-1 b^-1), and b a^-1 b^-1
    runs over the class of a^-1 as b runs over the group, so the
    commutators [a, b] with a in class C land in
    product_support(C, class of rep_C^-1)."""
    found = set()
    for ci, cl in enumerate(table.classes):
        found |= table.product_support(ci, table.class_id(cl.rep.inverse()))
    return frozenset(found)


@pytest.mark.parametrize("spec", [sym(n) for n in range(3, 9)] + [alt(n) for n in range(4, 9)]
                         + [alt_c2(n) for n in range(4, 9)], ids=str)
def test_commutator_class_ids_match_the_scan(spec):
    """The closed form is the set of single commutators and is closed under
    products, so it is the derived subgroup and each of its elements is a
    single commutator."""
    table = group_table(spec)
    by_products = commutator_classes_by_products(table)
    assert table.commutator_class_ids() == by_products
    assert normal_closure_by_products(table, by_products) == by_products
    if spec.order <= 5040:
        assert by_products == _commutator_classes_by_scan(table)


@pytest.mark.parametrize("spec,text,inside", [
    (sym(11), "(1 2)", False), (sym(11), "(1 2)(3 4)", True),
    (alt(10), "(1 2 3)", True), (alt(4), "(1 2 3)", False),
    (alt(4), "(1 2)(3 4)", True), (alt_c2(9), "(1 2 3)", True),
    (alt_c2(9), "(1 2 3)(10 11)", False), (alt_c2(4), "(1 2 4)", False),
], ids=str)
def test_derived_subgroup_membership_at_any_degree(spec, text, inside):
    """The closed form answers above the element-table cap too."""
    assert in_derived_subgroup(spec, parse_perm(text, spec.degree)) is inside


def _generated(gens, identity):
    """Elements of <gens> by plain closure on Perm products."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [g * h for h in frontier for g in gens if g * h not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("spec", [sym(4), alt(5), alt_c2(4), sym(5), alt_c2(5)], ids=str)
def test_join_is_the_generated_subgroup(spec):
    """Chains of joins from the trivial mask mark exactly the elements the
    chosen ones generate, and a chain that generates ends at full_mask."""
    table = sact.groups.GroupTable(spec)
    rng = random.Random(7)
    for _ in range(40):
        mask, chosen = table.trivial_mask, []
        for x in rng.sample(table.elements, 4):
            joined = table.join(mask, x)
            assert table.join(mask, x) == joined
            chosen.append(x)
            marked = {p for i, p in enumerate(table.elements) if joined >> i & 1}
            assert marked == _generated(chosen, table.identity)
            assert (joined == table.full_mask) == spans(spec, chosen)
            assert table.join(joined, x) == joined
            mask = joined
    assert table.join(table.full_mask, table.elements[1]) == table.full_mask


def _orbit_minima(zs, xs):
    """Oracle: the least element of each orbit of xs under conjugation by zs."""
    xs = set(xs)
    return sorted({min(z * x * z.inverse() for z in zs) for x in xs})


@pytest.mark.parametrize("spec", [sym(4), alt(5), alt_c2(4), sym(5)], ids=str)
def test_least_second_keeps_one_element_per_centralizer_orbit(spec):
    table = group_table(spec)
    for c0, cl0 in enumerate(table.classes):
        zs = table.centralizer(cl0.rep)
        for c1, cl1 in enumerate(table.classes):
            assert list(table.least_second(c0, c1)) == _orbit_minima(zs, cl1.elements)


def test_least_second_of_a_transposition_in_sym6():
    # C((1 2)) = S2 x S4 cuts the 120 elements of type 3,2 to five orbits
    table = group_table(sym(6))
    c0 = next(i for i, cl in enumerate(table.classes) if cl.key == ((2,),))
    c1 = next(i for i, cl in enumerate(table.classes) if cl.key == ((2, 3),))
    assert len(table.classes[c1].elements) == 120
    assert len(table.least_second(c0, c1)) == 5


def test_table_lookups_are_memoized_per_table():
    """A repeated lookup with an equal argument returns the object computed
    first; another table of the same group computes its own."""
    spec = sym(5)
    table = sact.groups.GroupTable(spec)
    p, x = table.elements[7], table.elements[30]
    mask = table.join(table.trivial_mask, p)
    lookups = [
        lambda t: t.centralizer(Perm(p.images)),
        lambda t: t.join(mask, Perm(x.images)),
        lambda t: t.power_class(3, 2),
        lambda t: t.product_support(2, 3),
        lambda t: t.least_second(1, 2),
        lambda t: t.class_ranks(),
    ]
    other = sact.groups.GroupTable(spec)
    other.join(other.trivial_mask, p)
    for lookup in lookups:
        first = lookup(table)
        assert lookup(table) is first
        fresh = lookup(other)
        assert fresh == first
        if not isinstance(first, int):
            assert fresh is not first
