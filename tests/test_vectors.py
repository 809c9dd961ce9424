import inspect
import itertools
import re
import sys

import pytest

from golden import GENUS10_ROWS, GENUS11_ROWS, TETRAHEDRAL_A
import sact.vectors
from sact.datasets import (ALTERNATING, SYMMETRIC, canonical_form,
                           dataset, equivalent, handle_solutions, parse_dataset,
                           validate)
from sact.errors import (BudgetExhausted, InconsistencyError, MembershipError,
                         NotApplicable, ParseError, PeriodNotRealizable,
                         ValidationFailure)
from sact.groups import (GroupTable, alt, alt_c2, embed_alt_c2, flip_label,
                         group_table, subgroup_order, sym)
from sact.orbifold import Signature, enumerate_signatures
from sact.perm import Perm
from sact.vectors import (GeneratingVector, SearchBudget, _canonical_key,
                          dataset_from_vector, enumerate_vectors,
                          enumerate_weak_classes, materialize_vector,
                          resolved_representative, validate_vector,
                          vectors_for_dataset)
from test_groups import commutator_classes_by_products, normal_closure_by_products


def test_enumerate_vectors_basic():
    vecs = list(enumerate_vectors(alt(5), Signature(0, [2, 2, 2, 5])))
    assert vecs
    for v in vecs[:50]:
        assert validate_vector(v)
    # all solutions collapse to a single weak class
    classes = enumerate_weak_classes(alt(5), 10)
    assert len(classes.items) == 1


@pytest.mark.parametrize("spec,sig,total", [(alt(5), Signature(0, [3, 5, 5]), 240),
                                            (alt(4), Signature(0, [3, 3, 3, 3]), 360)],
                         ids=["A5(0;3,5,5)", "A4(0;3,3,3,3)"])
def test_enumerate_vectors_lists_every_vector(spec, sig, total):
    """Against a scan of every tuple of elements of the periods' orders, the
    last one forced by the long relation: a listing walks every ordered
    class tuple, not one per class multiset."""
    table = group_table(spec)
    pools = [[p for p in table.elements if p.order() == m] for m in sig.periods[:-1]]
    scanned = set()
    for head in itertools.product(*pools):
        product = Perm.identity(spec.degree)
        for x in head:
            product = product * x
        last = product.inverse()
        if last.order() == sig.periods[-1] and \
                subgroup_order(list(head), spec.degree) == spec.order:
            scanned.add(head + (last,))
    listed = [v.elliptic for v in enumerate_vectors(spec, sig)]
    assert len(listed) == len(set(listed)) == len(scanned) == total
    assert set(listed) == scanned


@pytest.mark.parametrize("spec,sig", [(sym(6), Signature(0, [2, 3, 6])),
                                      (alt(5), Signature(1, [])),
                                      (alt(5), Signature(0, [2, 3, 5]))],
                         ids=["S6(0;2,3,6)", "A5(1;-)", "A5(0;2,3,5)"])
def test_non_hyperbolic_signature_is_rejected(spec, sig):
    """Area exactly 0 (Euclidean) and positive area (spherical) both fail."""
    with pytest.raises(ParseError, match=re.escape(f"signature {sig} is not hyperbolic")):
        list(enumerate_vectors(spec, sig))


def test_period_not_realizable():
    with pytest.raises(PeriodNotRealizable):
        list(enumerate_vectors(alt(5), Signature(0, [2, 10, 10])))
    with pytest.raises(PeriodNotRealizable):
        list(enumerate_vectors(sym(5), Signature(0, [2, 10, 10])))
    # at the weak-class level unrealizable periods are simply absent
    out = enumerate_weak_classes(sym(5), 19, signatures=[Signature(0, [2, 10, 10])])
    assert out.items == [] and out.complete


def brute_weak_keys(spec, g0, periods):
    """Oracle: fully unpruned tuple scan reduced by the class-multiset key."""
    table = group_table(spec)
    pools = [[p for p in table.elements if p.order() == m] for m in periods]
    keys = set()
    for combo in itertools.product(*pools):
        product = Perm.identity(spec.degree)
        for x in combo:
            product = product * x
        if g0 == 0:
            if not product.is_identity():
                continue
            if subgroup_order(list(combo), spec.degree) != spec.order:
                continue
        elif g0 == 1:
            hit = False
            for w1 in table.elements:
                for w2 in table.elements:
                    if product == w2 * w1 * w2.inverse() * w1.inverse() and \
                            subgroup_order(list(combo) + [w1, w2], spec.degree) == spec.order:
                        hit = True
                        break
                if hit:
                    break
            if not hit:
                continue
        key = tuple(sorted(table.classes[table.class_id(x)].key for x in combo))
        keys.add(min(key, label_flip(key)))
    return keys


def label_flip(key):
    """A sorted multiset of class keys under the global split-class flip,
    at the label level: the tags "plus" and "minus" swap."""
    return tuple(sorted(k[:1] + (flip_label(k[1]),) + k[2:] if len(k) > 1 else k
                        for k in key))


def label_keys(spec, items):
    """The weak-class keys of items as sorted class keys, not class ids."""
    classes = group_table(spec).classes
    return {tuple(classes[i].key for i in item.key) for item in items}


@pytest.mark.parametrize("spec,g", [(alt(4), 3), (alt(5), 10), (alt(5), 11)])
def test_pruned_search_matches_brute_force(spec, g):
    pruned = enumerate_weak_classes(spec, g)
    expected = set()
    for sig in enumerate_signatures(spec, g):
        expected |= brute_weak_keys(spec, sig.g0, sig.periods)
    assert label_keys(spec, pruned.items) == expected


def test_genus10_matches_published_table():
    got = {}
    for spec in [alt(4), alt(5), alt(6), sym(4), sym(5), sym(6)]:
        res = enumerate_weak_classes(spec, 10)
        assert res.complete
        got[spec.name] = [canonical_form(item.ds) for item in res.items]
    assert sum(len(v) for v in got.values()) == 6
    for name, text, _, _ in GENUS10_ROWS:
        kind = ALTERNATING if name.startswith("A") else SYMMETRIC
        expected = canonical_form(parse_dataset(text, kind))
        assert expected in got[name], (name, text)


def test_genus11_matches_published_table():
    got = {}
    for spec in [alt(4), alt(5), alt(6), sym(4), sym(5), sym(6)]:
        res = enumerate_weak_classes(spec, 11)
        got[spec.name] = [canonical_form(item.ds) for item in res.items]
    assert sum(len(v) for v in got.values()) == 6
    for name, text, _, _ in GENUS11_ROWS:
        kind = ALTERNATING if name.startswith("A") else SYMMETRIC
        expected = canonical_form(parse_dataset(text, kind))
        assert expected in got[name], (name, text)


def test_tetrahedral_class_found_at_genus_3():
    res = enumerate_weak_classes(alt(4), 3)
    target = canonical_form(parse_dataset(TETRAHEDRAL_A, ALTERNATING))
    assert target in [canonical_form(item.ds) for item in res.items]


def test_emitted_vectors_validate_and_datasets_validate():
    for spec, g in [(alt(4), 3), (sym(4), 10), (alt(5), 11)]:
        for item in enumerate_weak_classes(spec, g).items:
            assert validate_vector(item.vector)
            assert validate(item.ds) == g


def test_simultaneous_conjugation_lands_in_same_class():
    res = enumerate_weak_classes(alt(5), 10)
    item = res.items[0]
    table = group_table(alt(5))
    for h in table.elements[::11]:
        conj = dataset(ALTERNATING, 5, 0,
                       [(h * s * h.inverse(), 1) for s in item.vector.elliptic])
        assert equivalent(conj, item.ds)


def test_alt_c2_classes_are_vectors():
    res = enumerate_weak_classes(alt_c2(4), 7, signatures=[Signature(1, [2])])
    assert res.items
    for item in res.items:
        assert item.ds is None
        assert validate_vector(item.vector)


def canonical_rows(spec, g, sig):
    res = enumerate_weak_classes(spec, g, signatures=[sig])
    assert res.complete
    return [str(canonical_form(item.ds)) for item in res.items]


def test_shortcut_agrees_with_search():
    """On a genus >= 2 quotient the search returns exactly the class
    multisets with matching orders and even product (the parity shortcut)."""
    # free symmetric action on genus 25 over Sym(4): one class
    assert canonical_rows(sym(4), 25, Signature(2, [])) == ["(4,2;-)"]
    # one order-2 cone on a genus-2 quotient: the V-class survives, the
    # transposition class has odd product and is excluded
    assert canonical_rows(sym(4), 31, Signature(2, [2])) == \
        ["(4,2;[(1 2)(3 4),2;2,2])"]


def test_shortcut_excludes_odd_parity():
    # a single transposition entry has odd product: Sym(3) (2;2) has no
    # class at any genus, and Sym(4) rejects the transposition data set
    for g in range(5, 12):
        assert canonical_rows(sym(3), g, Signature(2, [2])) == []
    with pytest.raises(ValidationFailure) as err:
        validate(parse_dataset("(4,2;[(1 2),2;2])", SYMMETRIC))
    assert err.value.condition == "parity"


def test_alt4_genus2_quotient_needs_product_in_v4():
    # commutators of Alt(4) fill only V_4: an involution entry closes the
    # handle relation, a single 3-cycle does not
    assert canonical_rows(alt(4), 16, Signature(2, [2])) == \
        ["(4,2;[(1 2)(3 4),2;2,2])"]
    assert canonical_rows(alt(4), 17, Signature(2, [3])) == []
    assert validate(parse_dataset("(4,2;[(1 2)(3 4),2;2,2])", ALTERNATING)) == 16
    with pytest.raises(ValidationFailure) as err:
        validate(parse_dataset("(4,2;[(1 2 3),3;3])", ALTERNATING))
    assert err.value.condition == "witness"


def test_budget_exhaustion_is_reported():
    res = enumerate_weak_classes(sym(4), 10, budget=SearchBudget(max_nodes=5))
    assert not res.complete
    with pytest.raises(BudgetExhausted):
        enumerate_weak_classes(sym(4), 10, budget=SearchBudget(max_nodes=5),
                               raise_on_budget=True)


@pytest.mark.parametrize("spec,g,nodes,unfinished", [
    (alt(4), 10, 12, ["(1;2,2,2)"]),
    (alt_c2(4), 7, 14, ["(1;2)"]),
    (sym(4), 10, 27, ["(0;2,4,4,4)", "(0;3,3,3,4)", "(1;4)"]),
], ids=["A4@10", "AxC24@7", "S4@10"])
def test_node_budget_is_exact(spec, g, nodes, unfinished):
    """Each DFS node and each scanned commutator presentation of a g0 = 1
    handle search costs one node, so these are the smallest complete budgets.
    Class tuples dropped by the normal-closure prune cost none.  A stopped
    run names only the interrupted signature and those after it."""
    res = enumerate_weak_classes(spec, g, budget=SearchBudget(max_nodes=nodes - 1))
    assert not res.complete
    assert res.incomplete_signatures == unfinished
    assert enumerate_weak_classes(spec, g, budget=SearchBudget(max_nodes=nodes)).complete


def test_wall_clock_budget_fires():
    """The clock is read every 1024 nodes, so a zero-second budget stops at
    node 1024, where a 1023-node budget stops too."""
    timed = enumerate_weak_classes(sym(4), 121, SearchBudget(max_seconds=0))
    counted = enumerate_weak_classes(sym(4), 121, SearchBudget(max_nodes=1023))
    assert not timed.complete and not counted.complete
    assert timed.items == counted.items and len(timed.items) == 11
    assert timed.unfinished == counted.unfinished and len(timed.unfinished) == 95
    assert str(timed.unfinished[0]) == "(0;" + ",".join(["2"] * 24) + ")"
    with pytest.raises(BudgetExhausted, match=r"^wall-clock ceiling 0s hit$"):
        enumerate_weak_classes(sym(4), 121, SearchBudget(max_seconds=0),
                               raise_on_budget=True)


def test_class_tuple_depth_does_not_grow_with_positions():
    # A4 on (0;3^60) at g = 229: the search over 60 positions runs inside 30
    # free frames, since it keeps its own stack
    sig = [Signature(0, [3] * 60)]
    rows = [str(item.ds) for item in enumerate_weak_classes(alt(4), 229, signatures=sig).items]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        res = enumerate_weak_classes(alt(4), 229, signatures=sig)
    finally:
        sys.setrecursionlimit(limit)
    assert res.complete and rows
    assert [str(item.ds) for item in res.items] == rows


def test_materialize_and_variants():
    ds = parse_dataset(TETRAHEDRAL_A, ALTERNATING)
    vec = materialize_vector(ds)
    assert validate_vector(vec)
    several = []
    for v in vectors_for_dataset(ds):
        several.append(v)
        if len(several) == 3:
            break
    assert len(several) == 3
    for v in several:
        assert validate_vector(v)
        assert equivalent(dataset_from_vector(v), ds)


def test_materialize_vector_checks_the_long_relation(monkeypatch):
    """A handle pair that does not close the relation is an internal
    inconsistency, raised as an error rather than an assert."""
    octahedral = parse_dataset("(4,1;[(1 2)(3 4),2;2,2]^[2])", ALTERNATING)
    assert materialize_vector(octahedral).long_relation_value().is_identity()
    # the entries multiply to the identity, and [a, b] does not
    a, b = Perm.from_cycles([(1, 2, 3)], 4), Perm.from_cycles([(1, 2), (3, 4)], 4)
    monkeypatch.setattr(sact.vectors, "handle_solutions",
                        lambda *args: iter([((a, b),)]))
    with pytest.raises(InconsistencyError, match="does not close the long relation"):
        materialize_vector(octahedral)


def test_materialize_vector_rejects_a_non_member_entry():
    """A non-member entry is a package error, raised before any table
    lookup could fail on it."""
    with pytest.raises(MembershipError, match=r"^\(1 2\) is not in A5$"):
        materialize_vector(parse_dataset("(5,1;[(1 2),2;2])", ALTERNATING))


def test_unrealizable_alt4_data_set_is_refused():
    """A 3-cycle is outside V_4, the derived subgroup of Alt(4), so no
    handle pairs close the relation at quotient genus 2: re-solving finds no
    vector and re-raises the witness failure, and materializing refuses."""
    ds = parse_dataset("(4,2;[(1 2 3),3;3])", ALTERNATING)
    with pytest.raises(ValidationFailure,
                       match=r"^witness: handle relation unsatisfiable in Alt\(4\)$"):
        resolved_representative(ds)
    with pytest.raises(NotApplicable, match="^no handle images close the relation$"):
        materialize_vector(ds)


def test_weak_class_data_sets_are_their_text():
    """A data set the search builds equals the parse of its own text, with
    an equal hash: it carries nothing the grammar cannot express, so its
    g0 >= 1 handles are always re-derived."""
    quotients = []
    for g, f, n in itertools.product([10, 11, 19, 25, 49], (alt, sym), (4, 5, 6, 7)):
        spec = f(n)
        if spec.order > 84 * (g - 1):  # the Hurwitz bound
            continue
        kind = ALTERNATING if spec.family == "A" else SYMMETRIC
        for item in enumerate_weak_classes(spec, g).items:
            again = parse_dataset(str(item.ds), kind)
            assert again == item.ds and hash(again) == hash(item.ds), str(item.ds)
            quotients.append(item.ds.g0)
    assert len(quotients) == 159 and quotients.count(1) == 40


DERIVED_SPECS = ([sym(n) for n in range(3, 9)] + [alt(n) for n in range(4, 9)]
                 + [alt_c2(n) for n in range(4, 8)])


@pytest.mark.parametrize("spec", DERIVED_SPECS, ids=str)
def test_derived_subgroup_and_center_follow_the_family_rules(spec):
    """The end classes at g0 >= 1, GroupTable.commutator_class_ids, and the
    center, read off as the size-1 classes, are the family rules: the even
    classes of Sym(n); all of Alt(n) but V_4 in Alt(4); the w = 0 classes of Alt(n) x C_2, again V_4 at n = 4; and a
    trivial center but for the central swap of Alt(n) x C_2."""
    table = group_table(spec)
    derived = set()
    for ci, cl in enumerate(table.classes):
        if spec.family == "S":
            keep = cl.rep.is_even()
        else:
            keep = spec.n > 4 or cl.rep.order() in (1, 2)
            if spec.family == "AxC2":
                keep = keep and not cl.key[2]
        if keep:
            derived.add(ci)
    assert table.commutator_class_ids() == derived
    center = {table.identity.images}
    if spec.family == "AxC2":
        center.add(embed_alt_c2(Perm.identity(spec.n), True).images)
    assert {cl.rep.images for cl in table.classes if cl.size == 1} == center


def test_long_relation_value_is_the_product_of_the_word():
    """Each point followed through the word agrees with Perm products,
    identity handle pairs included."""
    table = group_table(sym(4))
    elems = table.elements
    for k in range(0, len(elems), 7):
        s = (elems[k], elems[(5 * k + 3) % 24], elems[(7 * k + 1) % 24])
        handles = ((elems[(3 * k) % 24], elems[(11 * k + 2) % 24]),
                   (Perm.identity(4), elems[k]))
        vec = GeneratingVector(sym(4), Signature(1, []), s, handles)
        want = s[0] * s[1] * s[2]
        a, b = handles[0]
        want = want * (a * b * a.inverse() * b.inverse())
        assert vec.long_relation_value() == want


def test_realizability_is_arrangement_independent():
    """The search fixes entries in sorted-period order; solutions found in
    any other arrangement of the periods reduce to the same weak keys."""
    spec = alt(4)
    table = group_table(spec)
    sorted_keys = label_keys(spec, enumerate_weak_classes(spec, 3).items)
    any_order_keys = set()
    for arrangement in set(itertools.permutations((2, 2, 3, 3))):
        pools = [[p for p in table.elements if p.order() == m] for m in arrangement]
        for combo in itertools.product(*pools):
            product = Perm.identity(4)
            for x in combo:
                product = product * x
            if not product.is_identity():
                continue
            if subgroup_order(list(combo), 4) != spec.order:
                continue
            key = tuple(sorted(table.classes[table.class_id(x)].key for x in combo))
            any_order_keys.add(min(key, label_flip(key)))
    assert any_order_keys == sorted_keys


# (group, genus, signature) of each pair of weak classes at g <= 121 that an
# outer automorphism of Sym(6) relates; S6 (0;3,6,6) at g = 121 holds two
DEGREE6_OUTER_PAIRS = [
    (alt(6), 40, (0, 3, 4, 5)), (alt(6), 49, (0, 3, 5, 5)),
    (alt(6), 76, (0, 2, 2, 3, 4)), (alt(6), 85, (0, 2, 2, 3, 5)),
    (alt(6), 91, (0, 2, 3, 3, 3)), (alt(6), 106, (0, 2, 3, 3, 4)),
    (alt(6), 115, (0, 2, 3, 3, 5)), (alt(6), 121, (0, 2, 2, 2, 2, 3)),
    (alt(6), 121, (0, 2, 3, 4, 4)), (alt(6), 121, (0, 3, 3, 3, 3)),
    (sym(6), 49, (0, 2, 5, 6)), (sym(6), 91, (0, 3, 4, 6)),
    (sym(6), 121, (0, 2, 2, 2, 6)), (sym(6), 121, (0, 3, 6, 6)),
    (sym(6), 121, (0, 3, 6, 6)), (sym(6), 121, (0, 4, 4, 6)),
]


def test_degree6_outer_automorphism_pairs_stay_apart():
    """Weak classes are identified up to the split-class flip, which is
    conjugation in Sym(n) and so all of Aut(G) except at n = 6.  An outer
    automorphism phi of Sym(6) carries the class multiset of one row onto
    another's in 16 pairs at g <= 121 (DEGREE6_OUTER_PAIRS), the first two
    at g = 40 and at g = 49, a tier-1 golden genus.  Each pair is matched
    through the weak-class key of its image under phi, and the key keeps
    each pair apart.  Change this only together with the goldens, if weak
    conjugacy is ever taken up to all of Aut(G)."""
    s6 = group_table(sym(6))
    s, t = sym(6).standard_generators()
    # (1 2) -> (1 2)(3 4)(5 6) and (1 2 3 4 5 6) -> (2 3)(4 5 6), extended
    # breadth-first over the Cayley graph and checked on every edge
    gens = {s: Perm.from_cycles([(1, 2), (3, 4), (5, 6)], 6),
            t: Perm.from_cycles([(2, 3), (4, 5, 6)], 6)}
    phi = {s6.identity: s6.identity}
    frontier = [s6.identity]
    while frontier:
        fresh = []
        for g in frontier:
            for x, y in gens.items():
                h, image = g * x, phi[g] * y
                if h in phi:
                    assert phi[h] == image
                else:
                    phi[h] = image
                    fresh.append(h)
        frontier = fresh
    assert len(set(phi.values())) == len(s6.elements)
    assert phi[s].cycle_type() != s.cycle_type()  # not inner

    found = []
    for spec in (alt(6), sym(6)):
        table = group_table(spec)
        for g, sig in sorted({(g, sig) for sp, g, sig in DEGREE6_OUTER_PAIRS
                              if sp == spec}):
            items = enumerate_weak_classes(
                spec, g, signatures=[Signature(sig[0], sig[1:])]).items
            keys = {item.key for item in items}
            for key in sorted(keys):
                image = _canonical_key(table, [
                    table.class_id(phi[table.classes[ci].rep]) for ci in key])
                assert image in keys, (spec.name, g, sig)
                if key < image:
                    found.append((spec, g, sig))
    assert found == DEGREE6_OUTER_PAIRS


def test_free_actions_and_family_case():
    assert canonical_rows(alt(5), 61, Signature(2, [])) == ["(5,2;-)"]
    assert canonical_rows(alt(5), 181, Signature(4, [])) == ["(5,4;-)"]
    # two odd triple-transposition entries on a genus-2 quotient over Sym(6);
    # of the six involution-type pairs, the four with even product survive
    rows = canonical_rows(sym(6), 1081, Signature(2, [2, 2]))
    family = parse_dataset("(6,2;[(1 2)(3 4)(5 6),2;2,2,2]^[2])", SYMMETRIC)
    assert str(canonical_form(family)) in rows
    assert len(rows) == 4


# Every (group, genus) pair another test searches, with the signatures it
# restricts to (None: every signature of the genus).
COVERED_PAIRS = [
    (alt(4), 3, None), (alt(4), 5, None), (alt(4), 7, None),
    (alt(4), 10, None), (alt(4), 11, None),
    (alt(4), 13, [Signature(2, [])]), (alt(4), 16, [Signature(2, [2])]),
    (alt(4), 17, [Signature(2, [3])]),
    (alt(5), 10, None), (alt(5), 11, None), (alt(5), 19, None),
    (alt(5), 61, [Signature(2, [])]), (alt(5), 121, [Signature(3, [])]),
    (alt(5), 181, [Signature(4, [])]),
    (alt(6), 10, None), (alt(6), 11, None),
    (alt_c2(4), 5, [Signature(0, [3, 6, 6])]), (alt_c2(4), 7, None),
    (alt_c2(5), 19, [Signature(0, [2, 10, 10])]),
    (sym(3), 5, [Signature(2, [2])]), (sym(3), 6, [Signature(2, [2])]),
    (sym(3), 7, [Signature(2, [2])]), (sym(3), 8, [Signature(2, [2])]),
    (sym(3), 9, [Signature(2, [2])]), (sym(3), 10, [Signature(2, [2])]),
    (sym(3), 11, [Signature(2, [2])]),
    (sym(4), 5, None), (sym(4), 7, None), (sym(4), 10, None),
    (sym(4), 11, None), (sym(4), 25, [Signature(2, [])]),
    (sym(4), 31, [Signature(2, [2])]),
    (sym(5), 10, None), (sym(5), 11, None),
    (sym(5), 19, [Signature(0, [2, 10, 10]), Signature(0, [2, 2, 2, 5]),
                  Signature(0, [4, 4, 5])]),
    (sym(5), 241, [Signature(3, [])]),
    (sym(6), 10, None), (sym(6), 11, None),
    (sym(6), 1081, [Signature(2, [2, 2])]),
]


def _weak_class_rows(spec, g, sigs):
    res = enumerate_weak_classes(spec, g, signatures=sigs)
    assert res.complete
    return [(str(item.sig), item.key, item.vector) for item in res.items]


@pytest.mark.parametrize("spec,g,sigs", COVERED_PAIRS,
                         ids=[f"{s.name}@{g}" + ("" if sigs is None else "-sig")
                              for s, g, sigs in COVERED_PAIRS])
def test_normal_closure_prune_matches_unpruned_search(spec, g, sigs, monkeypatch):
    """Dropping class tuples whose normal closure is proper changes no weak
    class and no witness vector."""
    pruned = _weak_class_rows(spec, g, sigs)
    monkeypatch.setattr(sact.vectors, "_closure_allows", lambda table, g0, ids: True)
    assert _weak_class_rows(spec, g, sigs) == pruned


def test_normal_closure_prune_fires(monkeypatch):
    """A4@10 finishes in 12 nodes only because tuples that lie in V_4 are
    dropped; the unpruned search needs more."""
    assert enumerate_weak_classes(alt(4), 10, budget=SearchBudget(max_nodes=12)).complete
    monkeypatch.setattr(sact.vectors, "_closure_allows", lambda table, g0, ids: True)
    assert not enumerate_weak_classes(alt(4), 10,
                                      budget=SearchBudget(max_nodes=12)).complete


CLOSURE_SPECS = ([sym(n) for n in range(3, 9)] + [alt(n) for n in range(4, 9)]
                 + [alt_c2(n) for n in range(4, 9)])


@pytest.mark.parametrize("spec", CLOSURE_SPECS, ids=str)
def test_closure_rule_matches_the_class_product_closure(spec):
    """The closed-form closure rule against the normal closure closed under
    class products: on every class and every pair of classes, the tuple
    passes at g0 = 0 exactly when its closure is G, and at g0 = 1 exactly
    when its closure holds G'."""
    table = group_table(spec)
    needs = {0: frozenset(range(len(table.classes))),
             1: commutator_classes_by_products(table)}
    ids = range(len(table.classes))
    wrong = []
    for pair in itertools.chain(zip(ids), itertools.combinations(ids, 2)):
        closure = normal_closure_by_products(table, pair)
        for g0, need in needs.items():
            if sact.vectors._closure_allows(table, g0, pair) != (need <= closure):
                wrong.append((g0, [table.classes[c].key for c in pair]))
    assert wrong == []


def _reference_vectors_for_classes(spec, g0, class_ids, clock, normalize_first=False):
    """The class-tuple DFS without the dead-state memo: every state is
    expanded, and every leaf runs the handle solver's generation test."""
    table = group_table(spec)
    if g0 == 0 and len(normal_closure_by_products(table, class_ids)) < len(table.classes):
        return
    r = len(class_ids)
    periods = tuple(sorted(table.classes[c].rep.order() for c in class_ids))
    sig = Signature(g0, periods)
    reach = [None] * (r + 1)
    reach[r] = table.commutator_class_ids() if g0 else frozenset({table.identity_class_id()})
    for i in range(r - 1, -1, -1):
        reach[i] = frozenset(x for x in range(len(table.classes))
                             if table.product_support(x, class_ids[i]) & reach[i + 1])
    if table.identity_class_id() not in reach[0]:
        return
    chosen = []

    def dfs(i, partial):
        clock.tick()
        if i == r:
            for handles in handle_solutions(spec, g0, chosen, partial, clock.tick):
                yield GeneratingVector(spec, sig, tuple(chosen), handles)
            return
        if g0 == 0 and i == r - 1:
            forced = partial.inverse()
            if table.class_id(forced) == class_ids[i]:
                chosen.append(forced)
                yield from dfs(i + 1, table.identity)
                chosen.pop()
            return
        if normalize_first and i == 0:
            candidates = (table.classes[class_ids[0]].rep,)
        else:
            candidates = table.classes[class_ids[i]].elements
        for x in candidates:
            p2 = partial * x
            if table.class_id(p2) in reach[i + 1]:
                chosen.append(x)
                yield from dfs(i + 1, p2)
                chosen.pop()

    yield from dfs(0, table.identity)


# Only S6@1081 (2;2,2) has more vectors than this (millions); its stream is
# compared up to here.
VECTOR_STREAM_CAP = 50_000


@pytest.mark.parametrize("spec,g,sigs", COVERED_PAIRS,
                         ids=[f"{s.name}@{g}" + ("" if sigs is None else "-sig")
                              for s, g, sigs in COVERED_PAIRS])
def test_dead_state_memo_matches_the_unmemoized_search(spec, g, sigs, monkeypatch):
    """Skipping dead states and testing generation by bitmask at g0 = 0
    changes no generating vector, no weak class and no witness vector."""
    orders = spec.element_orders()
    sigs_here = [sig for sig in (sigs or enumerate_signatures(spec, g))
                 if all(m in orders for m in sig.periods)]
    memo_rows = _weak_class_rows(spec, g, sigs)
    memo_vectors = [list(itertools.islice(enumerate_vectors(spec, sig), VECTOR_STREAM_CAP))
                    for sig in sigs_here]
    monkeypatch.setattr(sact.vectors, "_vectors_for_classes",
                        _reference_vectors_for_classes)
    assert _weak_class_rows(spec, g, sigs) == memo_rows
    for sig, vectors in zip(sigs_here, memo_vectors):
        assert list(itertools.islice(enumerate_vectors(spec, sig), VECTOR_STREAM_CAP)) == vectors


def test_dead_state_memo_fires(monkeypatch):
    """S4 on (1;2^8) at g = 49 exhausts its double-transposition tuple, which
    has no generating vector, within 3,000 nodes only by skipping the states
    already proven dead; expanding every state needs more than 100,000."""
    sig = [Signature(1, [2] * 8)]
    assert enumerate_weak_classes(sym(4), 49, signatures=sig,
                                  budget=SearchBudget(max_nodes=3_000)).complete
    monkeypatch.setattr(sact.vectors, "_vectors_for_classes",
                        _reference_vectors_for_classes)
    assert not enumerate_weak_classes(sym(4), 49, signatures=sig,
                                      budget=SearchBudget(max_nodes=100_000)).complete


# Of the signatures `classify --all` sweeps at g = 121 and 241, the only ones
# whose node count depends on whether the g0 = 1 handle scan runs over every
# r2 or over one per orbit of the elliptics' common centralizer (760 against
# 136 nodes, 858 against 234); both scans give these rows.
HANDLE_SCAN_PINS = [
    (121, Signature(1, [3]), []),
    (241, Signature(1, [3, 3]), [
        ((4, 4), "(6,1;[(1 2 3)(4 5 6),3;3,3],[(1 2 3)(4 6 5),3;3,3])"),
        ((3, 4), "(6,1;[(4 5 6),3;3],[(1 2 3)(4 5 6),3;3,3])"),
        ((3, 3), "(6,1;[(4 5 6),3;3],[(4 6 5),3;3])"),
    ]),
]


@pytest.mark.parametrize("g,sig,rows", HANDLE_SCAN_PINS,
                         ids=[f"A6@{g}{sig}" for g, sig, _ in HANDLE_SCAN_PINS])
def test_full_handle_scan_keeps_the_weak_classes(g, sig, rows):
    out = enumerate_weak_classes(alt(6), g, signatures=[sig])
    assert out.complete
    assert len(out.items) == len(rows)
    assert [(item.key, str(item.ds)) for item in out.items] == rows
    for item in out.items:
        assert validate_vector(item.vector)


def test_second_elliptic_rule_fires(monkeypatch):
    """S5@11 finishes in 28 nodes only because the second elliptic runs
    over the orbit-least elements of its class under the centralizer of
    the pinned first one; over the whole class it needs more."""
    assert enumerate_weak_classes(sym(5), 11, budget=SearchBudget(max_nodes=28)).complete
    monkeypatch.setattr(GroupTable, "least_second",
                        lambda self, c0, c1: self.classes[c1].elements)
    assert not enumerate_weak_classes(sym(5), 11, budget=SearchBudget(max_nodes=28)).complete


def _without_abelian_quotient_rule(monkeypatch):
    """Patch out the g0 = 1 closure rule; the g0 = 0 rule stays."""
    allows = sact.vectors._closure_allows
    monkeypatch.setattr(sact.vectors, "_closure_allows",
                        lambda table, g0, ids: g0 == 1 or allows(table, g0, ids))


ABELIAN_QUOTIENT_RANGES = [(alt(4), 25), (sym(4), 25), (alt(5), 21), (sym(5), 21),
                           (alt_c2(4), 13)]


@pytest.mark.parametrize("spec,top", ABELIAN_QUOTIENT_RANGES,
                         ids=[f"{s.name}@2-{top}" for s, top in ABELIAN_QUOTIENT_RANGES])
def test_abelian_quotient_rule_matches_the_search_without_it(spec, top, monkeypatch):
    """Dropping g0 = 1 class tuples whose normal closure misses the derived
    subgroup changes no weak class, no key and no witness vector."""
    ruled = [_weak_class_rows(spec, g, None) for g in range(2, top + 1)]
    _without_abelian_quotient_rule(monkeypatch)
    assert [_weak_class_rows(spec, g, None) for g in range(2, top + 1)] == ruled


def test_abelian_quotient_rule_fires(monkeypatch):
    """S4 on (1;2,2,2) with every elliptic of type (2,2): the classes close
    to V_4, whose quotient S_3 is not abelian, so the rule settles the tuple
    before any node; without it the search has to prove it empty."""
    table = group_table(sym(4))
    v4 = {cl.key: ci for ci, cl in enumerate(table.classes)}[((2, 2),)]

    def nodes():
        clock = sact.vectors._Clock(None)
        found = list(sact.vectors._vectors_for_classes(sym(4), 1, (v4,) * 3, clock,
                                                       normalize_first=True))
        assert found == []
        return clock.nodes

    assert nodes() == 0
    _without_abelian_quotient_rule(monkeypatch)
    assert nodes() > 0


@pytest.mark.parametrize("spec,g,sigs", COVERED_PAIRS,
                         ids=[f"{s.name}@{g}" + ("" if sigs is None else "-sig")
                              for s, g, sigs in COVERED_PAIRS])
def test_symmetry_breaking_matches_the_unbroken_search(spec, g, sigs, monkeypatch,
                                                       unbroken_symmetry):
    """Branching only on orbit-least choices changes no weak class and no
    witness vector: the first vector in DFS order is orbit-least."""
    unbroken = _weak_class_rows(spec, g, sigs)
    monkeypatch.undo()  # restores both rules
    assert _weak_class_rows(spec, g, sigs) == unbroken
