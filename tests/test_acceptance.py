"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Each test prints a PASS line on success (run with -s to see them); every
comparison is exact equality after canonicalization, no numerical tolerance
anywhere.
"""

import time

import pytest

from golden import (CUBIC_A_PRINTED, CUBIC_S, DA2_A, DODECAHEDRAL_A,
                    GENUS10_ROWS, GENUS11_ROWS, ICOSAHEDRAL_A,
                    ICOSAHEDRAL_LIFT_S, ICOSAHEDRAL_LIFT_S2, OCTAHEDRAL_A,
                    OCTAHEDRAL_S, POLYHEDRAL_FACTORS, POLYHEDRAL_FACTORS_S,
                    TETRAHEDRAL_A)
from sact.datasets import (ALTERNATING, SYMMETRIC, canonical_form, dataset,
                           equivalent, parse_dataset, validate)
from sact.factors import (cyclic_factor, fixed_point_count, obstruction_report,
                          standard_factors, weakly_generates)
from sact.groups import (alt, alt_c2, are_conjugate, centralizer_order,
                         commutator_witness, group_table, sym)
from sact.lifting import (ALT_TIMES_C2, WLS, InvolutionDescent, decide_lift,
                          free_action_analysis, index2_restrict, match_descent,
                          psi_map)
from sact.orbifold import Signature, parse_cyclic, validate_cyclic
from sact.perm import Perm, parse_perm
from sact.vectors import (enumerate_weak_classes, materialize_vector,
                          vectors_for_dataset)


def report(criterion, text):
    print(f"PASS {criterion}: {text}", flush=True)


def factor_pair_variants(ds):
    """The standard factor pair of a data set and of its global flip."""
    pairs = {standard_factors(ds)}
    if ds.kind == ALTERNATING:
        swap = Perm.from_cycles([(1, 2)], ds.n)
        flipped = dataset(ALTERNATING, ds.n, ds.g0,
                          [(swap * e.rep * swap, e.mult) for e in ds.entries])
        pairs.add(standard_factors(flipped))
    return pairs


def check_table(genus, rows):
    t0 = time.time()
    mine = {}
    for spec in [alt(4), alt(5), alt(6), sym(4), sym(5), sym(6)]:
        res = enumerate_weak_classes(spec, genus)
        assert res.complete, f"{spec.name} enumeration incomplete"
        mine.setdefault(spec.name, []).extend(res.items)
    total = sum(len(v) for v in mine.values())
    assert total == len(rows), f"expected {len(rows)} classes, found {total}"
    for name, text, f_sigma, f_tau in rows:
        kind = ALTERNATING if name.startswith("A") else SYMMETRIC
        published = parse_dataset(text, kind)
        matches = [item for item in mine[name] if equivalent(item.ds, published)]
        assert len(matches) == 1, f"{name} row not matched exactly once: {text}"
        expected_pair = (parse_cyclic(f_sigma), parse_cyclic(f_tau))
        assert expected_pair in factor_pair_variants(matches[0].ds), \
            f"factor pair mismatch on {name}: {text}"
    return time.time() - t0


def test_criterion_1_genus10_table():
    elapsed = check_table(10, GENUS10_ROWS)
    assert elapsed < 600
    report("criterion 1", f"genus-10 classification reproduced exactly "
                          f"(6 classes, {elapsed:.1f}s)")


def test_criterion_2_genus11_table():
    elapsed = check_table(11, GENUS11_ROWS)
    assert elapsed < 600
    report("criterion 2", f"genus-11 classification reproduced exactly "
                          f"(6 classes, {elapsed:.1f}s)")


def test_criterion_3_worked_examples():
    t0 = time.time()
    targets = [
        (alt(4), 3, TETRAHEDRAL_A, ALTERNATING),
        (alt(4), 5, CUBIC_A_PRINTED, ALTERNATING),
        (sym(4), 5, CUBIC_S, SYMMETRIC),
        (alt(4), 7, OCTAHEDRAL_A, ALTERNATING),
        (sym(4), 7, OCTAHEDRAL_S, SYMMETRIC),
        (alt(5), 11, DODECAHEDRAL_A, ALTERNATING),
        (alt(5), 19, ICOSAHEDRAL_A, ALTERNATING),
    ]
    factor_book = dict(POLYHEDRAL_FACTORS)
    factor_book.update(POLYHEDRAL_FACTORS_S)
    for spec, genus, text, kind in targets:
        res = enumerate_weak_classes(spec, genus)
        published = parse_dataset(text, kind)
        matches = [item for item in res.items if equivalent(item.ds, published)]
        assert len(matches) == 1, f"{spec.name} genus {genus}: {text}"
        genus_expected, f_sigma, f_tau = factor_book[text]
        assert genus == genus_expected
        expected_pair = (parse_cyclic(f_sigma), parse_cyclic(f_tau))
        assert expected_pair in factor_pair_variants(matches[0].ds), text
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion 3", f"all 7 polyhedral classes found with their factors "
                          f"({elapsed:.1f}s)")


def test_criterion_4a_icosahedral_lifts():
    ds = parse_dataset(ICOSAHEDRAL_A, ALTERNATING)
    d = parse_cyclic("(2,0;(1,2)^[2])")

    # (0;2,10,10) admits no degree-5 genus-19 symmetric class
    res = enumerate_weak_classes(sym(5), 19, signatures=[Signature(0, (2, 10, 10))])
    assert res.items == [] and res.complete

    # the other two signatures carry exactly one symmetric class each
    for periods in [(4, 4, 5), (2, 2, 2, 5)]:
        res = enumerate_weak_classes(sym(5), 19, signatures=[Signature(0, periods)])
        assert len(res.items) == 1, periods

    v34 = decide_lift(ds, InvolutionDescent(d, parse_perm("(3 4)", 4)))
    assert v34.kind == WLS
    assert equivalent(v34.witness_symmetric,
                      parse_dataset(ICOSAHEDRAL_LIFT_S, SYMMETRIC))
    back = psi_map(v34.witness_symmetric)
    loose, _ = match_descent(ds, InvolutionDescent(d, parse_perm("(3 4)", 4)), back)
    assert loose

    v1234 = decide_lift(ds, InvolutionDescent(d, parse_perm("(1 2)(3 4)", 4)))
    assert v1234.kind == WLS
    assert equivalent(v1234.witness_symmetric,
                      parse_dataset(ICOSAHEDRAL_LIFT_S2, SYMMETRIC))
    report("criterion 4a", "icosahedral lifting landscape matches: no class on "
                           "(0;2,10,10), unique witnesses on (0;4,4,5) and "
                           "(0;2,2,2,5) with cone pairings (3 4) and (1 2)(3 4)")


def test_criterion_4b_octahedral_extensions():
    oct1 = parse_dataset(OCTAHEDRAL_A, ALTERNATING)
    v = decide_lift(oct1, InvolutionDescent(parse_cyclic("(2,1;-)"),
                                            Perm.identity(2)))
    assert v.kind == ALT_TIMES_C2
    assert v.witness_vector.spec.name == "AxC24"

    da2 = parse_dataset(DA2_A, ALTERNATING)
    v2 = decide_lift(da2, InvolutionDescent(parse_cyclic("(2,0;(1,2)^[2])"),
                                            parse_perm("(1 2)(3 4)", 5)))
    assert v2.kind == ALT_TIMES_C2
    assert v2.witness_vector.spec.name == "AxC24"
    report("criterion 4b", "both degree-4 genus-7 extension questions return "
                           "alt_times_c2 with a concrete witness vector")


def test_criterion_5_free_actions():
    t0 = time.time()
    for g, k, extension in [(61, 1, "unknown_k1"), (121, 2, "free_sym"),
                            (181, 3, "nonfree_sym")]:
        r = free_action_analysis(5, g)
        assert (r.status, r.k, r.extension) == ("ok", k, extension), g
        assert validate(r.free_alternating) == g
        if r.witness_symmetric is not None:
            assert validate(r.witness_symmetric) == g
            restriction = index2_restrict(materialize_vector(r.witness_symmetric))
            assert restriction.alt_ds.entries == ()
            assert restriction.alt_ds.g0 == k + 1
        # the enumerator agrees a free class exists exactly here
        res = enumerate_weak_classes(alt(5), g, signatures=[Signature(k + 1, [])])
        assert len(res.items) == 1 and res.items[0].ds.entries == ()
    assert free_action_analysis(5, 100).status == "no_free_action"
    assert free_action_analysis(5, 62).status == "no_free_action"
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 5", f"free-action criterion at genus 61/121/181 with "
                          f"validated witnesses ({elapsed:.1f}s)")


def test_criterion_6_property_suites():
    # (a) conjugacy is an equivalence relation: it agrees with the class
    # partition on every pair
    for spec in [alt(4), sym(4), alt(5)]:
        table = group_table(spec)
        for a in table.elements:
            for b in table.elements:
                assert are_conjugate(spec, a, b) == \
                    (table.class_id(a) == table.class_id(b))

    # (b) data-set equivalence: reflexive, symmetric, transitive on variants
    ds = parse_dataset(ICOSAHEDRAL_A, ALTERNATING)
    sq = dataset(ALTERNATING, 5, 0,
                 [(e.rep ** 2 if e.order == 5 else e.rep, e.mult)
                  for e in ds.entries])
    assert equivalent(ds, ds) and equivalent(ds, sq) and equivalent(sq, ds)

    # (c) conjugation invariance of the cyclic factor, exhaustive at n <= 5
    for spec, text, kind in [(alt(4), TETRAHEDRAL_A, ALTERNATING),
                             (alt(5), ICOSAHEDRAL_A, ALTERNATING)]:
        dset = parse_dataset(text, kind)
        table = group_table(spec)
        for cl in table.classes:
            if cl.rep.is_identity():
                continue
            expected = cyclic_factor(dset, cl.rep)
            assert all(cyclic_factor(dset, x) == expected for x in cl.elements)

    # (d) cyclic closure and multiplicity integrality over the full sweep
    for genus, rows in [(10, GENUS10_ROWS), (11, GENUS11_ROWS)]:
        for name, text, _, _ in rows:
            kind = ALTERNATING if name.startswith("A") else SYMMETRIC
            dset = parse_dataset(text, kind)
            table = group_table(dset.spec)
            for cl in table.classes:
                if cl.rep.is_identity():
                    continue
                assert validate_cyclic(cyclic_factor(dset, cl.rep)) == genus

    # (e) descent is independent of the chosen vector (3 per symmetric class)
    for name, text, _, _ in GENUS10_ROWS + GENUS11_ROWS:
        if not name.startswith("S"):
            continue
        dset = parse_dataset(text, SYMMETRIC)
        restrictions = []
        for i, vec in enumerate(vectors_for_dataset(dset)):
            if i >= 3:
                break
            restrictions.append(index2_restrict(vec))
        assert len(restrictions) == 3
        for other in restrictions[1:]:
            loose, strict = match_descent(restrictions[0].alt_ds,
                                          restrictions[0].descent, other)
            assert strict

    # (f) orbit-stabilizer at n <= 6
    for spec in [alt(4), sym(4), alt(5), sym(5), alt(6), sym(6)]:
        table = group_table(spec)
        for cl in table.classes:
            assert centralizer_order(spec, cl.rep) * cl.size == spec.order

    # (g) commutator witnesses: all of Alt(5), none for Alt(4) 3-cycles
    for x in group_table(alt(5)).elements:
        assert commutator_witness(alt(5), x) is not None
    assert commutator_witness(alt(4), parse_perm("(1 2 3)", 4)) is None
    report("criterion 6", "property suites: conjugacy laws, factor class-"
                          "function, cyclic closure, descent independence, "
                          "orbit-stabilizer, commutator witnesses")


def test_criterion_7_obstruction_sweep():
    t0 = time.time()
    swept = 0
    for genus in (10, 11):
        for spec in [alt(5), alt(6), sym(5), sym(6)]:
            rep = obstruction_report(spec, genus)
            assert rep.clean, f"{spec.name} genus {genus}"
            swept += rep.classes_swept
    assert swept == 5  # A5, A6 at genus 10; A5 and the two S5 classes at 11
    report("criterion 7", f"no irreducible or hyperelliptic factor in any "
                          f"degree>=5 class at genus 10/11 "
                          f"({swept} classes, {time.time() - t0:.1f}s)")
