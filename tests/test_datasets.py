import itertools
import re

import pytest

from golden import (CUBIC_A_PRINTED, CUBIC_A_VALID, ICOSAHEDRAL_A,
                    OCTAHEDRAL_A, TETRAHEDRAL_A)
import sact.datasets
from sact.datasets import (ALTERNATING, SYMMETRIC, canonical_form, dataset,
                           equivalent, format_dataset, handle_solutions,
                           parse_dataset, validate)
from sact.errors import KindMismatch, ParseError, ValidationFailure
from sact.groups import alt, group_table, sym
from sact.perm import Perm, parse_perm
from test_groups import commutator_classes_by_products, normal_closure_by_products


def icosa():
    return parse_dataset(ICOSAHEDRAL_A, ALTERNATING)


def handle_pair(ds):
    """The first g0 = 1 handle pair (w1, w2) the commutator scan finds."""
    ((w1, w2),) = next(handle_solutions(ds.spec, 1, ds.expanded(), ds.product()))
    return w1, w2


def test_icosahedral_validates_to_19():
    assert validate(icosa()) == 19


def test_octahedral_validates_with_witness():
    ds = parse_dataset(OCTAHEDRAL_A, ALTERNATING)
    assert validate(ds) == 7
    w1, w2 = handle_pair(ds)
    assert ds.product() == w2 * w1 * w2.inverse() * w1.inverse()


def test_tetrahedral_and_table_rows_validate():
    assert validate(parse_dataset(TETRAHEDRAL_A, ALTERNATING)) == 3
    assert validate(parse_dataset(CUBIC_A_VALID, ALTERNATING)) == 5


def test_product_failure():
    # drop one entry from the tetrahedral set: the product is no longer 1
    broken = parse_dataset(
        "(4,0;[(1 2)(3 4),2;2,2]^[2],[(2 4 3),3;3]^[2])", ALTERNATING)
    with pytest.raises(ValidationFailure) as err:
        validate(broken)
    assert err.value.condition == "product"


def test_validate_memoizes_answers_not_failures(monkeypatch):
    """An answer is memoized, so an equal data set is not checked again; a
    failure is not, and a bad data set raises the same failure again."""
    assert validate(parse_dataset(TETRAHEDRAL_A, ALTERNATING)) == 3
    monkeypatch.setattr(sact.datasets, "spans", lambda spec, gens: False)
    assert validate(parse_dataset(TETRAHEDRAL_A, ALTERNATING)) == 3
    broken = parse_dataset(
        "(4,0;[(1 2)(3 4),2;2,2]^[2],[(2 4 3),3;3]^[2])", ALTERNATING)
    failures = []
    for _ in range(2):
        with pytest.raises(ValidationFailure) as err:
            validate(broken)
        failures.append((err.value.condition, str(err.value)))
    assert failures == [("product", "product: entry product is not the identity")] * 2


def test_generation_failure():
    inside_v4 = dataset(ALTERNATING, 4, 0, [
        (parse_perm("(1 2)(3 4)", 4), 2),
        (parse_perm("(1 3)(2 4)", 4), 2),
        (parse_perm("(1 4)(2 3)", 4), 2),
    ])
    # product is trivial and the genus works out, but only V_4 is generated
    with pytest.raises(ValidationFailure) as err:
        validate(inside_v4)
    assert err.value.condition == "generation"


def test_order_mismatch_and_parity():
    with pytest.raises(ValidationFailure) as err:
        validate(parse_dataset("(5,0;[(1 2)(3 4),3;2,2]^[2],[(1 5 4 3 2),5;5],"
                               "[(1 2 3 4 5),5;5])", ALTERNATING))
    assert err.value.condition == "order-mismatch"
    with pytest.raises(ValidationFailure) as err:
        validate(parse_dataset("(5,0;[(1 2),2;2]^[2],[(1 5 4 3 2),5;5],"
                               "[(1 2 3 4 5),5;5])", ALTERNATING))
    assert err.value.condition == "parity"


def test_symmetric_g0_2_parity():
    even = parse_dataset("(6,2;[(1 2)(3 4)(5 6),2;2,2,2]^[2])", SYMMETRIC)
    assert validate(even) == 1 + 3 * 720 // 2
    odd = parse_dataset("(4,2;[(1 2),2;2])", SYMMETRIC)
    with pytest.raises(ValidationFailure) as err:
        validate(odd)
    assert err.value.condition == "parity"


def test_equivalence_worked_examples():
    ds = icosa()
    swapped = dataset(ALTERNATING, 5, 0, [
        (parse_perm("(1 2)(3 4)", 5), 2),
        parse_perm("(1 2 3 4 5)", 5),
        parse_perm("(1 5 4 3 2)", 5),
    ])
    assert equivalent(ds, swapped)

    both_squared = dataset(ALTERNATING, 5, 0, [
        (parse_perm("(1 2)(3 4)", 5), 2),
        parse_perm("(1 5 4 3 2)", 5) ** 2,
        parse_perm("(1 2 3 4 5)", 5) ** 2,
    ])
    assert equivalent(ds, both_squared)

    one_squared = dataset(ALTERNATING, 5, 0, [
        (parse_perm("(1 2)(3 4)", 5), 2),
        parse_perm("(1 5 4 3 2)", 5),
        parse_perm("(1 2 3 4 5)", 5) ** 2,
    ])
    assert not equivalent(ds, one_squared)


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        equivalent(icosa(), parse_dataset(ICOSAHEDRAL_A, SYMMETRIC))


def test_equivalence_is_an_equivalence_relation():
    ds = icosa()
    variants = [ds]
    table = group_table(ds.spec)
    for h in [table.elements[7], table.elements[23], table.elements[41]]:
        variants.append(dataset(ALTERNATING, 5, 0, [
            (h * e.rep * h.inverse(), e.mult) for e in ds.entries]))
    variants.append(dataset(ALTERNATING, 5, 0, [
        (e.rep ** 2 if e.order == 5 else e.rep, e.mult) for e in ds.entries]))
    for a in variants:
        assert equivalent(a, a)
        for b in variants:
            assert equivalent(a, b) == equivalent(b, a)
            for c in variants:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)


def test_global_conjugation_preserves_validity_and_class():
    ds = icosa()
    table = group_table(ds.spec)
    for h in table.elements[::17]:
        conj = dataset(ALTERNATING, 5, 0,
                       [(h * e.rep * h.inverse(), e.mult) for e in ds.entries])
        assert validate(conj) == 19
        assert equivalent(ds, conj)
        assert canonical_form(conj) == canonical_form(ds)


def test_canonical_form_idempotent_and_complete():
    ds = icosa()
    c = canonical_form(ds)
    assert canonical_form(c) == c
    # equivalence iff equal canonical forms, across a spread of variants
    sq = dataset(ALTERNATING, 5, 0, [
        (parse_perm("(1 2)(3 4)", 5), 2),
        parse_perm("(1 5 4 3 2)", 5) ** 2,
        parse_perm("(1 2 3 4 5)", 5) ** 2,
    ])
    mixed = dataset(ALTERNATING, 5, 0, [
        (parse_perm("(1 2)(3 4)", 5), 2),
        parse_perm("(1 5 4 3 2)", 5),
        parse_perm("(1 2 3 4 5)", 5) ** 2,
    ])
    assert canonical_form(sq) == c
    assert canonical_form(mixed) != c
    assert equivalent(ds, sq) and not equivalent(ds, mixed)


def test_printed_cubic_tuple_is_equivalent_to_the_valid_one():
    printed = parse_dataset(CUBIC_A_PRINTED, ALTERNATING)
    valid = parse_dataset(CUBIC_A_VALID, ALTERNATING)
    assert equivalent(printed, valid)
    assert canonical_form(printed) == canonical_form(valid)
    validate(valid)
    with pytest.raises(ValidationFailure):
        validate(printed)  # its entry product is not the identity


def test_distinct_table_rows_have_distinct_canonical_forms():
    a = parse_dataset("(4,0;[(2 3),2;2],[(1 2 4 3),4;4],[(1 2 3 4),4;4]^[2])", SYMMETRIC)
    b = parse_dataset("(4,0;[(1 4)(2 3),2;2,2],[(2 4),2;2],[(3 4),2;2]^[2],"
                      "[(1 2 3 4),4;4])", SYMMETRIC)
    assert canonical_form(a) != canonical_form(b)
    assert not equivalent(a, b)


def test_text_roundtrip_byte_identical():
    for text in [ICOSAHEDRAL_A, OCTAHEDRAL_A, TETRAHEDRAL_A, CUBIC_A_VALID]:
        assert format_dataset(parse_dataset(text, ALTERNATING)) == text


def test_g0_1_witness_clause():
    ds = parse_dataset("(4,1;[(1 2)(3 4),2;2,2]^[3])", ALTERNATING)
    assert validate(ds) == 10
    # a known positive: a 3-cycle is no commutator in Alt(4)
    with pytest.raises(ValidationFailure, match="no handle pair closes") as err:
        validate(parse_dataset("(4,1;[(1 2 3),3;3])", ALTERNATING))
    assert err.value.condition == "witness"


def test_equal_data_sets_hash_equal_and_hash_once(monkeypatch):
    texts = [ICOSAHEDRAL_A, OCTAHEDRAL_A, TETRAHEDRAL_A, CUBIC_A_VALID]
    first = [parse_dataset(t, ALTERNATING) for t in texts]
    again = [parse_dataset(t, ALTERNATING) for t in texts]
    for a, b in zip(first, again):
        assert a == b and a is not b
        assert hash(a) == hash(b)
        # the value the generated dataclass hash gave, so set orders hold
        assert hash(a) == hash((a.kind, a.n, a.g0, a.entries))
    assert len({*first, *again}) == len(texts)
    # a second lookup does not rehash the entries
    ds = parse_dataset(CUBIC_A_VALID, ALTERNATING)
    hash(ds)
    monkeypatch.setattr(Perm, "__hash__", lambda self: 1 / 0)
    assert hash(ds) == hash(again[3])


@pytest.mark.parametrize("spec", [alt(n) for n in range(4, 8)] + [sym(n) for n in range(4, 8)],
                         ids=str)
def test_g0_2_rule_is_the_derived_subgroup(spec):
    """validate's g0 >= 2 clause, the closed form in_derived_subgroup,
    against a reference read off class products: one elliptic of class c
    closes the relation with two handles exactly when c lies in the derived
    subgroup, the normal closure of the single commutators."""
    table = group_table(spec)
    feasible = normal_closure_by_products(table, commutator_classes_by_products(table))
    for ci, cl in enumerate(table.classes):
        if cl.rep.is_identity():
            continue
        ds = dataset(spec.family, spec.n, 2, [cl.rep])
        if ci in feasible:
            assert validate(ds) >= 2
        else:
            with pytest.raises(ValidationFailure) as err:
                validate(ds)
            assert (err.value.condition, str(err.value)) == (
                ("parity", "parity: entry product is odd with g0 >= 2")
                if spec.family == SYMMETRIC else
                ("witness", "witness: handle relation unsatisfiable in Alt(4)"))


def test_alt4_g0_2_clause_matches_the_handle_solver():
    """validate's Alt(4) rule at g0 >= 2, membership of the entry product in
    V_4, against the handle solver it replaces: on every ordered tuple of up
    to three non-identity entries at g0 = 2-4, validate raises `witness`
    exactly when no handle tuple closes the relation."""
    spec = alt(4)
    elements = [p for p in group_table(spec).elements if not p.is_identity()]
    disagreements = []
    for g0 in (2, 3, 4):
        for r in range(4):
            for reps in itertools.product(elements, repeat=r):
                ds = dataset(ALTERNATING, 4, g0, reps)
                solvable = next(handle_solutions(spec, g0, reps, ds.product()),
                                None) is not None
                try:
                    validate(ds)
                    accepted = True
                except ValidationFailure as err:
                    assert err.condition == "witness"
                    accepted = False
                if accepted != solvable:
                    disagreements.append(str(ds))
    assert disagreements == []


@pytest.mark.parametrize("text,kind,message", [
    (ICOSAHEDRAL_A, "X", "unknown data set kind 'X'"),
    ("(4,0;[(1 2)])", ALTERNATING, "bad entry '(1 2)'"),
], ids=["kind", "entry"])
def test_parse_dataset_rejects(text, kind, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_dataset(text, kind)
