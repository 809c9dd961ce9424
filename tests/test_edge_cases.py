import pytest

from sact.datasets import ALTERNATING, SYMMETRIC, dataset, parse_dataset, validate
from sact.errors import DegreeCapExceeded, MembershipError
from sact.groups import alt, centralizer_order, generates, group_table, sym
from sact.lifting import WLS, InvolutionDescent, decide_lift
from sact.orbifold import Signature, parse_cyclic
from sact.perm import Perm, parse_perm
from sact.vectors import enumerate_weak_classes


def test_degree_cap():
    # the element-table cap is the only size limit
    with pytest.raises(DegreeCapExceeded):
        group_table(sym(9))


def test_generation_above_degree_ten():
    transposition = parse_perm("(1 11)", 11)
    long_cycle = parse_perm("(1 2 3 4 5 6 7 8 9 10 11)", 11)
    assert generates(sym(11), [transposition, long_cycle])
    assert not generates(sym(11), [long_cycle])
    assert generates(alt(11), [parse_perm("(1 2 3)", 11), long_cycle])
    assert not generates(alt(11), [long_cycle])
    ds = parse_dataset("(11,0;[(1 11),2;2],[(1 2 3 4 5 6 7 8 9 10),10;10],"
                       "[(1 11 10 9 8 7 6 5 4 3 2),11;11])", SYMMETRIC)
    assert validate(ds) == 6168961


def test_membership_errors():
    with pytest.raises(MembershipError):
        centralizer_order(alt(5), parse_perm("(1 2)", 5))
    with pytest.raises(MembershipError):
        generates(alt(5), [parse_perm("(1 2)", 5)])


def test_no_symmetric_class_on_torus_with_one_cone():
    # the quotient shape behind the octahedral free-involution verdict
    res = enumerate_weak_classes(sym(4), 7, signatures=[Signature(1, [2])])
    assert res.items == [] and res.complete


def test_alt4_positive_genus_quotient_without_shortcut():
    # quotient genus 2, no cones: the handle construction must close the
    # relation inside Alt(4) even though single commutators only fill V_4
    res = enumerate_weak_classes(alt(4), 13, signatures=[Signature(2, [])])
    assert len(res.items) == 1
    vec = res.items[0].vector
    assert vec.long_relation_value().is_identity()
    assert validate(res.items[0].ds) == 13


def test_free_action_quotient_genus_5_extends_freely():
    # k = 4: the free degree-5 action on genus 241 extends to a free
    # symmetric action whose descent is the free involution on genus 5
    free_ds = dataset(ALTERNATING, 5, 5, [])
    assert validate(free_ds) == 241
    verdict = decide_lift(free_ds,
                          InvolutionDescent(parse_cyclic("(2,3;-)"),
                                            Perm.identity(0)))
    assert verdict.kind == WLS
    assert verdict.witness_symmetric.g0 == 3
    assert verdict.witness_symmetric.entries == ()


def test_every_export_resolves():
    import sact
    assert [name for name in sact.__all__ if not hasattr(sact, name)] == []
    namespace = {}
    exec("from sact import *", namespace)
    assert set(sact.__all__) <= set(namespace)
