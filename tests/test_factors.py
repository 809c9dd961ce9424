import pytest

from golden import (DODECAHEDRAL_A, GENUS10_ROWS, GENUS11_ROWS, ICOSAHEDRAL_A,
                    POLYHEDRAL_FACTORS, POLYHEDRAL_FACTORS_S, CUBIC_S,
                    OCTAHEDRAL_S, TETRAHEDRAL_A)
from sact.datasets import (ALTERNATING, SYMMETRIC, dataset, parse_dataset,
                           validate)
from sact.errors import GenusMismatch, MembershipError
from sact.factors import (cyclic_factor, fixed_point_count,
                          fixed_point_profile, is_hyperelliptic,
                          is_irreducible, obstruction_report,
                          standard_factors, weakly_generates)
from sact.groups import alt, alt_c2, group_table, sym
from sact.orbifold import cyclic_data_set, parse_cyclic, validate_cyclic
from sact.perm import parse_perm
from sact.vectors import enumerate_weak_classes


def icosa():
    return parse_dataset(ICOSAHEDRAL_A, ALTERNATING)


def test_fixed_point_count_worked_values():
    ds = icosa()
    tau = parse_perm("(1 2 3 4 5)", 5)
    assert fixed_point_count(ds, tau, 1, 5) == 2
    assert fixed_point_count(ds, tau, 2, 5) == 0
    assert fixed_point_count(ds, parse_perm("(1 2 3)", 5), 1, 3) == 0


def test_fixed_point_count_preconditions():
    ds = icosa()
    with pytest.raises(MembershipError):
        fixed_point_count(ds, parse_perm("(1 2)", 5), 1, 2)
    with pytest.raises(MembershipError):
        fixed_point_count(ds, parse_perm("(1 2 3)", 5), 1, 5)


def test_fixed_point_count_is_a_class_function():
    ds = icosa()
    table = group_table(alt(5))
    tau = parse_perm("(1 2 3 4 5)", 5)
    for h in table.elements[::13]:
        assert fixed_point_count(ds, h * tau * h.inverse(), 1, 5) == 2


def test_cyclic_factor_polyhedral_values():
    for text, (genus, f_sigma, f_tau) in POLYHEDRAL_FACTORS.items():
        ds = parse_dataset(text, ALTERNATING)
        a, b = standard_factors(ds)
        assert a == parse_cyclic(f_sigma), text
        assert b == parse_cyclic(f_tau), text
        assert validate_cyclic(a) == genus and validate_cyclic(b) == genus
    for text, (genus, f_sigma, f_tau) in POLYHEDRAL_FACTORS_S.items():
        ds = parse_dataset(text, SYMMETRIC)
        a, b = standard_factors(ds)
        assert a == parse_cyclic(f_sigma), text
        assert b == parse_cyclic(f_tau), text
        assert validate_cyclic(a) == genus and validate_cyclic(b) == genus


def test_cyclic_factor_family_example():
    fam = parse_dataset("(5,1;[(1 2 3),3;3])", SYMMETRIC)
    # quotient genus (6 + n!)/6 for the transposition, (3 + (n-1)!)/3 for the
    # long cycle, both free, at n = 5
    assert cyclic_factor(fam, parse_perm("(1 2)", 5)) == parse_cyclic("(2,21;-)")
    assert cyclic_factor(fam, parse_perm("(1 2 3 4 5)", 5)) == parse_cyclic("(5,9;-)")


def test_table_factor_columns():
    for name, text, f_sigma, f_tau in GENUS10_ROWS + GENUS11_ROWS:
        kind = ALTERNATING if name.startswith("A") else SYMMETRIC
        ds = parse_dataset(text, kind)
        a, b = standard_factors(ds)
        assert a == parse_cyclic(f_sigma), (name, text)
        assert b == parse_cyclic(f_tau), (name, text)


def test_cyclic_factor_is_a_class_function_exhaustive():
    for spec, text, kind in [(alt(4), TETRAHEDRAL_A, ALTERNATING),
                             (alt(5), DODECAHEDRAL_A, ALTERNATING)]:
        ds = parse_dataset(text, kind)
        table = group_table(spec)
        for cl in table.classes:
            if cl.rep.is_identity():
                continue
            expected = cyclic_factor(ds, cl.rep)
            for x in cl.elements:
                assert cyclic_factor(ds, x) == expected


def test_factor_closure_over_published_classes():
    """Every cyclic factor of every element of every genus 10/11 class is a
    valid cyclic data set of the right genus."""
    for g, rows in [(10, GENUS10_ROWS), (11, GENUS11_ROWS)]:
        for name, text, _, _ in rows:
            kind = ALTERNATING if name.startswith("A") else SYMMETRIC
            ds = parse_dataset(text, kind)
            table = group_table(ds.spec)
            for cl in table.classes:
                if cl.rep.is_identity():
                    continue
                assert validate_cyclic(cyclic_factor(ds, cl.rep)) == g


def test_prime_order_recursion_degenerates():
    ds = icosa()
    tau = parse_perm("(1 2 3 4 5)", 5)
    factor = cyclic_factor(ds, tau)
    for u in (1, 2, 3, 4):
        count = fixed_point_count(ds, tau, u, 5)
        mult = sum(1 for c, m in factor.cones if m == 5 and c == pow(u, -1, 5))
        assert mult == count


def test_fixed_point_totals_match_cone_multiplicities():
    ds = parse_dataset(CUBIC_S, SYMMETRIC)
    sigma = parse_perm("(1 2)", 4)
    factor = cyclic_factor(ds, sigma)
    total = sum(fixed_point_count(ds, sigma, u, 2) for u in (1,))
    assert total == len([1 for _, m in factor.cones if m == 2])


# ---------------------------------------------------------------------------
# weak generation


def test_weakly_generates_icosahedral_pair():
    witness = weakly_generates(parse_cyclic("(3,7;-)"),
                               parse_cyclic("(5,3;(1,5)^[2],(4,5)^[2])"), alt(5))
    assert witness is not None
    assert cyclic_factor(witness.ds, witness.sigma) == parse_cyclic("(3,7;-)")
    assert cyclic_factor(witness.ds, witness.tau) == \
        parse_cyclic("(5,3;(1,5)^[2],(4,5)^[2])")
    from sact.groups import generates
    assert generates(alt(5), [witness.sigma, witness.tau])


def test_weakly_generates_genus_mismatch():
    with pytest.raises(GenusMismatch):
        weakly_generates(parse_cyclic("(2,4;(1,2)^[4])"),
                         parse_cyclic("(4,1;(1,4)^[3],(3,4)^[3])"), sym(4))


def test_weakly_generates_hyperelliptic_absent():
    hyper = cyclic_data_set(2, 0, [(1, 2)] * 22)
    assert validate_cyclic(hyper) == 10
    d_g = parse_cyclic("(4,1;(1,4)^[3],(3,4)^[3])")
    assert weakly_generates(hyper, d_g, sym(4)) is None


# ---------------------------------------------------------------------------
# order bounds and obstruction sweeps


def test_max_element_order():
    # the largest element order (Landau's function on Sym(n)) bounds the
    # cyclic factors an obstruction sweep can meet
    assert max(sym(5).element_orders()) == 6
    assert max(alt(6).element_orders()) == 5
    assert max(sym(4).element_orders()) == 4
    assert max(alt_c2(5).element_orders()) == 10


@pytest.mark.parametrize("spec,g", [(alt(5), 10), (alt(6), 10), (sym(4), 10),
                                    (alt(5), 11), (sym(5), 11), (alt(5), 19)])
def test_obstruction_sweeps_are_clean(spec, g):
    report = obstruction_report(spec, g)
    assert report.clean
    assert report.classes_swept == len(enumerate_weak_classes(spec, g).items)


def test_hyperelliptic_detection_fires_when_present():
    # Sym(n) and Alt(n) have trivial centre, so the hyperelliptic involution,
    # central in the whole automorphism group, is never one of their
    # elements: the positive is hand-built
    hyper = parse_cyclic("(2,0;(1,2)^[6])")
    assert validate_cyclic(hyper) == 2
    assert is_hyperelliptic(hyper, 2)
    assert not is_hyperelliptic(hyper, 3)
    assert not is_hyperelliptic(parse_cyclic("(2,1;(1,2)^[2])"), 2)
    # a real factor: (1 2)(3 4) in a genus-37 Sym(4) action has a genus-17
    # quotient
    ds = parse_dataset("(4,2;[(1 2)(3 4),2;2,2]^[2])", SYMMETRIC)
    g = validate(ds)
    factor = cyclic_factor(ds, parse_perm("(1 2)(3 4)", 4))
    assert (g, str(factor)) == (37, "(2,17;(1,2)^[8])")
    assert not is_hyperelliptic(factor, g)


def test_irreducible_detection_fires_when_present():
    triangle = parse_cyclic("(5,0;(1,5)^[2],(3,5))")
    assert validate_cyclic(triangle) == 2
    assert is_irreducible(triangle)
    assert not is_irreducible(parse_cyclic("(5,0;(1,5)^[2],(4,5)^[2])"))
    assert not is_irreducible(parse_cyclic("(2,0;(1,2)^[6])"))
    # a real factor: the 5-cycle of the icosahedral action, genus-3 quotient
    factor = cyclic_factor(icosa(), parse_perm("(1 2 3 4 5)", 5))
    assert str(factor) == "(5,3;(1,5)^[2],(4,5)^[2])"
    assert not is_irreducible(factor)


def test_fixed_point_profile():
    ds = icosa()
    tau = parse_perm("(1 2 3 4 5)", 5)
    profile = fixed_point_profile(ds, tau)
    assert profile == {(5, 1): 2, (5, 2): 0, (5, 3): 0, (5, 4): 2}
    # counts agree on conjugates
    h = parse_perm("(1 2 3)", 5)
    assert fixed_point_profile(ds, h * tau * h.inverse()) == profile
    # a composite order: the octahedral symmetric action at genus 7
    octa = parse_dataset(OCTAHEDRAL_S, SYMMETRIC)
    four = parse_perm("(1 2 3 4)", 4)
    assert fixed_point_profile(octa, four) == \
        {(4, 1): 2, (4, 3): 2, (2, 1): 4}
