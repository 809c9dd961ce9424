import hashlib
import json
import math

import pytest

import sact.factors
from golden import (DA2_A, DODECAHEDRAL_A, GENUS10_ROWS, GENUS11_ROWS,
                    ICOSAHEDRAL_A, ICOSAHEDRAL_LIFT_S, ICOSAHEDRAL_LIFT_S2,
                    POLYHEDRAL_FACTORS, POLYHEDRAL_FACTORS_S, CUBIC_S,
                    OCTAHEDRAL_S, OCTAHEDRAL_S2, TETRAHEDRAL_A)
from sact.cli import main
from sact.datasets import (ALTERNATING, SYMMETRIC, dataset, parse_dataset,
                           validate)
from sact.errors import (GenusMismatch, InconsistencyError, MembershipError,
                         NonIntegralError, SactError)
from sact.factors import (FactorTable, _class_fixed_points, _direct_factor,
                          class_factor, cyclic_factor, factor_table,
                          fixed_point_count, is_hyperelliptic, is_irreducible,
                          obstruction_report, standard_factors,
                          weakly_generates)
from sact.groups import (CLOSURE_ORDER_CAP, GroupTable, alt, alt_c2,
                         centralizer_order, group_table, parse_group, sym)
from sact.orbifold import CyclicDataSet, parse_cyclic, validate_cyclic
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
    hyper = CyclicDataSet(2, 0, [(1, 2)] * 22)
    assert validate_cyclic(hyper) == 10
    d_g = parse_cyclic("(4,1;(1,4)^[3],(3,4)^[3])")
    assert weakly_generates(hyper, d_g, sym(4)) is None


def test_weakly_generates_without_an_element_of_the_degree():
    # A5 has no element of order 7, so no sweep runs
    d = parse_cyclic("(7,0;(1,7),(2,7),(4,7))")
    assert weakly_generates(d, d, alt(5)) is None


def test_weakly_generates_orbit_filter_cuts_generation_tests(monkeypatch, request):
    """The factor of (1 2)(3 4) in the icosahedral data set, against itself:
    two involutions generate a dihedral group, so there is no witness, with
    the centralizer-orbit filter on tau or without it; the filter cuts the
    generation tests."""
    d = parse_cyclic("(2,9;(1,2)^[4])")
    assert cyclic_factor(parse_dataset(ICOSAHEDRAL_A, ALTERNATING),
                         parse_perm("(1 2)(3 4)", 5)) == d
    calls = []
    spans = sact.factors.spans

    def counted(*args):
        calls.append(args)
        return spans(*args)

    monkeypatch.setattr(sact.factors, "spans", counted)
    assert weakly_generates(d, d, alt(5)) is None
    filtered = len(calls)
    calls.clear()
    request.getfixturevalue("unbroken_symmetry")
    assert weakly_generates(d, d, alt(5)) is None
    assert (filtered, len(calls)) == (12, 30)


def test_weak_generation_sweep_golden():
    """Every ordered pair of factors that some weak class of A4, A5, A6, S4
    or S5 shows at genus 3-13, asked of that group: 821 answers, 474 of
    them witnesses.  The sha256 prefix of the answers, each witness as its
    data set, sigma and tau, was recorded from the scan that tested every
    table element for orbit-leastness, so it pins the witnesses that scan
    found."""
    lines = []
    for name in ("A4", "A5", "A6", "S4", "S5"):
        spec = parse_group(name)
        table = group_table(spec)
        others = [ci for ci in range(len(table.classes))
                  if ci != table.identity_class_id()]
        for g in range(3, 14):
            factors = {}
            for item in enumerate_weak_classes(spec, g).items:
                for ci in others:
                    f = factor_table(item.ds)[ci]
                    factors[str(f)] = f
            for sf, f in sorted(factors.items()):
                for sg, h in sorted(factors.items()):
                    w = weakly_generates(f, h, spec)
                    lines.append(f"{name} {g} {sf} {sg} " + (
                        "no" if w is None else f"{w.ds} {w.sigma} {w.tau}"))
    assert (len(lines), sum(not line.endswith(" no") for line in lines)) == (821, 474)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "1ff24526a622a753"


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


def test_obstruction_sweep_records_a_hit(monkeypatch, capsys):
    """With each predicate patched to flag one class of the one A5 action
    at genus 10, the sweep stores exactly those hits and reports them."""
    ds = enumerate_weak_classes(alt(5), 10).items[0].ds
    five, double = parse_perm("(1 2 3 5 4)", 5), parse_perm("(2 3)(4 5)", 5)
    five_factor, double_factor = cyclic_factor(ds, five), cyclic_factor(ds, double)
    monkeypatch.setattr(sact.factors, "is_irreducible", lambda f: f == five_factor)
    monkeypatch.setattr(sact.factors, "is_hyperelliptic",
                        lambda f, g: (f, g) == (double_factor, 10))
    report = obstruction_report(alt(5), 10)
    assert report.irreducible == [(ds, five, five_factor)]
    assert report.hyperelliptic == [(ds, double, double_factor)]
    assert not report.clean
    payload = report.to_json()
    assert payload["irreducible"] == [{"data_set": str(ds), "element": "(1 2 3 5 4)",
                                       "factor": "(5,2;(1,5),(4,5))"}]
    assert payload["hyperelliptic"] == [{"data_set": str(ds), "element": "(2 3)(4 5)",
                                         "factor": "(2,4;(1,2)^[6])"}]
    assert main(["obstructions", "--group", "A5", "--genus", "10", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"clean": false' in out
    assert json.loads(out)["irreducible"] == payload["irreducible"]


def test_fixed_point_profile():
    """The fixed-point counts of every power of an element, by (t, u)."""
    ds = icosa()
    tau = parse_perm("(1 2 3 4 5)", 5)
    h = parse_perm("(1 2 3)", 5)
    # counts agree on conjugates
    for x in (tau, h * tau * h.inverse()):
        assert [fixed_point_count(ds, x, u, 5) for u in (1, 2, 3, 4)] == [2, 0, 0, 2]
    # a composite order: the octahedral symmetric action at genus 7
    octa = parse_dataset(OCTAHEDRAL_S, SYMMETRIC)
    four = parse_perm("(1 2 3 4)", 4)
    assert fixed_point_count(octa, four, 1, 4) == 2
    assert fixed_point_count(octa, four, 3, 4) == 2
    assert fixed_point_count(octa, four ** 2, 1, 2) == 4


# ---------------------------------------------------------------------------
# class-function tables against the direct formula


# A genus-49 Sym(6) action with composite element orders, and a genus-136
# Alt(7) action, both found by enumerate_weak_classes.
S6_AT_49 = "(6,0;[(5 6),2;2],[(2 3 4 5 6),5;5],[(1 2 3 4 5 6),6;6])"
A7_AT_136 = "(7,0;[(4 5)(6 7),2;2,2],[(1 2 3 4)(5 6),4;2,4],[(1 4 6 7 5 3 2),7;7])"
# Shape-valid but not realizable: some factors have a non-integral or a
# negative quotient genus, or fail validate_cyclic.
S4_UNREALIZABLE = ("(4,0;[(1 2),2;2]^[3],[(1 2 3 4),4;4]^[2])",
                   "(4,0;[(1 2)(3 4),2;2,2]^[5])")


def _factor_data_sets():
    """(spec, data set) for every data set this file and the acceptance
    suite parse, on A4, A5, A6, S4 and S5, plus one S6 action."""
    texts = [(name, text) for name, text, _, _ in GENUS10_ROWS + GENUS11_ROWS]
    texts += [("A", text) for text in POLYHEDRAL_FACTORS]
    texts += [("S", text) for text in POLYHEDRAL_FACTORS_S]
    texts += [("A", ICOSAHEDRAL_A), ("S", ICOSAHEDRAL_LIFT_S),
              ("S", ICOSAHEDRAL_LIFT_S2), ("S", OCTAHEDRAL_S2), ("A", DA2_A),
              ("S", "(5,1;[(1 2 3),3;3])"), ("S", "(4,2;[(1 2)(3 4),2;2,2]^[2])"),
              ("S", S6_AT_49)] + [("S", text) for text in S4_UNREALIZABLE]
    out = []
    for name, text in dict.fromkeys(texts):
        ds = parse_dataset(text, ALTERNATING if name.startswith("A") else SYMMETRIC)
        out.append(ds)
    return out


def _outcome(fn, *args):
    """What fn(*args) returns or raises, as comparable text."""
    try:
        return str(fn(*args))
    except SactError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_class_factor_matches_direct_formula_on_every_element():
    data_sets = _factor_data_sets()
    assert {ds.spec.name for ds in data_sets} == {"A4", "A5", "A6", "S4", "S5", "S6"}
    raised = mixed = 0
    for ds in data_sets:
        table = group_table(ds.spec)
        outcomes = set()
        for x in table.elements:
            if x.is_identity():
                continue
            want = _outcome(_direct_factor, ds, x)
            assert _outcome(cyclic_factor, ds, x) == want, (ds, x)
            raised += not want.startswith("(")
            outcomes.add(want.startswith("("))
        mixed += len(outcomes) == 2
    assert raised > 0  # the unrealizable data sets fail alike on both paths
    assert mixed > 0  # and a class that raises leaves the others answering


def test_factor_table_above_the_closure_cap_matches_direct_formula():
    """weakly_generates and obstruction_report read every group's factors
    from a FactorTable, also above CLOSURE_ORDER_CAP, where cyclic_factor
    runs the direct formula; the two agree class by class on A8 and S8,
    errors included."""
    raised = 0
    for text, kind in [("(8,1;[(1 2 3),3;3],[(1 2)(3 4 5 6),4;2,4]^[2])", ALTERNATING),
                       ("(8,0;[(1 2),2;2],[(1 2 3 4 5 6 7),7;7],[(1 2 3 4 5 6 7 8),8;8])",
                        SYMMETRIC)]:
        ds = parse_dataset(text, kind)
        assert ds.spec.order > CLOSURE_ORDER_CAP
        factors = FactorTable(ds)
        for ci, cl in enumerate(factors.table.classes):
            if ci != factors.identity:
                want = _outcome(_direct_factor, ds, cl.rep)
                assert _outcome(factors.__getitem__, ci) == want, (ds, cl.rep)
                raised += not want.startswith("(")
    assert raised > 0


def test_class_fixed_points_match_fixed_point_count():
    data_sets = {"A4": TETRAHEDRAL_A, "A5": ICOSAHEDRAL_A, "A6": GENUS10_ROWS[3][1],
                 "A7": A7_AT_136, "S4": OCTAHEDRAL_S, "S5": GENUS11_ROWS[5][1],
                 "S6": S6_AT_49}
    compared = 0
    for name, text in data_sets.items():
        ds = parse_dataset(text, ALTERNATING if name.startswith("A") else SYMMETRIC)
        assert ds.spec.name == name
        table = group_table(ds.spec)
        entries = [(table.class_id(e.rep), e.order, e.mult) for e in ds.entries]
        for ci, cl in enumerate(table.classes):
            m = cl.rep.order()
            for u in range(1, m):
                if math.gcd(u, m) == 1:
                    assert _class_fixed_points(table, entries, ci, u, m) == \
                        fixed_point_count(ds, cl.rep, u, m), (name, cl.rep, u)
                    compared += 1
    assert compared == 93  # units of every class of the seven groups


def test_power_class_and_centralizer_order_against_elements():
    for spec in (alt(5), sym(5), alt_c2(4)):
        table = group_table(spec)
        for ci, cl in enumerate(table.classes):
            assert table.centralizer_order(ci) == centralizer_order(spec, cl.rep)
            for k in range(-1, 2 * cl.rep.order() + 1):
                assert table.power_class(ci, k) == table.class_id(cl.rep ** k)


def test_class_factor_runs_once_per_class(monkeypatch):
    computed = []

    def counted(table, g, entries, ci):
        computed.append(ci)
        return class_factor(table, g, entries, ci)

    monkeypatch.setattr(sact.factors, "class_factor", counted)
    ds = parse_dataset(ICOSAHEDRAL_A, ALTERNATING)
    table = group_table(alt(5))
    five = table.classes[table.class_id(parse_perm("(1 2 3 4 5)", 5))]
    factor_table.cache_clear()
    factors = {str(cyclic_factor(ds, x)) for x in five.elements}
    info = factor_table.cache_info()
    assert factors == {"(5,3;(1,5)^[2],(4,5)^[2])"}
    assert (info.misses, info.hits) == (1, five.size - 1)
    # one table per data set: another class of it is a hit as well
    assert str(cyclic_factor(ds, parse_perm("(1 2 3)", 5))) == "(3,7;-)"
    assert factor_table.cache_info().misses == 1
    assert computed == [table.class_id(five.rep), table.class_id(parse_perm("(1 2 3)", 5))]


def _raised(fn, *args):
    with pytest.raises(SactError) as err:
        fn(*args)
    return f"{type(err.value).__name__}: {err.value}"


def test_cyclic_factor_rejects_non_members_and_the_identity(monkeypatch):
    # the table path: a miss in the table is a non-member
    ds = icosa()
    assert _raised(cyclic_factor, ds, parse_perm("(1 2)", 5)) == \
        "MembershipError: (1 2) is not in A5"
    assert _raised(cyclic_factor, ds, parse_perm("(1 2 3)", 6)) == \
        "MembershipError: (1 2 3) is not in A5"
    assert _raised(cyclic_factor, ds, parse_perm("()", 6)) == \
        "MembershipError: () is not in A5"
    assert _raised(cyclic_factor, ds, parse_perm("()", 5)) == \
        "MembershipError: cyclic factor needs a non-trivial element"

    # the direct path, above the closure cap, builds no table
    def no_table(self, spec):
        raise AssertionError(f"group table built for {spec.name}")

    monkeypatch.setattr(GroupTable, "__init__", no_table)
    s8 = parse_dataset(
        "(8,0;[(1 2),2;2],[(1 2 3 4 5 6 7),7;7],[(1 2 3 4 5 6 7 8),8;8])", SYMMETRIC)
    a8 = parse_dataset("(8,1;[(1 2 3),3;3],[(1 2)(3 4 5 6),4;2,4]^[2])", ALTERNATING)
    assert s8.spec.order > CLOSURE_ORDER_CAP
    assert _raised(cyclic_factor, s8, parse_perm("(1 2)", 9)) == \
        "MembershipError: (1 2) is not in S8"
    assert _raised(cyclic_factor, s8, parse_perm("()", 8)) == \
        "MembershipError: cyclic factor needs a non-trivial element"
    assert _raised(cyclic_factor, a8, parse_perm("(1 2)", 8)) == \
        "MembershipError: (1 2) is not in A8"


def test_factor_above_the_closure_cap_builds_no_table(monkeypatch):
    # factors as the direct formula gave them before class tables existed
    def no_table(self, spec):
        raise AssertionError(f"group table built for {spec.name}")

    monkeypatch.setattr(GroupTable, "__init__", no_table)
    ds = parse_dataset("(8,1;[(1 2 3),3;3],[(1 2)(3 4 5 6),4;2,4]^[2])", ALTERNATING)
    assert ds.spec.order > CLOSURE_ORDER_CAP
    for x, want in [("(1 2 3)", "(3,7241;(1,3)^[60],(2,3)^[60])"),
                    ("(1 2 3 4)(5 6)", "(4,5453;(1,2)^[20],(1,4)^[4],(3,4)^[4])"),
                    ("(1 2 3 4 5 6)(7 8)", "(6,3641;-)")]:
        assert str(cyclic_factor(ds, parse_perm(x, 8))) == want
    bad = parse_dataset(
        "(8,0;[(1 2),2;2],[(1 2 3 4 5 6 7),7;7],[(1 2 3 4 5 6 7 8),8;8])", SYMMETRIC)
    with pytest.raises(NonIntegralError, match=r"multiplicity 21/2 at \(u=1, t=2\)"):
        cyclic_factor(bad, parse_perm("(1 2 3 4 5 6 7 8)", 8))


def test_factor_genus_check_fires(monkeypatch):
    """Every factor is re-validated against the surface genus; a factor of
    another genus is an internal inconsistency, raised as an error rather
    than an assert."""
    monkeypatch.setattr(sact.factors, "validate_cyclic", lambda d: validate_cyclic(d) + 1)
    factor_table.cache_clear()
    with pytest.raises(InconsistencyError,
                       match=r"factor \(5,3;\(1,5\)\^\[2\],\(4,5\)\^\[2\]\) has genus 20, not 19"):
        cyclic_factor(icosa(), parse_perm("(1 2 3 4 5)", 5))
