import itertools
import time
from collections import Counter

import pytest

import sact.lifting
from golden import (CUBIC_A_VALID, CUBIC_S, DA2_A, DODECAHEDRAL_A,
                    GENUS10_ROWS, GENUS11_ROWS, ICOSAHEDRAL_A,
                    ICOSAHEDRAL_LIFT_S, ICOSAHEDRAL_LIFT_S2, OCTAHEDRAL_A,
                    OCTAHEDRAL_S, OCTAHEDRAL_S2)
from sact.datasets import (ALTERNATING, SYMMETRIC, cone_slots, dataset,
                           parse_dataset, validate)
from sact.errors import GenusMismatch, ValidationFailure
from sact.groups import alt, alt_c2, flip_label, sym
from sact.lifting import (ALT_TIMES_C2, NOT_LIFTABLE, UNDETERMINED, WLS,
                          InvolutionDescent, Restriction, _ExtensionSearches,
                          _normalize_perm, admissible_permutations,
                          decide_lift, free_action_analysis, index2_restrict,
                          involution_classes_on, match_descent,
                          quotient_signature, self_normalizing)
from sact.orbifold import Signature, parse_cyclic
from sact.perm import Perm, parse_perm
from sact.vectors import (SearchBudget, enumerate_weak_classes,
                          materialize_vector, resolved_representative,
                          validate_vector, vectors_for_dataset)

D_SPHERE = "(2,0;(1,2)^[2])"


def icosa():
    return parse_dataset(ICOSAHEDRAL_A, ALTERNATING)


def descent(d_text, pi_text, r):
    return InvolutionDescent(parse_cyclic(d_text), parse_perm(pi_text, r))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_table_symmetric_row_gives_table_alternating_row():
    # the genus-10 class over Sym(4) with signature (0;2,4,4,4) descends to
    # the genus-10 Alt(4) class with signature (1;2,2,2)
    ds = parse_dataset(GENUS10_ROWS[4][1], SYMMETRIC)
    r = index2_restrict(materialize_vector(ds))
    assert r.genus == 10
    expected = parse_dataset(GENUS10_ROWS[1][1], ALTERNATING)
    from sact.datasets import equivalent
    assert equivalent(r.alt_ds, expected)
    # four odd entries, sphere quotient upstairs, torus in the middle
    assert r.descent.d == parse_cyclic("(2,0;(1,2)^[4])")
    assert validate(r.alt_ds) == 10


def test_restrict_cube_gives_cubic():
    ds = parse_dataset(CUBIC_S, SYMMETRIC)
    r = index2_restrict(materialize_vector(ds))
    from sact.datasets import equivalent
    assert equivalent(r.alt_ds, parse_dataset(CUBIC_A_VALID, ALTERNATING))
    assert r.descent.d == parse_cyclic(D_SPHERE)
    # the two 3-cycle entries each split into a swapped pair
    assert str(r.descent.perm) == "(1 2)(3 4)"


def test_restrict_free_case():
    ds = parse_dataset("(6,2;[(1 2)(3 4)(5 6),2;2,2,2]^[2])", SYMMETRIC)
    r = index2_restrict(materialize_vector(ds))
    assert r.alt_ds.entries == ()
    assert r.alt_ds.g0 == 4
    assert r.descent.d == parse_cyclic("(2,2;(1,2)^[2])")


def test_psi_image_is_vector_independent():
    """Descents computed from several vectors of one symmetric class agree."""
    sym_rows = [(name, text) for name, text, _, _ in GENUS10_ROWS + GENUS11_ROWS
                if name.startswith("S")]
    for name, text in sym_rows:
        ds = parse_dataset(text, SYMMETRIC)
        restrictions = []
        for i, vec in enumerate(vectors_for_dataset(ds)):
            if i >= 3:
                break
            restrictions.append(index2_restrict(vec))
        assert len(restrictions) == 3, (name, text)
        base = restrictions[0]
        for other in restrictions[1:]:
            loose, strict = match_descent(base.alt_ds, base.descent, other)
            assert strict, (name, text)


@pytest.mark.parametrize("spec", [sym(4), sym(5), alt_c2(4), alt_c2(5)],
                         ids=lambda s: s.name)
def test_descent_names_the_classes_of_its_resolved_representative(spec):
    """A descent is read off the cones, unresolved; resolving it keeps the
    quotient genus and every cone's class, which is all matching reads."""
    for g in range(3, 26):
        for item in enumerate_weak_classes(spec, g).items:
            alt_ds = index2_restrict(item.vector).alt_ds
            rep = resolved_representative(alt_ds)
            assert (alt_ds.n, alt_ds.g0) == (rep.n, rep.g0), (str(item.ds), g)
            assert cone_slots(alt_ds) == cone_slots(rep), (str(item.ds), g)


def test_descent_is_a_display_form():
    """The descent's entries need not multiply to the identity; its
    resolved representative does, in the same classes."""
    item, = [item for item in enumerate_weak_classes(
                 sym(4), 6, signatures=[Signature(0, [2, 2, 3, 4])]).items
             if str(item.ds) == "(4,0;[(3 4),2;2],[(1 2)(3 4),2;2,2],"
                                "[(2 3 4),3;3],[(1 4 3 2),4;4])"]
    alt_ds = index2_restrict(item.vector).alt_ds
    assert str(alt_ds) == ("(4,0;[(1 2)(3 4),2;2,2],[(1 2)(3 4),2;2,2],[(2 3 4),3;3],"
                           "[(1 3 4),3;3],[(1 3)(2 4),2;2,2])")
    with pytest.raises(ValidationFailure) as failure:
        validate(alt_ds)
    assert failure.value.condition == "product"
    rep = resolved_representative(alt_ds)
    assert str(rep) == ("(4,0;[(1 2)(3 4),2;2,2]^[2],[(2 3 4),3;3],[(1 2 3),3;3],"
                        "[(1 3)(2 4),2;2,2])")
    assert validate(rep) == 6


def test_descent_runs_no_search(monkeypatch):
    vectors = [item.vector for spec in (sym(4), sym(5), alt_c2(4), alt_c2(5))
               for item in enumerate_weak_classes(spec, 21).items]
    assert vectors

    def forbidden(*args, **kwargs):
        raise AssertionError("a descent validated or re-solved its data set")

    for name in ("resolved_representative", "validate"):
        monkeypatch.setattr(sact.lifting, name, forbidden)
    for vec in vectors:
        index2_restrict(vec)


# ---------------------------------------------------------------------------
# admissible permutations and quotient signatures


def test_admissible_permutations_icosahedral():
    perms = admissible_permutations(icosa())
    assert sorted(map(str, perms)) == sorted(["()", "(1 2)", "(3 4)", "(1 2)(3 4)"])


def test_admissible_permutations_distinct_entries():
    ds = parse_dataset(GENUS10_ROWS[3][1], ALTERNATING)  # Alt(6), three classes
    assert [str(p) for p in admissible_permutations(ds)] == ["()"]


def test_quotient_signatures_icosahedral():
    ds = icosa()
    d = parse_cyclic(D_SPHERE)
    cases = {"(1 2)": (0, (2, 10, 10)), "(3 4)": (0, (4, 4, 5)),
             "(1 2)(3 4)": (0, (2, 2, 2, 5))}
    for pi_text, (g0, periods) in cases.items():
        sig = quotient_signature(ds, descent(D_SPHERE, pi_text, 4))
        assert sig == Signature(g0, list(periods))


def test_quotient_signatures_octahedral():
    ds = parse_dataset(OCTAHEDRAL_A, ALTERNATING)
    sig = quotient_signature(ds, descent("(2,0;(1,2)^[4])", "()", 2))
    assert sig == Signature(0, [2, 2, 4, 4])
    sig = quotient_signature(ds, descent("(2,0;(1,2)^[4])", "(1 2)", 2))
    assert sig == Signature(0, [2, 2, 2, 2, 2])


# ---------------------------------------------------------------------------
# descent matching against the bijection enumeration


def _reference_type_bijections(src, dst):
    """Bijections src position -> dst position preserving (order, type)."""
    groups = {}
    for i, (o, parts, _) in enumerate(src):
        groups.setdefault((o, parts), ([], []))[0].append(i + 1)
    for j, (o, parts, _) in enumerate(dst):
        if (o, parts) not in groups:
            return
        groups[(o, parts)][1].append(j + 1)
    if any(len(a) != len(b) for a, b in groups.values()):
        return
    keys = sorted(groups)
    pools = [list(itertools.permutations(groups[k][1])) for k in keys]
    for combo in itertools.product(*pools):
        images = [0] * len(src)
        for k, perm_dst in zip(keys, combo):
            for i, j in zip(groups[k][0], perm_dst):
                images[i - 1] = j
        yield Perm(images)


def _reference_match(target_ds, target_inv, cand):
    """match_descent by enumerating every type-preserving matching of cone
    points: (loose, strict, whether strict needs the global flip)."""
    a, b = target_ds, cand.alt_ds
    if (a.n, a.g0) != (b.n, b.g0):
        return (False, False, False)
    sa, sb = cone_slots(a), cone_slots(b)
    if sorted((o, p) for o, p, _ in sa) != sorted((o, p) for o, p, _ in sb):
        return (False, False, False)
    if target_inv.d != cand.descent.d:
        return (False, False, False)
    loose = as_is = flipped = False
    for pi in _reference_type_bijections(sa, sb):
        if pi * target_inv.perm * pi.inverse() != cand.descent.perm:
            continue
        loose = True
        split_pairs = [(lab_a, sb[pi(i + 1) - 1][2])
                       for i, (_, _, lab_a) in enumerate(sa) if lab_a != "whole"]
        as_is = as_is or all(x == y for x, y in split_pairs)
        flipped = flipped or all(x == flip_label(y) for x, y in split_pairs)
    return (loose, as_is or flipped, flipped and not as_is)


# The lift-sweep benchmark's inputs: every weak class whose self-normalizing
# test it runs, and its four single lift questions.
SELF_NORMALIZING_INPUTS = [
    "(4,0;[(1 2)(3 4),2;2,2]^[2],[(2 3 4),3;3]^[3])",
    "(4,1;[(1 2)(3 4),2;2,2]^[2])",
    "(4,0;[(1 2)(3 4),2;2,2]^[3],[(2 3 4),3;3]^[3])",
    "(4,1;[(1 2)(3 4),2;2,2]^[3])",
    "(5,0;[(2 3)(4 5),2;2,2]^[2],[(3 4 5),3;3]^[2])",
    "(5,0;[(2 3)(4 5),2;2,2]^[2],[(1 2 3 4 5),5;5],[(1 2 3 5 4),5;5])",
    "(5,0;[(2 3)(4 5),2;2,2]^[2],[(1 2 3 4 5),5;5]^[2])",
    "(5,0;[(2 3)(4 5),2;2,2]^[4],[(3 4 5),3;3])",
    "(5,0;[(3 4 5),3;3]^[4])",
    "(5,1;[(3 4 5),3;3])",
    "(5,0;[(2 3)(4 5),2;2,2]^[4],[(1 2 3 4 5),5;5])",
    "(5,0;[(3 4 5),3;3]^[3],[(1 2 3 4 5),5;5])",
    "(5,1;[(1 2 3 4 5),5;5])",
    "(5,0;[(2 3)(4 5),2;2,2]^[6])",
    "(5,0;[(2 3)(4 5),2;2,2]^[2],[(3 4 5),3;3]^[3])",
    "(5,1;[(2 3)(4 5),2;2,2]^[2])",
    "(6,0;[(3 4)(5 6),2;2,2],[(1 2)(3 4 5 6),4;2,4],[(2 3 4 5 6),5;5])",
    "(6,0;[(3 4)(5 6),2;2,2]^[3],[(1 2)(3 4 5 6),4;2,4])",
    "(6,0;[(1 2)(3 4 5 6),4;2,4]^[3])",
]
LIFT_QUESTION_INPUTS = [
    (ICOSAHEDRAL_A, D_SPHERE, "(3 4)"),
    (ICOSAHEDRAL_A, D_SPHERE, "(1 2)(3 4)"),
    (OCTAHEDRAL_A, "(2,1;-)", "()"),
    (DA2_A, D_SPHERE, "(1 2)(3 4)"),
]


def _lift_sweep_descents(searches):
    """(resolved data set, genus, admissible involution descent) triples the
    lift-sweep inputs reach, before the surplus fixed cones are paired."""
    for text in SELF_NORMALIZING_INPUTS:
        ds, g = searches.resolve(parse_dataset(text, ALTERNATING))
        for d in involution_classes_on(ds.g0):
            for perm in admissible_permutations(ds):
                if sum(1 for i in range(1, perm.degree + 1) if perm(i) == i) <= len(d.cones):
                    yield ds, g, InvolutionDescent(d, perm)
    for text, d_text, pi_text in LIFT_QUESTION_INPUTS:
        ds, g = searches.resolve(parse_dataset(text, ALTERNATING))
        yield ds, g, descent(d_text, pi_text, len(cone_slots(ds)))


def _lift_sweep_verdicts(monkeypatch):
    """Every verdict the lift-sweep inputs reach: each self_normalizing
    report with all the decide_lift verdicts it went through, then the
    single lift questions."""
    out = []

    def record(ds, inv, budget=None):
        verdict = decide_lift(ds, inv, budget)
        out.append(verdict.to_json())
        return verdict

    monkeypatch.setattr(sact.lifting, "decide_lift", record)
    for text in SELF_NORMALIZING_INPUTS:
        report = self_normalizing(parse_dataset(text, ALTERNATING))
        out.append((str(report.ds), report.by_condition, report.by_exhaustion))
    for text, d_text, pi_text in LIFT_QUESTION_INPUTS:
        ds = parse_dataset(text, ALTERNATING)
        out.append(decide_lift(ds, descent(d_text, pi_text, len(cone_slots(ds)))).to_json())
    return out


def test_symmetry_breaking_changes_no_lift_verdict(monkeypatch, unbroken_symmetry):
    """The lift-sweep verdicts and their witnesses are the same when the
    extension searches branch on every choice."""
    unbroken = _lift_sweep_verdicts(monkeypatch)
    monkeypatch.undo()  # restores both rules and decide_lift
    assert _lift_sweep_verdicts(monkeypatch) == unbroken


def test_resolving_descents_changes_no_lift_verdict(monkeypatch):
    """The lift-sweep reports and verdicts are the same when every descent
    is resolved to a realizable representative, as it once was."""
    unresolved = _lift_sweep_verdicts(monkeypatch)
    monkeypatch.undo()
    restrict = sact.lifting.index2_restrict

    def resolving(v):
        r = restrict(v)
        return Restriction(resolved_representative(r.alt_ds), r.descent, r.genus)

    monkeypatch.setattr(sact.lifting, "index2_restrict", resolving)
    assert _lift_sweep_verdicts(monkeypatch) == unresolved


def test_match_descent_agrees_with_bijection_enumeration():
    """Every (descent, Sym and AxC2 candidate) pair of the lift-sweep inputs
    gets the verdict the enumeration of cone matchings gives."""
    searches = _ExtensionSearches.under(None)
    outcomes = Counter()
    strict_only_after_flip = 0
    for ds, g, inv in _lift_sweep_descents(searches):
        perm, _ = _normalize_perm(ds, inv)
        if perm is None:
            continue
        working = InvolutionDescent(inv.d, perm)
        sig = quotient_signature(ds, working)
        for spec in (sym(ds.n), alt_c2(ds.n)):
            for _, cand in searches.candidates(spec, g, sig):
                loose, strict, flip_only = _reference_match(ds, working, cand)
                assert match_descent(ds, working, cand) == (loose, strict), \
                    (str(ds), str(perm), spec.name)
                outcomes[(loose, strict)] += 1
                strict_only_after_flip += flip_only
    assert set(outcomes) == {(True, True), (True, False), (False, False)}, outcomes
    assert strict_only_after_flip


def test_match_descent_counts_orbits_without_enumerating_matchings():
    # ten cones of one type admit 10! matchings; the cone permutations
    # differ in their number of 2-cycles, so none of them intertwines
    cones = dataset(ALTERNATING, 5, 0, [(parse_perm("(3 4 5)", 5), 10)])
    d = parse_cyclic("(2,0;(1,2)^[4])")
    target = InvolutionDescent(d, parse_perm("(1 2)(3 4)", 10))
    cand = Restriction(cones, InvolutionDescent(d, parse_perm("(1 2)", 10)), 0)
    start = time.perf_counter()
    assert match_descent(cones, target, cand) == (False, False)
    assert time.perf_counter() - start < 0.5


def test_match_descent_refuses_other_cones_or_another_involution_class():
    """The icosahedral pair against itself matches; other cone types (the
    orbit multisets differ) or another class D do not."""
    target = descent(D_SPHERE, "(3 4)", 4)
    assert match_descent(icosa(), target, Restriction(icosa(), target, 0)) == (True, True)
    other_cones = parse_dataset(DODECAHEDRAL_A, ALTERNATING)
    assert match_descent(icosa(), target, Restriction(other_cones, target, 0)) == \
        (False, False)
    other_d = descent("(2,0;(1,2)^[4])", "(3 4)", 4)
    assert match_descent(icosa(), target, Restriction(icosa(), other_d, 0)) == \
        (False, False)


def test_slots_are_a_shared_tuple():
    ds = icosa()
    slots = cone_slots(ds)
    assert isinstance(slots, tuple)
    assert [label for _, _, label in slots] == ["whole", "whole", "plus", "plus"]
    hits = cone_slots.cache_info().hits
    assert cone_slots(icosa()) is slots
    assert cone_slots.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# lifting decisions


def test_icosahedral_lift_decisions():
    ds = icosa()
    v34 = decide_lift(ds, descent(D_SPHERE, "(3 4)", 4))
    assert v34.kind == WLS
    from sact.datasets import equivalent
    assert equivalent(v34.witness_symmetric,
                      parse_dataset(ICOSAHEDRAL_LIFT_S, SYMMETRIC))
    assert v34.strict_class_match is False  # split-class pattern differs

    v1234 = decide_lift(ds, descent(D_SPHERE, "(1 2)(3 4)", 4))
    assert v1234.kind == WLS
    assert equivalent(v1234.witness_symmetric,
                      parse_dataset(ICOSAHEDRAL_LIFT_S2, SYMMETRIC))

    v12 = decide_lift(ds, descent(D_SPHERE, "(1 2)", 4))
    assert v12.kind == ALT_TIMES_C2  # no Sym(5) element of order 10


def test_icosahedral_lift_candidates_are_unique():
    from sact.vectors import enumerate_weak_classes
    for periods in [(4, 4, 5), (2, 2, 2, 5)]:
        res = enumerate_weak_classes(sym(5), 19, signatures=[Signature(0, periods)])
        assert len(res.items) == 1
    res = enumerate_weak_classes(sym(5), 19, signatures=[Signature(0, (2, 10, 10))])
    assert res.items == []


def test_octahedral_lift_decisions():
    ds = parse_dataset(OCTAHEDRAL_A, ALTERNATING)
    from sact.datasets import equivalent

    v_free = decide_lift(ds, descent("(2,1;-)", "()", 2))
    assert v_free.kind == ALT_TIMES_C2
    assert v_free.normalized_perm == parse_perm("(1 2)", 2)
    assert v_free.witness_vector.spec.name == "AxC24"

    v_id = decide_lift(ds, descent("(2,0;(1,2)^[4])", "()", 2))
    assert v_id.kind == WLS
    assert equivalent(v_id.witness_symmetric, parse_dataset(OCTAHEDRAL_S, SYMMETRIC))

    v_swap = decide_lift(ds, descent("(2,0;(1,2)^[4])", "(1 2)", 2))
    assert v_swap.kind == WLS
    assert equivalent(v_swap.witness_symmetric, parse_dataset(OCTAHEDRAL_S2, SYMMETRIC))


def test_da2_lift_decision():
    ds = parse_dataset(DA2_A, ALTERNATING)
    v = decide_lift(ds, descent(D_SPHERE, "(1 2)(3 4)", 5))
    assert v.kind == ALT_TIMES_C2
    assert v.strict_class_match is True
    assert quotient_signature(ds, descent(D_SPHERE, "(1 2)(3 4)", 5)) == \
        Signature(0, [2, 2, 3, 6])


def test_cubic_lift_decision():
    ds = parse_dataset(CUBIC_A_VALID, ALTERNATING)
    v = decide_lift(ds, descent(D_SPHERE, "(1 3)(2 4)", 4))
    assert v.kind == WLS
    from sact.datasets import equivalent
    assert equivalent(v.witness_symmetric, parse_dataset(CUBIC_S, SYMMETRIC))
    # one-swap patterns: the symmetric route dies for lack of order-6
    # elements, but an Alt(4) x C_2 vector matches at the cycle-type level;
    # the split-class tags disagree, which the verdict records
    v2 = decide_lift(ds, descent(D_SPHERE, "(1 3)", 4))
    assert v2.kind == ALT_TIMES_C2
    assert v2.strict_class_match is False
    v3 = decide_lift(ds, descent(D_SPHERE, "(1 2)", 4))
    assert v3.kind == ALT_TIMES_C2
    assert v3.strict_class_match is True


def test_dodecahedral_lift_decisions():
    ds = parse_dataset(DODECAHEDRAL_A, ALTERNATING)
    v12 = decide_lift(ds, descent(D_SPHERE, "(1 2)", 4))
    assert v12.kind == WLS and v12.strict_class_match
    v34 = decide_lift(ds, descent(D_SPHERE, "(3 4)", 4))
    assert v34.kind == WLS and v34.strict_class_match
    sig = quotient_signature(ds, descent(D_SPHERE, "(1 2)", 4))
    assert sig == Signature(0, [2, 6, 6])


def test_descent_validation():
    ds = icosa()
    with pytest.raises(GenusMismatch):
        decide_lift(ds, descent("(2,1;-)", "()", 4))  # wrong quotient surface
    with pytest.raises(ValidationFailure):
        decide_lift(ds, descent(D_SPHERE, "(2 3)", 4))  # maps 2-cone to 5-cone
    with pytest.raises(ValidationFailure,
                       match=r"^admissibility: cone permutation degree 3 != 4$"):
        decide_lift(ds, descent(D_SPHERE, "(1 2)", 3))
    with pytest.raises(ValidationFailure):
        InvolutionDescent(parse_cyclic(D_SPHERE), parse_perm("(1 2 3)", 4))


# ---------------------------------------------------------------------------
# self-normalizing and free actions


def test_self_normalizing_by_condition():
    # sphere quotient with three cones of pairwise distinct orders
    res = None
    from sact.vectors import enumerate_weak_classes
    found = enumerate_weak_classes(alt(6), 10)  # signature (0;2,4,5)
    ds = found.items[0].ds
    report = self_normalizing(ds)
    assert report.by_condition
    assert report.overall is True or report.by_exhaustion is None


def test_self_normalizing_false_for_icosahedral():
    report = self_normalizing(icosa())
    assert not report.by_condition
    assert report.by_exhaustion is False
    assert report.overall is False
    kinds = {v.kind for v in report.extensions}
    assert WLS in kinds


@pytest.mark.parametrize("budget", [None, SearchBudget(max_nodes=20)],
                         ids=["unbounded", "20-nodes"])
@pytest.mark.parametrize("spec,g", [(alt(4), 7), (alt(5), 21)], ids=["A4@7", "A5@21"])
def test_self_normalizing_shares_searches_without_changing_verdicts(
        monkeypatch, spec, g, budget):
    """Every verdict self_normalizing reaches through its shared extension
    searches equals that of a separate decide_lift call."""
    shared = []

    def record(ds, inv, budget=None):
        verdict = decide_lift(ds, inv, budget)
        shared.append(verdict.to_json())
        return verdict

    kinds = set()
    for item in enumerate_weak_classes(spec, g).items:
        separate = []
        for d in involution_classes_on(item.ds.g0):
            for perm in admissible_permutations(item.ds):
                if sum(1 for i in range(1, perm.degree + 1) if perm(i) == i) > len(d.cones):
                    continue
                separate.append(decide_lift(item.ds, InvolutionDescent(d, perm), budget))
        monkeypatch.setattr(sact.lifting, "decide_lift", record)
        shared.clear()
        report = self_normalizing(item.ds, budget)
        monkeypatch.undo()
        assert shared == [v.to_json() for v in separate]
        assert [v.to_json() for v in report.extensions] == \
            [v.to_json() for v in separate if v.kind not in (NOT_LIFTABLE, UNDETERMINED)]
        kinds.update(v.kind for v in separate)
    assert (UNDETERMINED in kinds) == (budget is not None)


def test_shared_search_keeps_each_candidates_own_descent():
    searches = _ExtensionSearches.under(None)
    spec, sig = alt_c2(5), Signature(0, [2, 2, 2, 6])
    first = list(searches.candidates(spec, 21, sig))
    assert len(first) == 2
    assert [r for _, r in first] == [index2_restrict(item.vector) for item, _ in first]
    assert list(searches.candidates(spec, 21, sig)) == first


def test_self_normalizing_validates_its_data_set_once(monkeypatch):
    calls = {"validate": 0, "decide_lift": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sact.lifting, name, counted(name, getattr(sact.lifting, name)))
    report = self_normalizing(parse_dataset(DA2_A, ALTERNATING))
    assert report.extensions
    assert calls["decide_lift"] > 1 and calls["validate"] == 1


def test_involution_classes_on_surface():
    assert [str(d) for d in involution_classes_on(0)] == ["(2,0;(1,2)^[2])"]
    got = {str(d) for d in involution_classes_on(1)}
    assert got == {"(2,0;(1,2)^[4])", "(2,1;-)"}


def test_free_action_analysis_n5():
    r61 = free_action_analysis(5, 61)
    assert (r61.k, r61.extension) == (1, "unknown_k1")
    r121 = free_action_analysis(5, 121)
    assert (r121.k, r121.extension) == (2, "free_sym")
    assert str(r121.witness_symmetric) == "(5,2;-)"
    r181 = free_action_analysis(5, 181)
    assert (r181.k, r181.extension) == (3, "nonfree_sym")
    assert str(r181.witness_symmetric) == "(5,2;[(1 2),2;2]^[2])"
    assert str(r181.witness_descent) == "(2,2;(1,2)^[2])"
    assert free_action_analysis(5, 100).status == "no_free_action"


def test_free_alternating_class_exists_iff_k_integral():
    """Cross-check through the enumerator: r = 0 signatures appear exactly
    at g = 1 + k * 60."""
    from sact.vectors import enumerate_weak_classes
    for g, expect in [(61, True), (121, True), (62, False)]:
        report = free_action_analysis(5, g)
        assert (report.status == "ok") == expect
        if expect:
            k = report.k
            res = enumerate_weak_classes(alt(5), g,
                                         signatures=[Signature(k + 1, [])])
            assert len(res.items) == 1
            assert res.items[0].ds.entries == ()


def test_free_witnesses_restrict_back():
    r121 = free_action_analysis(5, 121)
    restriction = index2_restrict(materialize_vector(r121.witness_symmetric))
    assert restriction.alt_ds.entries == ()
    assert restriction.alt_ds.g0 == 3  # k + 1
    assert restriction.descent.d == parse_cyclic("(2,2;-)")
