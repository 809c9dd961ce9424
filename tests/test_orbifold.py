import inspect
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sact.errors import NonIntegralError, ParseError, ValidationFailure
from sact.factors import _non_integral_quotient
from sact.groups import alt, alt_c2, sym
from sact.lifting import _non_integral_descent
from sact.orbifold import (CyclicDataSet, Signature, enumerate_signatures,
                           parse_cyclic, quotient_genus, rh_genus,
                           validate_cyclic)
from sact.perm import CycleType


def test_rh_genus_worked_values():
    assert rh_genus(60, Signature(0, [2, 2, 5, 5])) == 19
    assert rh_genus(60, Signature(0, [2, 2, 3, 3])) == 11
    assert rh_genus(360, Signature(0, [2, 4, 5])) == 10
    assert rh_genus(24, Signature(0, [2, 2, 4, 4])) == 7
    assert rh_genus(12, Signature(1, [2, 2])) == 7


def test_rh_genus_non_integral():
    assert rh_genus(60, Signature(0, [2, 2, 2])) is None  # positive area
    assert rh_genus(7, Signature(0, [2, 2, 2, 3])) is None


def test_rh_genus_monotone_in_area():
    """A larger last period means a more negative orbifold area, so a
    larger genus at the same group order."""
    sigs = [Signature(0, [2, 2, 2, 3]), Signature(0, [2, 2, 2, 4]),
            Signature(0, [2, 2, 2, 5])]
    genera = [rh_genus(120, s) for s in sigs]
    assert None not in genera
    assert genera == sorted(set(genera))


def test_enumerate_signatures_known_cases():
    assert Signature(0, [2, 2, 2, 5]) in enumerate_signatures(alt(5), 10)
    assert Signature(0, [2, 4, 5]) in enumerate_signatures(alt(6), 10)
    assert enumerate_signatures(alt(5), 2) == []
    assert enumerate_signatures(alt(5), 19) == [Signature(0, [2, 2, 5, 5])]


def brute_signatures(spec, g, max_r=14):
    """Oracle: stuff multisets of element orders into the genus equation."""
    orders = sorted(o for o in spec.element_orders() if o >= 2)
    out = set()
    for g0 in range(0, g + 1):
        for r in range(0, max_r):
            for periods in itertools.combinations_with_replacement(orders, r):
                if rh_genus(spec.order, Signature(g0, periods)) == g:
                    out.add(Signature(g0, periods))
        if Fraction(2 - 2 * g, spec.order) > 2 - 2 * (g0 + 1):
            break
    return out


@pytest.mark.parametrize("spec,g", [(alt(5), 10), (sym(4), 10), (alt(4), 11),
                                    (sym(5), 11), (alt_c2(4), 7)])
def test_enumerate_signatures_complete(spec, g):
    assert set(enumerate_signatures(spec, g)) == brute_signatures(spec, g)


def _signatures_by_fractions(group, g):
    """Reference search: one recursion level per period, in Fraction
    arithmetic."""
    orders = sorted(o for o in group.element_orders() if o >= 2)
    target_chi = Fraction(2 - 2 * g, group.order)
    out = []

    def fill(start, need, acc, g0):
        if need == 0:
            out.append(Signature(g0, tuple(acc)))
            return
        for idx in range(start, len(orders)):
            w = Fraction(orders[idx] - 1, orders[idx])
            if w > need:
                break
            acc.append(orders[idx])
            fill(idx, need - w, acc, g0)
            acc.pop()

    g0 = 0
    while Fraction(2 - 2 * g0) - target_chi >= 0:
        fill(0, Fraction(2 - 2 * g0) - target_chi, [], g0)
        g0 += 1
    return sorted(out, key=lambda s: (s.g0, s.periods))


@pytest.mark.parametrize("spec", [alt(n) for n in (4, 5, 6, 7)]
                         + [sym(n) for n in (4, 5, 6, 7)]
                         + [alt_c2(n) for n in (4, 5, 6)], ids=lambda s: s.name)
def test_enumerate_signatures_matches_fraction_search(spec):
    for g in range(2, 101):
        assert enumerate_signatures(spec, g) == _signatures_by_fractions(spec, g), g


@pytest.mark.parametrize("spec", [alt(n) for n in (4, 5, 6, 7)]
                         + [sym(n) for n in (3, 4, 5, 6, 7)]
                         + [alt_c2(n) for n in (4, 5, 6)], ids=lambda s: s.name)
def test_enumerate_signatures_lists_in_order_without_a_sort(spec):
    """The multiplicities run down, so the list comes out in (g0, periods)
    order; it stays a list, which callers take the length of."""
    for g in [*range(2, 130), 241, 361, 481]:
        sigs = enumerate_signatures(spec, g)
        assert isinstance(sigs, list)
        assert sigs == sorted(sigs, key=lambda s: (s.g0, s.periods)), g


def test_enumerate_signatures_depth_does_not_grow_with_periods():
    # A4 at g = 400 has signatures with 137 periods; the search nests once
    # per distinct element order (2 and 3), so 30 free frames suffice
    limit = sys.getrecursionlimit()
    sigs = enumerate_signatures(alt(4), 400)
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        assert enumerate_signatures(alt(4), 400) == sigs
    finally:
        sys.setrecursionlimit(limit)
    assert max(s.r for s in sigs) == 137


def test_signatures_round_trip_genus():
    for spec, g in [(alt(5), 10), (sym(5), 11), (alt(6), 10)]:
        for sig in enumerate_signatures(spec, g):
            assert rh_genus(spec.order, sig) == g


def test_validate_cyclic_worked_values():
    assert validate_cyclic(parse_cyclic("(5,3;(1,5)^[2],(4,5)^[2])")) == 19
    assert validate_cyclic(parse_cyclic("(3,7;-)")) == 19
    assert validate_cyclic(parse_cyclic("(2,21;-)")) == 41


def test_validate_cyclic_failures():
    with pytest.raises(ValidationFailure) as err:
        validate_cyclic(parse_cyclic("(2,0;(1,2)^[3])"))
    assert err.value.condition == "congruence"
    with pytest.raises(ValidationFailure) as err:
        validate_cyclic(parse_cyclic("(4,0;(1,2)^[2])"))
    assert err.value.condition == "lcm"
    with pytest.raises(ValidationFailure) as err:
        validate_cyclic(parse_cyclic("(4,1;(1,2))"))
    assert err.value.condition == "lcm"  # removing the only cone changes the lcm
    with pytest.raises(ValidationFailure) as err:
        validate_cyclic(parse_cyclic("(6,0;(1,4),(1,4),(1,3))"))
    assert err.value.condition == "divisibility"
    # the hyperelliptic shape at any even cone count is fine, genus (k-2)/2
    assert validate_cyclic(CyclicDataSet(2, 0, [(1, 2)] * 6)) == 2


def _quadratic_validate_cyclic(d):
    """validate_cyclic with its lcm check taken over every leave-one-out
    list, as it was first written."""
    n = d.degree
    for c, m in d.cones:
        if m < 2 or n % m != 0 or math.gcd(c, m) != 1 or not 1 <= c < m:
            raise ValidationFailure("divisibility", f"cone ({c},{m}) in degree {n}")
    orders = [m for _, m in d.cones]
    full = math.lcm(*orders) if orders else 1
    for i in range(len(orders)):
        rest = orders[:i] + orders[i + 1:]
        if (math.lcm(*rest) if rest else 1) != full:
            raise ValidationFailure("lcm", f"order {orders[i]} is lcm-essential")
    if d.g0 == 0 and full != n:
        raise ValidationFailure("lcm", f"lcm {full} != degree {n} with g0 = 0")
    total = sum((n // m) * c for c, m in d.cones)
    if total % n != 0:
        raise ValidationFailure("congruence", f"sum (n/m)c = {total} mod {n}")
    g = rh_genus(n, d.signature)
    if g is None:
        raise ValidationFailure("integrality", "genus is not a non-negative integer")
    return g


@st.composite
def cyclic_shapes(draw):
    """Cyclic data sets whose cone orders divide the degree, plus now and
    then a cone that does not."""
    n = draw(st.integers(2, 72))
    divisors = [m for m in range(2, n + 1) if n % m == 0]
    cones = []
    for m in draw(st.lists(st.sampled_from(divisors), max_size=10)):
        units = [c for c in range(1, m) if math.gcd(c, m) == 1]
        cones.append((draw(st.sampled_from(units)), m))
    if draw(st.integers(0, 9)) == 0:
        cones.append((1, draw(st.integers(2, 80))))
    return CyclicDataSet(n, draw(st.integers(0, 3)), cones)


@settings(max_examples=400, deadline=None)
@given(cyclic_shapes())
def test_validate_cyclic_matches_the_quadratic_lcm_check(d):
    """Same genus or same failure and message (which names the condition)
    as the check of every leave-one-out lcm."""
    assert _outcome(validate_cyclic, d) == _outcome(_quadratic_validate_cyclic, d)


def test_free_data_sets():
    # degenerate cone list encodes a free action
    assert validate_cyclic(parse_cyclic("(5,4;-)")) == 16
    with pytest.raises(ValidationFailure):
        validate_cyclic(parse_cyclic("(5,0;-)"))  # sphere quotient needs cones


def test_parse_format_roundtrip():
    for text in ["(5,3;(1,5)^[2],(4,5)^[2])", "(3,7;-)", "(2,0;(1,2)^[2])",
                 "(4,2;(1,2)^[2],(1,4),(3,4))", "(10,0;(1,2),(1,5),(3,10))"]:
        assert str(parse_cyclic(text)) == text


def test_parse_canonicalizes_cone_order():
    a = parse_cyclic("(4,1;(1,4)^[2],(3,4)^[2])")
    b = parse_cyclic("(4,1;(3,4),(1,4),(3,4),(1,4))")
    assert a == b


def test_multiset_types_sort_their_input():
    assert Signature(0, (3, 2)) == Signature(0, (2, 3))
    assert CyclicDataSet(6, 0, [(5, 6), (1, 3), (1, 2)]).cones == ((1, 2), (1, 3), (5, 6))
    assert CycleType((3, 2), 5).parts == (2, 3)


def test_bad_syntax():
    with pytest.raises(ParseError):
        parse_cyclic("5,3;(1,5)")
    with pytest.raises(ParseError):
        parse_cyclic("(5,3;(1 5))")


def _rh_genus_by_fractions(order, sig):
    two_minus_2g = order * (Fraction(2 - 2 * sig.g0)
                            - sum(Fraction(m - 1, m) for m in sig.periods))
    if two_minus_2g.denominator != 1 or (2 - two_minus_2g) % 2 != 0:
        return None
    g = (2 - int(two_minus_2g)) // 2
    return g if g >= 0 else None


def _quotient_genus_by_fractions(g, d, cones):
    chi = Fraction(2 - 2 * g, d) + sum(Fraction(t - 1, t) for _, t in cones)
    g0 = (Fraction(2) - chi) / 2
    if g0.denominator != 1 or g0 < 0:
        raise NonIntegralError(f"quotient genus {g0}")
    return int(g0)


def _descended_genus_by_fractions(g, order, cones):
    """The descended quotient genus as index2_restrict solved it in Fractions."""
    chi = Fraction(2 - 2 * g, order) + sum(Fraction(m - 1, m) for _, m in cones)
    g0_prime = (2 - chi) / 2
    if g0_prime.denominator != 1 or g0_prime < 0:
        raise ValidationFailure("genus-integrality", f"descended quotient genus {g0_prime}")
    return int(g0_prime)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonIntegralError, ValidationFailure) as exc:
        return (type(exc).__name__, str(exc))


def test_integer_genus_equations_match_fractions():
    # every signature with g0 <= 2 and at most 6 periods from 2..7; the
    # quotient genus is solved back from the genus found and from genus 2,
    # once with the cyclic-factor error and once with the index-2 descent's
    seen = set()
    for r in range(7):
        for periods in itertools.combinations_with_replacement(range(2, 8), r):
            cones = [(1, m) for m in periods]
            for g0 in range(3):
                sig = Signature(g0, periods)
                for order in (7, 12, 24, 60, 120, 360, 720):
                    g = _rh_genus_by_fractions(order, sig)
                    assert rh_genus(order, sig) == g, (order, sig)
                    seen.add("no genus" if g is None else "genus")
                    for genus in {g, 2} - {None}:
                        for reference, error in [
                                (_quotient_genus_by_fractions, _non_integral_quotient),
                                (_descended_genus_by_fractions, _non_integral_descent)]:
                            want = _outcome(reference, genus, order, cones)
                            got = _outcome(quotient_genus, genus, order, periods, error)
                            assert got == want
                            seen.add(want[0] if isinstance(want, tuple) else "quotient genus")
    assert seen == {"no genus", "genus", "NonIntegralError", "ValidationFailure",
                    "quotient genus"}
