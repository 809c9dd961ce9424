import itertools
import math

import pytest
from hypothesis import given, strategies as st

from sact.errors import ParseError
from sact.perm import CycleType, Perm, least_perm_of_type, parse_perm


def random_perm(n):
    return st.permutations(list(range(1, n + 1))).map(Perm)


perms5 = random_perm(5)


def test_parse_and_format_roundtrip():
    for text in ["()", "(1 2)", "(1 2)(3 4 5)", "(1 2 3 4 5)", "(2 3)(4 5)"]:
        assert str(parse_perm(text, 5)) == text


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_perm("(1 2)(2 3)", 5)  # repeated symbol
    with pytest.raises(ParseError):
        parse_perm("(1 6)", 5)  # out of range
    with pytest.raises(ParseError):
        parse_perm("1 2", 5)
    with pytest.raises(ParseError):
        parse_perm("", 5)


def test_validation_survives_the_unchecked_product():
    # products and inverses skip the bijection check, construction does not
    with pytest.raises(ParseError):
        Perm((1, 1, 2))
    with pytest.raises(ParseError):
        parse_perm("(1 2)", 3) * parse_perm("(1 2)", 4)
    p = parse_perm("(1 2 3)", 4)
    assert type(p * p) is Perm and (p * p).images == (3, 1, 2, 4)
    assert p.inverse() == p * p


def test_degree_is_part_of_identity():
    assert Perm.identity(5) != Perm.identity(6)
    assert hash(Perm.identity(5)) != hash(Perm.identity(6))


def test_cycle_type_examples():
    assert parse_perm("(1 2)(3 4 5)", 5).cycle_type().parts == (2, 3)
    assert parse_perm("()", 5).cycle_type().parts == ()
    assert parse_perm("(1 2 3 4 5)", 5).cycle_type().parts == (5,)


def test_apply_and_order():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert [p(i) for i in range(1, 6)] == [2, 3, 1, 5, 4]
    assert p.order() == 6
    assert Perm.identity(5).order() == 1
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()


@given(perms5, perms5, perms5)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms5)
def test_inverse_law(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms5, perms5)
def test_composition_is_function_composition(a, b):
    for x in range(1, 6):
        assert (a * b)(x) == a(b(x))


def test_order_and_parity_agree_with_cycles():
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            p = Perm(images)
            lengths = [len(c) for c in p.cycles()]
            assert p.order() == math.lcm(*lengths)
            assert p.is_even() == (sum(k - 1 for k in lengths) % 2 == 0)


@given(perms5, perms5)
def test_parity_is_a_homomorphism(a, b):
    assert (a * b).is_even() == (a.is_even() == b.is_even())


@given(perms5)
def test_order_divides_group_order(p):
    assert 120 % p.order() == 0


def test_least_perm_of_type():
    # fixed points take the smallest symbols, then ascending cycles
    assert str(least_perm_of_type(CycleType((3,), 4))) == "(2 3 4)"
    assert str(least_perm_of_type(CycleType((2, 3), 5))) == "(1 2)(3 4 5)"
    assert str(least_perm_of_type(CycleType((5,), 5))) == "(1 2 3 4 5)"
    # it really is the lexicographic minimum over all perms of the type
    import itertools
    target = CycleType((2, 2), 4)
    best = min(p for p in (Perm(im) for im in itertools.permutations(range(1, 5)))
               if p.cycle_type() == target)
    assert least_perm_of_type(target) == best


def _least_perm_by_blocks(ct):
    """Reference: the least permutation of a cycle type, built afresh."""
    cycles, start = [], ct.fixed_points + 1
    for k in ct.parts:
        cycles.append(tuple(range(start, start + k)))
        start += k
    return Perm.from_cycles(cycles, ct.n)


def _partitions(n, smallest=2):
    """Ascending tuples of parts >= smallest summing to at most n."""
    yield ()
    for k in range(smallest, n + 1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_least_perm_of_type_memo():
    types = [CycleType(parts, n) for n in range(4, 9) for parts in _partitions(n)]
    for ct in types:
        assert least_perm_of_type(ct) == _least_perm_by_blocks(ct)
    hits = least_perm_of_type.cache_info().hits
    first = least_perm_of_type(types[-1])
    assert least_perm_of_type.cache_info().hits == hits + 1
    assert least_perm_of_type(CycleType(types[-1].parts, 8)) is first


def test_cycle_type_invariants():
    with pytest.raises(ParseError):
        CycleType((1, 2), 5)
    with pytest.raises(ParseError):
        CycleType((3, 3), 5)
    assert CycleType((3, 2), 5).parts == (2, 3)
