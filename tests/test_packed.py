"""Packed monomials against a dict-of-tuples reference, and the degree limit.

The reference below keeps each polynomial as {exponent tuple: coefficient}
and does every operation on tuples; `ref` reads a Poly through the ring's
one unpack function.
"""

from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import num_symbols, total_degree, u_degree
from weylracah import MonomialOverflowError, Poly, Rat, Ring, WeylOp, run_cli
from weylracah.poly import MAX_DEGREE

RING = Ring(2, 2)  # symbols u1, u2, k, nu1, nu2
WIDTH = num_symbols(RING)

rationals = st.builds(
    Rat, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * WIDTH)
tables = st.dictionaries(exponents, rationals, max_size=5)
orders = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
scalars = st.one_of(st.integers(min_value=-5, max_value=5), rationals)


def ref(p: Poly) -> dict:
    return {RING.unpack(m): c for m, c in p.terms.items()}


def clean(table: dict) -> dict:
    return {e: c for e, c in table.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def ref_diff(a: dict, order: tuple) -> dict:
    out = {}
    for e, c in a.items():
        if all(x >= o for x, o in zip(e, order)):
            for x, o in zip(e, order):
                c *= perm(x, o)
            out[tuple(x - o for x, o in zip(e, order + (0,) * WIDTH))] = c
    return out


def ref_subs(a: dict, values: dict) -> dict:
    out = {}
    for e, c in a.items():
        key = list(e)
        for pos, v in values.items():
            c *= v ** e[pos]
            key[pos] = 0
        out[tuple(key)] = out.get(tuple(key), 0) + c
    return clean(out)


@settings(max_examples=200, deadline=None)
@given(tables, tables, orders)
def test_arithmetic_matches_tuple_reference(a, b, order):
    p, q = Poly(RING, a), Poly(RING, b)
    a, b = clean(a), clean(b)
    assert ref(p) == a
    assert ref(p * q) == ref_mul(a, b)
    assert ref(p + q) == ref_add(a, b)
    assert ref(p.diff_multi(order)) == ref_diff(a, order)
    assert ref(p.diff_multi(order + (0,) * (WIDTH - 2))) == ref_diff(a, order)


@settings(max_examples=200, deadline=None)
@given(tables, rationals, rationals)
def test_subs_matches_tuple_reference(a, x, y):
    p = Poly(RING, a)
    for values in ({2: x}, {3: x, 4: y}, {0: x, 3: y}):
        named = {RING.names[pos]: v for pos, v in values.items()}
        assert ref(p.subs(named)) == ref_subs(clean(a), values)


@settings(max_examples=200, deadline=None)
@given(tables)
def test_order_and_degrees_match_tuple_reference(a):
    p = Poly(RING, a)
    a = clean(a)
    order = sorted(a, key=lambda e: (sum(e), e), reverse=True)
    assert [RING.unpack(m) for m, _ in p.sorted_terms()] == order
    assert [c for _, c in p.sorted_terms()] == [a[e] for e in order]
    assert total_degree(p) == max((sum(e) for e in a), default=0)
    assert u_degree(p) == max((sum(e[:2]) for e in a), default=0)
    assert p.is_u_free() == all(e[:2] == (0, 0) for e in a)
    assert p.is_constant() == all(not any(e) for e in a)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(orders, tables, max_size=3), st.dictionaries(orders, tables, max_size=3))
def test_u_degrees_match_tuple_reference(left, right):
    a = WeylOp(RING, {alpha: Poly(RING, t) for alpha, t in left.items()})
    b = WeylOp(RING, {alpha: Poly(RING, t) for alpha, t in right.items()})
    # only the left operand's derivative orders bound the reading
    caps = [max((alpha[i] for alpha in a.terms), default=0) for i in range(2)]
    monomials = [e for alpha in b.terms for e in clean(right[alpha])]
    tops = [max((e[i] for e in monomials), default=0) for i in range(2)]
    expected = tuple(min(c, t) for c, t in zip(caps, tops)) if a.terms else ()
    assert b._u_degrees(a) == expected


@settings(max_examples=100, deadline=None)
@given(tables, st.dictionaries(orders, tables, max_size=3), scalars)
def test_scalar_products_match_constant_products(a, ops, c):
    p = Poly(RING, a)
    op = WeylOp(RING, {alpha: Poly(RING, t) for alpha, t in ops.items()})
    for scaled in (p * c, c * p):
        assert scaled == p * RING.const(c)
        assert all(scaled.terms.values())
    for scaled in (op * c, c * op):
        assert scaled == op * WeylOp.scalar(RING, c)
        assert scaled == WeylOp.scalar(RING, c) * op
        assert all(scaled.terms.values())


def test_layout_orders_graded_lex():
    # u1 weighs most, then u2, k, nu1, nu2; degree first
    vectors = [(0, 0, 0, 0, 2), (1, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 1, 0, 0), (2, 0, 0, 0, 0)]
    packed = [RING.pack(e) for e in vectors]
    assert sorted(packed) == [RING.pack(e) for e in sorted(vectors, key=lambda e: (sum(e), e))]
    assert all(RING.unpack(m) == e for m, e in zip(packed, vectors))
    assert RING.pack((0,) * WIDTH) == 0


def test_constructor_checks_exponents():
    with pytest.raises(MonomialOverflowError):
        Poly(RING, {(MAX_DEGREE + 1, 0, 0, 0, 0): 1})
    with pytest.raises(MonomialOverflowError):  # each field fits, the degree does not
        Poly(RING, {(MAX_DEGREE, 0, 1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly(RING, {(1, -1, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="wrong length"):
        Poly(RING, {(1, 0): 1})
    top = Poly(RING, {(0, 0, 0, 0, MAX_DEGREE): Fraction(1, 2)})
    assert ref(top) == {(0, 0, 0, 0, MAX_DEGREE): Fraction(1, 2)}


def test_product_at_the_limit_and_past_it():
    u1, u2, k = RING.u(1), RING.u(2), RING.k()
    low, high = 1000, MAX_DEGREE - 1000
    at_limit = (u1**low + k) * (u1 ** (high - 7) * u2**7 - 1)
    assert ref(at_limit) == {
        (MAX_DEGREE - 7, 7, 0, 0, 0): 1,
        (low, 0, 0, 0, 0): -1,
        (high - 7, 7, 1, 0, 0): 1,
        (0, 0, 1, 0, 0): -1,
    }
    assert ref(u1**MAX_DEGREE) == {(MAX_DEGREE, 0, 0, 0, 0): 1}
    assert ref(k ** (MAX_DEGREE - 1) * RING.nu(2)) == {(0, 0, MAX_DEGREE - 1, 0, 1): 1}
    for left, right in ((u1**low, u1 ** (high + 1)), (u1**low + 1, k ** (high + 1) + u2)):
        with pytest.raises(MonomialOverflowError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            left * right
    with pytest.raises(MonomialOverflowError):
        u1 ** (MAX_DEGREE + 1)
    # an operator product checks its coefficient products
    op = WeylOp(RING, {(1, 0): RING.u(1) ** MAX_DEGREE})
    with pytest.raises(MonomialOverflowError):
        op * WeylOp.from_poly(RING.u(2))


def test_cli_refuses_an_overflowing_power(capsys):
    assert run_cli(["normalize", "--n", "3", "--expr", "((u1^64)^64)^64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a product of degree 65536 exceeds the limit {MAX_DEGREE}\n"
    assert run_cli(["normalize", "--n", "3", "--expr", "(u1^64)^64 k"]) == 0
    assert capsys.readouterr().out == "u1^4096 k\n"


def test_leakage_message_shows_exponent_tuples(capsys):
    assert run_cli(["matrix", "--n", "4", "--k", "1", "--nu", "1,1,1,1", "--op", "u2^2"]) == 1
    assert capsys.readouterr().err == (
        "leakage: image of basis monomial (0, 0, 0, 0, 0, 0, 0) contains degree 2 term "
        "(0, 2, 0, 0, 0, 0, 0), bound is 1\n"
    )
