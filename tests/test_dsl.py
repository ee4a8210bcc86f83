"""Expression grammar, elaboration, and the canonical printer."""

import random

import pytest

from helpers import random_weyl
from weylracah import (
    ParseError,
    RacahContext,
    Rat,
    WeylOp,
    elaborate,
    parse,
    print_canonical,
)


@pytest.fixture
def rc():
    return RacahContext(4)


def run(text, ctx):
    return elaborate(parse(text, ctx), ctx)


def test_juxtaposition_product(rc):
    got = run("d1 u1", rc)
    assert got == WeylOp.partial(rc.ring, 1) * WeylOp.from_poly(rc.ring.u(1))


def test_explicit_star(rc):
    assert run("d1 * u1", rc) == run("d1 u1", rc)


def test_weyl_relation_normalizes(rc):
    assert run("d1 u1 - u1 d1", rc) == WeylOp.identity(rc.ring)


def test_generator_reference(rc):
    assert run("T[3,1]", rc) == rc.dm.t_op(3, 1)
    assert run("Td[2]", rc) == rc.dm.ttilde_op(2)


def test_euler_symbol(rc):
    ring = rc.ring
    expected = ring.u(1) * WeylOp.partial(ring, 1) + ring.u(2) * WeylOp.partial(ring, 2) - ring.k()
    assert run("E", rc) == expected


def test_casimir_references(rc):
    assert run("C[1,2]", rc) == rc.c_pair(1, 2)
    assert run("C[3]", rc) == rc.c_single(3)
    assert run("C[{1,2,3}]", rc) == rc.c_set([1, 2, 3])


def test_l_references(rc):
    from weylracah import l_op, l_op_pair

    assert run("L1[3]", rc) == l_op(rc, "L1", 3).op
    rc5 = RacahContext(5)
    assert elaborate(parse("L5[4,3]", rc5), rc5) == l_op_pair(rc5, "L5", 4, 3).op


def test_embedded_formula_matches_casimir(rc):
    text = "L1[3] L2[3] - (2 nu3 - 1) L2[3] - 2 nu1 L1[3] + (nu1+nu3)(nu1+nu3-1)"
    assert run(text, rc) == run("C[1,3]", rc)


def test_rational_literals(rc):
    assert run("3/2 u1", rc) == WeylOp.from_poly(Rat(3, 2) * rc.ring.u(1))
    assert run("-1/2", rc) == WeylOp.scalar(rc.ring, Rat(-1, 2))


def test_powers(rc):
    assert run("u1^2", rc) == WeylOp.from_poly(rc.ring.u(1) ** 2)
    assert run("d1^0", rc) == WeylOp.identity(rc.ring)
    assert run("(d1 - d2)^2", rc) == (
        (WeylOp.partial(rc.ring, 1) - WeylOp.partial(rc.ring, 2)) ** 2
    )


def test_unary_minus(rc):
    assert run("-k", rc) == WeylOp.from_poly(-rc.ring.k())
    assert run("- 2 u1", rc) == WeylOp.from_poly(-2 * rc.ring.u(1))


def test_parenthesized_juxtaposition(rc):
    assert run("(nu1+nu3)(nu1+nu3-1)", rc) == WeylOp.from_poly(
        (rc.ring.nu(1) + rc.ring.nu(3)) * (rc.ring.nu(1) + rc.ring.nu(3) - 1)
    )


def test_syntax_error_has_position(rc):
    with pytest.raises(ParseError) as err:
        parse("d1 +", rc)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("", rc)
    with pytest.raises(ParseError):
        parse("(d1", rc)
    with pytest.raises(ParseError):
        parse("d1 ?", rc)


def test_zero_denominator_literal(rc):
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0", rc)


def test_unknown_symbol(rc):
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("x1", rc)
    with pytest.raises(ParseError, match="unknown generator"):
        parse("Q[1]", rc)


def test_index_bounds(rc):
    with pytest.raises(ParseError, match="out of range"):
        parse("u3", rc)
    with pytest.raises(ParseError, match="out of range"):
        parse("d3", rc)
    with pytest.raises(ParseError, match="out of range"):
        parse("nu5", rc)
    with pytest.raises(ParseError, match="out of range"):
        parse("T[4,1]", rc)
    with pytest.raises(ParseError, match="out of range"):
        parse("C[5]", rc)
    with pytest.raises(ParseError, match="out of range"):
        parse("C[{1,5}]", rc)


def test_constructor_errors_surface(rc):
    with pytest.raises(ValueError):
        elaborate(parse("T[2,2]", rc), rc)
    with pytest.raises(ValueError):
        elaborate(parse("L1[2]", rc), rc)


def test_print_weyl_relation(rc):
    op = WeylOp.partial(rc.ring, 1) * WeylOp.from_poly(rc.ring.u(1))
    assert print_canonical(op) == "u1 d1 + 1"


def test_print_zero(rc):
    assert print_canonical(WeylOp.zero(rc.ring)) == "0"


def test_print_ttilde_rank_two():
    rc3 = RacahContext(3)
    assert print_canonical(rc3.dm.ttilde_op(1)) == "-2 u1 d1 + k"


def test_print_parses_back(rc):
    for text in ("u1 d1 + 1", "-2 u1 d1 + k", "1/2 nu3 d2^2 - u2"):
        op = run(text, rc)
        assert print_canonical(op) == text


def test_round_trip_random_ops(rc):
    rng = random.Random(23)
    for _ in range(100):
        op = random_weyl(rng, rc.ring)
        assert run(print_canonical(op), rc) == op


def test_exponent_limit(rc):
    # parsed only: an over-limit power is never built
    assert parse("d1^64", rc).exponent == 64
    assert parse("d1^0064", rc).exponent == 64
    for text in ("d1^65", "u1^99999999999", "(d1 + u1)^100"):
        with pytest.raises(ParseError) as info:
            parse(text, rc)
        assert info.value.position == text.index("^") + 1
        assert "limit 64" in str(info.value)
