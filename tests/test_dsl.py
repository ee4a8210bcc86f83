"""Expression grammar, elaboration, and the canonical printer."""

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import charged, random_weyl
from weylracah import dsl, racah, weyl
from weylracah import (
    ParseError,
    RacahContext,
    Rat,
    WeylOp,
    check_generator_membership,
    check_lemma1,
    check_racah_structure,
    check_sl_homomorphism,
    elaborate,
    parse,
    print_canonical,
    run_cli,
    verify_embedding,
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
    # each atom's largest index at n=4 parses, one past it does not
    for text in ("u2", "d2", "nu4", "T[3,1]", "Td[2]", "C[4]", "C[{1,4}]", "L1[4]", "L5[4,3]"):
        parse(text, rc)
    for text in ("Td[3]", "L1[5]", "L5[5,3]"):
        with pytest.raises(ParseError, match="out of range") as info:
            parse(text, rc)
        assert 0 <= info.value.position < len(text)
    counts = (
        ("T[1]", "2 indices"), ("Td[1,2]", "1 index"), ("C[1,2,3]", "1 or 2 indices"),
        ("L6[4]", "2 indices"), ("u", "1 index"), ("E1", "0 indices"),
    )
    for text, wanted in counts:
        with pytest.raises(ParseError, match=wanted) as info:
            parse(text, rc)
        assert 0 <= info.value.position < len(text)
    with pytest.raises(ParseError) as info:
        parse("C[{1,5}]", rc)
    assert str(info.value).startswith("C ")


def test_long_digit_strings(rc):
    # parsed only: past CPython's int-string limit a digit string is a ParseError
    ones = "1" * 5000
    for text, position in ((ones, 0), ("u" + ones, 0), ("T[" + ones + ",1]", 2)):
        with pytest.raises(ParseError) as info:
            parse(text, rc)
        assert info.value.position == position


def test_normal_form_golden_digest(capsys):
    # every atom at its largest index at n=5, then two mixed expressions
    exprs = [
        "E", "k", "u3", "d3", "nu5", "T[4,1]", "T[1,4]", "Td[3]", "C[5]", "C[2,5]",
        "C[{1,3,5}]", "L1[5]", "L2[5]", "L3[5]", "L4[5]", "L5[5,3]", "L6[5,3]",
        "(u1 + u2 - u3)^3 d2 d3", "-(1/2 nu1 - k) d1^2 u1",
    ]
    out = ""
    for expr in exprs:
        assert run_cli(["normalize", "--n", "5", "--expr", expr]) == 0
        out += capsys.readouterr().out
    assert len(out) == 3166
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "390b67827b5e92b2f03e26d16b4792a044395e1a75947feeaadf151d92cf65d8"


def test_constructor_errors_surface(rc):
    for text in ("T[2,2]", "T[2,2]^0"):
        with pytest.raises(ValueError):
            elaborate(parse(text, rc), rc)
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
    assert run("d1^0064", rc) == run("d1^64", rc)
    for text in ("d1^65", "u1^99999999999", "(d1 + u1)^100"):
        with pytest.raises(ParseError) as info:
            parse(text, rc)
        assert info.value.position == text.index("^") + 1
        assert "limit 64" in str(info.value)


def test_nesting_limit(rc, capsys):
    # parsed only: 64 levels of '(' or unary '-' parse, one more is refused
    def nested(depth):
        opens = "".join("(-"[i % 2] for i in range(depth))
        return [
            "(" * depth + "u1" + ")" * depth,
            "-" * depth + "u1",
            opens + "u1" + ")" * opens.count("("),
        ]

    # the builders nest as deep as the parse, and elaborate without a RecursionError
    for text in nested(64):
        assert run(text, rc) == WeylOp.from_poly(rc.ring.u(1))
    assert run("-" * 64 + "u1 - " + "-" * 64 + "u1", rc) == WeylOp.zero(rc.ring)
    for depth in (65, 1000):
        for text in nested(depth):
            with pytest.raises(ParseError) as info:
                parse(text, rc)
            assert info.value.position == 64
            assert "limit 64" in str(info.value)
    assert run_cli(["normalize", "--n", "3", "--expr", nested(1000)[0]]) == 2
    assert "limit 64" in capsys.readouterr().err


def test_parsing_builds_nothing(monkeypatch):
    # parse only checks the text: no product, kernel step or atom constructor
    # runs until the builder it returns is called
    rc5 = RacahContext(5)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(WeylOp, "__mul__", counted("__mul__", WeylOp.__mul__))
    monkeypatch.setattr(WeylOp, "_leibniz", counted("_leibniz", WeylOp._leibniz))
    for module in (weyl, racah):
        monkeypatch.setattr(module, "_compose_into", counted("_compose_into", weyl._compose_into))
    for key, atom in dsl.ATOMS.items():
        monkeypatch.setitem(dsl.ATOMS, key, atom._replace(build=counted(key, atom.build)))
    for text in ("(u1+u2+u3+d1+d2+d3)^64", "C[{1,2,3,4,5}]^64 L1[5]"):
        parse(text, rc5)
    assert calls == []
    # the counters see the work once a builder is called
    assert run("C[1,2] d1", rc5) == rc5.c_pair(1, 2) * WeylOp.partial(rc5.ring, 1)
    assert {"C", "d", "__mul__", "_leibniz", "_compose_into"} <= set(calls)


def test_builders_run_outside_a_budget(rc):
    # a sum charges its parts only when a request's budget is open
    assert weyl.CHARGE.get() is None
    for text in ("u1 + d1", "C[1,2] - 2 C[3] + (d1 + u2)^2"):
        assert parse(text, rc)(rc) == run(text, rc)


def test_kernel_charges_each_step():
    # GAMMA_WORK for each (gamma, beta) visited, the terms of each d^gamma q
    # formed and each batch of term pairs, each before the step is taken
    rc5 = RacahContext(5)
    w = weyl.GAMMA_WORK

    def a():
        return run("d1^2 d2 + u2", rc5)  # alpha (2,1,0) and (0,0,0)

    def b():
        return run("u1^3 u2 + u3 + k", rc5)  # 3 terms in one coefficient

    # d^(2,1,0) visits 6 gamma and d^0 one; d^gamma q keeps the 3 terms of b
    # at gamma = 0 and only u1^3 u2 at the other 5
    assert charged(lambda: a() * b()) == [6 * w, 3, 3] + [3, 1] * 5 + [w, 3]
    # a multiplication operator composes coefficient-wise, 3 pairs per beta
    assert charged(lambda: b() * a()) == [3, 3]
    # the commutator visits no gamma = 0, in either order
    assert charged(lambda: a().commutator(b())) == [5 * w] + [3, 1] * 5 + [0, 0]
    # each d^gamma q is formed once per right operand
    left, right = a(), b()
    left * right
    assert charged(lambda: left * right) == [6 * w, 3] + [1] * 5 + [w, 3]


def test_work_limit(monkeypatch, capsys):
    rc5 = RacahContext(5)
    base = "(u1+u2+u3+d1+d2+d3)"
    # base's six parts cost one unit each, the terms they add, and the
    # factors of base^4, from the identity, 6, 287, 968 and 2460 units: 3727
    # together; the fifth factor, which costs 5202, is refused part way
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 3727)
    assert run(base + "^4", rc5) == run(base, rc5) ** 4
    with pytest.raises(ParseError) as info:
        run(base + "^5", rc5)
    assert info.value.position is None
    assert str(info.value) == "an expression of 3759 units of work exceeds the limit 3727"
    # one budget for the whole expression: each power alone fits, not the sum
    for text in (
        base + "^3 " + base + "^2",
        "(" + base + "^4) " + base,
        "-" + base + "^6",
        base + "^4 + " + base + "^4",
        base + "^2 - " + base + "^4",
    ):
        with pytest.raises(ParseError, match="exceeds the limit 3727"):
            run(text, rc5)
    # atoms are built inside the budget too: C[1,2] alone costs 308 units
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 100)
    assert run_cli(["commute", "--n", "5", "--lhs", "C[1,2]", "--rhs", base + "^3"]) == 2
    assert "exceeds the limit 100" in capsys.readouterr().err
    assert run_cli(["normalize", "--n", "5", "--expr", "C[1,2]"]) == 2
    assert "exceeds the limit 100" in capsys.readouterr().err


def test_commute_work_limit(monkeypatch, capsys):
    # C[1,2] costs 308 units: 3 for the Euler operator's products u_l d_l, 272
    # for the kernel product A B, and its four parts one per coefficient term
    # pair: -f^2 (A B) 19 (f = 1, A B has 19 terms), (2 nu_2 f) P 4 (P = -E),
    # (2 nu_1 f) Q 5 (Q = d_1 - E) and s (s - 1) 5. The right side costs 299:
    # 6 for the six parts of its sum and 293 for its products. The commutator
    # costs 3708, all from the request's one budget: the whole fits a limit of
    # 4315, and one unit less refuses the commutator at its last step
    argv = ["commute", "--n", "5", "--lhs", "C[1,2]", "--rhs", "(u1+u2+u3+d1+d2+d3)^2"]
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 4315)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.strip()
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 4314)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a commute request of 4315 units of work exceeds the limit 4314\n"


def test_commute_sides_share_the_budget(monkeypatch, capsys):
    # the left side costs 90 units (3 for its sum's parts, 87 for its
    # products), the right 141 (its products 40 and 87, the parts of the sums
    # d1 - d2 and d1 + d2 + d3, 2 and 3, and the 3 and 6 terms of its two
    # squares, the parts of its outer sum) and the commutator of two u-free
    # operators none: either side fits the limit, the two together do not,
    # refused in a product of the right side
    argv = ["commute", "--n", "5", "--lhs", "(d1+d2+d3)^2", "--rhs", "(d1-d2)^2 + (d1+d2+d3)^2"]
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 200)
    for side in argv[4], argv[6]:
        assert run_cli(["normalize", "--n", "5", "--expr", side]) == 0
    capsys.readouterr()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a commute request of 222 units of work exceeds the limit 200\n"
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 231)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"


def test_commute_work_skips_cancelling_terms(monkeypatch, capsys):
    # the commutator forms no gamma = 0 Leibniz terms, so that of two u-free
    # operators costs nothing: the request costs only the terms of its sums'
    # parts, 3 on the left and 4 on the right (C[3] = nu3^2 - nu3 has 2)
    argv = ["commute", "--n", "5", "--lhs", "d1+d2+d3", "--rhs", "d2 + C[3] - k"]
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 7)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 6)
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ("error: a commute request of 7 units of work exceeds the"
                                       " limit 6\n")


def test_u_free_products_skip_the_expansion_cache(monkeypatch, capsys):
    # a product of u-free operators has gamma = 0 as its one expansion, taken
    # without the expansion cache; the work charged, and so where the
    # request is refused, stays the same: 3 for each side's sum of three
    # parts and 309939 for each side's power
    argv = ["commute", "--n", "5", "--lhs", "(d1+d2+d3)^40", "--rhs", "(d1+d2+d3)^40"]
    weyl._lower_exponents.cache_clear()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"
    assert weyl._lower_exponents.cache_info().misses == 0
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 619883)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a commute request of 619884 units of work exceeds the limit"
                            " 619883\n")
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 619884)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"


def test_refusal_leaves_the_context_sound(monkeypatch):
    # a refusal part way through an atom's build, a product or a sum leaves
    # the context's pair Casimirs, shape pieces, derivative tables and tree
    # values as sound as a fresh context's. The whole costs 4449 units, in
    # this order:
    # - C[{1,2,3}], 641: its pairs (1,2) 308 (as in test_commute_work_limit:
    #   the Euler operator 3, A B 272, then its assembly's parts 19, 4, 5 and
    #   5, so past 275, 294, 298 and 303), (1,3) 123 and (2,3) 100 (the Euler
    #   operator is formed once, and (2,3) reads the derivative table of
    #   step(3) that (1,3) formed), then the subset sum 110 from 531, one unit
    #   per coefficient term of C_12, C_13 and C_23 (33, 47 and 24, so past
    #   564, 611 and 635) and of the three singletons (2 each);
    # - the outer sum's parts, each charged its terms as it is added: 40 for
    #   C[{1,2,3}] (to 681), L1[4] 23 and then its 6 (to 710), C[1,2] C[2,3]
    #   3189 and then its 550 (to 4449).
    # 280, 300 and 306 land in the lead, Q and s (s - 1) parts of C_12's
    # assembly; 545, 600, 630 and 638 in the subset sum (C_12's, C_13's and
    # C_23's terms, the singletons); 660, 705 and 4448 in the outer sum
    parts = ["C[{1,2,3}]", "L1[4]", "C[1,2] C[2,3]"]
    fresh = [print_canonical(run(text, RacahContext(5))) for text in parts]
    for limit in (0, 100, 280, 300, 306, 545, 600, 630, 638, 660, 705, 1000, 2000, 3000, 3751,
                  4448):
        shared = RacahContext(5)
        with monkeypatch.context() as patch:
            patch.setattr(dsl, "MAX_PRODUCT_WORK", limit)
            with pytest.raises(ParseError, match=f"exceeds the limit {limit}$"):
                run(" + ".join(parts), shared)
        assert [print_canonical(run(text, shared)) for text in parts] == fresh


def test_budget_is_scoped_to_requests(monkeypatch):
    # only requests are charged: the suites and bare products run under any
    # limit, and a refused request leaves no charge behind
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 0)
    ctx = RacahContext(4)
    dm = ctx.dm
    for report in (
        check_sl_homomorphism(dm),
        check_generator_membership(dm),
        check_lemma1(dm),
        check_racah_structure(ctx),
        verify_embedding(ctx),
    ):
        assert report.ok()
    with pytest.raises(ParseError, match="exceeds the limit 0$"):
        run("u1 d1", ctx)
    assert weyl.CHARGE.get() is None
    a, b = ctx.c_pair(1, 2), ctx.c_pair(2, 3) * ctx.c_set((1, 3))
    assert a.commutator(b) == a * b - b * a


def _box(var: str, indices) -> str:
    """The product over i of (1 + x + ... + x^7), x = var_i."""
    return " ".join(
        "(" + " + ".join(["1"] + [f"{var}{i}^{e}" for e in range(1, 8)]) + ")" for i in indices
    )


def test_large_requests_end_within_one_budget(capsys, monkeypatch):
    # each is refused after at most one budget of work, about a second on a
    # 2-vCPU VM; the bound leaves room for a slow or busy host
    real = weyl._lower_exponents

    def listed(alpha, top):
        # no expansion list is built before its visits are charged
        assert math.prod(min(a, t) + 1 for a, t in zip(alpha, top)) <= 10**6
        return real(alpha, top)

    monkeypatch.setattr(weyl, "_lower_exponents", listed)
    for argv in (
        ["commute", "--n", "10", "--lhs", _box("d", range(1, 5)) + " + d5^7 d6^7 d7^7 d8^7",
         "--rhs", _box("u", range(5, 9)) + " + u1^7 u2^7 u3^7 u4^7"],
        ["commute", "--n", "12", "--lhs", _box("d", range(1, 6)),
         "--rhs", "u1^7 + u2^7 + u3^7 + u4^7 + u5^7"],
        ["normalize", "--n", "5", "--expr", "(u1+u2+u3+d1+d2+d3)^64"],
        # two cheap monomials whose product has 65^5 expansions: charged before
        # any is listed, so refused before the expansion cache fills memory
        ["commute", "--n", "7", "--lhs", "d1^64 d2^64 d3^64 d4^64 d5^64",
         "--rhs", "u1^64 u2^64 u3^64 u4^64 u5^64"],
    ):
        start = time.perf_counter()
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"units of work exceeds the limit {dsl.MAX_PRODUCT_WORK}\n")
    # the same pair with 3-variable boxes at n = 8 fits, with its known output
    argv = ["commute", "--n", "8", "--lhs", _box("d", range(1, 4)) + " + d4^7 d5^7 d6^7",
            "--rhs", _box("u", range(4, 7)) + " + u1^7 u2^7 u3^7"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ee1b3b095e6c2b22b41ea93f2a70495f2359cd917122c840c88d19bd99301005"
    )


def test_long_sums_are_charged(monkeypatch, capsys):
    # C[1,12] costs 1040 units to build and has 929 coefficient terms. Each
    # part of a sum is charged its terms as it is added, so the 3001-part sum
    # of the cached atom is refused at its 2152nd part, after 1040 + 2152 *
    # 929 = 2000248 units, and at a twentieth of the budget at its 107th,
    # after 100443; with sums uncharged it added all 3001 parts
    argv = ["normalize", "--n", "12", "--expr", " - ".join(["C[1,12]"] * 3001)]
    for limit, spent in ((dsl.MAX_PRODUCT_WORK, 2000248), (dsl.MAX_PRODUCT_WORK // 20, 100443)):
        monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", limit)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: an expression of {spent} units of work exceeds the"
                                f" limit {limit}\n")


@st.composite
def requests(draw):
    """A normalize or commute request over the grammar at n <= 12: symbols,
    generator and Casimir references, L blocks, boxes, sums, products and
    powers up to the exponent limit."""
    n = draw(st.integers(3, 12))
    var, factor, letter = st.integers(1, n - 2), st.integers(1, n), st.sampled_from("ud")
    subsets = st.lists(factor, min_size=1, max_size=n, unique=True)
    atoms = st.one_of(
        st.builds("{}{}".format, letter, var),
        st.sampled_from(["k", "E", "1/2"]),
        st.builds("nu{}".format, factor),
        st.lists(factor, min_size=2, max_size=2, unique=True).map("C[{0[0]},{0[1]}]".format),
        subsets.map(lambda a: "C[{" + ",".join(map(str, a)) + "}]"),
        st.builds("{}[{}]".format, st.sampled_from(["L1", "L2", "L3", "L4"]), st.integers(3, n)),
        st.builds(_box, letter, st.lists(var, min_size=1, max_size=n - 2, unique=True)),
    )
    if n > 3:
        pairs = st.integers(3, n - 1).flatmap(
            lambda j: st.builds("{},{}".format, st.integers(j + 1, n), st.just(j))
        )
        atoms |= st.builds("{}[{}]".format, st.sampled_from(["L5", "L6"]), pairs)
    exprs = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(" + ".join),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: "(" + ") (".join(ps) + ")"),
            st.builds("({})^{}".format, inner, st.integers(0, dsl.MAX_EXPONENT)),
        ),
        max_leaves=6,
    )
    if draw(st.booleans()):
        return ["normalize", "--n", str(n), "--expr", draw(exprs)]
    return ["commute", "--n", str(n), "--lhs", draw(exprs), "--rhs", draw(exprs)]


@settings(max_examples=20, deadline=None)
@given(requests())
# a long sum of one cached atom (see test_long_sums_are_charged)
@example(["normalize", "--n", "12", "--expr", " - ".join(["C[1,12]"] * 3001)])
def test_requests_answer_or_refuse(argv):
    # a twentieth of the budget keeps the test short; the bound is generous
    # against the at most 0.3 s that one refused request takes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "MAX_PRODUCT_WORK", dsl.MAX_PRODUCT_WORK // 20)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        assert time.perf_counter() - start < 10
    assert code in (0, 2), err.getvalue()
    assert (code == 2) == bool(err.getvalue()) == (not out.getvalue())


def test_recorded_requests_stay_under_the_work_limit(monkeypatch, capsys):
    # every request of the benchmark's query stream and of the README runs
    # with its recorded output, and no request's work comes near the limit
    queries = Path(__file__).resolve().parents[1] / "perfbench" / "queries.json"
    requests = json.loads(queries.read_text(encoding="utf-8"))
    readme = [
        ["normalize", "--n", "4", "--expr", "d1 u1 - u1 d1"],
        ["commute", "--n", "4", "--lhs", "T[2,1]", "--rhs", "d1"],
        ["matrix", "--n", "4", "--k", "2", "--nu", "1/2,3/2,5/2,7/2", "--op", "C[1,2]"],
    ]
    # the same lines as README.md writes them, with N = 4 and K = 2
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^weylracah (?:normalize|commute|matrix) .*$", text, re.MULTILINE)
    fixed = {"N": "4", "K": "2"}
    assert [[fixed.get(w, w) for w in shlex.split(line)[1:]] for line in lines] == readme
    budgets = []

    class Recorded(dsl._Budget):
        def __init__(self, what):
            super().__init__(what)
            budgets.append(self)

    # every request opens one budget, whose total spend is read after it
    monkeypatch.setattr(dsl, "_Budget", Recorded)
    for request in requests:
        assert run_cli(request["argv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == request["sha256"]
    for argv in readme:
        assert run_cli(argv) == 0
    assert len(budgets) == len(requests) + len(readme)
    assert 0 < max(budget.spent for budget in budgets) <= dsl.MAX_PRODUCT_WORK // 1000
