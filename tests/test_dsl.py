"""Expression grammar, elaboration, and the canonical printer."""

import hashlib
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from helpers import random_weyl
from weylracah import dsl
from weylracah import (
    ParseError,
    RacahContext,
    Rat,
    WeylOp,
    elaborate,
    parse,
    print_canonical,
    run_cli,
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
    assert parse("d1^64", rc).exponent == 64
    assert parse("d1^0064", rc).exponent == 64
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

    for text in nested(64):
        parse(text, rc)
    parse("-" * 64 + "u1 - " + "-" * 64 + "u1", rc)
    for depth in (65, 1000):
        for text in nested(depth):
            with pytest.raises(ParseError) as info:
                parse(text, rc)
            assert info.value.position == 64
            assert "limit 64" in str(info.value)
    assert run_cli(["normalize", "--n", "3", "--expr", nested(1000)[0]]) == 2
    assert "limit 64" in capsys.readouterr().err


def test_product_work_counts_leibniz_terms():
    rc5 = RacahContext(5)
    ring = rc5.ring
    a = run("d1^2 d2 + u2", rc5)  # alpha (2,1,0) and (0,0,0)
    b = run("u1^3 u2 + u3 + k", rc5)  # 3 terms, u-degrees (3,1,1)
    # d^gamma keeps the 3 terms of b at gamma = 0 and only u1^3 u2 at the
    # other 5 gamma <= (2,1,0)
    assert b.product_work(a) == 3 * 2
    assert a.product_work(b) == (3 + 5) + 3
    # start=1 leaves out gamma = 0, as the commutator's Leibniz loop does
    assert b.product_work(a, 1) == 0
    assert a.product_work(b, 1) == 5
    p, q = WeylOp.from_poly(ring.u(1) + ring.k()), WeylOp.from_poly(ring.u(2) - 1)
    assert p.product_work(q) == 2 * 2


def test_product_work_limit(monkeypatch, capsys):
    # the limit is lowered, so no over-limit product is ever attempted
    rc5 = RacahContext(5)
    base = "(u1+u2+u3+d1+d2+d3)"
    # the factors of base^4, from the identity, cost 6, 39, 150 and 438 term
    # pairs, 633 together; the fifth costs 1074
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 633)
    assert run(base + "^4", rc5) == run(base, rc5) ** 4
    with pytest.raises(ParseError) as info:
        run(base + "^5", rc5)
    assert info.value.position is None
    assert str(info.value) == "an expression of 1707 coefficient term pairs exceeds the limit 633"
    # one budget for the whole expression: each power alone fits, not the sum
    for text in (
        base + "^3 " + base + "^2",
        "(" + base + "^4) " + base,
        "-" + base + "^6",
        base + "^4 + " + base + "^4",
        base + "^2 - " + base + "^4",
    ):
        with pytest.raises(ParseError, match="exceeds the limit 633"):
            run(text, rc5)
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 100)
    assert run_cli(["commute", "--n", "5", "--lhs", "C[1,2]", "--rhs", base + "^3"]) == 2
    assert "exceeds the limit 100" in capsys.readouterr().err
    assert run_cli(["normalize", "--n", "5", "--expr", "C[1,2] C[2,3]"]) == 2
    assert "exceeds the limit 100" in capsys.readouterr().err


def test_commute_work_limit(monkeypatch, capsys):
    # both products of the commutator count against the request's one
    # budget, after the 6 + 39 pairs of the two factors of the right side's
    # square; over it the commutator is never composed
    argv = ["commute", "--n", "5", "--lhs", "C[1,2]", "--rhs", "(u1+u2+u3+d1+d2+d3)^2"]
    rc5 = RacahContext(5)
    lhs, rhs = run("C[1,2]", rc5), run("(u1+u2+u3+d1+d2+d3)^2", rc5)
    assert lhs.product_work(rhs, 1) + rhs.product_work(lhs, 1) == 333
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 45 + 333)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.strip()

    def refuse(self, other):
        raise AssertionError("over-limit commutator composed")

    monkeypatch.setattr(WeylOp, "commutator", refuse)
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 45 + 332)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a commute request of 378 coefficient term pairs exceeds the limit 377\n"
    )


def test_commute_sides_share_the_budget(monkeypatch, capsys):
    # the left side costs 3 + 9 term pairs, the right 2 + 4 + 3 + 9, and the
    # commutator of two u-free operators none: either side fits the limit,
    # the two together do not, refused at the third product of the right side
    argv = ["commute", "--n", "5", "--lhs", "(d1+d2+d3)^2", "--rhs", "(d1-d2)^2 + (d1+d2+d3)^2"]
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 20)
    for side in argv[4], argv[6]:
        assert run_cli(["normalize", "--n", "5", "--expr", side]) == 0
    capsys.readouterr()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an expression of 21 coefficient term pairs exceeds the limit 20\n"
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 30)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"


def test_commute_work_skips_cancelling_terms(monkeypatch, capsys):
    # the commutator forms no gamma = 0 Leibniz terms, so two u-free
    # operators cost nothing, whatever the limit
    monkeypatch.setattr(dsl, "MAX_PRODUCT_WORK", 0)
    argv = ["commute", "--n", "5", "--lhs", "d1+d2+d3", "--rhs", "d2 + C[3] - k"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "0\n"


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
    spent = []
    product_work = WeylOp.product_work

    def recording(self, other, start=0):
        work = product_work(self, other, start)
        spent[-1] += work
        return work

    # the total over every product and commutator bound of one request
    monkeypatch.setattr(WeylOp, "product_work", recording)
    for request in requests:
        spent.append(0)
        assert run_cli(request["argv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == request["sha256"]
    for argv in readme:
        spent.append(0)
        assert run_cli(argv) == 0
    assert 0 < max(spent) <= dsl.MAX_PRODUCT_WORK // 1000
