"""The texts a report keeps for each check.

A passing check of two operators or two polynomials prints its lhs once and
keeps that text for its rhs; every other check prints each side. These
tests hold every text to the reference printer of `helpers` and count the
printer calls.
"""

import time
from collections import Counter

import pytest

from helpers import perturbed_context, reference_text
from weylracah import (
    RacahContext,
    Ring,
    SlElement,
    WeylOp,
    check_generator_membership,
    check_lemma1,
    check_racah_structure,
    check_sl_homomorphism,
    embed,
    printing,
    racah,
    sln,
    verify_embedding,
)
from weylracah.report import Report, timed_check


@pytest.fixture
def kept(monkeypatch):
    """Every check the suites run, with the operands its builder returned."""
    kept = []

    def keeping_check(check_id, description, build):
        box = []

        def keeping():
            box.append(build())
            return box[0]

        check = timed_check(check_id, description, keeping)
        kept.append((check, *box[0]))
        return check

    for module in (sln, racah, embed):
        monkeypatch.setattr(module, "timed_check", keeping_check)
    return kept


@pytest.fixture
def prints(monkeypatch):
    """Calls of the operator and polynomial printers."""
    counts = Counter()
    print_canonical, format_poly = printing.print_canonical, printing.format_poly

    def counted_print(op):
        counts["print_canonical"] += 1
        return print_canonical(op)

    def counted_format(p):
        counts["format_poly"] += 1
        return format_poly(p)

    monkeypatch.setattr(printing, "print_canonical", counted_print)
    monkeypatch.setattr(printing, "format_poly", counted_format)
    return counts


def assert_texts(kept):
    for check, lhs, rhs in kept:
        assert check.lhs == reference_text(lhs), check.id
        assert check.rhs == reference_text(rhs), check.id


@pytest.mark.parametrize("n", [4, 5])
def test_passing_suites_keep_reference_texts(n, kept, prints):
    ctx = RacahContext(n)
    reports = [
        check_sl_homomorphism(ctx.dm),
        check_generator_membership(ctx.dm),
        check_lemma1(ctx.dm),
        verify_embedding(ctx),
    ]
    if n == 4:
        reports.append(check_racah_structure(ctx))
    checks = [c for report in reports for c in report.checks]
    assert [c for c, _, _ in kept] == checks and all(c.equal for c in checks)
    assert_texts(kept)
    operators = sum(type(lhs) is type(rhs) is WeylOp for _, lhs, rhs in kept)
    # sln's checks compare operators and the sl brackets of basis pairs
    assert 0 < operators < len(kept)
    assert prints["print_canonical"] == operators


def test_failing_checks_print_their_rhs(kept, prints):
    report = check_racah_structure(perturbed_context(5))
    assert report.failed == 67
    assert_texts(kept)
    for check, lhs, rhs in kept:
        assert type(lhs) is type(rhs) is WeylOp
        if not check.equal:
            assert check.rhs != check.lhs
    assert prints["print_canonical"] == len(kept) + report.failed


def test_print_counts_per_check(prints):
    ring = Ring(2, 1)
    op = WeylOp.from_poly(ring.u(1)) * WeylOp.partial(ring, 2)
    other = op + WeylOp.partial(ring, 1)
    passing = timed_check("same", "", lambda: (op, op * 1))
    assert passing.equal and passing.lhs == passing.rhs == reference_text(op)
    assert prints == Counter(print_canonical=1)
    failing = timed_check("differ", "", lambda: (op, other))
    assert not failing.equal and failing.rhs == reference_text(other)
    assert prints == Counter(print_canonical=3)
    # equal sides of different types print each side
    prints.clear()
    zero = timed_check("zero", "", lambda: (WeylOp.zero(ring), 0))
    assert zero.equal and (zero.lhs, zero.rhs) == ("0", "0")
    p = ring.u(1) + ring.k()
    mixed = timed_check("mixed", "", lambda: (WeylOp.from_poly(p), p))
    assert mixed.equal and mixed.lhs == mixed.rhs == "u1 + k"
    assert prints == Counter(print_canonical=2, format_poly=1)
    polys = timed_check("polys", "", lambda: (p, p * 1))
    assert polys.equal and polys.rhs == "u1 + k"
    assert prints == Counter(print_canonical=2, format_poly=2)


def test_other_types_print_each_side(monkeypatch):
    texts = Counter()
    label = SlElement.label

    def counted_label(self):
        texts["sl"] += 1
        return label(self)

    monkeypatch.setattr(SlElement, "label", counted_label)
    x = SlElement.basis(3)[0]
    check = timed_check("sl", "", lambda: (x, x + x - x))
    assert check.equal and texts["sl"] == 2
    assert check.lhs == check.rhs == repr(x)
    check = timed_check("bool", "", lambda: (True, 1))
    assert check.equal and (check.lhs, check.rhs) == ("True", "1")


def test_time_excludes_printing(monkeypatch):
    print_canonical = printing.print_canonical

    def slow_print(op):
        time.sleep(0.05)
        return print_canonical(op)

    monkeypatch.setattr(printing, "print_canonical", slow_print)
    ring = Ring(2, 1)
    check = timed_check("slow", "", lambda: (WeylOp.partial(ring, 1), WeylOp.partial(ring, 2)))
    assert check.rhs == "d2" and check.ms < 50


def test_extend_keeps_checks_without_a_prefix():
    # a single suite's report takes the suite's frozen checks as they are;
    # a prefix makes renamed copies and leaves the suite's checks alone
    suite = check_racah_structure(perturbed_context(4))
    single, merged = Report("racah", {}), Report("all", {})
    single.extend(suite)
    merged.extend(suite, "racah:")
    assert all(a is b for a, b in zip(single.checks, suite.checks, strict=True))
    for a, b in zip(merged.checks, suite.checks, strict=True):
        assert a.id == f"racah:{b.id}" and a.ms == b.ms
        assert (a.description, a.lhs, a.rhs, a.equal) == (b.description, b.lhs, b.rhs, b.equal)
    assert not suite.checks[0].id.startswith("racah:")
