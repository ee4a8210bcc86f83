"""Weyl algebra: normal ordering, commutators, polynomial action."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import diff, random_poly, random_weyl
from weylracah import (
    ContextMismatchError,
    DmContext,
    MonomialOverflowError,
    Poly,
    RacahContext,
    Ring,
    WeylOp,
    elaborate,
    parse,
)
from weylracah.poly import MAX_DEGREE
from weylracah.weyl import _lower_exponents


@pytest.fixture
def ring():
    return Ring(2, 0)


def u_op(ring, i):
    return WeylOp.from_poly(ring.u(i))


def test_add_cancels(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1 + (-d1) == WeylOp.zero(ring)


def test_add_merges_terms():
    ctx = DmContext(2)
    ring = ctx.ring
    u1d1 = ring.u(1) * WeylOp.partial(ring, 1)
    assert u1d1 + ctx.euler_op() == 2 * u1d1 - ring.k()


def test_add_identity(ring):
    a = random_weyl(random.Random(3), ring)
    assert a + WeylOp.zero(ring) == a


def test_mul_weyl_relation(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1 * u_op(ring, 1) == ring.u(1) * d1 + 1


def test_mul_second_power_coefficient(ring):
    # independent oracle: compose, then act on 1, u1, u1^2, u1^3
    d1 = WeylOp.partial(ring, 1)
    u1sq = ring.u(1) ** 2
    composed = d1 * WeylOp.from_poly(u1sq)
    claimed = u1sq * d1 + 2 * ring.u(1)
    for power in range(4):
        probe = ring.u(1) ** power
        assert composed.apply(probe) == diff(u1sq * probe, 1)
        assert claimed.apply(probe) == diff(u1sq * probe, 1)
    assert composed == claimed


def test_mul_already_normal(ring):
    d1 = WeylOp.partial(ring, 1)
    assert u_op(ring, 1) * d1 == WeylOp(ring, {(1, 0): ring.u(1)})


def test_commutator_disjoint_indices(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1.commutator(u_op(ring, 2)) == WeylOp.zero(ring)


def test_commutator_alternating(ring):
    a = random_weyl(random.Random(5), ring)
    assert a.commutator(a) == WeylOp.zero(ring)


def test_commutator_raising_generator():
    # [u_B Euler, d_alpha] = -u_B d_alpha - delta Euler
    ctx = DmContext(3)
    ring = ctx.ring
    for B in ((1,), (2,), (1, 2)):
        u_b = ring.u_sum(B)
        for alpha in (1, 2):
            lhs = (u_b * ctx.euler_op()).commutator(WeylOp.partial(ring, alpha))
            delta = 1 if alpha in B else 0
            assert lhs == -(u_b * WeylOp.partial(ring, alpha)) - delta * ctx.euler_op()


def test_apply_euler_to_constant():
    ctx = DmContext(3)
    assert ctx.euler_op().apply(ctx.ring.one()) == -ctx.ring.k()


def test_apply_partial(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1.apply(ring.u(1) * ring.u(2)) == ring.u(2)


def test_apply_pair_casimir_closed_form():
    from weylracah import RacahContext

    rc = RacahContext(4)
    s = rc.ring.k() + rc.ring.nu(1) + rc.ring.nu(2)
    assert rc.c_pair(1, 2).apply(rc.ring.one()) == s * (s - 1)


def test_equality_weyl_relation(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1 * u_op(ring, 1) == ring.u(1) * d1 + 1
    assert not (ring.u(1) * WeylOp.partial(ring, 1) == ring.u(1) * WeylOp.partial(ring, 2))


def test_canonical_weyl_relations(ring):
    one = WeylOp.identity(ring)
    zero = WeylOp.zero(ring)
    for i in (1, 2):
        di = WeylOp.partial(ring, i)
        for j in (1, 2):
            dj = WeylOp.partial(ring, j)
            uj = u_op(ring, j)
            assert di.commutator(uj) == (one if i == j else zero)
            assert di.commutator(dj) == zero
            assert u_op(ring, i).commutator(uj) == zero


def test_scalars_live_in_the_algebra(ring):
    s = WeylOp.scalar(ring, 5)
    a = random_weyl(random.Random(9), ring)
    assert s * a == 5 * a
    assert s.commutator(a) == WeylOp.zero(ring)


def test_associativity_sample(ring):
    rng = random.Random(13)
    for _ in range(50):
        a = random_weyl(rng, ring)
        b = random_weyl(rng, ring)
        c = random_weyl(rng, ring)
        assert (a * b) * c == a * (b * c)


def test_module_action_compatibility(ring):
    rng = random.Random(17)
    for _ in range(50):
        a = random_weyl(rng, ring)
        b = random_weyl(rng, ring)
        p = random_poly(rng, ring)
        assert (a * b).apply(p) == a.apply(b.apply(p))


def test_leibniz_consistency(ring):
    # d^alpha composed with multiplication by p acts like d^alpha(p q)
    rng = random.Random(19)
    for _ in range(50):
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        for alpha in ((1, 0), (0, 1), (2, 0), (1, 1)):
            d_alpha = WeylOp(ring, {alpha: ring.one()})
            composed = d_alpha * WeylOp.from_poly(p)
            assert composed.apply(q) == (p * q).diff_multi(alpha)


def test_dimension_mismatch(ring):
    other = Ring(3, 0)
    with pytest.raises(ContextMismatchError):
        WeylOp.partial(ring, 1) + WeylOp.partial(other, 1)
    with pytest.raises(ContextMismatchError):
        WeylOp.partial(ring, 1) * WeylOp.partial(other, 1)
    with pytest.raises(ContextMismatchError):
        WeylOp.partial(ring, 1).apply(other.u(1))


def test_constructor_rejects_bad_exponents(ring):
    # a float exponent would only fail later, inside apply's shifts
    for alpha in ((1.0, 0), (0, -1), (1,), ("1", 0)):
        with pytest.raises(ValueError, match="bad derivative exponent"):
            WeylOp(ring, {alpha: 1})
    assert WeylOp(ring, {(1, 0): 1}) == WeylOp.partial(ring, 1)


def test_apply_overflow_checks_only_the_terms_it_keeps(ring):
    # d2 kills the top-degree term of p, so the old two-step path
    # u1^2 * p.diff_multi((0, 1)) multiplies u1^2 by 1 and raises nothing;
    # a check against p's own leading degree would raise here
    u1, u2 = ring.u(1), ring.u(2)
    p = u1**MAX_DEGREE + u2
    op = WeylOp(ring, {(0, 1): u1**2})
    assert op.apply(p) == u1**2 == u1**2 * p.diff_multi((0, 1))
    # a kept term that lands on the limit passes
    at_limit = WeylOp(ring, {(0, 1): u1})
    assert at_limit.apply(u2**MAX_DEGREE + u1) == MAX_DEGREE * u1 * u2 ** (MAX_DEGREE - 1)
    # one past it raises, with the message of the product it stands for
    with pytest.raises(MonomialOverflowError) as expected:
        u1**2 * (u2**MAX_DEGREE).diff_multi((0, 1))
    with pytest.raises(MonomialOverflowError, match=f"degree {MAX_DEGREE + 1} exceeds") as raised:
        op.apply(u2**MAX_DEGREE + u1)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(MonomialOverflowError):  # a multiplication operator keeps every term
        WeylOp.from_poly(u1).apply(p)


def test_leibniz_overflow_checks_only_the_pairs_it_forms(ring, monkeypatch):
    # a product forms every term pair at gamma = 0, where d^gamma q is q
    # itself, so a pair whose every formed derivative vanishes needs a
    # commutator, which leaves gamma = 0 out
    u1, u2 = ring.u(1), ring.u(2)
    top = u1**MAX_DEGREE
    a, b = WeylOp(ring, {(1, 0): top}), WeylOp(ring, {(0, 0): u2, (0, 1): u1})
    commutator = WeylOp(ring, {(0, 1): top})
    checks = []
    check_product = Ring.check_product

    def counted(self, m1, m2):
        checks.append((m1, m2))
        return check_product(self, m1, m2)

    monkeypatch.setattr(Ring, "check_product", counted)
    # u1^MAX u2 passes the limit, but d1 u2 vanishes, so that pair is never
    # checked; the pair with d1 u1 = 1 lands exactly on the limit
    assert a.commutator(b) == commutator
    assert len(checks) == 1
    with pytest.raises(MonomialOverflowError):
        a * b
    # a product pair at the limit passes
    at_limit = WeylOp(ring, {(1, 0): u1 ** (MAX_DEGREE - 1)}) * u1
    assert at_limit == WeylOp(ring, {(1, 0): top, (0, 0): u1 ** (MAX_DEGREE - 1)})
    # one past it raises, with the message of the Poly product it stands for:
    # d2 (u1 u2) = u1 meets u1^MAX, degree MAX + 1, though u1^MAX u1 u2 has MAX + 2
    with pytest.raises(MonomialOverflowError) as expected:
        top * (u1 * u2).diff_multi((0, 1))
    with pytest.raises(MonomialOverflowError, match=f"degree {MAX_DEGREE + 1} exceeds") as raised:
        WeylOp(ring, {(0, 1): top}).commutator(u1 * u2)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(MonomialOverflowError) as expected:
        top * u1
    with pytest.raises(MonomialOverflowError) as raised:
        a * u1
    assert str(raised.value) == str(expected.value)


def test_multiplication_operator_overflow_matches_kernel(ring, monkeypatch):
    # the coefficient-wise product checks the pairs the kernel checks, in the
    # kernel's order, and raises at the same pair with the same text: the
    # lead u2^2 meets u1^(MAX - 1) at degree MAX + 1 before u1^MAX at MAX + 2
    u1, u2 = ring.u(1), ring.u(2)
    p = u1 + u2**2
    left = WeylOp.from_poly(p)
    other = WeylOp(ring, {(0, 0): u2, (1, 0): u1 ** (MAX_DEGREE - 1), (0, 1): u1**MAX_DEGREE})
    checks = []
    check_product = Ring.check_product

    def counted(self, m1, m2):
        checks.append((m1, m2))
        return check_product(self, m1, m2)

    monkeypatch.setattr(Ring, "check_product", counted)
    message = f"degree {MAX_DEGREE + 1} exceeds"
    with pytest.raises(MonomialOverflowError, match=message) as expected:
        left._leibniz(other, 0)
    kernel_checks = checks[:]
    checks.clear()
    for product in (lambda: left * other, lambda: p * other):
        with pytest.raises(MonomialOverflowError) as raised:
            product()
        assert str(raised.value) == str(expected.value)
        assert checks == kernel_checks and len(checks) == 2
        checks.clear()
    # a pair that lands on the limit passes, as in the kernel
    at_limit = WeylOp(ring, {(1, 0): u1 ** (MAX_DEGREE - 1)})
    assert u2 * at_limit == WeylOp.from_poly(u2)._leibniz(at_limit, 0)


def test_cached_derivative_still_checks_overflow(ring):
    # a harmless product fills b's table with d2 (u1 u2) = u1; a left operand
    # of top degree that meets the cached u1 raises the text of its product
    u1, u2 = ring.u(1), ring.u(2)
    top = u1**MAX_DEGREE
    b = WeylOp.from_poly(u1 * u2)
    assert WeylOp(ring, {(0, 1): u1}) * b == WeylOp(ring, {(0, 1): u1**2 * u2, (0, 0): u1**2})
    assert ((0, 0), (0, 1)) in b._derivs
    with pytest.raises(MonomialOverflowError) as expected:
        top * (u1 * u2).diff_multi((0, 1))
    with pytest.raises(MonomialOverflowError, match=f"degree {MAX_DEGREE + 1} exceeds") as raised:
        WeylOp(ring, {(0, 1): top}).commutator(b)
    assert str(raised.value) == str(expected.value)


def test_cached_vanishing_derivative_costs_no_check(ring, monkeypatch):
    # d1 u2 = 0 is cached by a first commutator; the second call still
    # forms no pair with it, and checks only the pair with d1 u1 = 1
    u1, u2 = ring.u(1), ring.u(2)
    top = u1**MAX_DEGREE
    b = WeylOp(ring, {(0, 0): u2, (0, 1): u1})
    WeylOp(ring, {(1, 0): u1}).commutator(b)
    assert b._derivs[(0, 0), (1, 0)] == ({}, -1)
    checks = []
    check_product = Ring.check_product

    def counted(self, m1, m2):
        checks.append((m1, m2))
        return check_product(self, m1, m2)

    monkeypatch.setattr(Ring, "check_product", counted)
    assert WeylOp(ring, {(1, 0): top}).commutator(b) == WeylOp(ring, {(0, 1): top})
    assert len(checks) == 1


def test_subs_rejects_variables(ring):
    ring2 = Ring(2, 1)
    op = ring2.nu(1) * WeylOp.partial(ring2, 1)
    assert op.subs({"nu1": 3}) == 3 * WeylOp.partial(ring2, 1)
    with pytest.raises(ValueError):
        op.subs({"u1": 1})


def test_pow(ring):
    d1 = WeylOp.partial(ring, 1)
    assert d1**0 == WeylOp.identity(ring)
    assert d1**3 == WeylOp(ring, {(3, 0): ring.one()})
    # powers by squaring against repeated composition
    rng = random.Random(20244)
    ring = Ring(2, 1)
    for _ in range(20):
        op = random_weyl(rng, ring)
        expected = WeylOp.identity(ring)
        for n in range(6):
            assert op**n == expected, (op, n)
            expected = expected * op


small_vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(small_vectors, small_vectors, small_vectors)
def test_expansions_read_only_the_bound_below_alpha(alpha, top, extra):
    # a bound capped at any c >= alpha lists the same expansions: the kernel
    # reads min(alpha_i, top_i) alone, so its bound needs no cap from the left
    width = min(len(alpha), len(top), len(extra))
    alpha, top = tuple(alpha[:width]), tuple(top[:width])
    cap = tuple(a + e for a, e in zip(alpha, extra))
    capped = tuple(map(min, top, cap))
    assert _lower_exponents(alpha, top) == _lower_exponents(alpha, capped)
    if not any(map(min, alpha, top)):
        # the one expansion that the kernel's u-free shortcut takes
        assert _lower_exponents(alpha, top) == (((0,) * width, 1, alpha),)


def test_leibniz_terms_bounded_by_right_degree(monkeypatch):
    # d^gamma of a coefficient with gamma_i above its degree in u_i is never formed
    ctx = RacahContext(5)
    calls = []
    diff_multi = Poly.diff_multi

    def counted(self, orders):
        calls.append(orders)
        return diff_multi(self, orders)

    monkeypatch.setattr(Poly, "diff_multi", counted)
    got = elaborate(parse("(d1 d2 d3)^64 u1", ctx), ctx)
    assert len(calls) <= 1
    assert got == WeylOp(ctx.ring, {(64, 64, 64): ctx.ring.u(1), (63, 64, 64): 64})
