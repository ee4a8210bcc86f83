"""Weyl algebra: normal ordering, commutators, polynomial action."""

import random

import pytest

from helpers import random_poly, random_weyl
from weylracah import ContextMismatchError, DmContext, Ring, WeylOp


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
        assert composed.apply(probe) == (u1sq * probe).diff(1)
        assert claimed.apply(probe) == (u1sq * probe).diff(1)
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
