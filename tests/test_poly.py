"""Coefficient ring: construction, arithmetic, derivatives, substitution."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import random_poly
from weylracah import ContextMismatchError, Rat, Ring


@pytest.fixture
def ring():
    return Ring(2, 2)


def test_add_cancellation(ring):
    u1 = ring.u(1)
    assert (u1 + 1) + (-u1) == ring.one()


def test_add_identity(ring):
    p = ring.u(1) * ring.u(2) - ring.k()
    assert ring.zero() + p == p


def test_add_merges_like_terms(ring):
    ku1 = ring.k() * ring.u(1)
    assert ku1 + ku1 == 2 * ku1


def test_mul_binomial_square(ring):
    u1 = ring.u(1)
    left = (1 - u1) * (1 - u1)
    assert left == 1 - 2 * u1 + u1 * u1


def test_mul_absorbing_zero(ring):
    p = ring.u(1) + ring.nu(2) * ring.u(2)
    assert p * ring.zero() == ring.zero()
    assert not p * ring.zero()


def test_mul_nu_pair_expansion(ring):
    # hand expansion: (a+b)(a+b-1) = a^2 + 2ab + b^2 - a - b
    nu1, nu2 = ring.nu(1), ring.nu(2)
    product = (nu1 + nu2) * (nu1 + nu2 - 1)
    expected = nu1 * nu1 + 2 * nu1 * nu2 + nu2 * nu2 - nu1 - nu2
    assert product == expected


def test_pow_matches_repeated_mul(ring):
    p = 1 - ring.u(1) + ring.k()
    assert p**3 == p * p * p
    assert p**0 == ring.one()


def test_diff_power_rule(ring):
    p = ring.u(1) ** 2 * ring.u(2)
    assert p.diff(1) == 2 * ring.u(1) * ring.u(2)


def test_diff_independent_variable(ring):
    p = ring.k() * ring.u(1)
    assert p.diff(2) == ring.zero()


def test_diff_linear_chain(ring):
    p = (1 - ring.u(1)) ** 2
    assert p.diff(1) == -2 * (1 - ring.u(1))


def test_diff_rejects_parameter_index(ring):
    with pytest.raises(ValueError):
        ring.one().diff(3)
    with pytest.raises(ValueError):
        ring.one().diff(0)
    with pytest.raises(ValueError):
        ring.one().diff_multi((0, 0, 1))


def test_subs_parameter(ring):
    p = ring.k() + ring.u(1)
    assert p.subs({"k": 2}) == 2 + ring.u(1)


def test_subs_nu_pair_value(ring):
    nu1, nu2 = ring.nu(1), ring.nu(2)
    p = (nu1 + nu2) * (nu1 + nu2 - 1)
    assert p.subs({"nu1": Rat(1, 2), "nu2": Rat(3, 2)}) == ring.const(2)


def test_subs_empty_assignment(ring):
    p = random_poly(random.Random(7), ring)
    assert p.subs({}) == p


def test_subs_unknown_key(ring):
    with pytest.raises(ValueError):
        ring.one().subs({"nu9": 1})


def test_subs_accepts_fractions_and_strings(ring):
    p = ring.nu(1) * ring.u(1)
    assert p.subs({"nu1": Fraction(1, 2)}) == p.subs({"nu1": "1/2"})


def test_context_mismatch(ring):
    other = Ring(3, 2)
    with pytest.raises(ContextMismatchError):
        ring.u(1) + other.u(1)
    with pytest.raises(ContextMismatchError):
        ring.u(1) * other.u(1)


def test_canonical_zero(ring):
    p = random_poly(random.Random(11), ring)
    assert p - p == ring.zero()
    assert not (p - p)


def test_construction_order_irrelevant(ring):
    u1, u2, k = ring.u(1), ring.u(2), ring.k()
    a = (u1 + u2) * k - u1 * k
    b = k * u2
    assert a == b


def test_no_zero_coefficients_stored(ring):
    p = ring.u(1) - ring.u(1) + ring.k()
    assert all(c for c in p.terms.values())
    assert len(p.terms) == 1


def test_degree_helpers(ring):
    p = ring.u(1) ** 2 * ring.nu(1) + ring.k() ** 4
    assert p.total_degree() == 4
    assert p.u_degree() == 2
    assert not p.is_u_free()
    assert (ring.k() * ring.nu(2)).is_u_free()


def test_constant_value(ring):
    assert ring.const(Rat(3, 4)).constant_value() == Rat(3, 4)
    assert ring.zero().constant_value() == 0
    with pytest.raises(ValueError):
        (ring.u(1) + 1).constant_value()
    with pytest.raises(TypeError):
        ring.const(0.1)


def test_ring_axioms_bulk():
    # 1000 random triples, degree <= 4, at most 3 variables
    rng = random.Random(20240)
    ring = Ring(3, 1)
    for _ in range(1000):
        p = random_poly(rng, ring, max_degree=4, max_terms=3)
        q = random_poly(rng, ring, max_degree=4, max_terms=3)
        r = random_poly(rng, ring, max_degree=4, max_terms=3)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_derivation_rule_bulk():
    rng = random.Random(20241)
    ring = Ring(2, 1)
    for _ in range(300):
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        for i in (1, 2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def iterated_diff(p, orders):
    """Reference for diff_multi: orders[i] single derivatives in u_{i+1}."""
    for pos, times in enumerate(orders):
        for _ in range(times):
            p = p.diff(pos + 1)
    return p


def test_diff_multi_matches_iterated_diff():
    rng = random.Random(20243)
    ring = Ring(3, 1)
    for _ in range(60):
        p = random_poly(rng, ring, max_degree=6, max_terms=5)
        for orders in itertools.product(range(4), repeat=3):
            assert p.diff_multi(orders) == iterated_diff(p, orders), (p, orders)
