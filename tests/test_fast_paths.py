"""Fast paths of the arithmetic core, cross-checked against the direct path.

Coefficients are ints wherever they are integral, and `WeylOp.commutator`
composes both orders without the Leibniz terms that cancel. Each test here
compares one of these against the plain definition.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_weyl
from weylracah import Poly, RacahContext, Ring, SlElement, WeylOp, print_canonical
from weylracah.sln import euler_tree, nonempty_subsets


@pytest.fixture(scope="module")
def rc5():
    return RacahContext(5)


def coefficients(op: WeylOp):
    return [c for p in op.terms.values() for c in p.terms.values()]


def as_fractions(op: WeylOp) -> WeylOp:
    """The same operator with every coefficient stored as a Fraction."""
    ring = op.ring
    return WeylOp(
        ring,
        {
            alpha: Poly(ring, {m: Fraction(c) for m, c in p.terms.items()}, _trusted=True)
            for alpha, p in op.terms.items()
        },
        _trusted=True,
    )


def test_subset_commutators_match_direct_path(rc5):
    # all 496 unordered subset pairs at n=5, including the 195 with a nonzero
    # commutator: a fast path that returned zero would fail those
    subsets = nonempty_subsets(rc5.n)
    nonzero = 0
    for pos, A in enumerate(subsets):
        a = rc5.c_set(A)
        for B in subsets[pos:]:
            b = rc5.c_set(B)
            fast = a.commutator(b)
            assert fast == a * b - b * a, (A, B)
            nonzero += bool(fast)
    assert len(subsets) * (len(subsets) + 1) // 2 == 496
    assert nonzero == 195


def test_commutator_with_poly_and_scalar_operands(rc5):
    ring = rc5.ring
    op = rc5.c_pair(2, 4)
    p = ring.u(1) * ring.u(2) - 3 * ring.nu(4)
    assert op.commutator(p) == op * p - p * op
    assert op.commutator(p) == -WeylOp.from_poly(p).commutator(op)
    assert WeylOp.partial(ring, 1).commutator(ring.u(1)) == WeylOp.identity(ring)
    for scalar in (0, 5, Fraction(-3, 7)):
        assert op.commutator(scalar) == WeylOp.zero(ring)
    with pytest.raises(TypeError):
        op.commutator("u1")


def test_casimir_and_image_coefficients_are_ints(rc5):
    ops = [rc5.c_pair(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    ops += [rc5.c_set(A) for A in nonempty_subsets(5)]
    dm = rc5.dm
    basis = SlElement.basis(dm.m)
    ops += [dm.sigma(x) for x in basis]
    for op in ops:
        assert all(type(c) is int for c in coefficients(op))
    for x in basis:
        for y in basis:
            assert all(type(c) is int for c in x.bracket(y).terms.values())


def test_fractions_stay_where_needed(rc5):
    scalar = euler_tree(rc5.dm).parts[0].value
    assert scalar.constant_value() == Fraction(-1, 4)
    assert type(scalar.constant_value()) is Fraction
    ring = Ring(2, 1)
    two = ring.const(Fraction(6, 3))
    assert type(two.constant_value()) is int and two.constant_value() == 2
    assert type(ring.const("4/2").constant_value()) is int
    assert type(ring.const(Fraction(1, 2)).constant_value()) is Fraction
    with pytest.raises(TypeError):
        ring.const(0.5)


def test_int_coefficients_match_fraction_reference(rc5):
    # products and commutators with every coefficient stored as a Fraction
    # equal, hash and print like the int-first ones
    rng = random.Random(6)
    pairs = [(rc5.c_set((1, 2)), rc5.c_set((2, 3))), (rc5.c_set((1, 2, 3)), rc5.c_pair(3, 5))]
    pairs += [(random_weyl(rng, rc5.ring), random_weyl(rng, rc5.ring)) for _ in range(20)]
    for a, b in pairs:
        fa, fb = as_fractions(a), as_fractions(b)
        for fast, reference in ((a * b, fa * fb), (a.commutator(b), fa.commutator(fb))):
            assert fast == reference
            assert print_canonical(fast) == print_canonical(reference)
            assert all(hash(p) == hash(reference.terms[alpha]) for alpha, p in fast.terms.items())
