"""Fast paths of the arithmetic core, cross-checked against the direct path.

Coefficients are ints wherever they are integral, `WeylOp.commutator`
composes both orders without the Leibniz terms that cancel, and the racah
suite reads [C_A, C_B] from a table of pair commutators. Each test here
compares one of these against the plain definition.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_weyl
from weylracah import (
    Poly,
    RacahContext,
    Ring,
    SlElement,
    WeylOp,
    check_racah_structure,
    print_canonical,
)
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


def racah_rows(ctx: RacahContext, direct: bool) -> list[tuple]:
    """The racah report of ctx as (id, lhs, rhs, equal) rows; the direct
    path commutes the two subset Casimirs of each check in full."""
    if direct:
        ctx.set_commutator = lambda A, B: ctx.c_set(A).commutator(ctx.c_set(B))
    return [(c.id, c.lhs, c.rhs, c.equal) for c in check_racah_structure(ctx).checks]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_racah_table_matches_direct_path(n):
    assert racah_rows(RacahContext(n), False) == racah_rows(RacahContext(n), True)


def test_perturbed_pair_fails_the_same_checks_on_both_paths():
    # u1 d1 added to C_13 at n=4 breaks the cyclic triples through (1, 3):
    # those entries fall back to the table's own operators
    rows, contexts = {}, {}
    for direct in (False, True):
        ctx = contexts[direct] = RacahContext(4)
        u1_d1 = WeylOp.from_poly(ctx.ring.u(1)) * WeylOp.partial(ctx.ring, 1)
        ctx._pairs[(1, 3)] = (ctx.c_pair_lead(1, 3), ctx.c_pair(1, 3) + u1_d1)
        rows[direct] = racah_rows(ctx, direct)
    assert rows[False] == rows[True]
    assert any(not equal for _, _, _, equal in rows[False])
    assert False in contexts[False]._cyclic.values()


@pytest.mark.parametrize("n", range(3, 9))
def test_singleton_casimirs_are_u_free_multipliers(n):
    # the premise of the table: c_single(i) commutes with every operator
    ctx = RacahContext(n)
    for i in range(1, n + 1):
        op = ctx.c_single(i)
        assert list(op.terms) == [(0,) * ctx.ring.num_vars]
        assert op.terms[(0,) * ctx.ring.num_vars].is_u_free()
