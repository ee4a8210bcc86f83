"""sl realization: generators, isomorphism, membership identities."""

import random

import pytest

from helpers import random_rational, sl_from_matrix

from weylracah import (
    DmContext,
    OpMatrix,
    Rat,
    SlElement,
    WeylOp,
    check_generator_membership,
    check_lemma1,
    check_sl_homomorphism,
)
from weylracah.sln import evaluate, u_euler_tree, u_partial_tree


@pytest.fixture
def ctx3():
    return DmContext(3)


def test_t_op_lowering(ctx3):
    assert ctx3.t_op(1, 3) == -WeylOp.partial(ctx3.ring, 1)


def test_t_op_raising(ctx3):
    ring = ctx3.ring
    expected = ring.u(2) * (ring.u(1) * WeylOp.partial(ring, 1) + ring.u(2) * WeylOp.partial(ring, 2) - ring.k())
    assert ctx3.t_op(3, 2) == expected


def test_t_op_rotation(ctx3):
    assert ctx3.t_op(1, 2) == -(ctx3.ring.u(2) * WeylOp.partial(ctx3.ring, 1))


def test_t_op_errors(ctx3):
    with pytest.raises(ValueError):
        ctx3.t_op(1, 1)
    with pytest.raises(ValueError):
        ctx3.t_op(0, 2)
    with pytest.raises(ValueError):
        ctx3.t_op(1, 4)


def test_ttilde_rank_two():
    ctx = DmContext(2)
    ring = ctx.ring
    assert ctx.ttilde_op(1) == -2 * (ring.u(1) * WeylOp.partial(ring, 1)) + ring.k()


def test_ttilde_on_constant(ctx3):
    assert ctx3.ttilde_op(1).apply(ctx3.ring.one()) == ctx3.ring.k()


def test_ttilde_expansion(ctx3):
    ring = ctx3.ring
    u1d1 = ring.u(1) * WeylOp.partial(ring, 1)
    u2d2 = ring.u(2) * WeylOp.partial(ring, 2)
    assert ctx3.ttilde_op(2) == -u2d2 - u1d1 - u2d2 + ring.k()


def test_ttilde_errors(ctx3):
    with pytest.raises(ValueError):
        ctx3.ttilde_op(0)
    with pytest.raises(ValueError):
        ctx3.ttilde_op(3)


def test_euler_from_ttilde_rank_two():
    ctx = DmContext(2)
    assert Rat(-1, 2) * (WeylOp.from_poly(ctx.ring.k()) + ctx.ttilde_op(1)) == ctx.euler_op()


def test_euler_scales_monomials(ctx3):
    ring = ctx3.ring
    mono = ring.u(1) * ring.u(2)
    assert ctx3.euler_op().apply(mono) == (2 - ring.k()) * mono
    assert ctx3.euler_op().apply(ring.one()) == -ring.k()


def test_sigma_generators(ctx3):
    assert ctx3.sigma(SlElement.E(3, 1, 2)) == ctx3.t_op(1, 2)
    # the diagonal difference diag(1, 0, -1) is H(1) in the chosen basis
    diag = sl_from_matrix(3, [[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    assert diag == SlElement.H(3, 1)
    assert ctx3.sigma(diag) == ctx3.ttilde_op(1)
    assert ctx3.sigma(SlElement(3, {})) == WeylOp.zero(ctx3.ring)


def test_sigma_wrong_rank(ctx3):
    with pytest.raises(ValueError):
        ctx3.sigma(SlElement.E(4, 1, 2))


def test_bracket_from_matrix_units():
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, diagonal re-expressed in H
    m = 3
    units = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                units[(i, j)] = SlElement.E(m, i, j)
    assert units[(1, 2)].bracket(units[(2, 3)]) == units[(1, 3)]
    assert units[(1, 2)].bracket(units[(1, 3)]) == SlElement(m, {})
    assert units[(1, 3)].bracket(units[(3, 1)]) == SlElement.H(m, 1)
    assert units[(1, 2)].bracket(units[(2, 1)]) == SlElement.H(m, 1) - SlElement.H(m, 2)


def test_from_matrix_rejects_trace(ctx3):
    with pytest.raises(ValueError):
        sl_from_matrix(2, [[Rat(1), Rat(0)], [Rat(0), Rat(0)]])
    # floats are not exact coefficients, however they enter
    with pytest.raises(TypeError):
        sl_from_matrix(2, [[0.5, 0], [0, -0.5]])
    with pytest.raises(TypeError):
        SlElement(3, {("E", 1, 2): 0.1})
    with pytest.raises(TypeError):
        0.5 * SlElement.E(3, 1, 2)


def test_rank_two_bracket_is_ttilde():
    ctx = DmContext(2)
    lhs = ctx.sigma(SlElement.E(2, 1, 2)).commutator(ctx.sigma(SlElement.E(2, 2, 1)))
    assert lhs == ctx.ttilde_op(1)


def test_homomorphism_small_ranks():
    for m in (2, 3):
        report = check_sl_homomorphism(DmContext(m))
        assert report.failed == 0
        assert report.passed == (m * m - 1) ** 2


def test_u_set_euler(ctx3):
    ring = ctx3.ring
    assert evaluate(u_euler_tree(ctx3, [1]), ctx3) == ring.u(1) * ctx3.euler_op()
    assert evaluate(u_euler_tree(ctx3, [1, 2]), ctx3) == (ring.u(1) + ring.u(2)) * ctx3.euler_op()


def test_u_set_partial_examples(ctx3):
    ring = ctx3.ring
    assert evaluate(u_partial_tree(ctx3, [1], 1), ctx3) == ring.u(1) * WeylOp.partial(ring, 1)
    assert evaluate(u_partial_tree(ctx3, [2], 1), ctx3) == ring.u(2) * WeylOp.partial(ring, 1)
    u12_d1 = (ring.u(1) + ring.u(2)) * WeylOp.partial(ring, 1)
    assert evaluate(u_partial_tree(ctx3, [1, 2], 1), ctx3) == u12_d1


def test_u_set_errors(ctx3):
    with pytest.raises(ValueError):
        evaluate(u_euler_tree(ctx3, []), ctx3)
    with pytest.raises(ValueError):
        evaluate(u_euler_tree(ctx3, [3]), ctx3)
    with pytest.raises(ValueError):
        evaluate(u_partial_tree(ctx3, [1], 3), ctx3)


def test_membership_suite():
    for m in (2, 3, 4):
        report = check_generator_membership(DmContext(m))
        assert report.failed == 0, report.to_text()


def test_lemma1_spec_cases():
    ctx = DmContext(3)
    ring = ctx.ring
    lhs = (ring.u(1) * ctx.euler_op()).commutator(WeylOp.partial(ring, 2))
    assert lhs == -(ring.u(1) * WeylOp.partial(ring, 2))

    u12 = WeylOp.from_poly(ring.u(1) + ring.u(2))
    assert u12.commutator(WeylOp.partial(ring, 1)) == WeylOp.scalar(ring, -1)

    ctx2 = DmContext(2)
    r2 = ctx2.ring
    lhs2 = (r2.u(1) * ctx2.euler_op()).commutator(WeylOp.partial(r2, 1))
    assert lhs2 == -(r2.u(1) * WeylOp.partial(r2, 1)) - ctx2.euler_op()


def test_lemma1_suite():
    for m in (2, 3, 4):
        report = check_lemma1(DmContext(m))
        assert report.failed == 0, report.to_text()
        subsets = 2 ** (m - 1) - 1
        assert len(report.checks) == 2 * subsets * (m - 1)


def test_context_validation():
    with pytest.raises(ValueError):
        DmContext(1)
    from weylracah import Ring

    with pytest.raises(ValueError):
        DmContext(3, Ring(5, 0))


def dense(x):
    """Reference m x m matrix of an sl element, read from its coefficients."""
    m = x.ring
    mat = [[Rat(0)] * m for _ in range(m)]
    for key, c in x.terms.items():
        if key[0] == "E":
            mat[key[1] - 1][key[2] - 1] += c
        else:
            mat[key[1] - 1][key[1] - 1] += c
            mat[m - 1][m - 1] -= c
    return mat


def dense_commutator(a, b):
    m = len(a)
    return [
        [sum(a[i][j] * b[j][l] - b[i][j] * a[j][l] for j in range(m)) for l in range(m)]
        for i in range(m)
    ]


def test_sparse_bracket_matches_dense_commutator():
    rng = random.Random(20245)
    for m in (2, 3, 4, 5):
        basis = SlElement.basis(m)
        for x in basis:
            for y in basis:
                assert dense(x.bracket(y)) == dense_commutator(dense(x), dense(y)), (x, y)
        for _ in range(40):
            x, y = (
                sum(
                    (random_rational(rng) * rng.choice(basis) for _ in range(3)),
                    SlElement(m, {}),
                )
                for _ in range(2)
            )
            assert dense(x.bracket(y)) == dense_commutator(dense(x), dense(y)), (x, y)


def test_rank_mismatch_raises():
    x, y = SlElement.E(3, 1, 2), SlElement.E(4, 1, 2)
    for combine in (
        lambda: x + y,
        lambda: y - x,
        lambda: x.bracket(y),
        lambda: y.bracket(x),
    ):
        with pytest.raises(ValueError, match="rank"):
            combine()
    assert x != y


def test_no_powers_without_a_unit():
    # sums come from the shared sparse core, powers do not
    for value in (SlElement.E(3, 1, 2), OpMatrix.scalar(2, 1)):
        for exponent in (0, 1, 2):
            with pytest.raises(TypeError):
                value**exponent
