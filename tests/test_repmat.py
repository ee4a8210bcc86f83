"""Matrix oracle: basis enumeration, exact matrices, leakage detection."""

import math
import random

import pytest

from helpers import random_invariant_op, random_nu_values
from weylracah import (
    LeakageError,
    OpMatrix,
    RacahContext,
    Rat,
    Ring,
    WeylOp,
    basis,
    embedded_c_pair,
    eval_tree,
    eval_tree_matrix,
    mat_check_identity,
    nonempty_subsets,
    to_matrix,
)
from weylracah.sln import GenEuler, u_euler_tree, u_partial_tree


def test_basis_small():
    ring = Ring(2, 0)
    pi = basis(ring, 1)
    assert pi.size == 3
    assert [m[:2] for m in pi.monomials] == [(0, 0), (1, 0), (0, 1)]


def test_basis_degree_zero():
    pi = basis(Ring(2, 0), 0)
    assert pi.size == 1
    assert pi.monomials[0] == (0, 0, 0)


def test_basis_counts():
    assert basis(Ring(3, 0), 3).size == 20
    for m, k in ((1, 5), (2, 3), (4, 2)):
        assert basis(Ring(m, 0), k).size == math.comb(k + m, m)


def test_basis_size_limit():
    # the limit is counted before any monomial is built
    assert basis(Ring(1, 3), 1999).size == 2000
    with pytest.raises(ValueError, match="2001 basis monomials"):
        basis(Ring(1, 3), 2000)
    with pytest.raises(ValueError, match="2016 basis monomials"):
        basis(Ring(2, 4), 62)


def test_basis_rejects_negative_degree():
    with pytest.raises(ValueError):
        basis(Ring(2, 0), -1)


def fixed_assignment(n, k):
    values = {"k": k}
    for i in range(1, n + 1):
        values[f"nu{i}"] = Rat(2 * i - 1, 2)
    return values


def test_partial_matrix():
    rc = RacahContext(4)
    pi = basis(rc.ring, 1)
    mat = to_matrix(WeylOp.partial(rc.ring, 1), pi, fixed_assignment(4, 1))
    assert mat.rows == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]


def test_euler_matrix_is_degree_shift():
    rc = RacahContext(4)
    pi = basis(rc.ring, 1)
    mat = to_matrix(rc.dm.euler_op(), pi, fixed_assignment(4, 1))
    assert mat.rows == [[-1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_raising_annihilates_top_degree():
    rc = RacahContext(4)
    pi = basis(rc.ring, 1)
    mat = to_matrix(rc.dm.u_set_euler([1]), pi, fixed_assignment(4, 1))
    # image of u1 is (1-1) u1^2 = 0: top degree is annihilated, no leakage
    assert [mat.rows[i][1] for i in range(3)] == [0, 0, 0]
    assert mat.rows[1][0] == -1


def test_multiplication_operator_leaks():
    rc = RacahContext(4)
    pi = basis(rc.ring, 1)
    with pytest.raises(LeakageError):
        to_matrix(WeylOp.from_poly(rc.ring.u(1)), pi, fixed_assignment(4, 1))


def test_assignment_validation():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    good = fixed_assignment(4, 2)
    with pytest.raises(ValueError):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "k": 1})
    missing = dict(good)
    del missing["nu3"]
    with pytest.raises(ValueError):
        to_matrix(rc.c_pair(1, 2), pi, missing)
    with pytest.raises(ValueError):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "u1": 0})
    with pytest.raises(ValueError):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "k": Rat(1, 2)})


def test_identity_embedded_vs_direct():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    assert mat_check_identity(embedded_c_pair(rc, 1, 2).op, rc.c_pair(1, 2), pi, values)


def test_identity_disjoint_commutator():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    lhs = rc.c_pair(1, 2).commutator(rc.c_pair(3, 4))
    assert mat_check_identity(lhs, WeylOp.zero(rc.ring), pi, values)


def test_identity_distinguishes_order():
    rc = RacahContext(4)
    ring = rc.ring
    pi = basis(ring, 2)
    values = fixed_assignment(4, 2)
    d1_u1 = WeylOp.partial(ring, 1) * WeylOp.from_poly(ring.u(1))
    u1_d1 = ring.u(1) * WeylOp.partial(ring, 1)
    assert not mat_check_identity(d1_u1, u1_d1, pi, values)


def test_multiplicativity_sample():
    rc = RacahContext(4)
    rng = random.Random(31)
    pi = basis(rc.ring, 2)
    values = {"k": 2, **random_nu_values(rng, 4)}
    for _ in range(20):
        a = random_invariant_op(rng, rc.dm)
        b = random_invariant_op(rng, rc.dm)
        assert to_matrix(a * b, pi, values) == to_matrix(a, pi, values) @ to_matrix(b, pi, values)


def test_tree_matrix_evaluation_matches():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    cache = {}
    for lo, hi in ((1, 2), (1, 3), (2, 4), (3, 4)):
        expr = embedded_c_pair(rc, lo, hi)
        direct = to_matrix(rc.c_pair(lo, hi), pi, values)
        assert eval_tree_matrix(rc, expr.tree, pi, values, cache) == direct


def test_matrix_dump_format():
    mat = OpMatrix([[Rat(1, 2), Rat(0)], [Rat(-3), Rat(7, 3)]])
    assert mat.dump() == "1/2 0\n-3 7/3"


def test_matrix_algebra():
    eye = OpMatrix.identity(3)
    zero = OpMatrix.zero(3)
    assert eye @ eye == eye
    assert eye - eye == zero
    assert zero.is_zero()
    assert (2 * eye).rows[0][0] == 2
    with pytest.raises(TypeError):
        0.1 * OpMatrix.identity(2)
    with pytest.raises(ValueError):
        eye @ OpMatrix.identity(2)


def test_column_convention():
    # column j holds the image of basis monomial j: d1 sends u1 (column 1)
    # to 1 (row 0)
    rc = RacahContext(4)
    pi = basis(rc.ring, 1)
    mat = to_matrix(WeylOp.partial(rc.ring, 1), pi, fixed_assignment(4, 1))
    assert mat.rows[0][1] == 1


def test_euler_leaf_and_assemblies_agree_across_backends():
    # both backends expand the Euler leaf; their values must match exactly
    rc = RacahContext(4)
    dm = rc.dm
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    trees = [GenEuler()]
    for B in nonempty_subsets(dm.m - 1):
        trees.append(u_euler_tree(dm, B))
        trees += [u_partial_tree(dm, B, alpha) for alpha in range(1, dm.m)]
    assert len(trees) == 10
    for tree in trees:
        assert to_matrix(eval_tree(rc, tree), pi, values) == eval_tree_matrix(rc, tree, pi, values, {})
