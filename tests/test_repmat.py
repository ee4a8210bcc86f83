"""Matrix oracle: basis enumeration, exact matrices, leakage detection."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import monomial_poly, random_invariant_op, random_nu_values, random_rational
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
    nonempty_subsets,
    to_matrix,
)
from weylracah.sln import GenEuler, evaluate, u_euler_tree, u_partial_tree


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
    mat = to_matrix(evaluate(u_euler_tree(rc.dm, [1]), rc.dm), pi, fixed_assignment(4, 1))
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
    embedded = embedded_c_pair(rc, 1, 2).op
    assert to_matrix(embedded, pi, values) == to_matrix(rc.c_pair(1, 2), pi, values)


def test_identity_disjoint_commutator():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    lhs = rc.c_pair(1, 2).commutator(rc.c_pair(3, 4))
    assert to_matrix(lhs, pi, values) == to_matrix(WeylOp.zero(rc.ring), pi, values)


def test_identity_distinguishes_order():
    rc = RacahContext(4)
    ring = rc.ring
    pi = basis(ring, 2)
    values = fixed_assignment(4, 2)
    d1_u1 = WeylOp.partial(ring, 1) * WeylOp.from_poly(ring.u(1))
    u1_d1 = ring.u(1) * WeylOp.partial(ring, 1)
    assert not to_matrix(d1_u1, pi, values) == to_matrix(u1_d1, pi, values)


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
    mat = OpMatrix(2, {(0, 0): Rat(1, 2), (0, 1): Rat(0), (1, 0): Rat(-3), (1, 1): Rat(7, 3)})
    assert mat.dump() == "1/2 0\n-3 7/3"


def test_matrix_algebra():
    eye = OpMatrix.scalar(3, 1)
    zero = OpMatrix.scalar(3, 0)
    assert eye @ eye == eye
    assert eye - eye == zero
    assert zero.is_zero()
    assert (2 * eye).rows[0][0] == 2
    with pytest.raises(TypeError):
        0.1 * OpMatrix.scalar(2, 1)
    with pytest.raises(ValueError):
        eye @ OpMatrix.scalar(2, 1)


def random_rows(rng, size):
    """A size x size list of rows with about half of its entries zero."""
    return [
        [random_rational(rng) if rng.random() < 0.5 else 0 for _ in range(size)]
        for _ in range(size)
    ]


def from_rows(rows):
    return OpMatrix(len(rows), {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)})


def dense_product(a, b):
    n = len(a)
    return [[sum(a[i][p] * b[p][q] for p in range(n)) for q in range(n)] for i in range(n)]


def entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_sparse_matrix_matches_dense_arithmetic():
    rng = random.Random(4711)
    sub = lambda x, y: x - y
    for size in range(1, 7):
        for _ in range(12):
            a, b = random_rows(rng, size), random_rows(rng, size)
            ma, mb = from_rows(a), from_rows(b)
            ab, ba = dense_product(a, b), dense_product(b, a)
            com = entrywise(sub, ab, ba)
            results = {
                "@": (ma @ mb, ab),
                "+": (ma + mb, entrywise(lambda x, y: x + y, a, b)),
                "-": (ma - mb, entrywise(sub, a, b)),
                "commutator": (ma.commutator(mb), com),
                "cancel": (ma - from_rows(a), entrywise(sub, a, a)),
            }
            for name, (mat, rows) in results.items():
                assert mat.rows == rows, (name, a, b)
                assert all(mat.terms.values()), name  # only nonzero entries stored
                assert mat.is_zero() == (not any(e for row in rows for e in row)), name
            assert ma.commutator(ma).is_zero()
            assert ma == from_rows([list(row) for row in a])
            assert (ma == mb) == (a == b)
            assert ma.dump() == "\n".join(" ".join(str(e) for e in row) for row in a)
            with pytest.raises(ValueError):
                ma + OpMatrix.scalar(size + 1, 0)


def int_exactly_when_integral(mat) -> bool:
    return all((type(e) is int) == (Rat(e).denominator == 1) for e in mat.terms.values())


def test_kernel_entries_are_int_exactly_when_integral():
    rng = random.Random(2718)
    half, two = OpMatrix.scalar(3, Rat(1, 2)), OpMatrix.scalar(3, 2)
    assert type((half @ two).terms[(0, 0)]) is int
    skew = from_rows([[Rat(1, 2), Rat(1, 3)], [Rat(3, 2), 0]])
    shift = from_rows([[0, 6], [0, 0]])
    # [skew, shift] = [[-9, 3], [0, 9]]: integral although skew is not
    assert skew.commutator(shift).rows == [[-9, 3], [0, 9]]
    assert int_exactly_when_integral(skew.commutator(shift))
    for size in range(1, 6):
        for _ in range(10):
            a, b = from_rows(random_rows(rng, size)), from_rows(random_rows(rng, size))
            for mat in (a @ b, b @ a, a.commutator(b), a @ OpMatrix.scalar(size, 1)):
                assert int_exactly_when_integral(mat)


def test_kernel_large_coprime_denominators():
    # primes above 2**61: the scaled entries and their products leave the
    # machine-word range and must stay exact
    p, q, r = 2305843009213693967, 2305843009213693973, 18446744073709551629
    a = [[Rat(1, p), Rat(-3, q), 0], [Rat(5, r), 0, Rat(p, q)], [7, Rat(1, p * q), Rat(-2, r)]]
    b = [[Rat(q, p), 0, Rat(1, r)], [0, Rat(-1, q), 4], [Rat(r, p), Rat(2, 3), Rat(1, p)]]
    ma, mb = from_rows(a), from_rows(b)
    sub = lambda x, y: x - y
    assert (ma @ mb).rows == dense_product(a, b)
    assert (mb @ ma).rows == dense_product(b, a)
    assert ma.commutator(mb).rows == entrywise(sub, dense_product(a, b), dense_product(b, a))
    assert ma.commutator(ma).is_zero()
    assert int_exactly_when_integral(ma @ mb) and int_exactly_when_integral(ma.commutator(mb))


def test_kernel_empty_and_zero_operands():
    empty = OpMatrix.scalar(0, 0)
    assert (empty @ empty).terms == {} and empty.commutator(empty).is_zero()
    assert empty.rows == [] and empty.dump() == ""
    rng = random.Random(99)
    a = from_rows(random_rows(rng, 4))
    zero = OpMatrix.scalar(4, 0)
    assert (a @ zero).is_zero() and (zero @ a).is_zero()
    assert a.commutator(zero).is_zero() and zero.commutator(a).is_zero()
    assert a.commutator(OpMatrix.scalar(4, Rat(5, 7))).is_zero()
    assert OpMatrix.scalar(4, 0).terms == {}
    assert OpMatrix.scalar(2, Rat(6, 3)).terms == {(0, 0): 2, (1, 1): 2}


def test_kernel_operand_errors():
    eye = OpMatrix.scalar(2, 1)
    with pytest.raises(TypeError):
        eye @ 2
    with pytest.raises(TypeError):
        eye.commutator(2)
    with pytest.raises(TypeError):
        eye.commutator([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        eye.commutator(OpMatrix.scalar(3, 1))


def test_casimir_matrix_commutators_match_dense():
    # real operators under rational nu, two commuting pairs of subsets and
    # one non-commuting pair, against the dense Fraction reference
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    sub = lambda x, y: x - y
    for a_set, b_set, commute in (
        ((1, 2), (3, 4), True),
        ((1, 2), (1, 2, 3), True),
        ((1, 2), (2, 3), False),
    ):
        ma, mb = to_matrix(rc.c_set(a_set), pi, values), to_matrix(rc.c_set(b_set), pi, values)
        a, b = ma.rows, mb.rows
        ab, ba = dense_product(a, b), dense_product(b, a)
        com = ma.commutator(mb)
        assert (ma @ mb).rows == ab and (mb @ ma).rows == ba
        assert com.rows == entrywise(sub, ab, ba), (a_set, b_set)
        assert com.is_zero() == commute, (a_set, b_set)
        assert int_exactly_when_integral(com)
        assert com == to_matrix(rc.c_set(a_set).commutator(rc.c_set(b_set)), pi, values)


def test_to_matrix_matches_column_images():
    # column j holds the image of basis monomial j, computed here one column
    # at a time
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = fixed_assignment(4, 2)
    for i, j in combinations(range(1, 5), 2):
        numeric = rc.c_pair(i, j).subs(values)
        images = [
            {rc.ring.unpack(m): c for m, c in numeric.apply(monomial_poly(pi, col)).terms.items()}
            for col in range(pi.size)
        ]
        assert all(set(image) <= set(pi.monomials) for image in images)
        rows = [[image.get(mono, 0) for image in images] for mono in pi.monomials]
        assert to_matrix(rc.c_pair(i, j), pi, values).rows == rows, (i, j)


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


def dense_reference(op, pi, values):
    """The matrix of op as dense Fraction rows, column j built from `apply`
    on basis monomial j."""
    numeric = op.subs(values)
    position = {mono: row for row, mono in enumerate(pi.monomials)}
    rows = [[Fraction(0)] * pi.size for _ in range(pi.size)]
    for col in range(pi.size):
        for m, c in numeric.apply(monomial_poly(pi, col)).terms.items():
            rows[position[pi.ring.unpack(m)]][col] += Fraction(c)
    return rows


def test_to_matrix_entries_are_int_exactly_when_integral():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    # nu_i = (2i-1)/2 makes every entry of C_{1,2} integral
    mat = to_matrix(rc.c_set((1, 2)), pi, fixed_assignment(4, 2))
    assert len(mat.terms) == 9 and all(type(e) is int for e in mat.terms.values())
    rng = random.Random(1618)
    for _ in range(3):
        values = {"k": 2, **random_nu_values(rng, 4)}
        for A in nonempty_subsets(4):
            assert int_exactly_when_integral(to_matrix(rc.c_set(A), pi, values)), A


def test_to_matrix_matches_dense_fraction_reference():
    # primes above 2**61 as denominators: the lcm that scales the operator
    # is far past the machine-word range
    p, q, r, s = 2305843009213693967, 2305843009213693973, 18446744073709551629, 7
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    rng = random.Random(2024)
    assignments = [
        fixed_assignment(4, 2),
        {"k": 2, **random_nu_values(rng, 4)},
        {"k": 2, "nu1": Rat(1, p), "nu2": Rat(-3, q), "nu3": Rat(p, r), "nu4": Rat(5, s)},
    ]
    ops = [rc.c_set(A) for A in nonempty_subsets(4)]
    ops += [random_invariant_op(rng, rc.dm) for _ in range(10)]
    for values in assignments:
        for op in ops:
            mat = to_matrix(op, pi, values)
            assert mat.rows == dense_reference(op, pi, values)
            assert int_exactly_when_integral(mat)


def test_leakage_error_text():
    rc = RacahContext(4)
    ring = rc.ring
    pi = basis(ring, 1)
    values = fixed_assignment(4, 1)
    with pytest.raises(LeakageError) as raised:
        to_matrix(WeylOp.from_poly(ring.u(1)), pi, values)
    assert str(raised.value) == (
        "image of basis monomial (1, 0, 0, 0, 0, 0, 0) contains "
        "degree 2 term (2, 0, 0, 0, 0, 0, 0), bound is 1"
    )
    # a leak among rational coefficients reads the same
    raising = WeylOp.from_poly(ring.nu(1) * ring.u(1) * ring.u(2)) * WeylOp.partial(ring, 2)
    leak = rc.c_pair(1, 2) + raising
    with pytest.raises(LeakageError) as raised:
        to_matrix(leak, pi, values)
    assert str(raised.value) == (
        "image of basis monomial (0, 1, 0, 0, 0, 0, 0) contains "
        "degree 2 term (1, 1, 0, 0, 0, 0, 0), bound is 1"
    )
