"""Matrix oracle: basis enumeration, exact matrices, leakage detection."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

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
    repmat,
    to_matrix,
)
from weylracah.poly import MAX_DEGREE, MonomialOverflowError
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


def test_basis_matches_brute_force_enumeration():
    # every exponent tuple with entries <= k, kept when its total is <= k,
    # in the basis order: by total degree, then u1 heaviest
    for m in range(1, 5):
        for k in range(5):
            ring = Ring(m, 2)
            kept = [e for e in product(range(k + 1), repeat=m) if sum(e) <= k]
            kept.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
            assert basis(ring, k).monomials == tuple(e + (0,) * 3 for e in kept), (m, k)


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
    with pytest.raises(ValueError, match="k must equal the basis degree bound 2, got 1$"):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "k": 1})
    missing = dict(good)
    del missing["nu3"]
    with pytest.raises(ValueError, match="missing parameters: nu3$"):
        to_matrix(rc.c_pair(1, 2), pi, missing)
    with pytest.raises(ValueError, match="cannot substitute variable 'u1'"):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "u1": 0})
    with pytest.raises(ValueError, match="got 1/2$"):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "k": Rat(1, 2)})
    with pytest.raises(ValueError, match="unknown symbol 'x1'"):
        to_matrix(rc.c_pair(1, 2), pi, {**good, "x1": 0})


def test_assignment_name_errors_win_over_k_and_nu():
    # each name is looked up, unknown names and u variables failing in
    # assignment order, before the k and nu checks
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    no_k = fixed_assignment(4, 2)
    del no_k["k"]
    with pytest.raises(ValueError, match="must fix k"):
        to_matrix(rc.c_pair(1, 2), pi, no_k)
    with pytest.raises(ValueError, match="unknown symbol 'x1'"):
        to_matrix(rc.c_pair(1, 2), pi, {**no_k, "x1": 0})
    with pytest.raises(ValueError, match="cannot substitute variable 'u1'"):
        to_matrix(rc.c_pair(1, 2), pi, {**no_k, "u1": 0})


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


def test_constructor_rejects_bad_positions():
    # a float position would only fail later, inside @
    for key in ((0.0, 1), (0, 2), (-1, 0), (True, 0)):
        with pytest.raises(ValueError, match="entry position"):
            OpMatrix(2, {key: 1})
    assert OpMatrix(2, {(0, 1): 1}).rows == [[0, 1], [0, 0]]


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


def canonical(mat) -> bool:
    """The stored form is num / d in lowest terms with no zero entry."""
    return mat.d > 0 and math.gcd(mat.d, *mat.num.values()) == 1 and all(mat.num.values())


def test_kernel_entries_are_int_exactly_when_integral():
    # every way of building a matrix leaves it canonical, so equal matrices
    # built along different paths compare equal
    rng = random.Random(2718)
    half, two = OpMatrix.scalar(3, Rat(1, 2)), OpMatrix.scalar(3, 2)
    assert type((half @ two).terms[(0, 0)]) is int
    assert half @ two == OpMatrix.scalar(3, 1) == OpMatrix(3, {(i, i): Rat(2, 2) for i in range(3)})
    skew = from_rows([[Rat(1, 2), Rat(1, 3)], [Rat(3, 2), 0]])
    shift = from_rows([[0, 6], [0, 0]])
    # [skew, shift] = [[-9, 3], [0, 9]]: integral although skew is not
    assert skew.commutator(shift).rows == [[-9, 3], [0, 9]]
    assert int_exactly_when_integral(skew.commutator(shift))
    assert skew.commutator(shift) == from_rows([[-9, 3], [0, 9]])
    for size in range(1, 6):
        for _ in range(10):
            rows_a, rows_b = random_rows(rng, size), random_rows(rng, size)
            a, b = from_rows(rows_a), from_rows(rows_b)
            built = (
                a, a @ b, b @ a, a.commutator(b), a @ OpMatrix.scalar(size, 1), a + b, a - b,
                a - a, -a, Rat(3, 4) * a, 0 * a, OpMatrix.scalar(size, Rat(-5, 7)),
            )
            for mat in built:
                assert canonical(mat) and int_exactly_when_integral(mat)
            product = a @ b
            assert product == from_rows(dense_product(rows_a, rows_b))
            assert product == OpMatrix(size, product.terms)
            assert Rat(1, 2) * a + Rat(1, 2) * a == a == (a @ b) @ OpMatrix.scalar(size, 0) + a
            assert a - a == OpMatrix(size, {}) == 0 * a == OpMatrix.scalar(size, 0)


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


def test_kernel_entries_at_the_width_bound():
    # A = M s 1^T and B = M 1 s^T for a sign vector s give [A, B] =
    # n M^2 (s s^T - 1): entries -2 n M^2 where the signs differ, within 1/8
    # of the bound 2^(w - 1) that sizes the kernel's slots at n = 7, and
    # [B, A] puts +2 n M^2 there; A @ A reaches n M^2
    sub = lambda x, y: x - y
    for bits in (1, 8, 63, 64, 65, 100):
        big = 2**bits - 1
        for n in (1, 2, 3, 7):
            s = [1 if i % 3 else -1 for i in range(n)]
            a = [[big * s[i]] * n for i in range(n)]
            b = [[big * s[q] for q in range(n)] for _ in range(n)]
            a_third = [[Rat(e, 3) for e in row] for row in a]
            extremes = set()
            for x, y in ((a, b), (b, a), (a, a), (b, a_third), (a_third, b)):
                mx, my = from_rows(x), from_rows(y)
                xy, yx = dense_product(x, y), dense_product(y, x)
                com = entrywise(sub, xy, yx)
                assert (mx @ my).rows == xy, (bits, n)
                assert mx.commutator(my).rows == com, (bits, n)
                extremes |= {max(map(abs, row)) for row in xy + com}
            assert max(extremes) == (2 * n * big**2 if n > 1 else big**2)


def test_kernel_rows_that_cancel_to_zero():
    # B = 2 A^2 - 3 A + 5 commutes with A although neither product has a
    # zero row, so every packed row total of [A, B] cancels to exactly 0
    rng = random.Random(404)
    for size in range(1, 9):
        a = [[random_rational(rng, 2**70) for _ in range(size)] for _ in range(size)]
        square = dense_product(a, a)
        b = [
            [2 * square[i][j] - 3 * a[i][j] + (5 if i == j else 0) for j in range(size)]
            for i in range(size)
        ]
        ma, mb = from_rows(a), from_rows(b)
        assert all(any(row) for row in dense_product(a, b))
        assert ma.commutator(mb).is_zero() and mb.commutator(ma).is_zero()
        assert ma @ mb == mb @ ma == from_rows(dense_product(a, b))


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


def test_kernel_reuses_packed_rows():
    # x keeps the rows it packed last; every use below must match the dense
    # reference whether x packs again or reuses its rows
    rng = random.Random(8128)
    sub = lambda a, b: a - b
    rows_x, small = random_rows(rng, 5), random_rows(rng, 5)
    wide = [[e * 2**70 + 1 if e else 0 for e in row] for row in random_rows(rng, 5)]
    assert max(abs(e) for row in wide for e in row) > 2**64
    x = from_rows(rows_x)
    # as the right operand against a small partner, then against a wide one,
    # which needs a wider slot and so packs x again, then the small one again
    assert (from_rows(small) @ x).rows == dense_product(small, rows_x)
    narrow = x._packed[0]
    assert (from_rows(wide) @ x).rows == dense_product(wide, rows_x)
    assert x._packed[0] > narrow
    assert (from_rows(small) @ x).rows == dense_product(small, rows_x)
    assert x._packed[0] == narrow
    # as both operands of its own commutator
    assert x.commutator(x).is_zero()
    # in x @ y, which packs y at the exact width, and then in
    # x.commutator(y), which packs both at a multiple of 64
    for partner in (small, wide):
        y = from_rows(partner)
        xy, yx = dense_product(rows_x, partner), dense_product(partner, rows_x)
        assert (x @ y).rows == xy
        assert x.commutator(y).rows == entrywise(sub, xy, yx)
        assert y.commutator(x).rows == entrywise(sub, yx, xy)
    # the cached rows take no part in ==
    fresh = from_rows(rows_x)
    assert fresh._packed is None and x._packed is not None
    assert x == fresh and fresh == x and x != from_rows(small)


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


def counted_kernel(monkeypatch) -> list:
    """A list that grows by one on every `_kernel` call."""
    calls = []
    kernel = repmat._kernel

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(repmat, "_kernel", counted)
    return calls


def test_trivial_commutators_skip_the_kernel(monkeypatch):
    # [X, X] = 0 and [c, X] = [X, c] = 0 for a scalar c, read off the
    # matrix: each is the zero matrix the kernel itself would return
    rng = random.Random(2207)
    kernel = repmat._kernel
    calls = counted_kernel(monkeypatch)
    for size in (1, 2, 5):
        x = from_rows(random_rows(rng, size))
        third, two = OpMatrix.scalar(size, Rat(-1, 3)), OpMatrix.scalar(size, 2)
        for a, b in ((x, x), (third, x), (x, third), (two, third), (third, two), (third, third)):
            com = a.commutator(b)
            assert com.is_zero() and com == kernel(a, b, True) == x - x, size
            assert (com.size, com.d) == (size, 1)
    assert calls == []


def test_near_scalar_commutators_enter_the_kernel(monkeypatch):
    # a matrix that is not a nonzero multiple of the identity goes through
    # the kernel, also when it has `size` entries or a constant diagonal; a
    # nonzero 1 x 1 matrix is a scalar, so the 1 x 1 case here is zero
    rng = random.Random(1984)
    sub = lambda x, y: x - y
    near = [
        [[Rat(5, 2), 0, 0], [0, Rat(5, 2), 0], [0, 0, 3]],  # one diagonal entry differs
        [[0, -2], [-6, 0]],  # size entries, none on the diagonal
        [[0, 0, 1], [0, 2, 0], [3, 0, 0]],  # size entries, one on the diagonal
        [[4, 0, 0], [0, 4, Rat(1, 7)], [0, 0, 4]],  # a scalar plus one off-diagonal entry
        [[0, 0], [0, 7]],  # the (0, 0) entry missing
        [[0]],  # 1 x 1 and zero
    ]
    calls = counted_kernel(monkeypatch)
    for rows in near:
        size = len(rows)
        m = from_rows(rows)
        # an equal copy, which is not the same object, and a random partner
        # (every nonzero 1 x 1 partner would be a scalar)
        partners = [[list(row) for row in rows]] + [random_rows(rng, size)] * (size > 1)
        for other in partners:
            mo = from_rows(other)
            for a, b, ra, rb in ((m, mo, rows, other), (mo, m, other, rows)):
                before = len(calls)
                assert a.commutator(b).rows == entrywise(
                    sub, dense_product(ra, rb), dense_product(rb, ra)), rows
                assert len(calls) == before + 1, rows


def test_trivial_commutator_operand_errors(monkeypatch):
    calls = counted_kernel(monkeypatch)
    eye = OpMatrix.scalar(2, 1)
    with pytest.raises(TypeError):
        eye.commutator(3)
    for a, b in ((eye, OpMatrix.scalar(3, 1)), (eye, from_rows([[1, 2, 3]] * 3)),
                 (from_rows([[1, 2, 3]] * 3), eye)):
        with pytest.raises(ValueError, match="size mismatch"):
            a.commutator(b)
    assert calls == []


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
    """The matrix of op as dense Fraction rows, from exponent tuples alone:
    a term c u^a k^e0 nu^e d^alpha, valued at the assignment, takes basis
    monomial u^b to c k^e0 nu^e prod_i b_i!/(b_i - alpha_i)! u^(a + b - alpha).
    It reads the packed layout through `Ring.unpack` only, and shares no code
    with the substitution, `apply` or the derivative rows. Images outside
    the basis must cancel."""
    ring = pi.ring
    nv = ring.num_vars
    point = [Fraction(values[name]) for name in ring.names[nv:]]
    images = {}
    for alpha, p in op.terms.items():
        for m, c in p.terms.items():
            exps = ring.unpack(m)
            c = Fraction(c)
            for x, e in zip(point, exps[nv:]):
                c *= x**e
            for col, b in enumerate(pi.monomials):
                if c and all(bi >= ai for bi, ai in zip(b, alpha)):
                    w = math.prod(math.perm(bi, ai) for bi, ai in zip(b, alpha))
                    key = (tuple(a + bi - ai for a, bi, ai in zip(exps, b, alpha)), col)
                    images[key] = images.get(key, 0) + c * w
    position = {mono[:nv]: row for row, mono in enumerate(pi.monomials)}
    rows = [[Fraction(0)] * pi.size for _ in range(pi.size)]
    for (mono, col), c in images.items():
        if mono in position:
            rows[position[mono]][col] = c
        else:
            assert c == 0, (mono, col)
    return rows


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 5), st.integers(0, 3), st.integers(0, 2**32))
def test_to_matrix_matches_dense_reference_property(n, k, seed):
    # the derivative rows against one `apply` per column, on a fresh context
    # so the rows are built cold, then on a basis whose rows are warm
    rng = random.Random(seed)
    rc = RacahContext(n)
    pi = basis(rc.ring, k)
    values = {"k": k, **random_nu_values(rng, n)}
    ops = [rc.c_set(A) for A in nonempty_subsets(n)]
    ops += [random_invariant_op(rng, rc.dm) for _ in range(3)]
    for op in ops + ops[-3:]:
        assert to_matrix(op, pi, values).rows == dense_reference(op, pi, values)


def test_derivative_rows_live_on_the_operators_ring():
    # one ring serves k = 1 and then k = 2, each with its own rows; a second
    # context's ring starts with none, whatever the first one holds
    rc = RacahContext(4)
    values = {"k": 1, **random_nu_values(random.Random(7), 4)}
    for k in (1, 2, 1):
        pi = basis(rc.ring, k)
        values["k"] = k
        for A in nonempty_subsets(4):
            assert to_matrix(rc.c_set(A), pi, values).rows == dense_reference(rc.c_set(A), pi, values)
    assert {degree for degree, _ in rc.ring._rows} == {1, 2}
    other = RacahContext(4)
    assert other.ring == rc.ring and other.ring._rows == {}
    pi, values["k"] = basis(rc.ring, 2), 2
    assert to_matrix(other.c_pair(1, 2), pi, values) == to_matrix(rc.c_pair(1, 2), pi, values)
    assert other.ring._rows and all(degree == 2 for degree, _ in other.ring._rows)


def test_to_matrix_entries_are_int_exactly_when_integral():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    # nu_i = (2i-1)/2 makes every entry of C_{1,2} integral
    mat = to_matrix(rc.c_set((1, 2)), pi, fixed_assignment(4, 2))
    assert len(mat.terms) == 9 and all(type(e) is int for e in mat.terms.values())
    assert mat.d == 1 and canonical(mat)
    rng = random.Random(1618)
    for _ in range(3):
        values = {"k": 2, **random_nu_values(rng, 4)}
        for A in nonempty_subsets(4):
            mat = to_matrix(rc.c_set(A), pi, values)
            assert canonical(mat) and int_exactly_when_integral(mat), A
            assert mat == from_rows(mat.rows), A


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


def test_to_matrix_at_zero_and_negative_nu():
    # a zero value drops every term it multiplies, and a negative one flips
    # the sign of its odd powers; both against the tuple reference
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    rng = random.Random(31)
    ops = [rc.c_set(A) for A in nonempty_subsets(4)]
    ops += [random_invariant_op(rng, rc.dm) for _ in range(6)]
    for nus in ((0, Rat(-3, 2), Rat(5, 4), -2), (Rat(-1, 3), 0, 0, Rat(-7, 5)), (0, 0, 0, 0)):
        values = {"k": 2, **{f"nu{i}": v for i, v in enumerate(nus, 1)}}
        for op in ops:
            mat = to_matrix(op, pi, values)
            assert mat.rows == dense_reference(op, pi, values)
            assert canonical(mat) and int_exactly_when_integral(mat)


def test_to_matrix_of_fraction_coefficients():
    # the operator's own denominators and the values' denominators meet in
    # one common denominator, which the matrix reduces away where it can
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    values = {"k": 2, "nu1": Rat(3, 2), "nu2": Rat(-4, 3), "nu3": Rat(7, 5), "nu4": Rat(5, 6)}
    pair, t = rc.c_pair(1, 2), rc.dm.t_op(1, 2)
    op = Rat(1, 3) * pair + Rat(2, 7) * t
    mat = to_matrix(op, pi, values)
    assert mat.rows == dense_reference(op, pi, values)
    assert mat == Rat(1, 3) * to_matrix(pair, pi, values) + Rat(2, 7) * to_matrix(t, pi, values)
    assert canonical(mat) and mat.d % 21 == 0
    scaled = to_matrix(Rat(6, 5) * WeylOp.from_poly(rc.ring.nu(4) * rc.ring.nu(1)), pi, values)
    assert scaled == OpMatrix.scalar(pi.size, Rat(3, 2)) and scaled.d == 2


def test_to_matrix_drops_a_coefficient_that_cancels():
    # (nu1 - 1/2) u1^(k + 1) leaks past the bound, and (nu1 - 1/2) u1^(MAX
    # - 1) takes every column of degree >= 2 past MAX_DEGREE; at nu1 = 1/2
    # both coefficients are zero and are dropped before either check, so the
    # matrices are zero, without LeakageError or MonomialOverflowError; at
    # nu1 = 1/3 each leaks from its first column
    rc = RacahContext(4)
    ring = rc.ring
    k = 2
    pi = basis(ring, k)
    cancels = ring.nu(1) - Rat(1, 2)
    leak = WeylOp.from_poly(cancels * ring.u(1) ** (k + 1))
    overflow = WeylOp.from_poly(cancels * ring.u(1) ** (MAX_DEGREE - 1))
    values = {**fixed_assignment(4, k), "nu1": Rat(1, 2)}
    for op in (leak, overflow, leak + overflow, rc.c_pair(1, 2) + leak):
        mat = to_matrix(op, pi, values)
        assert mat.rows == dense_reference(op, pi, values)
    assert to_matrix(leak + overflow, pi, values) == OpMatrix.scalar(pi.size, 0)
    assert to_matrix(rc.c_pair(1, 2) + leak, pi, values) == to_matrix(rc.c_pair(1, 2), pi, values)
    values["nu1"] = Rat(1, 3)
    for op, degree in ((leak, k + 1), (overflow, MAX_DEGREE - 1)):
        with pytest.raises(LeakageError) as raised:
            to_matrix(op, pi, values)
        assert str(raised.value).startswith(
            f"image of basis monomial {pi.monomials[0]} contains degree {degree} "
        )


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


def test_leakage_error_names_the_largest_leak_of_the_first_column():
    # u1 + u2 takes column u1 to u1^2 + u1 u2 and column u2 to u1 u2 + u2^2:
    # the first leaking column is u1, and of its two leaks the message names
    # u1^2, the larger in graded-lex order, however the image was summed
    ring = Ring(2, 0)
    pi = basis(ring, 1)
    for op in (ring.u(1) + ring.u(2), ring.u(2) + ring.u(1), 2 * ring.u(2) - ring.u(1)):
        with pytest.raises(LeakageError) as raised:
            to_matrix(WeylOp.from_poly(op), pi, {"k": 1})
        assert str(raised.value) == (
            "image of basis monomial (1, 0, 0) contains degree 2 term (2, 0, 0), bound is 1"
        )


def test_leakage_wins_over_a_later_columns_overflow():
    # u1^MAX_DEGREE takes column 1 to itself, a leak, and would take column
    # u1 past MAX_DEGREE: the first column to fail names the error, so the
    # overflow of a later column is never raised
    ring = Ring(2, 0)
    pi = basis(ring, 1)
    with pytest.raises(LeakageError) as raised:
        to_matrix(WeylOp.from_poly(ring.u(1) ** MAX_DEGREE), pi, {"k": 1})
    assert str(raised.value) == (
        f"image of basis monomial (0, 0, 0) contains degree {MAX_DEGREE} term "
        f"({MAX_DEGREE}, 0, 0), bound is 1"
    )


def test_overflow_of_the_first_failing_column(monkeypatch):
    # with the degree limit lowered to 7 (still a mask of whole fields), u^6
    # - u^7 d1 keeps columns 1 and u inside it (u^7 - u^7 cancels), and column
    # u^2 is the first whose product u^6 * u^2 passes it: that column raises
    # MonomialOverflowError rather than naming a leak
    ring = Ring(1, 0)
    pi = basis(ring, 6)
    u = ring.u(1)
    op = WeylOp(ring, {(0,): u**6, (1,): -(u**7)})
    import weylracah.poly as poly
    import weylracah.repmat as repmat

    monkeypatch.setattr(poly, "MAX_DEGREE", 7)
    monkeypatch.setattr(repmat, "MAX_DEGREE", 7, raising=False)
    with pytest.raises(MonomialOverflowError) as raised:
        to_matrix(op, pi, {"k": 6})
    assert str(raised.value) == "a product of degree 8 exceeds the limit 7"
