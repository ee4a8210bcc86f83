"""Property-based checks of the algebraic laws the engine relies on."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    charged,
    diff,
    random_weyl,
    reference_format_poly,
    reference_leibniz,
    reference_print,
)
from weylracah import (
    OpMatrix,
    Poly,
    RacahContext,
    Rat,
    Ring,
    WeylOp,
    elaborate,
    format_poly,
    parse,
    print_canonical,
    weyl,
)
from weylracah.poly import _add_products as add_products

RING = Ring(2, 1)
RC = RacahContext(4)

rationals = st.builds(
    Rat, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)

polys = st.dictionaries(exponents, rationals, max_size=4).map(lambda d: Poly(RING, d))

d_exponents = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
)

weyl_ops = st.dictionaries(d_exponents, polys, max_size=3).map(
    lambda d: WeylOp(RING, {a: p for a, p in d.items()})
)


@st.composite
def weyl_ops_in(draw, ring: Ring):
    """An operator of weyl_ops moved to ring: u1, u2 and their derivatives
    become those of two variables a <= b, and nu1 becomes nu_c. With a = b
    the move is not a homomorphism, which an input needs not be."""
    a = draw(st.integers(min_value=0, max_value=ring.num_vars - 1))
    b = draw(st.integers(min_value=a, max_value=ring.num_vars - 1))
    c = draw(st.integers(min_value=1, max_value=ring.num_nu))
    width, terms = ring.num_vars + 1 + ring.num_nu, {}
    for alpha, p in draw(weyl_ops).terms.items():
        moved = [0] * ring.num_vars
        moved[a] += alpha[0]
        moved[b] += alpha[1]
        coeff = {}
        for m, value in p.terms.items():
            e = [0] * width
            e1, e2, ek, enu = RING.unpack(m)
            e[a] += e1
            e[b] += e2
            e[ring.num_vars] = ek
            e[ring.num_vars + c] = enu
            coeff[tuple(e)] = coeff.get(tuple(e), 0) + value
        terms[tuple(moved)] = terms.get(tuple(moved), 0) + Poly(ring, coeff)
    return WeylOp(ring, terms)

# Matrix entries: zero often, numerators past 2**64, and pairwise coprime
# denominators, two of them primes above 2**61 and 2**64.
DENOMINATORS = (1, 2, 3, 5, 7, 2305843009213693967, 18446744073709551629)
matrix_entries = st.one_of(
    st.just(0),
    st.builds(Rat, st.integers(min_value=-(2**70), max_value=2**70), st.sampled_from(DENOMINATORS)),
)


@st.composite
def square_pairs(draw):
    """Two size x size lists of rows, size 0 to 8."""
    size = draw(st.integers(min_value=0, max_value=8))
    rows = st.lists(matrix_entries, min_size=size, max_size=size)
    square = st.lists(rows, min_size=size, max_size=size)
    return draw(square), draw(square)


@given(polys, polys, polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_poly_cancellation(p):
    assert p - p == RING.zero()
    assert -(-p) == p


@given(polys, polys)
def test_diff_is_a_derivation(p, q):
    for i in (1, 2):
        assert diff(p * q, i) == diff(p, i) * q + p * diff(q, i)


@given(polys, rationals, rationals)
def test_subs_is_a_ring_map(p, a, b):
    values = {"k": a, "nu1": b}
    q = p * p + 3 * p - 1
    assert q.subs(values) == p.subs(values) * p.subs(values) + 3 * p.subs(values) - 1


@settings(max_examples=60, deadline=None)
@given(weyl_ops, weyl_ops, weyl_ops)
def test_weyl_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(weyl_ops, weyl_ops, weyl_ops)
def test_weyl_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(weyl_ops, weyl_ops, polys)
def test_apply_respects_composition(a, b, p):
    assert (a * b).apply(p) == a.apply(b.apply(p))


@settings(max_examples=100, deadline=None)
@st.composite
def apply_cases(draw):
    """An operator and a polynomial p. Half the operators gain two terms,
    r d^beta(p) d^alpha and -r d^alpha(p) d^beta, whose images of p cancel."""
    op, p = draw(weyl_ops), draw(polys)
    if draw(st.booleans()):
        alpha, r = draw(d_exponents), draw(polys)
        beta = draw(d_exponents.filter(lambda b: b != alpha))
        op = op + WeylOp(RING, {alpha: r * p.diff_multi(beta), beta: -r * p.diff_multi(alpha)})
    return op, p


@given(apply_cases())
def test_apply_matches_two_step_reference(case):
    # the one-pass action against sum_alpha coeff * d^alpha p formed as polynomials
    op, p = case
    reference = RING.zero()
    for alpha, coeff in op.terms.items():
        reference = reference + coeff * p.diff_multi(alpha)
    image = op.apply(p)
    assert image == reference
    assert all(image.terms.values())
    assert WeylOp.zero(RING).apply(p) == RING.zero() == op.apply(RING.zero())


u_free_polys = st.dictionaries(
    st.tuples(st.just(0), st.just(0), st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3
).map(lambda d: Poly(RING, d))


@st.composite
def leibniz_cases(draw):
    """Two operators. Half the pairs gain r d^alpha + r d^beta on the left and
    q d^beta - q d^alpha on the right, with q free of u, so the two gamma = 0
    pieces r q d^(alpha+beta) cancel exactly."""
    a, b = draw(weyl_ops), draw(weyl_ops)
    if draw(st.booleans()):
        alpha, r, q = draw(d_exponents), draw(polys), draw(u_free_polys)
        beta = draw(d_exponents.filter(lambda e: e != alpha))
        a = a + WeylOp(RING, {alpha: r, beta: r})
        b = b + WeylOp(RING, {beta: q, alpha: -q})
    return a, b


def assert_normal(op):
    """No zero coefficient polynomial, so no empty exponent, and no zero term."""
    assert all(p and all(p.terms.values()) for p in op.terms.values())


@settings(max_examples=100, deadline=None)
@given(leibniz_cases(), polys, rationals)
def test_leibniz_kernel_matches_poly_reference(case, p, c):
    # the fused kernel against Poly products of d^gamma q summed as Polys
    a, b = case
    for left, right in ((a, b), (b, a), (a, a), (a, WeylOp.zero(RING)), (WeylOp.zero(RING), b)):
        product = left * right
        assert product == reference_leibniz(left, right)
        commutator = left.commutator(right)
        assert commutator == reference_leibniz(left, right, 1) - reference_leibniz(right, left, 1)
        assert_normal(product)
        assert_normal(commutator)
    # Poly and scalar operands stand for multiplication operators
    for other in (p, c, 0, 3):
        as_op = WeylOp.from_poly(other if isinstance(other, Poly) else RING.const(other))
        assert a * other == reference_leibniz(a, as_op)
        assert other * a == reference_leibniz(as_op, a)
        assert a.commutator(other) == reference_leibniz(a, as_op, 1) - reference_leibniz(as_op, a, 1)
        for op in (a * other, other * a, a.commutator(other)):
            assert_normal(op)


def fresh(op: WeylOp) -> WeylOp:
    """The same operator with an empty derivative table."""
    return WeylOp(RING, dict(op.terms))


@settings(max_examples=100, deadline=None)
@given(polys, weyl_ops, rationals, d_exponents)
def test_multiplication_operator_product_matches_kernel(f, a, c, alpha):
    # f a composes coefficient-wise; it must equal the Leibniz kernel and the
    # Poly reference, for a constant f, a zero a, and (u1 + 1)(u1 - 1), whose
    # u1 terms cancel
    u1 = RING.u(1)
    cancelling = WeylOp(RING, {alpha: u1 - 1})
    cases = [(f, a), (RING.const(c), a), (f, WeylOp.zero(RING)), (u1 + 1, cancelling + a)]
    for p, op in cases:
        left = WeylOp.from_poly(p)
        expected = reference_leibniz(left, op)
        assert p * op == left * op == expected == fresh(left)._leibniz(fresh(op), 0)
        assert_normal(left * op)
    assert (u1 + 1) * cancelling == WeylOp(RING, {alpha: u1**2 - 1})


@settings(max_examples=60, deadline=None)
@given(weyl_ops, st.lists(weyl_ops, min_size=1, max_size=4))
def test_derivative_table_serves_later_calls(right, lefts):
    # one operator is the right operand of every call, in both orders; the
    # i-th left operand differentiates i orders deeper in each variable, so
    # later calls need gammas that the table filled so far lacks
    deeper = WeylOp(RING, {(1, 1): RING.one()})
    for depth, left in enumerate(lefts):
        left = left * deeper**depth
        a, b = fresh(left), fresh(right)
        assert left * right == reference_leibniz(a, b)
        assert right * left == reference_leibniz(b, a)
        expected = reference_leibniz(a, b, 1) - reference_leibniz(b, a, 1)
        assert left.commutator(right) == expected
        assert right.commutator(left) == -expected
    # every derivative the table holds is the one it stands for
    for (beta, gamma), (terms, lead) in (right._derivs or {}).items():
        assert terms == right.terms[beta].diff_multi(gamma).terms
        assert lead == max(terms, default=-1)
    assert right == fresh(right)


@given(weyl_ops, weyl_ops)
def test_commutator_matches_direct_path(a, b):
    assert a.commutator(b) == a * b - b * a


@settings(max_examples=60, deadline=None)
@given(weyl_ops, weyl_ops)
def test_commutator_antisymmetry(a, b):
    assert a.commutator(b) == -(b.commutator(a))


@settings(max_examples=40, deadline=None)
@given(weyl_ops, weyl_ops, weyl_ops)
def test_jacobi_identity(a, b, c):
    total = (
        a.commutator(b.commutator(c))
        + c.commutator(a.commutator(b))
        + b.commutator(c.commutator(a))
    )
    assert total == WeylOp.zero(RING)


@pytest.mark.parametrize("n", range(3, 7))
def test_prefix_map_is_an_automorphism(n):
    # to_prefix is the racah table's change of variables: from_prefix undoes
    # it and it carries commutators to commutators, on the operators of
    # weyl_ops moved to the ring of each n
    ctx = RacahContext(n)

    @settings(max_examples=20, deadline=None)
    @given(weyl_ops_in(ctx.ring), weyl_ops_in(ctx.ring))
    def check(a, b):
        phi_a, phi_b = ctx.to_prefix(a), ctx.to_prefix(b)
        assert ctx.from_prefix(phi_a) == a
        assert ctx.to_prefix(a.commutator(b)) == phi_a.commutator(phi_b)

    check()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_parse_print_round_trip(seed):
    op = random_weyl(random.Random(seed), RC.ring)
    assert elaborate(parse(print_canonical(op), RC), RC) == op


def dense_matmul(a, b):
    """The product of two lists of rows, each entry summed in Fractions."""
    n = len(a)
    return [
        [sum((Fraction(a[i][p]) * b[p][q] for p in range(n)), Fraction(0)) for q in range(n)]
        for i in range(n)
    ]


def rows_to_matrix(rows):
    return OpMatrix(len(rows), {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)})


@settings(max_examples=100, deadline=None)
@given(square_pairs())
def test_matrix_kernel_matches_dense_fractions(pair):
    a, b = pair
    n = len(a)
    ma, mb = rows_to_matrix(a), rows_to_matrix(b)
    ab, ba = dense_matmul(a, b), dense_matmul(b, a)
    assert (ma @ mb).rows == ab
    assert (mb @ ma).rows == ba
    assert ma.commutator(mb).rows == [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    assert ma.commutator(mb) == ma @ mb - mb @ ma
    zero = OpMatrix(n, {})
    assert (ma @ zero).is_zero() and (zero @ ma).is_zero() and zero.commutator(ma).is_zero()
    # a polynomial in A commutes with A: each row total of the packed
    # commutator cancels to exactly 0
    square = dense_matmul(a, a)
    poly_a = [
        [3 * s - 2 * x + (7 if i == j else 0) for j, (s, x) in enumerate(zip(rs, ra))]
        for i, (rs, ra) in enumerate(zip(square, a))
    ]
    assert ma.commutator(rows_to_matrix(poly_a)).is_zero()
    assert ma.commutator(ma).is_zero()


# Printer cases: two ring shapes, each with a ring that every example warms
# and a fresh ring built per example.
PRINT_SHAPES = {(2, 1): Ring(2, 1), (4, 3): Ring(4, 3)}
print_coefficients = st.one_of(
    st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-1)]),
    st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
    st.fractions(max_denominator=10**12).filter(bool),
)
print_exponents = st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(3, 400))


@st.composite
def printer_cases(draw):
    """A ring shape and an operator's raw terms {alpha: {packed monomial:
    coefficient}}: high exponents, constants, integral Fractions stored as
    they are, and the zero operator."""
    shape = draw(st.sampled_from(sorted(PRINT_SHAPES)))
    ring = PRINT_SHAPES[shape]
    width = len(ring.names)
    alphas = st.tuples(*[print_exponents] * ring.num_vars)
    monomials = st.one_of(st.just((0,) * width), st.tuples(*[print_exponents] * width))
    coeffs = st.dictionaries(monomials, print_coefficients, min_size=1, max_size=4)
    terms = draw(st.dictionaries(alphas, coeffs, max_size=4))
    return shape, {alpha: {ring.pack(e): c for e, c in m.items()} for alpha, m in terms.items()}


@settings(max_examples=200, deadline=None)
@given(printer_cases())
def test_printers_match_reference(case):
    shape, terms = case
    texts = []
    for ring in (PRINT_SHAPES[shape], Ring(*shape), Ring(*shape)):
        op = WeylOp(ring, {a: Poly(ring, dict(m), _trusted=True) for a, m in terms.items()},
                    _trusted=True)
        for _ in range(2):  # the second print reads the texts the first cached
            text = print_canonical(op)
            assert text == reference_print(op)
            texts.append(text)
            for p in op.terms.values():
                assert format_poly(p) == reference_format_poly(p)
    assert len(set(texts)) == 1
    assert (texts[0] == "0") == (not terms)


@settings(max_examples=100, deadline=None)
@given(leibniz_cases(), polys)
def test_charged_work_covers_formed_pairs(case, p):
    # the work the kernel charges against the term pairs that _add_products
    # receives, on the kernel and on the coefficient-wise path of a
    # multiplication operator, where the two are equal
    a, b = case
    pairs = [0]

    def counted(acc, x, y, weight):
        pairs[0] += len(x) * len(y)
        return add_products(acc, x, y, weight)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "_add_products", counted)
        for left, right in ((a, b), (b, a), (a, a), (a * b, b), (WeylOp.from_poly(p), a)):
            coefficient_wise = set(left.terms) <= {(0, 0)}
            for compose, exact in ((left.__mul__, coefficient_wise), (left.commutator, False)):
                pairs[0] = 0
                work = sum(charged(lambda: compose(right)))
                assert work == pairs[0] if exact else work >= pairs[0]
