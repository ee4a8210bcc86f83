"""WeylOp composition, commutator and apply against plain sympy calculus.

The oracle shares no code with poly, weyl or printing. An operator is
drawn here as data, {alpha: {exponent tuple: coefficient}}; sympy acts with
it by differentiating, on a generic function f(u1, ..., um) for products
and on a polynomial for `apply`. The engine's results are read back through
the packed layout as it is documented, decoded here.
"""

import random
from fractions import Fraction

import sympy

from weylracah import Poly, Ring, WeylOp
from weylracah.poly import FIELD


def symbols(n: int):
    us = sympy.symbols(f"u1:{n - 1}")  # the ring at n factors has n - 2 variables
    params = sympy.symbols(f"k nu1:{n + 1}")
    return us, us + params


def monomial(syms, exps):
    return sympy.Mul(*[s**e for s, e in zip(syms, exps)])


def poly_expr(syms, table: dict):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * monomial(syms, e)
                       for e, c in table.items()])


def decoded(syms, p: Poly):
    """A result polynomial read from its packed monomials: one FIELD-bit
    field per symbol, the first symbol highest, the total degree above."""
    width, mask = len(syms), (1 << FIELD) - 1
    table = {}
    for m, c in p.terms.items():
        exps = tuple(m >> FIELD * (width - 1 - pos) & mask for pos in range(width))
        assert m >> FIELD * width == sum(exps)
        table[exps] = Fraction(c)
    return poly_expr(syms, table)


def act(us, terms, g):
    """sum_alpha p_alpha d^alpha g over (alpha, p_alpha) pairs, differentiated by sympy."""
    return sympy.Add(*[p * (sympy.diff(g, *zip(us, alpha)) if any(alpha) else g)
                       for alpha, p in terms])


def oracle_terms(syms, op_table: dict):
    return [(alpha, poly_expr(syms, table)) for alpha, table in op_table.items()]


def engine_terms(syms, op: WeylOp):
    return [(alpha, decoded(syms, p)) for alpha, p in op.terms.items()]


def random_table(rng, width: int, nv: int, terms: int) -> dict:
    """1..terms terms of degree <= 2, more than half the factors u variables."""
    table = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * width
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(nv) if rng.random() < 0.6 else rng.randrange(width)] += 1
        table[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return {e: c for e, c in table.items() if c}


def random_op_table(rng, width: int, nv: int) -> dict:
    ops = {}
    for _ in range(rng.randint(1, 3)):
        alpha = [0] * nv
        for _ in range(rng.randint(0, 2)):
            alpha[rng.randrange(nv)] += 1
        ops[tuple(alpha)] = random_table(rng, width, nv, 2)
    return ops


def engine_op(ring, op_table):
    return WeylOp(ring, {alpha: Poly(ring, t) for alpha, t in op_table.items()})


def test_weyl_algebra_matches_sympy_differentiation():
    rng = random.Random(20261018)
    nonzero = 0
    for n in (3, 4):
        ring = Ring(n - 2, n)
        us, syms = symbols(n)
        f = sympy.Function("f")(*us)
        for _ in range(25):
            a_table = random_op_table(rng, len(syms), len(us))
            b_table = random_op_table(rng, len(syms), len(us))
            a, b = engine_op(ring, a_table), engine_op(ring, b_table)
            a_sym, b_sym = oracle_terms(syms, a_table), oracle_terms(syms, b_table)
            # composition: (a b) f = a (b f)
            expected = act(us, a_sym, act(us, b_sym, f))
            assert sympy.expand(act(us, engine_terms(syms, a * b), f) - expected) == 0
            # commutator: [a, b] f = a (b f) - b (a f)
            expected -= act(us, b_sym, act(us, a_sym, f))
            assert sympy.expand(act(us, engine_terms(syms, a.commutator(b)), f) - expected) == 0
            nonzero += bool(a.commutator(b))
            # apply: a acting on a polynomial
            g_table = random_table(rng, len(syms), len(us), 4)
            expected = act(us, a_sym, poly_expr(syms, g_table))
            assert sympy.expand(decoded(syms, a.apply(Poly(ring, g_table))) - expected) == 0
    assert nonzero >= 30  # the draws exercise the Leibniz terms
