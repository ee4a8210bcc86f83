"""Deterministic random generators shared by the test modules, and small
functions only the tests call."""

import math
import random
from itertools import product

from weylracah import Poly, RacahContext, Rat, Ring, SlElement, WeylOp, weyl
from weylracah.poly import MAX_DEGREE


def charged(compute) -> list:
    """The work that products charge, in order, while compute() runs."""
    charges = []
    token = weyl.CHARGE.set(charges.append)
    try:
        compute()
    finally:
        weyl.CHARGE.reset(token)
    return charges


def random_rational(rng: random.Random, span: int = 6) -> Rat:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Rat(num, den)


def random_poly(rng: random.Random, ring: Ring, max_degree: int = 3, max_terms: int = 4) -> Poly:
    terms = {}
    width = num_symbols(ring)
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * width
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(width)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Rat(0)) + random_rational(rng)
    return Poly(ring, terms)


def random_weyl(rng: random.Random, ring: Ring, max_order: int = 2, max_terms: int = 3) -> WeylOp:
    op = WeylOp.zero(ring)
    for _ in range(rng.randint(0, max_terms)):
        alpha = [0] * ring.num_vars
        for _ in range(rng.randint(0, max_order)):
            alpha[rng.randrange(ring.num_vars)] += 1
        coeff = random_poly(rng, ring, max_degree=2, max_terms=2)
        op = op + WeylOp(ring, {tuple(alpha): coeff})
    return op


def random_invariant_op(rng: random.Random, dm, max_factors: int = 2) -> WeylOp:
    """Random element of the enveloping algebra of the sl model.

    Sums of products of generator images, so the result always preserves
    the bounded-degree space.
    """
    m = dm.m

    def atom():
        roll = rng.randrange(3)
        if roll == 0:
            return dm.ttilde_op(rng.randint(1, m - 1))
        if roll == 1:
            return dm.euler_op()
        i = rng.randint(1, m)
        j = rng.randint(1, m)
        while j == i:
            j = rng.randint(1, m)
        return dm.t_op(i, j)

    op = WeylOp.zero(dm.ring)
    for _ in range(rng.randint(1, 2)):
        piece = atom()
        for _ in range(rng.randint(0, max_factors - 1)):
            piece = piece * atom()
        op = op + random_rational(rng) * piece
    return op


def random_nu_values(rng: random.Random, n: int) -> dict:
    return {
        f"nu{i}": Rat(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))
        for i in range(1, n + 1)
    }


def monomial_poly(pi, position: int) -> Poly:
    """Basis monomial number `position` of a PiBasis, as a polynomial."""
    return Poly(pi.ring, {pi.monomials[position]: 1})


def num_symbols(ring: Ring) -> int:
    """The ring's symbol count: its u variables, k and its nu parameters."""
    return ring.num_vars + 1 + ring.num_nu


def diff(p: Poly, var_index: int) -> Poly:
    """Formal partial derivative with respect to u_{var_index} (1-based).

    Parameters k and nu are constants, so only u-variables admit a
    derivative.
    """
    nv = p.ring.num_vars
    if not 1 <= var_index <= nv:
        raise ValueError(f"derivative index {var_index} out of range 1..{nv}")
    return p.diff_multi(tuple(int(pos == var_index - 1) for pos in range(nv)))


def total_degree(p: Poly) -> int:
    return max(p.terms) >> p.ring.degree_shift if p.terms else 0


def u_degree(p: Poly) -> int:
    """Largest total degree in the u-variables alone."""
    shifts = p.ring.shifts[: p.ring.num_vars]
    return max((sum(m >> s & MAX_DEGREE for s in shifts) for m in p.terms), default=0)


def sl_from_matrix(m: int, mat) -> SlElement:
    """The sl_m element with this m x m matrix (a list of rows)."""
    return SlElement(m, {(i + 1, j + 1): mat[i][j] for i in range(m) for j in range(m)})


def reference_leibniz(left: WeylOp, right: WeylOp, start: int = 0) -> WeylOp:
    """left after right, one Poly product per (term, term, gamma) piece and
    the pieces summed as Polys: sum C(alpha, gamma) (p * d^gamma q) d^(alpha -
    gamma + beta) over every gamma <= alpha; start=1 leaves out gamma = 0, as
    each order of a commutator does."""
    ring = left.ring
    total = WeylOp.zero(ring)
    for alpha, p in left.terms.items():
        for gamma in list(product(*(range(a + 1) for a in alpha)))[start:]:
            weight = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            for beta, q in right.terms.items():
                dq = q.diff_multi(gamma)
                if dq:
                    exp = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
                    total = total + WeylOp(ring, {exp: p * dq * weight})
    return total


def kernel_c_pair(ctx: RacahContext, i: int, j: int) -> tuple[WeylOp, WeylOp]:
    """(lead, op) of the pair Casimir assembled as -(f^2 (A B)) + 2 nu_hi (f P)
    + 2 nu_lo (f Q) + s (s - 1) over the shape of the sorted pair, with every
    operator product composed by the Leibniz kernel `_leibniz`, a polynomial
    factor as its multiplication operator."""
    lo, hi = ctx.pair_key(i, j)
    f, a, b, p, q = ctx._pair_shape(lo, hi)
    nu = ctx.ring.nu

    def kernel(x: Poly, y: WeylOp) -> WeylOp:
        return WeylOp.from_poly(x)._leibniz(y, 0)

    lead = -kernel(f**2, a._leibniz(b, 0))
    middle = kernel(2 * nu(hi), kernel(f, p)) + kernel(2 * nu(lo), kernel(f, q))
    return lead, lead + middle + ctx.nu_casimir(lo, hi)


def perturbed_context(n: int, pair: tuple = (1, 3)) -> RacahContext:
    """A racah context at n whose C_pair (C_13 by default) has u1 d1 added,
    which breaks cyclic triples through the pair."""
    ctx = RacahContext(n)
    u1_d1 = WeylOp.from_poly(ctx.ring.u(1)) * WeylOp.partial(ctx.ring, 1)
    ctx._pairs[pair] = (ctx.c_pair_lead(*pair), ctx.c_pair(*pair) + u1_d1)
    return ctx


def _reference_power(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _reference_render(ring: Ring, flat_terms) -> str:
    """Text of (coeff, monomial, derivative text) triples in order, each
    monomial's factors spelled out from its exponents with no cache."""
    if not flat_terms:
        return "0"
    pieces = []
    for index, (coeff, monomial, derivative) in enumerate(flat_terms):
        exps = ring.unpack(monomial)
        monomial_text = " ".join(
            _reference_power(name, exp) for name, exp in zip(ring.names, exps) if exp
        )
        factors = [text for text in (monomial_text, derivative) if text]
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        body = " ".join(factors)
        if index == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def reference_print(op: WeylOp) -> str:
    """The canonical text of an operator, built term by term: derivative
    exponents by decreasing (total order, exponent), then monomials by
    decreasing packed key, the order `printing.print_canonical` keeps."""
    flat = []
    for alpha in sorted(op.terms, key=lambda a: (sum(a), a), reverse=True):
        derivative = " ".join(
            _reference_power(f"d{pos + 1}", exp) for pos, exp in enumerate(alpha) if exp
        )
        for monomial, coeff in sorted(op.terms[alpha].terms.items(), reverse=True):
            flat.append((coeff, monomial, derivative))
    return _reference_render(op.ring, flat)


def reference_format_poly(p: Poly) -> str:
    """The canonical text of a polynomial, as `printing.format_poly` prints it."""
    return _reference_render(p.ring, [(c, m, "") for m, c in sorted(p.terms.items(), reverse=True)])


def reference_text(value) -> str:
    """The text a report holds for a check operand: the reference printers
    for operators and polynomials, repr for anything else."""
    if type(value) is WeylOp:
        return reference_print(value)
    if type(value) is Poly:
        return reference_format_poly(value)
    return repr(value)
