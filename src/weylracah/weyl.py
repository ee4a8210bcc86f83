"""Normal-ordered differential operators with polynomial coefficients.

An operator is a finite map from partial-derivative exponent vectors to
polynomial coefficients, meaning sum_alpha p_alpha(u, params) d^alpha with
every multiplication operator to the left of every derivative. Composition
re-establishes this normal form by the Leibniz rule, or coefficient-wise for a
left operand without derivatives, so operator equality is plain map equality.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from functools import lru_cache
from itertools import product
from operator import add, sub
from typing import Mapping

from .poly import (MAX_DEGREE, SCALAR_TYPES, ContextMismatchError, Poly, Ring, SparseSum,
                   _add_products, _reduced)

__all__ = ["WeylOp"]

# The charge callable of the request whose operators are being formed, or None: products
# call it with the work of each step, in term pairs, before the step; it refuses by raising.
CHARGE: ContextVar = ContextVar("CHARGE", default=None)
# Term pairs that one (gamma, beta) visit of the Leibniz kernel costs about as much as:
# its expansion, derivative table lookup, degree check and exponent sum.
GAMMA_WORK = 8


@lru_cache(maxsize=4096)
def _lower_exponents(alpha: tuple, top: tuple) -> tuple:
    """All gamma with 0 <= gamma <= min(alpha, top) componentwise, with binomial weights.

    Yields triples (gamma, prod_i C(alpha_i, gamma_i), alpha - gamma); the weights are
    the coefficients of d^alpha p = sum_gamma C(alpha, gamma) (d^gamma p) d^(alpha-gamma).
    top is p's degree in each variable: a larger gamma_i differentiates p to zero.
    """
    ranges = [range(min(a, t) + 1) for a, t in zip(alpha, top)]
    out = []
    for gamma in product(*ranges):
        weight = 1
        for a, g in zip(alpha, gamma):
            weight *= math.comb(a, g)
        out.append((gamma, weight, tuple(map(sub, alpha, gamma))))
    return tuple(out)


def _normal(ring: Ring, out: dict) -> "WeylOp":
    """The operator of {exponent: {monomial: coefficient}} sums, zeros
    dropped and integral Fractions stored as ints."""
    terms = {}
    for exp, acc in out.items():
        acc = _reduced(acc)
        if acc:
            terms[exp] = Poly(ring, acc, _trusted=True)
    return WeylOp(ring, terms, _trusted=True)


def _compose_into(out: dict, p: Mapping, op: "WeylOp") -> None:
    """Add p op into out, an {exponent: {monomial: coefficient}} map for
    `_normal`, for p a multiplication operator given by its raw coefficient
    map: coefficient-wise, p q_beta d^beta, as no Leibniz term has gamma > 0.
    Each coefficient product is degree-checked as p * q_beta would be and,
    under a CHARGE, charged before it is formed."""
    ring, lead, charge = op.ring, max(p), CHARGE.get()
    for beta, q in op.terms.items():
        ring.check_product(lead, max(q.terms))
        if charge is not None:
            charge(len(p) * len(q.terms))
        _add_products(out.setdefault(beta, {}), p, q.terms, 1)


def _power_product(images: list, exps: tuple) -> dict:
    """prod_i images[i]^exps[i] over raw {packed monomial: coefficient} maps."""
    acc = {0: 1}
    for image, e in zip(images, exps):
        for _ in range(e):
            acc, prev = {}, acc
            _add_products(acc, prev, image, 1)
    return acc


class WeylOp(SparseSum):
    """Element of the Weyl algebra over a ring's u-variables, in normal form.

    Sums, negation, equality and powers come from SparseSum; the product is
    normal-ordered composition. Derived data, not part of `==`, set by
    `_leibniz` when the operator is its right operand: `_derivs` maps (beta,
    gamma) to the terms and lead of d^gamma of the coefficient of d^beta, and
    `_tops` holds the largest exponent of each u-variable over the coefficients.
    """

    __slots__ = ("ring", "terms", "_derivs", "_tops")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Poly], *, _trusted=False):
        self.ring, self._derivs, self._tops = ring, None, None
        if _trusted:
            self.terms = terms
            return
        clean = {}
        for alpha, coeff in terms.items():
            if len(alpha) != ring.num_vars or any(type(a) is not int or a < 0 for a in alpha):
                raise ValueError(f"bad derivative exponent {alpha} for {ring!r}")
            if not isinstance(coeff, Poly):
                coeff = ring.const(coeff)
            if coeff.ring != ring:
                raise ContextMismatchError("coefficient ring differs from operator ring")
            if coeff:
                clean[tuple(alpha)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "WeylOp":
        return WeylOp(ring, {}, _trusted=True)

    @staticmethod
    def identity(ring: Ring) -> "WeylOp":
        return WeylOp.from_poly(ring.one())

    @staticmethod
    def scalar(ring: Ring, value) -> "WeylOp":
        return WeylOp.from_poly(ring.const(value))

    @staticmethod
    def from_poly(p: Poly) -> "WeylOp":
        """The multiplication operator q -> p*q."""
        if not p:
            return WeylOp.zero(p.ring)
        return WeylOp(p.ring, {(0,) * p.ring.num_vars: p}, _trusted=True)

    @staticmethod
    def partial(ring: Ring, i: int) -> "WeylOp":
        """The derivative d/du_i (1-based)."""
        if not 1 <= i <= ring.num_vars:
            raise ValueError(f"derivative index {i} out of range 1..{ring.num_vars}")
        alpha = tuple(1 if j == i - 1 else 0 for j in range(ring.num_vars))
        return WeylOp(ring, {alpha: ring.one()}, _trusted=True)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "WeylOp | None":
        if not isinstance(other, WeylOp):
            if isinstance(other, SCALAR_TYPES):
                return WeylOp.scalar(self.ring, other)
            if not isinstance(other, Poly):
                return None
            other = WeylOp.from_poly(other)
        if other.ring is not self.ring and other.ring != self.ring:
            raise ContextMismatchError(f"{self.ring!r} vs {other.ring!r}")
        return other

    def __mul__(self, other):
        """Normal-ordered composition self after other. A multiplication operator
        self = p composes coefficient-wise, p q_beta d^beta: no Leibniz term has gamma > 0."""
        if type(other) in SCALAR_TYPES:
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.terms) != 1 or any(next(iter(self.terms))):
            return self._leibniz(other, 0)
        out = {}
        _compose_into(out, next(iter(self.terms.values())).terms, other)
        return _normal(self.ring, out)

    def _leibniz(self, other: "WeylOp", start: int) -> "WeylOp":
        """self after other, or with start=1 their commutator: the Leibniz
        kernel over raw coefficient maps.

        d^alpha (q d^beta) expands into
        sum_{gamma <= alpha} C(alpha, gamma) (d^gamma q) d^(alpha - gamma + beta).
        gamma = 0 comes first in each expansion; start=1 leaves it out of
        both orders, since self*other and other*self share p q d^(alpha+beta)
        for every term pair, and adds other after self with sign -1. Each
        derivative exponent keeps one {monomial: coefficient} map, into
        which every term pair adds weight * c1 * c2 directly; zeros are dropped
        once, at the end. Each (p, d^gamma q) pair formed is degree-checked as
        the product p * d^gamma q would be; a vanishing d^gamma q forms none.
        Each d^gamma q is taken once per right operand, in its `_derivs` table;
        no gamma_i passes the right operand's `_tops`, past which d^gamma q is 0.
        Under a CHARGE, each step is charged before it is taken: the (gamma,
        beta) visits of each alpha, the terms of each d^gamma q formed, each pair.
        """
        ring, charge = self.ring, CHARGE.get()
        out: dict[tuple, dict] = {}
        for left, right, sign in ((self, other, 1), (other, self, -1))[: start + 1]:
            derivs, top = right._derivs, right._tops
            if derivs is None:
                derivs = right._derivs = {}
                top = right._tops = ring.u_degrees(right.terms.values())
            for alpha, p in left.terms.items():
                if charge is not None:
                    gammas = math.prod(min(a, t) + 1 for a, t in zip(alpha, top)) - start
                    charge(GAMMA_WORK * gammas * len(right.terms))
                # top = 0 leaves gamma = 0 alone, the one expansion of a u-free product
                expansions = (_lower_exponents(alpha, top) if any(top)
                              else ((top, 1, alpha),))[start:]
                if not expansions:
                    continue
                lead = max(p.terms)
                for beta, q in right.terms.items():
                    for gamma, weight, rest in expansions:
                        dq = derivs.get((beta, gamma))
                        if dq is None:
                            if charge is not None:
                                charge(len(q.terms))
                            terms = (q.diff_multi(gamma) if any(gamma) else q).terms
                            dq = derivs[beta, gamma] = (terms, max(terms, default=-1))
                        if dq[1] < 0:
                            continue
                        ring.check_product(lead, dq[1])
                        if charge is not None:
                            charge(len(p.terms) * len(dq[0]))
                        exp = tuple(map(add, rest, beta))
                        acc = out.get(exp)
                        if acc is None:
                            acc = out[exp] = {}
                        _add_products(acc, p.terms, dq[0], sign * weight)
        return _normal(ring, out)

    def __rmul__(self, other):
        if type(other) in SCALAR_TYPES:
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    # -- actions -----------------------------------------------------------

    def commutator(self, other) -> "WeylOp":
        """self*other - other*self, composed without the gamma = 0 Leibniz
        terms: both orders contain p q d^(alpha+beta) for every term pair, and
        those cancel."""
        op = self._coerce(other)
        if op is None:
            raise TypeError(f"no commutator of WeylOp with {type(other).__name__}")
        return self._leibniz(op, 1)

    def apply(self, p: Poly) -> Poly:
        """Act on a polynomial: sum_alpha p_alpha * (d^alpha p). Each product
        degree-checks the lead of d^alpha p, which holds only the terms that
        d^alpha keeps."""
        if p.ring != self.ring:
            raise ContextMismatchError(f"{self.ring!r} vs {p.ring!r}")
        return sum((coeff * p.diff_multi(alpha) for alpha, coeff in self.terms.items()),
                   self.ring.zero())

    def substitute(self, u_images: list[Poly], d_images: list["WeylOp"]) -> "WeylOp":
        """The image under the algebra map u_i -> u_images[i-1], d_i -> d_images[i-1], for
        linear u-images and constant-coefficient derivative sums that keep the Weyl relations:
        p_alpha d^alpha goes to p_alpha(u_images) prod_i d_images[i-1]^alpha_i, in normal order
        as the sums commute. A sum's d^beta is keyed as the packed u^beta."""
        ring, pad = self.ring, (0,) * (1 + self.ring.num_nu)
        if any(x.ring != ring for x in (*u_images, *d_images)):
            raise ContextMismatchError(f"images outside {ring!r}")
        shifts = ring.shifts[: ring.num_vars]
        us = [p.terms for p in u_images]
        ds = [{ring.pack(beta + pad): p.constant_value() for beta, p in op.terms.items()}
              for op in d_images]
        out: dict[tuple, dict] = {}
        for alpha, p in self.terms.items():
            parts: dict = {}  # the u-free parts of p's terms, by their u-exponents
            for m, c in p.terms.items():
                exps = tuple(m >> s & MAX_DEGREE for s in shifts)
                rest = (m & ~ring.u_mask) - (sum(exps) << ring.degree_shift)
                parts.setdefault(exps, {})[rest] = c
            coeff: dict = {}
            for exps, rest in parts.items():
                _add_products(coeff, rest, _power_product(us, exps), 1)
            for key, c in _power_product(ds, alpha).items():
                beta = tuple(key >> s & MAX_DEGREE for s in shifts)
                _add_products(out.setdefault(beta, {}), coeff, {0: c}, 1)
        return _normal(ring, out)

    def subs(self, assignment: Mapping[str, object]) -> "WeylOp":
        """Substitute parameter values into every coefficient.

        Only k and nu parameters may be assigned; substituting a u-variable
        inside an operator coefficient would not commute with the derivatives
        it multiplies.
        """
        for name in assignment:
            if self.ring.index_of(name) < self.ring.num_vars:
                raise ValueError(f"cannot substitute variable {name!r} in an operator")
        out = {}
        for alpha, coeff in self.terms.items():
            c = coeff.subs(assignment)
            if c:
                out[alpha] = c
        return WeylOp(self.ring, out, _trusted=True)

    def __repr__(self):
        from .printing import print_canonical

        return print_canonical(self)
