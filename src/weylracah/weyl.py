"""Normal-ordered differential operators with polynomial coefficients.

An operator is a finite map from partial-derivative exponent vectors to
polynomial coefficients, meaning sum_alpha p_alpha(u, params) d^alpha with
every multiplication operator to the left of every derivative. Composition
re-establishes this normal form through the multivariate Leibniz rule, so
operator equality is plain map equality.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import add, sub
from typing import Mapping

from .poly import SCALAR_TYPES, ContextMismatchError, Poly, Ring, SparseSum, _add_products

__all__ = ["WeylOp"]


@lru_cache(maxsize=4096)
def _lower_exponents(alpha: tuple, top: tuple) -> tuple:
    """All gamma with 0 <= gamma <= min(alpha, top) componentwise, with binomial weights.

    Yields pairs (gamma, prod_i C(alpha_i, gamma_i)); the weights are the
    coefficients of d^alpha p = sum_gamma C(alpha, gamma) (d^gamma p) d^(alpha-gamma).
    top is p's degree in each variable: a larger gamma_i differentiates p to zero.
    """
    ranges = [range(min(a, t) + 1) for a, t in zip(alpha, top)]
    out = []
    for gamma in product(*ranges):
        weight = 1
        for a, g in zip(alpha, gamma):
            weight *= math.comb(a, g)
        out.append((gamma, weight))
    return tuple(out)


class WeylOp(SparseSum):
    """Element of the Weyl algebra over a ring's u-variables, in normal form.

    Sums, negation, equality and powers come from SparseSum; the product is
    normal-ordered composition. `_derivs`, derived data and not part of `==`,
    maps (beta, gamma) to the terms and lead of d^gamma of the coefficient of
    d^beta, filled by `_leibniz` when the operator is its right operand.
    """

    __slots__ = ("ring", "terms", "_derivs")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Poly], *, _trusted=False):
        self.ring, self._derivs = ring, None
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
        """Normal-ordered composition self after other."""
        if type(other) in SCALAR_TYPES:
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._leibniz(other, 0)

    def _u_degrees(self, left: "WeylOp") -> tuple:
        """The largest exponent of each u-variable over all coefficients,
        read only up to the highest order in which `left` differentiates that
        variable: composing left after self goes no deeper, so
        min(alpha_i, top_i) is the same for every alpha of left."""
        monomials = [m for q in self.terms.values() for m in q.terms]
        return self.ring.capped_degrees(monomials, map(max, zip(*left.terms)))

    def product_work(self, other: "WeylOp", start: int = 0) -> int:
        """Coefficient term pairs that the Leibniz kernel `_leibniz` can form
        composing self after other: each term of self meets each term of
        other once per gamma of its Leibniz expansion, leaving out gamma = 0
        when start is 1, as each order of a commutator does."""
        top = other._u_degrees(self)
        size = sum(len(q.terms) for q in other.terms.values())
        return size * sum(
            len(p.terms) * (math.prod(min(a, t) + 1 for a, t in zip(alpha, top)) - start)
            for alpha, p in self.terms.items()
        )

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
        Each d^gamma q is taken once per right operand, in its `_derivs` table.
        """
        ring = self.ring
        out: dict[tuple, dict] = {}
        for left, right, sign in ((self, other, 1), (other, self, -1))[: start + 1]:
            derivs = right._derivs
            if derivs is None:
                derivs = right._derivs = {}
            top = right._u_degrees(left)
            for alpha, p in left.terms.items():
                expansions = [
                    (gamma, sign * weight, tuple(map(sub, alpha, gamma)))
                    for gamma, weight in _lower_exponents(alpha, top)[start:]
                ]
                if not expansions:
                    continue
                lead = max(p.terms)
                for beta, q in right.terms.items():
                    for gamma, weight, rest in expansions:
                        dq = derivs.get((beta, gamma))
                        if dq is None:
                            terms = (q.diff_multi(gamma) if any(gamma) else q).terms
                            dq = derivs[beta, gamma] = (terms, max(terms, default=-1))
                        if dq[1] < 0:
                            continue
                        ring.check_product(lead, dq[1])
                        exp = tuple(map(add, rest, beta))
                        acc = out.get(exp)
                        if acc is None:
                            acc = out[exp] = {}
                        _add_products(acc, p.terms, dq[0], weight)
        terms = {}
        for exp, acc in out.items():
            if not all(acc.values()):
                acc = {m: c for m, c in acc.items() if c}
            if acc:
                terms[exp] = Poly(ring, acc, _trusted=True)
        return WeylOp(ring, terms, _trusted=True)

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
