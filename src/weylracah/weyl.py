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
from typing import Mapping

from .poly import SCALAR_TYPES, ContextMismatchError, Poly, Ring, SparseSum

__all__ = ["WeylOp", "commutator"]


@lru_cache(maxsize=4096)
def _lower_exponents(alpha: tuple) -> tuple:
    """All gamma with 0 <= gamma <= alpha componentwise, with binomial weights.

    Yields pairs (gamma, prod_i C(alpha_i, gamma_i)); the weights are the
    coefficients of d^alpha p = sum_gamma C(alpha, gamma) (d^gamma p) d^(alpha-gamma).
    """
    ranges = [range(a + 1) for a in alpha]
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
    normal-ordered composition.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Poly], *, _trusted=False):
        self.ring = ring
        if _trusted:
            self.terms = terms
            return
        clean = {}
        for alpha, coeff in terms.items():
            if len(alpha) != ring.num_vars or any(a < 0 for a in alpha):
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
        if isinstance(other, WeylOp):
            if other.ring != self.ring:
                raise ContextMismatchError(f"{self.ring!r} vs {other.ring!r}")
            return other
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ContextMismatchError(f"{self.ring!r} vs {other.ring!r}")
            return WeylOp.from_poly(other)
        if isinstance(other, SCALAR_TYPES):
            return WeylOp.scalar(self.ring, other)
        return None

    def __mul__(self, other):
        """Normal-ordered composition self after other.

        d^alpha (q d^beta) expands by Leibniz into
        sum_{gamma <= alpha} C(alpha, gamma) (d^gamma q) d^(alpha - gamma + beta).
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple, Poly] = {}
        deriv_cache: dict[tuple, Poly] = {}
        b_items = list(other.terms.items())
        for alpha, p in self.terms.items():
            expansions = _lower_exponents(alpha)
            for beta, q in b_items:
                for gamma, weight in expansions:
                    if any(gamma):
                        key = (beta, gamma)
                        dq = deriv_cache.get(key)
                        if dq is None:
                            dq = q.diff_multi(gamma)
                            deriv_cache[key] = dq
                        if not dq:
                            continue
                        piece = p * dq
                        if weight != 1:
                            piece = piece * weight
                    else:
                        piece = p * q
                    exp = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
                    acc = out.get(exp)
                    if acc is None:
                        out[exp] = piece
                    else:
                        acc = acc + piece
                        if acc:
                            out[exp] = acc
                        else:
                            del out[exp]
        return WeylOp(self.ring, out, _trusted=True)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    # -- actions -----------------------------------------------------------

    def commutator(self, other: "WeylOp") -> "WeylOp":
        return self * other - other * self

    def apply(self, p: Poly) -> Poly:
        """Act on a polynomial: sum_alpha p_alpha * (d^alpha p)."""
        if p.ring != self.ring:
            raise ContextMismatchError(f"{self.ring!r} vs {p.ring!r}")
        result = self.ring.zero()
        for alpha, coeff in self.terms.items():
            dp = p.diff_multi(alpha)
            if dp:
                result = result + coeff * dp
        return result

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

    def max_order(self) -> int:
        """Highest total derivative order present."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def __repr__(self):
        from .printing import print_canonical

        return print_canonical(self)


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return a.commutator(b)
