"""Exact sparse multivariate polynomials over the rationals.

The ring has two kinds of commuting symbols: variables u1..um (the only
differentiable ones) and formal parameters k, nu1..nun (constants under
differentiation). A polynomial is a finite map from exponent vectors to
nonzero rational coefficients, so structural equality is polynomial
equality.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

Rat = Fraction
SCALAR_TYPES = (int, Fraction)

__all__ = ["Rat", "Ring", "SparseSum", "Poly", "ContextMismatchError"]


class ContextMismatchError(ValueError):
    """Operands belong to different ambient rings."""


def _as_rat(value) -> Rat:
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction, or a 'p/q' string")
    return Rat(value)


class Ring:
    """Ambient ring Q[u1..um, k, nu1..nun].

    Exponent vectors are flat tuples ordered (u1..um, k, nu1..nun).
    Rings with equal shape are interchangeable.
    """

    __slots__ = ("num_vars", "num_nu", "names", "_index")

    def __init__(self, num_vars: int, num_nu: int = 0):
        if num_vars < 0 or num_nu < 0:
            raise ValueError("negative symbol count")
        self.num_vars = num_vars
        self.num_nu = num_nu
        self.names = tuple(
            [f"u{i}" for i in range(1, num_vars + 1)]
            + ["k"]
            + [f"nu{i}" for i in range(1, num_nu + 1)]
        )
        self._index = {name: pos for pos, name in enumerate(self.names)}

    @property
    def num_symbols(self) -> int:
        return self.num_vars + 1 + self.num_nu

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.num_vars == other.num_vars
            and self.num_nu == other.num_nu
        )

    def __hash__(self):
        return hash((self.num_vars, self.num_nu))

    def __repr__(self):
        return f"Ring(num_vars={self.num_vars}, num_nu={self.num_nu})"

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown symbol {name!r} in {self!r}") from None

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, value) -> Poly:
        c = _as_rat(value)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.num_symbols: c})

    def symbol(self, name: str) -> Poly:
        exps = [0] * self.num_symbols
        exps[self.index_of(name)] = 1
        return Poly(self, {tuple(exps): Rat(1)})

    def u(self, i: int) -> Poly:
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"variable index {i} out of range 1..{self.num_vars}")
        return self.symbol(f"u{i}")

    def k(self) -> Poly:
        return self.symbol("k")

    def nu(self, i: int) -> Poly:
        if not 1 <= i <= self.num_nu:
            raise ValueError(f"parameter index {i} out of range 1..{self.num_nu}")
        return self.symbol(f"nu{i}")

    def u_sum(self, indices: Iterable[int]) -> Poly:
        """Sum of the variables u_i over an index set."""
        total = self.zero()
        for i in indices:
            total = total + self.u(i)
        return total


def grlex_key(exps: tuple) -> tuple:
    """Graded-lex sort key; sort descending to put leading terms first."""
    return (sum(exps), exps)


class SparseSum:
    """Ring operations shared by Poly and WeylOp.

    An element is a finite map `terms` from keys (monomials, or derivative
    exponents) to nonzero coefficients over `ring`. A subclass supplies the
    constructor `(ring, terms, *, _trusted)`, `_coerce`, which turns an
    operand into the subclass or returns None, and its own product.
    """

    __slots__ = ()

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __neg__(self):
        return type(self)(self.ring, {key: -c for key, c in self.terms.items()}, _trusted=True)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for key, c in small.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return type(self)(self.ring, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("power must be a non-negative integer")
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


class Poly(SparseSum):
    """Immutable sparse polynomial; never stores zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Rat], *, _trusted=False):
        self.ring = ring
        if _trusted:
            self.terms = terms
            return
        clean = {}
        width = ring.num_symbols
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} has wrong length for {ring!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_rat(coeff)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ContextMismatchError(f"{self.ring!r} vs {other.ring!r}")
            return other
        if isinstance(other, SCALAR_TYPES):
            return self.ring.const(other)
        return None

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # Poly's own entry: perfbench/tracing.py wraps Poly.__add__ without
    # touching WeylOp's additions, which inherit SparseSum.__add__.
    __add__ = __radd__ = SparseSum.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        add = operator.add
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(map(add, m1, m2))
                c = c1 * c2
                acc = out.get(key)
                if acc is None:
                    out[key] = c
                else:
                    acc = acc + c
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return Poly(self.ring, out, _trusted=True)

    __rmul__ = __mul__

    def diff(self, var_index: int) -> "Poly":
        """Formal partial derivative with respect to u_{var_index} (1-based).

        Parameters k and nu are constants, so only u-variables admit a
        derivative.
        """
        nv = self.ring.num_vars
        if not 1 <= var_index <= nv:
            raise ValueError(f"derivative index {var_index} out of range 1..{nv}")
        return self.diff_multi(tuple(int(pos == var_index - 1) for pos in range(nv)))

    def diff_multi(self, orders: tuple) -> "Poly":
        """Iterated derivative; orders[i] applications of d/du_{i+1}.

        One pass over the terms: u^e goes to e!/(e-o)! u^(e-o), and to zero
        when e < o. Distinct monomials stay distinct, so nothing merges.
        """
        if any(orders[self.ring.num_vars :]):
            raise ValueError(f"derivative orders {orders} name a parameter of {self.ring!r}")
        active = [(pos, o) for pos, o in enumerate(orders) if o]
        if not active:
            return self
        out = {}
        for m, c in self.terms.items():
            key = list(m)
            for pos, o in active:
                e = m[pos]
                if e < o:
                    break
                c = c * math.perm(e, o)
                key[pos] = e - o
            else:
                out[tuple(key)] = c
        return Poly(self.ring, out, _trusted=True)

    def subs(self, assignment: Mapping[str, object]) -> "Poly":
        """Substitute rational values for symbols named in the assignment.

        Unassigned symbols stay formal; keys must name symbols of the ring.
        """
        if not assignment:
            return self
        positions = {}
        for name, value in assignment.items():
            positions[self.ring.index_of(name)] = _as_rat(value)
        out = {}
        for m, c in self.terms.items():
            scale = c
            new = list(m)
            for pos, value in positions.items():
                e = m[pos]
                if e:
                    scale = scale * value**e
                    new[pos] = 0
            if not scale:
                continue
            key = tuple(new)
            acc = out.get(key)
            if acc is None:
                out[key] = scale
            else:
                acc = acc + scale
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return Poly(self.ring, out, _trusted=True)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def u_degree(self) -> int:
        """Largest total degree in the u-variables alone."""
        if not self.terms:
            return 0
        nv = self.ring.num_vars
        return max(sum(m[:nv]) for m in self.terms)

    def is_u_free(self) -> bool:
        nv = self.ring.num_vars
        return all(not any(m[:nv]) for m in self.terms)

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Rat:
        """Rational value of a constant polynomial."""
        if not self.terms:
            return Rat(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def sorted_terms(self):
        """Terms in decreasing graded-lex order, for printing and reports."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def __repr__(self):
        from .printing import format_poly

        return format_poly(self)
