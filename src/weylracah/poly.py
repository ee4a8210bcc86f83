"""Exact sparse multivariate polynomials over the rationals.

The ring has two kinds of commuting symbols: variables u1..um (the only
differentiable ones) and formal parameters k, nu1..nun (constants under
differentiation). A polynomial is a finite map from monomials to nonzero
rational coefficients, so structural equality is polynomial equality.

A monomial is one packed int (Monagan and Pearce's packed exponent
vectors): a field of FIELD bits per symbol, u1 most significant, and the
total degree in a field above them all. Graded-lex order is then integer
order, and the product of two monomials is their sum. A total degree, and
so every exponent, is at most MAX_DEGREE, which keeps the fields of a sum
from carrying; a product that would pass it raises MonomialOverflowError.

A coefficient enters as an `int` when it is integral and as a `Fraction`
only otherwise. Mixed int/Fraction arithmetic is exact and an integral
Fraction equals and hashes like its int, so the two kinds never need to be
told apart; integer work simply stays on the fast int path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

Rat = Fraction
# The scalar fast paths of products test `type(x) in SCALAR_TYPES`: isinstance
# against Fraction, an ABC, would cost every other product an ABC check.
SCALAR_TYPES = (int, Fraction)
# Bits of one exponent field; MAX_DEGREE is the largest value a field holds.
FIELD = 16
MAX_DEGREE = (1 << FIELD) - 1

__all__ = ["Rat", "Ring", "SparseSum", "Poly", "ContextMismatchError", "MonomialOverflowError"]


class ContextMismatchError(ValueError):
    """Operands belong to different ambient rings."""


class MonomialOverflowError(ValueError):
    """A monomial's total degree would exceed MAX_DEGREE."""


def _as_rat(value) -> int | Rat:
    """An exact coefficient: an int when the value is integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction, or a 'p/q' string")
    c = Rat(value)
    return c.numerator if c.denominator == 1 else c


def _add_products(acc: dict, a: Mapping, b: Mapping, scale) -> None:
    """Add scale * c1 * c2 at m1 + m2 into acc for each term pair of the
    coefficient maps a and b. A sum that cancels stays in acc as a zero, for
    the caller to drop once it has added everything."""
    get = acc.get
    for m1, c1 in a.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in b.items():
            key = m1 + m2
            old = get(key)
            acc[key] = c1 * c2 if old is None else old + c1 * c2


class Ring:
    """Ambient ring Q[u1..um, k, nu1..nun].

    Exponent vectors are flat tuples ordered (u1..um, k, nu1..nun); `pack`
    and `unpack` convert them to and from packed monomials, and `shifts[pos]`
    is the offset of symbol pos's field. Rings with equal shape are
    interchangeable. `texts` caches the printed form of monomials for
    printing, `_plans` the plans of `Poly.diff_multi`, and `_rows` the
    derivative rows on a bounded-degree basis that `repmat.to_matrix` reads.
    """

    __slots__ = ("num_vars", "num_nu", "names", "_index", "shifts", "degree_shift", "u_mask",
                 "texts", "_plans", "_rows")

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
        width = len(self.names)
        self.shifts = tuple(FIELD * (width - 1 - pos) for pos in range(width))
        self.degree_shift = FIELD * width
        self.u_mask = sum(MAX_DEGREE << shift for shift in self.shifts[:num_vars])
        self.texts: dict[int, str] = {}
        self._plans: dict[tuple, tuple] = {}
        self._rows: dict[tuple, list] = {}

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

    def pack(self, exps) -> int:
        """The packed monomial of an exponent vector, checked."""
        if len(exps) != len(self.shifts):
            raise ValueError(f"exponent vector {exps} has wrong length for {self!r}")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        key = sum(exps)
        if key > MAX_DEGREE:
            raise MonomialOverflowError(
                f"monomial {exps} of degree {key} exceeds the limit {MAX_DEGREE}"
            )
        for e in exps:
            key = key << FIELD | e
        return key

    def unpack(self, m: int) -> tuple:
        """The exponent vector of a packed monomial."""
        return tuple(m >> shift & MAX_DEGREE for shift in self.shifts)

    def check_product(self, m1: int, m2: int) -> None:
        """Raise MonomialOverflowError if monomial m1 times m2 passes MAX_DEGREE."""
        degree = (m1 >> self.degree_shift) + (m2 >> self.degree_shift)
        if degree > MAX_DEGREE:
            raise MonomialOverflowError(
                f"a product of degree {degree} exceeds the limit {MAX_DEGREE}"
            )

    def capped_degrees(self, monomials: list, caps) -> tuple:
        """For each u-variable, the largest exponent over the monomials, read
        only up to that variable's entry of caps (0 reads nothing)."""
        top = []
        for shift, cap in zip(self.shifts, caps):
            t = 0
            if cap:
                for m in monomials:
                    e = m >> shift & MAX_DEGREE
                    if e > t:
                        t = min(e, cap)
                        if t == cap:
                            break
            top.append(t)
        return tuple(top)

    def zero(self) -> Poly:
        return Poly(self, {}, _trusted=True)

    def one(self) -> Poly:
        return self.const(1)

    def const(self, value) -> Poly:
        c = _as_rat(value)
        return Poly(self, {0: c} if c else {}, _trusted=True)

    def symbol(self, name: str) -> Poly:
        key = 1 << self.degree_shift | 1 << self.shifts[self.index_of(name)]
        return Poly(self, {key: 1}, _trusted=True)

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


class SparseSum:
    """Ring operations shared by Poly, WeylOp and SlElement.

    An element is a finite map `terms` from keys (monomials, derivative
    exponents or sl basis labels) to nonzero coefficients; `ring` is what
    two operands must share (the ambient ring or the rank of sl_m). A
    subclass supplies the constructor `(ring, terms, *, _trusted)`,
    `_coerce`, which turns an operand into the subclass or returns None, and
    its own product.
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
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

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

    def _scale(self, value):
        """The element times a rational scalar, coefficient by coefficient."""
        s = _as_rat(value)
        if not s:
            return type(self)(self.ring, {}, _trusted=True)
        return type(self)(self.ring, {key: c * s for key, c in self.terms.items()}, _trusted=True)

    # Poly and WeylOp replace this with their own products.
    __rmul__ = _scale

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
        if result is None:  # no unit: sl elements take no powers
            return NotImplemented
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

    def __init__(self, ring: Ring, terms: Mapping, *, _trusted=False):
        """`terms` maps exponent tuples to coefficients, which are checked;
        with _trusted it is the packed map itself, taken as it is."""
        self.ring = ring
        if _trusted:
            self.terms = terms
            return
        clean = {}
        for exps, coeff in terms.items():
            key = ring.pack(exps)
            c = _as_rat(coeff)
            if c:
                clean[key] = c
        self.terms = clean

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
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
        """The product; the key of a term pair is the sum of its monomials.

        Every monomial has at most the degree of its leading term, so one
        check of the two leading degrees keeps every field of every sum
        within MAX_DEGREE.
        """
        if type(other) in SCALAR_TYPES:
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        self.ring.check_product(max(a, default=0), max(b, default=0))
        out = {}
        _add_products(out, a, b, 1)
        if not all(out.values()):
            out = {key: c for key, c in out.items() if c}
        return Poly(self.ring, out, _trusted=True)

    __rmul__ = __mul__

    def diff_multi(self, orders: tuple) -> "Poly":
        """Iterated derivative; orders[i] applications of d/du_{i+1}, in one
        pass with the ring's cached plan of d^orders (each differentiated
        field's shift and order, and the packed amount a kept term loses):
        u^e goes to e!/(e-o)! u^(e-o), and to zero when e < o. Distinct
        monomials stay distinct, so each kept term is assigned."""
        if not any(orders):
            return self
        ring = self.ring
        plan = ring._plans.get(orders)
        if plan is None:
            if any(orders[ring.num_vars :]):
                raise ValueError(f"derivative orders {orders} name a parameter of {ring!r}")
            steps = tuple((ring.shifts[pos], o) for pos, o in enumerate(orders) if o)
            drop = sum(o << shift for shift, o in steps) + (sum(orders) << ring.degree_shift)
            plan = ring._plans[orders] = (steps, drop)
        steps, drop = plan
        out = {}
        for m, c in self.terms.items():
            weight = 1
            for shift, o in steps:
                e = m >> shift & MAX_DEGREE
                if e < o:
                    break
                weight *= math.perm(e, o)
            else:
                out[m - drop] = c * weight
        return Poly(ring, out, _trusted=True)

    def subs(self, assignment: Mapping[str, object]) -> "Poly":
        """Substitute rational values for symbols named in the assignment.

        Unassigned symbols stay formal; keys must name symbols of the ring.
        A coefficient that multiplies out to an integer is stored as an int.
        """
        if not assignment:
            return self
        ring = self.ring
        steps = [(ring.shifts[ring.index_of(name)], _as_rat(v)) for name, v in assignment.items()]
        degree_shift = ring.degree_shift
        out = {}
        for m, c in self.terms.items():
            key = m
            for shift, value in steps:
                e = m >> shift & MAX_DEGREE
                if e:
                    c = c * value**e
                    key -= (e << shift) + (e << degree_shift)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return Poly(ring, {key: c if type(c) is int or c.denominator != 1 else c.numerator
                           for key, c in out.items() if c}, _trusted=True)

    def is_u_free(self) -> bool:
        mask = self.ring.u_mask
        return not any(m & mask for m in self.terms)

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> int | Rat:
        """Rational value of a constant polynomial."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def sorted_terms(self):
        """Terms in decreasing graded-lex order, for printing and reports."""
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        from .printing import format_poly

        return format_poly(self)
