"""Exact matrix model of operators on polynomials of bounded degree.

For an integer degree bound k the monomials of total degree at most k form
a finite basis; an operator that preserves the space becomes an exact
rational matrix. The parameter k must be substituted by the same integer as
the degree bound, because invariance of the space relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Mapping

from .poly import MAX_DEGREE, Poly, Rat, Ring, _as_rat
from .weyl import WeylOp

__all__ = ["LeakageError", "PiBasis", "OpMatrix", "basis", "to_matrix"]

# Largest basis that `basis` builds: a matrix over it has up to size^2 entries.
MAX_BASIS = 2000


class LeakageError(Exception):
    """An operator image left the bounded-degree polynomial space."""


@dataclass(frozen=True)
class PiBasis:
    """The basis monomials as exponent tuples, and `index` from each one's
    packed monomial to its position, in position order."""

    ring: Ring
    degree: int
    monomials: tuple
    index: dict

    @property
    def size(self) -> int:
        return len(self.monomials)


def basis(ring: Ring, degree: int) -> PiBasis:
    """All monomials in the u variables of total degree <= degree.

    Ordered by total degree, then with u1 weighted heaviest, so the list
    starts 1, u1, u2, ...
    """
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    m = ring.num_vars
    size = math.comb(degree + m, m)
    if size > MAX_BASIS:
        raise ValueError(
            f"degree <= {degree} in {m} variables gives {size} basis monomials, "
            f"limit is {MAX_BASIS}"
        )
    tail = (0,) * (1 + ring.num_nu)
    monos = [
        tuple(map(combo.count, range(m))) + tail  # a multiset of d variables, as exponents
        for d in range(degree + 1)
        for combo in combinations_with_replacement(range(m), d)
    ]
    monos.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
    return PiBasis(ring, degree, tuple(monos), {ring.pack(mono): i for i, mono in enumerate(monos)})


def _kernel(x: "OpMatrix", y: "OpMatrix", commute: bool) -> "OpMatrix":
    """x @ y, or x @ y - y @ x when commute, from the numerators.

    Row p of a right operand r is packed into the int sum_q r[p, q] 2^(w q),
    so row i of x @ y is the int sum_p x[i, p] packed_y[p], with entry (i, q)
    in slot q; a commutator subtracts sum_p y[i, p] packed_x[p] from it, and
    a zero row is one comparison with 0. Decoding is exact by this bound:
    with bx, by, bs the bit lengths of max|x|, max|y| and the size, an entry
    of either product is at most size max|x| max|y| < 2^(bx + by + bs), so
    every result entry lies strictly between -2^(w - 1) and 2^(w - 1) for
    any w >= bx + by + bs + 2. Adding 2^(w - 1) to each slot makes the slots
    the base-2^w digits of a nonnegative int, whose nonzero ones are read
    off. A product packs at w = bx + by + bs + 2 exactly. A commutator
    rounds w up to a multiple of 64, so an operand mostly meets the same w
    again and reuses the rows it packed last time.
    """
    size = x.size
    bx, by = (max(map(abs, m.num.values()), default=0).bit_length() for m in (x, y))
    w = bx + by + size.bit_length() + 2
    if commute:
        w = -(-w // 64) * 64
    totals = [0] * size
    for left, right, sign in ((x, y, 1), (y, x, -1)) if commute else ((x, y, 1),):
        packed = right._packed_rows(w)
        for (i, p), v in left.num.items():
            totals[i] += sign * v * packed[p]
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    bias = half * (((1 << (w * size)) - 1) // mask)
    out = {}
    for i, t in enumerate(totals):
        if t:
            t += bias
            nonzero, q = t ^ bias, 0
            while nonzero > 0:
                skip = ((nonzero & -nonzero).bit_length() - 1) // w
                t >>= w * skip
                nonzero >>= w * (skip + 1)
                q += skip
                out[(i, q)] = (t & mask) - half
                t >>= w
                q += 1
    return OpMatrix._of(size, out, x.d * y.d)


class OpMatrix:
    """Square matrix of exact rationals, stored as num / d.

    `num` maps each nonzero position (row, col), both 0-based, to an int,
    and d is a positive int with gcd(d, every entry) = 1, so equal matrices
    have equal (size, num, d). Arithmetic runs on these ints; `terms`,
    `rows` and `dump` are views built when read. `_packed` caches the rows
    `_kernel` packed last, as (w, rows); it is derived and not part of ==.
    """

    __slots__ = ("size", "num", "d", "_packed")

    def __init__(self, size: int, terms: Mapping[tuple, Rat]):
        for i, j in terms:
            if type(i) is not int or type(j) is not int or not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"entry position {(i, j)} is not in a {size} x {size} matrix")
        entries = {key: _as_rat(c) for key, c in terms.items()}
        self.size, self._packed = size, None
        self.d = d = math.lcm(*(c.denominator for c in entries.values()))
        self.num = {key: c.numerator * (d // c.denominator) for key, c in entries.items() if c}

    @classmethod
    def _of(cls, size: int, num: dict, d: int) -> "OpMatrix":
        """num / d, from a map without zero entries and d > 0, in lowest terms."""
        g = math.gcd(d, *num.values()) if d != 1 else 1
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            d //= g
        mat = cls.__new__(cls)
        mat.size, mat.num, mat.d, mat._packed = size, num, d, None
        return mat

    def _packed_rows(self, w: int) -> list:
        """Row p as the int sum_q num[p, q] 2^(w q), packed again only when w changes."""
        if self._packed is None or self._packed[0] != w:
            rows = [0] * self.size
            for (p, q), v in self.num.items():
                rows[p] += v << (w * q)
            self._packed = (w, rows)
        return self._packed[1]

    def _check(self, other) -> "OpMatrix | None":
        if not isinstance(other, OpMatrix):
            return None
        if other.size != self.size:
            raise ValueError("matrix size mismatch")
        return other

    @staticmethod
    def scalar(size: int, value) -> "OpMatrix":
        v = _as_rat(value)
        diagonal = {(i, i): v.numerator for i in range(size)} if v else {}
        return OpMatrix._of(size, diagonal, v.denominator)

    @property
    def terms(self) -> dict:
        """The nonzero entries: an int where integral, else a reduced Fraction."""
        d = self.d
        return {key: v // d if v % d == 0 else Rat(v, d) for key, v in self.num.items()}

    @property
    def rows(self) -> list[list[Rat]]:
        """The dense view: a list of rows with zeros filled in."""
        rows = [[0] * self.size for _ in range(self.size)]
        for (i, j), e in self.terms.items():
            rows[i][j] = e
        return rows

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.size == other.size and self.d == other.d and self.num == other.num

    def __neg__(self):
        return OpMatrix._of(self.size, {key: -v for key, v in self.num.items()}, self.d)

    def __add__(self, other):
        if self._check(other) is None:
            return NotImplemented
        d = math.lcm(self.d, other.d)
        a, b = d // self.d, d // other.d
        out = {key: v * a for key, v in self.num.items()} if a != 1 else dict(self.num)
        for key, v in other.num.items():
            v = out.get(key, 0) + v * b
            if v:
                out[key] = v
            else:
                del out[key]
        return OpMatrix._of(self.size, out, d)

    def __sub__(self, other):
        return NotImplemented if self._check(other) is None else self + -other

    def __rmul__(self, value):
        """The scalar multiple value * self."""
        s = _as_rat(value)
        num = {key: v * s.numerator for key, v in self.num.items()} if s else {}
        return OpMatrix._of(self.size, num, self.d * s.denominator)

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        return NotImplemented if self._check(other) is None else _kernel(self, other, False)

    def _is_scalar(self) -> bool:
        """True for a nonzero multiple of the identity: a nonzero (0, 0)
        entry and `size` entries, each on the diagonal and equal to it."""
        c = self.num.get((0, 0))
        return (c is not None and len(self.num) == self.size
                and all(i == j and v == c for (i, j), v in self.num.items()))

    def commutator(self, other: "OpMatrix") -> "OpMatrix":
        """self @ other - other @ self, both products summed in one kernel.
        It is zero without a product when other is self or either operand
        is scalar, as read off the matrices themselves."""
        if self._check(other) is None:
            raise TypeError(
                f"unsupported operand type(s) for commutator: 'OpMatrix' and '{type(other).__name__}'"
            )
        if other is self or self._is_scalar() or other._is_scalar():
            return OpMatrix._of(self.size, {}, 1)
        return _kernel(self, other, True)

    def dump(self) -> str:
        """Row-major text form, entries as exact p/q strings."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self):
        return f"OpMatrix(size={self.size})"


def _derivative_rows(ring: Ring, pi: PiBasis, alpha: tuple) -> list:
    """The nonzero entries of d^alpha on the basis as (m, w, col): column
    col, monomial u^b, goes to w u^(b - alpha), packed as m. One
    `WeylOp.apply` of d^alpha to the sum of the basis monomials forms them
    all; m determines b, so col is index[m + packed alpha]. Kept in
    `ring._rows` by (degree, alpha), as long as the operator's ring lives."""
    rows = ring._rows.get((pi.degree, alpha))
    if rows is None:
        every = Poly(ring, dict.fromkeys(pi.index, 1), _trusted=True)
        image = WeylOp(ring, {alpha: ring.one()}, _trusted=True).apply(every)
        shift = ring.pack(alpha + (0,) * (1 + ring.num_nu))
        rows = [(m, w, pi.index[m + shift]) for m, w in image.terms.items()]
        ring._rows[pi.degree, alpha] = rows
    return rows


def to_matrix(op: WeylOp, pi: PiBasis, assignment: Mapping[str, object]) -> OpMatrix:
    """Exact matrix of the operator action; column j is the image of
    basis monomial j. Raises LeakageError when an image exceeds the degree
    bound, naming the first such column and its leaking monomial that is
    largest in graded-lex order; a column whose product p_alpha * d^alpha
    passes MAX_DEGREE raises MonomialOverflowError instead, when it is the
    first to fail.

    The assignment must fix k to the degree bound and every nu; its values
    are read first, then its names, then k and the nu. The ring's
    `valuation` values each distinct parameter part of the coefficients
    once, and those values and the coefficients are scaled to ints over one
    common denominator d. A term whose coefficient cancels under the
    assignment is dropped. Each term p_alpha d^alpha adds p_alpha times the
    derivative rows of alpha into the column images, which are the
    numerators of the matrix over d.
    """
    ring = op.ring
    if ring != pi.ring:
        raise ValueError("operator and basis rings differ")
    values = {name: _as_rat(v) for name, v in assignment.items()}
    for name in values:
        if ring.index_of(name) < ring.num_vars:
            raise ValueError(f"cannot substitute variable {name!r} in an operator")
    if "k" not in values:
        raise ValueError("assignment must fix k")
    kval = values["k"]
    if kval.denominator != 1 or kval < 0 or int(kval) != pi.degree:
        raise ValueError(f"k must equal the basis degree bound {pi.degree}, got {kval}")
    missing = [f"nu{i}" for i in range(1, ring.num_nu + 1) if f"nu{i}" not in values]
    if missing:
        raise ValueError(f"assignment missing parameters: {', '.join(missing)}")
    mask, value = ring.valuation(values)
    valued = {part: value(part) for part in {m & mask for p in op.terms.values() for m in p.terms}}
    d_v = math.lcm(*(v.denominator for v, _ in valued.values()))
    scaled = {part: (v.numerator * (d_v // v.denominator), drop) for part, (v, drop) in valued.items()}
    d_c = math.lcm(*(c.denominator for p in op.terms.values() for c in p.terms.values()))
    shift = ring.degree_shift
    images = [{} for _ in range(pi.size)]
    failing = {}  # column -> (lead, m) of its first product past MAX_DEGREE
    for alpha, p in op.terms.items():
        terms = {}
        for m, c in p.terms.items():
            v, drop = scaled[m & mask]
            key = m - drop
            terms[key] = terms.get(key, 0) + c.numerator * (d_c // c.denominator) * v
        terms = [(mu, c) for mu, c in terms.items() if c]
        if not terms:
            continue
        rows = _derivative_rows(ring, pi, alpha)
        lead = max(terms)[0]
        if (lead >> shift) + pi.degree > MAX_DEGREE:
            for m, _, col in rows:
                if (lead >> shift) + (m >> shift) > MAX_DEGREE:
                    failing.setdefault(col, (lead, m))
            rows = [row for row in rows if row[2] not in failing]
        for m, w, col in rows:
            image = images[col]
            for mu, c in terms:
                key = m + mu
                image[key] = image.get(key, 0) + c * w
    entries = {}
    for col, image in enumerate(images):
        if col in failing:
            ring.check_product(*failing[col])
        for monomial, coeff in image.items():
            if not coeff:
                continue
            row = pi.index.get(monomial)
            if row is None:
                exps = ring.unpack(max(m for m, c in image.items() if c and m not in pi.index))
                raise LeakageError(
                    f"image of basis monomial {pi.monomials[col]} contains "
                    f"degree {sum(exps[:ring.num_vars])} term {exps}, bound is {pi.degree}"
                )
            entries[(row, col)] = coeff
    return OpMatrix._of(pi.size, entries, d_c * d_v)
