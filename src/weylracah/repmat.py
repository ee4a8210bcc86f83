"""Exact matrix model of operators on polynomials of bounded degree.

For an integer degree bound k the monomials of total degree at most k form
a finite basis; an operator that preserves the space becomes an exact
rational matrix. The parameter k must be substituted by the same integer as
the degree bound, because invariance of the space relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .poly import Poly, Rat, Ring, SparseSum, _as_rat
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
        exps + tail
        for exps in product(range(degree + 1), repeat=m)
        if sum(exps) <= degree
    ]
    monos.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
    return PiBasis(ring, degree, tuple(monos), {ring.pack(mono): i for i, mono in enumerate(monos)})


def _integer_form(terms: Mapping[tuple, Rat]) -> tuple[int, dict[tuple, int]]:
    """(d, scaled) with terms = scaled / d entrywise: d is the lcm of the
    entries' denominators and every entry of scaled is an int."""
    d = math.lcm(*{c.denominator for c in terms.values() if type(c) is not int})
    return d, {
        key: c * d if type(c) is int else c.numerator * (d // c.denominator)
        for key, c in terms.items()
    }


def _int_product(left: Mapping[tuple, int], right: Mapping[tuple, int]) -> dict[tuple, int]:
    """The product of two integer matrices given as position maps; entries
    that cancel stay in the result as zeros."""
    by_row: dict[int, list] = {}
    for (p, q), b in right.items():
        by_row.setdefault(p, []).append((q, b))
    out: dict[tuple, int] = {}
    for (i, p), a in left.items():
        for q, b in by_row.get(p, ()):
            out[(i, q)] = out.get((i, q), 0) + a * b
    return out


def _divide(scaled: Mapping[tuple, int], d: int) -> dict[tuple, int | Rat]:
    """The nonzero entries of scaled / d: an int where the division is exact,
    a reduced Fraction otherwise."""
    out = {}
    for key, c in scaled.items():
        if c:
            q, r = divmod(c, d)
            out[key] = Rat(c, d) if r else q
    return out


class OpMatrix(SparseSum):
    """Square matrix of exact rationals, stored as its nonzero entries.

    `terms` maps (row, col), both 0-based, to nonzero values and `ring` is
    the size; sums and equality come from SparseSum. Products and
    commutators run on integers: each operand is scaled once by the lcm of
    its denominators, and only nonzero results are divided back.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: int, terms: Mapping[tuple, Rat], *, _trusted=False):
        self.ring = ring
        if _trusted:
            self.terms = terms
            return
        if any(not (0 <= i < ring and 0 <= j < ring) for i, j in terms):
            raise ValueError(f"entry position outside a {ring} x {ring} matrix")
        self.terms = {key: _as_rat(c) for key, c in terms.items() if c}

    def _coerce(self, other) -> "OpMatrix | None":
        if not isinstance(other, OpMatrix):
            return None
        if other.ring != self.ring:
            raise ValueError("matrix size mismatch")
        return other

    @staticmethod
    def scalar(size: int, value) -> "OpMatrix":
        v = _as_rat(value)
        return OpMatrix(size, {(i, i): v for i in range(size)} if v else {}, _trusted=True)

    @property
    def rows(self) -> list[list[Rat]]:
        """The dense view: a list of rows with zeros filled in."""
        rows = [[0] * self.ring for _ in range(self.ring)]
        for (i, j), e in self.terms.items():
            rows[i][j] = e
        return rows

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, a = _integer_form(self.terms)
        db, b = _integer_form(other.terms)
        return OpMatrix(self.ring, _divide(_int_product(a, b), da * db), _trusted=True)

    def commutator(self, other: "OpMatrix") -> "OpMatrix":
        """self @ other - other @ self, with the difference taken in integers,
        so a zero commutator builds no Fraction."""
        if self._coerce(other) is None:
            raise TypeError(
                f"unsupported operand type(s) for commutator: 'OpMatrix' and '{type(other).__name__}'"
            )
        da, a = _integer_form(self.terms)
        db, b = _integer_form(other.terms)
        out = _int_product(a, b)
        for key, c in _int_product(b, a).items():
            out[key] = out.get(key, 0) - c
        return OpMatrix(self.ring, _divide(out, da * db), _trusted=True)

    def dump(self) -> str:
        """Row-major text form, entries as exact p/q strings."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self):
        return f"OpMatrix(size={self.ring})"


def _full_assignment(ring: Ring, pi: PiBasis, assignment: Mapping[str, object]) -> dict:
    values = {name: _as_rat(v) for name, v in assignment.items()}
    for name in values:
        ring.index_of(name)
    if "k" not in values:
        raise ValueError("assignment must fix k")
    kval = values["k"]
    if kval.denominator != 1 or kval < 0 or int(kval) != pi.degree:
        raise ValueError(
            f"k must equal the basis degree bound {pi.degree}, got {kval}"
        )
    missing = [f"nu{i}" for i in range(1, ring.num_nu + 1) if f"nu{i}" not in values]
    if missing:
        raise ValueError(f"assignment missing parameters: {', '.join(missing)}")
    return values


def to_matrix(op: WeylOp, pi: PiBasis, assignment: Mapping[str, object]) -> OpMatrix:
    """Exact matrix of the operator action; column j is the image of
    basis monomial j. Raises LeakageError when an image exceeds the degree
    bound.

    The substituted operator is scaled once to int coefficients by the lcm
    d of their denominators, applied on ints, and each entry divided back.
    """
    ring = op.ring
    if ring != pi.ring:
        raise ValueError("operator and basis rings differ")
    numeric = op.subs(_full_assignment(ring, pi, assignment))
    d, flat = _integer_form(
        {(alpha, m): c for alpha, p in numeric.terms.items() for m, c in p.terms.items()}
    )
    scaled: dict[tuple, dict] = {}
    for (alpha, m), c in flat.items():
        scaled.setdefault(alpha, {})[m] = c
    numeric = WeylOp(
        ring, {a: Poly(ring, t, _trusted=True) for a, t in scaled.items()}, _trusted=True
    )
    entries = {}
    nv = ring.num_vars
    for col, key in enumerate(pi.index):
        image = numeric.apply(Poly(ring, {key: 1}, _trusted=True))
        for monomial, coeff in image.terms.items():
            row = pi.index.get(monomial)
            if row is None:
                exps = ring.unpack(monomial)
                raise LeakageError(
                    f"image of basis monomial {pi.monomials[col]} contains "
                    f"degree {sum(exps[:nv])} term {exps}, bound is {pi.degree}"
                )
            entries[(row, col)] = coeff
    return OpMatrix(pi.size, _divide(entries, d), _trusted=True)

