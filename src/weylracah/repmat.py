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
from typing import Mapping, Sequence

from .poly import Poly, Rat, Ring, _as_rat
from .weyl import WeylOp

__all__ = ["LeakageError", "PiBasis", "OpMatrix", "basis", "to_matrix", "mat_check_identity"]

# Largest basis that `basis` builds: a matrix over it is dense, size^2 rationals.
MAX_BASIS = 2000


class LeakageError(Exception):
    """An operator image left the bounded-degree polynomial space."""


@dataclass(frozen=True)
class PiBasis:
    ring: Ring
    degree: int
    monomials: tuple
    index: dict

    @property
    def size(self) -> int:
        return len(self.monomials)

    def monomial_poly(self, position: int) -> Poly:
        return Poly(self.ring, {self.monomials[position]: Rat(1)}, _trusted=True)


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
    return PiBasis(ring, degree, tuple(monos), {mono: i for i, mono in enumerate(monos)})


class OpMatrix:
    """Dense square matrix of exact rationals."""

    __slots__ = ("size", "rows")

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        self.size = len(rows)
        self.rows = [list(r) for r in rows]
        if any(len(r) != self.size for r in self.rows):
            raise ValueError("matrix is not square")

    @staticmethod
    def zero(size: int) -> "OpMatrix":
        return OpMatrix([[Rat(0)] * size for _ in range(size)])

    @staticmethod
    def identity(size: int) -> "OpMatrix":
        return OpMatrix.scalar(size, Rat(1))

    @staticmethod
    def scalar(size: int, value) -> "OpMatrix":
        v = _as_rat(value)
        out = OpMatrix.zero(size)
        for i in range(size):
            out.rows[i][i] = v
        return out

    def __eq__(self, other):
        return (
            isinstance(other, OpMatrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        return OpMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return OpMatrix([[-e for e in row] for row in self.rows])

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return self + (-other)

    def __rmul__(self, value) -> "OpMatrix":
        v = _as_rat(value)
        return OpMatrix([[v * e for e in row] for row in self.rows])

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.size != other.size:
            raise ValueError("matrix size mismatch")
        n = self.size
        out = [[Rat(0)] * n for _ in range(n)]
        brows = other.rows
        for i in range(n):
            arow = self.rows[i]
            orow = out[i]
            for p in range(n):
                a = arow[p]
                if not a:
                    continue
                brow = brows[p]
                for q in range(n):
                    b = brow[q]
                    if b:
                        orow[q] += a * b
        return OpMatrix(out)

    def commutator(self, other: "OpMatrix") -> "OpMatrix":
        return self @ other - other @ self

    def dump(self) -> str:
        """Row-major text form, entries as exact p/q strings."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self):
        return f"OpMatrix(size={self.size})"


def _full_assignment(ring: Ring, pi: PiBasis, assignment: Mapping[str, object]) -> dict:
    values = {name: _as_rat(v) for name, v in assignment.items()}
    for name in values:
        ring.index_of(name)
        if name.startswith("u"):
            raise ValueError("matrix assignments fix parameters, not u variables")
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
    bound."""
    if op.ring != pi.ring:
        raise ValueError("operator and basis rings differ")
    values = _full_assignment(op.ring, pi, assignment)
    numeric = op.subs(values)
    size = pi.size
    cols = []
    nv = op.ring.num_vars
    for col in range(size):
        image = numeric.apply(pi.monomial_poly(col))
        vec = [Rat(0)] * size
        for exps, coeff in image.terms.items():
            pos = pi.index.get(exps)
            if pos is None:
                raise LeakageError(
                    f"image of basis monomial {pi.monomials[col]} contains "
                    f"degree {sum(exps[:nv])} term {exps}, bound is {pi.degree}"
                )
            vec[pos] = coeff
        cols.append(vec)
    return OpMatrix([[cols[j][i] for j in range(size)] for i in range(size)])


def mat_check_identity(
    lhs: WeylOp, rhs: WeylOp, pi: PiBasis, assignment: Mapping[str, object]
) -> bool:
    """Entrywise equality of the two operator matrices."""
    return to_matrix(lhs, pi, assignment) == to_matrix(rhs, pi, assignment)
