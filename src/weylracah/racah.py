"""Rank n-2 Racah algebra realized by differential operators.

For n abstract factors the model lives in n-2 variables with parameters
k, nu_1..nu_n. Wherever a formula would mention the out-of-range index
n-1, both u_{n-1} and its derivative are taken to be zero.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import add
from typing import Callable, Iterable

from .poly import Poly, Ring
from .report import Report, timed_check
from .sln import DmContext, index_subset, nonempty_subsets
from .weyl import WeylOp

__all__ = ["RacahContext", "check_racah_structure", "subset_casimir"]


def subset_casimir(a: tuple[int, ...], single: Callable, pair: Callable):
    """Casimir of the sorted factor subset a: singletons and pairs are the
    base cases; larger subsets are the sum of their pair Casimirs minus
    (|a|-2) times the sum of their singleton Casimirs."""
    if len(a) == 1:
        return single(a[0])
    if len(a) == 2:
        return pair(*a)
    pairs = reduce(add, (pair(i, j) for i, j in combinations(a, 2)))
    return pairs - (len(a) - 2) * reduce(add, map(single, a))


class RacahContext:
    """Shared ring and operator cache for one value of n (n >= 3)."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least 3 factors")
        self.n = n
        self.ring = Ring(n - 2, n)
        # ambient sl realization used by the embedding; same coefficient ring
        self.dm = DmContext(n - 1, self.ring)
        self._pairs: dict = {}
        # [C_p, C_q] keyed by sorted pairs p < q, and each triple's cyclic verdict
        self._brackets: dict = {}
        self._cyclic: dict = {}

    def __repr__(self):
        return f"RacahContext(n={self.n})"

    def partial_or_zero(self, i: int) -> WeylOp:
        """d_i, with d_{n-1} silently zero per the index convention."""
        if i == self.n - 1:
            return WeylOp.zero(self.ring)
        return WeylOp.partial(self.ring, i)

    def u_range(self, lo: int, hi: int) -> Poly:
        """u_lo + ... + u_hi."""
        return self.ring.u_sum(range(lo, hi + 1))

    def nu_casimir(self, *factors: int) -> Poly:
        """s (s - 1) for s the sum of nu_i over the factors: the scalar of a
        singleton Casimir and the constant term of a pair Casimir."""
        s = sum((self.ring.nu(i) for i in factors), self.ring.zero())
        return s * (s - 1)

    def c_single(self, i: int) -> WeylOp:
        """Scalar Casimir nu_i (nu_i - 1)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"factor index {i} out of range 1..{self.n}")
        return WeylOp.from_poly(self.nu_casimir(i))

    def step(self, j: int) -> WeylOp:
        """d_{j-2} - d_{j-1}, the step derivative of the factor index j."""
        return self.partial_or_zero(j - 2) - self.partial_or_zero(j - 1)

    def _pair_shape(self, lo: int, hi: int) -> tuple:
        """(f, A, B, P, Q) of the sorted pair (lo, hi), with E the Euler
        operator sum_l u_l d_l - k and S_j = step(j):
          lo = 1:   f = 1 - u_{1..hi-2},  A = -E - 1,      B = S_hi,  P = -E,       Q = -B
          lo = 2:   f = u_{1..hi-2},      A = E + 1 - d_1, B = S_hi,  P = d_1 - E,  Q = B
          lo >= 3:  f = u_{lo-1..hi-2},   A = S_hi,        B = S_lo,  P = -S_lo,    Q = S_hi
        At (1, 2), f = 1 and B = E - d_1 stands in for S_2."""
        e = self.dm.euler_op()
        if lo == 1:
            b = self.step(hi) if hi > 2 else e - self.partial_or_zero(1)
            return self.ring.one() - self.u_range(1, hi - 2), -e - 1, b, -e, -b
        if lo == 2:
            d1, b = self.partial_or_zero(1), self.step(hi)
            return self.u_range(1, hi - 2), e + 1 - d1, b, d1 - e, b
        step_hi, step_lo = self.step(hi), self.step(lo)
        return self.u_range(lo - 1, hi - 2), step_hi, step_lo, -step_lo, step_hi

    def c_pair(self, i: int, j: int) -> WeylOp:
        """Two-factor Casimir -f^2 A B + 2 nu_hi f P + 2 nu_lo f Q + s (s - 1),
        s = nu_lo + nu_hi, over the shape (f, A, B, P, Q) of the sorted pair.

        Its quadratic leading term -f^2 A B is cached with the operator (see
        `c_pair_lead`).
        """
        lo, hi = self.pair_key(i, j)
        cached = self._pairs.get((lo, hi))
        if cached is not None:
            return cached[1]
        f, a, b, p, q = self._pair_shape(lo, hi)
        nu = self.ring.nu
        lead = -(f**2 * (a * b))
        op = lead + 2 * nu(hi) * (f * p) + 2 * nu(lo) * (f * q) + self.nu_casimir(lo, hi)
        self._pairs[(lo, hi)] = (lead, op)
        return op

    def c_pair_lead(self, i: int, j: int) -> WeylOp:
        """The quadratic leading term of c_pair(i, j): the product that the
        embedding's rewrite steps normal-order into L blocks."""
        self.c_pair(i, j)
        return self._pairs[self.pair_key(i, j)][0]

    def pair_key(self, i: int, j: int) -> tuple[int, int]:
        """The sorted pair (lo, hi) of two distinct factors."""
        if i == j:
            raise ValueError("pair Casimir needs two distinct factors")
        return self.subset_key((i, j))

    def subset_key(self, A: Iterable[int]) -> tuple[int, ...]:
        """The sorted distinct factors of A, checked against 1..n."""
        return index_subset(A, self.n)

    def c_set(self, A: Iterable[int]) -> WeylOp:
        """Casimir of a factor subset, by `subset_casimir`."""
        return subset_casimir(self.subset_key(A), self.c_single, self.c_pair)

    def pair_commutator(self, p: tuple, q: tuple) -> WeylOp:
        """[C_p, C_q] for sorted pairs p < q, computed once."""
        if (p, q) not in self._brackets:
            self._brackets[p, q] = self.c_set(p).commutator(self.c_set(q))
        return self._brackets[p, q]

    def bracket_term(self, p: tuple, q: tuple) -> tuple[tuple, int]:
        """(key, sign) with [C_p, C_q] = sign * pair_commutator(*key). A triple
        t = p | q is cyclic when [C_ij,C_jk] = [C_jk,C_ik] = [C_ik,C_ij]; the
        table keeps only the first, and each entry inside t is +- it, + when q
        follows p in the cycle. A triple that is not cyclic reads its own entries."""
        t = tuple(sorted({*p, *q}))
        if len(t) == 3:
            ij, jk, ik = cycle = (t[:2], t[1:], t[::2])
            if t not in self._cyclic:
                cs = self.c_set
                g = self.pair_commutator(ij, jk)
                self._cyclic[t] = g == cs(jk).commutator(cs(ik)) == cs(ik).commutator(cs(ij))
            if self._cyclic[t]:
                return (ij, jk), 1 if (cycle.index(q) - cycle.index(p)) % 3 == 1 else -1
        return (min(p, q), max(p, q)), 1 if p < q else -1

    def set_commutator(self, A: Iterable[int], B: Iterable[int]) -> WeylOp:
        """[C_A, C_B] from the pair table. Singleton Casimirs are central, so it
        is the sum of [C_p, C_q] over pairs p of A and q of B, p != q; every
        entry the sum reads is built, even where its weight cancels."""
        weights: dict = {}
        pairs_a, pairs_b = (combinations(self.subset_key(S), 2) for S in (A, B))
        for p, q in product(pairs_a, pairs_b):
            if p != q:
                key, sign = self.bracket_term(p, q)
                weights[key] = weights.get(key, 0) + sign
        terms = (self.pair_commutator(*key) * w for key, w in weights.items())
        return sum(terms, WeylOp.zero(self.ring))


def check_racah_structure(ctx: RacahContext) -> Report:
    """Subset Casimirs commute whenever the subsets are disjoint or nested;
    a table entry that fails to build fails the checks that read it."""
    report = Report("racah", {"n": ctx.n, "k_mode": "symbolic"})
    subsets = nonempty_subsets(ctx.n)
    zero = WeylOp.zero(ctx.ring)
    for pos, A in enumerate(subsets):
        set_a = set(A)
        for B in subsets[pos:]:
            set_b = set(B)
            if not set_a & set_b:
                kind = "disjoint"
            elif set_a <= set_b or set_b <= set_a:
                kind = "nested"
            else:
                continue
            report.add(
                timed_check(
                    f"{kind}:{set_a}|{set_b}",
                    f"{kind} subset Casimirs commute",
                    lambda: (ctx.set_commutator(A, B), zero),
                )
            )
    return report
