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
        self._sets: dict = {}
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

    def euler_sum(self) -> WeylOp:
        """sum_l u_l d_l over all n-2 variables: the ambient Euler operator
        without its -k shift."""
        return self.dm.euler_op() + self.ring.k()

    def _nu_pair_constant(self, i: int, j: int) -> Poly:
        s = self.ring.nu(i) + self.ring.nu(j)
        return s * (s - 1)

    def c_single(self, i: int) -> WeylOp:
        """Scalar Casimir nu_i (nu_i - 1)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"factor index {i} out of range 1..{self.n}")
        nu = self.ring.nu(i)
        return WeylOp.from_poly(nu * (nu - 1))

    def step(self, j: int) -> WeylOp:
        """d_{j-2} - d_{j-1}, the step derivative of the factor index j."""
        return self.partial_or_zero(j - 2) - self.partial_or_zero(j - 1)

    def c_pair(self, i: int, j: int) -> WeylOp:
        """Two-factor Casimir; the unordered pair selects one of four shapes.

        Each shape is its quadratic leading term plus lower-order terms; the
        leading term is cached with the operator (see `c_pair_lead`).
        """
        lo, hi = self.pair_key(i, j)
        cached = self._pairs.get((lo, hi))
        if cached is not None:
            return cached[1]

        ring = self.ring
        k = ring.k()
        eu = self.euler_sum()
        if (lo, hi) == (1, 2):
            lower = WeylOp.from_poly(-k) - self.partial_or_zero(1) + eu
            lead = -((WeylOp.from_poly(k - 1) - eu) * lower)
            op = (
                lead
                + 2 * ring.nu(2) * (WeylOp.from_poly(k) - eu)
                - 2 * ring.nu(1) * lower
                + self._nu_pair_constant(1, 2)
            )
        elif lo == 1:
            front = ring.one() - self.u_range(1, hi - 2)
            step = self.step(hi)
            lead = -(front**2 * ((WeylOp.from_poly(k - 1) - eu) * step))
            op = (
                lead
                + 2 * ring.nu(hi) * (front * (WeylOp.from_poly(k) - eu))
                - 2 * ring.nu(1) * (front * step)
                + self._nu_pair_constant(1, hi)
            )
        elif lo == 2:
            front = self.u_range(1, hi - 2)
            step = self.step(hi)
            lower = WeylOp.from_poly(1 - k) - self.partial_or_zero(1) + eu
            lead = -(front**2 * (lower * step))
            op = (
                lead
                + 2 * ring.nu(hi) * (front * (WeylOp.from_poly(k) + self.partial_or_zero(1) - eu))
                + 2 * ring.nu(2) * (front * step)
                + self._nu_pair_constant(2, hi)
            )
        else:
            front = self.u_range(lo - 1, hi - 2)
            step_hi, step_lo = self.step(hi), self.step(lo)
            lead = -(front**2 * (step_hi * step_lo))
            op = (
                lead
                + 2 * ring.nu(lo) * (front * step_hi)
                - 2 * ring.nu(hi) * (front * step_lo)
                + self._nu_pair_constant(lo, hi)
            )
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
        a = self.subset_key(A)
        op = self._sets.get(a)
        if op is None:
            op = self._sets[a] = subset_casimir(a, self.c_single, self.c_pair)
        return op

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
