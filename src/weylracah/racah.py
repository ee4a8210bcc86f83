"""Rank n-2 Racah algebra realized by differential operators.

For n abstract factors the model lives in n-2 variables with parameters
k, nu_1..nu_n. Wherever a formula would mention the out-of-range index
n-1, both u_{n-1} and its derivative are taken to be zero.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add
from typing import Callable, Iterable

from .poly import Poly, Ring
from .report import Report, timed_check
from .sln import DmContext, nonempty_subsets
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

    def c_pair(self, i: int, j: int) -> WeylOp:
        """Two-factor Casimir; the unordered pair selects one of four shapes."""
        if i == j:
            raise ValueError("pair Casimir needs two distinct factors")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"pair ({i},{j}) out of range 1..{self.n}")
        lo, hi = sorted((i, j))
        cached = self._pairs.get((lo, hi))
        if cached is not None:
            return cached

        ring = self.ring
        k = ring.k()
        eu = self.euler_sum()
        if (lo, hi) == (1, 2):
            lower = WeylOp.from_poly(-k) - self.partial_or_zero(1) + eu
            op = (
                -((WeylOp.from_poly(k - 1) - eu) * lower)
                + 2 * ring.nu(2) * (WeylOp.from_poly(k) - eu)
                - 2 * ring.nu(1) * lower
                + self._nu_pair_constant(1, 2)
            )
        elif lo == 1:
            front = ring.one() - self.u_range(1, hi - 2)
            step = self.partial_or_zero(hi - 2) - self.partial_or_zero(hi - 1)
            op = (
                -(front**2 * ((WeylOp.from_poly(k - 1) - eu) * step))
                + 2 * ring.nu(hi) * (front * (WeylOp.from_poly(k) - eu))
                - 2 * ring.nu(1) * (front * step)
                + self._nu_pair_constant(1, hi)
            )
        elif lo == 2:
            front = self.u_range(1, hi - 2)
            step = self.partial_or_zero(hi - 2) - self.partial_or_zero(hi - 1)
            lower = WeylOp.from_poly(1 - k) - self.partial_or_zero(1) + eu
            op = (
                -(front**2 * (lower * step))
                + 2 * ring.nu(hi) * (front * (WeylOp.from_poly(k) + self.partial_or_zero(1) - eu))
                + 2 * ring.nu(2) * (front * step)
                + self._nu_pair_constant(2, hi)
            )
        else:
            front = self.u_range(lo - 1, hi - 2)
            step_hi = self.partial_or_zero(hi - 2) - self.partial_or_zero(hi - 1)
            step_lo = self.partial_or_zero(lo - 2) - self.partial_or_zero(lo - 1)
            op = (
                -(front**2 * (step_hi * step_lo))
                + 2 * ring.nu(lo) * (front * step_hi)
                - 2 * ring.nu(hi) * (front * step_lo)
                + self._nu_pair_constant(lo, hi)
            )
        self._pairs[(lo, hi)] = op
        return op

    def subset_key(self, A: Iterable[int]) -> tuple[int, ...]:
        a = tuple(sorted(set(A)))
        if not a:
            raise ValueError("empty factor subset")
        if a[0] < 1 or a[-1] > self.n:
            raise ValueError(f"subset {a} not contained in 1..{self.n}")
        return a

    def c_set(self, A: Iterable[int]) -> WeylOp:
        """Casimir of a factor subset, by `subset_casimir`."""
        a = self.subset_key(A)
        op = self._sets.get(a)
        if op is None:
            op = self._sets[a] = subset_casimir(a, self.c_single, self.c_pair)
        return op


def check_racah_structure(ctx: RacahContext) -> Report:
    """Subset Casimirs commute whenever the subsets are disjoint or nested."""
    report = Report("racah", {"n": ctx.n, "k_mode": "symbolic"})
    subsets = nonempty_subsets(ctx.n)
    ops = {A: ctx.c_set(A) for A in subsets}
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
                    lambda a=ops[A], b=ops[B]: (a.commutator(b), zero),
                )
            )
    return report
