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
        # the embedded pair Casimir of each sorted pair, filled by embed.embedded_c_pair
        self.embedded_pairs: dict = {}
        # the maps of to_prefix and from_prefix, each pair's image, [phi C_p, phi C_q] and
        # [C_p, C_q] keyed by sorted pairs p < q, and the map `uncertified` builds
        self._maps: tuple | None = None
        self._images: dict = {}
        self._brackets: dict = {}
        self._u_brackets: dict = {}
        self._uncertified: dict | None = None

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
        s = nu_lo + nu_hi, over the shape (f, A, B, P, Q) of the sorted pair,
        as lead + f (2 nu_hi P + 2 nu_lo Q) + s (s - 1): A B is its one kernel
        product, and the quadratic leading term lead = -f^2 (A B) is cached
        with the operator (see `c_pair_lead`).
        """
        lo, hi = self.pair_key(i, j)
        cached = self._pairs.get((lo, hi))
        if cached is not None:
            return cached[1]
        f, a, b, p, q = self._pair_shape(lo, hi)
        nu = self.ring.nu
        lead = -f**2 * (a * b)
        op = lead + f * (2 * nu(hi) * p + 2 * nu(lo) * q) + self.nu_casimir(lo, hi)
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

    def _prefix_maps(self) -> tuple:
        """The (u-images, d-images) of to_prefix and of from_prefix, built once."""
        if self._maps is None:
            ring, span, d = self.ring, range(1, self.n - 1), self.partial_or_zero
            to = ([ring.u(i) - ring.u(i - 1) if i > 1 else ring.u(1) for i in span],
                  [sum(map(d, range(i, self.n - 1)), WeylOp.zero(ring)) for i in span])
            self._maps = to, ([self.u_range(1, i) for i in span], [self.step(i + 2) for i in span])
        return self._maps

    def to_prefix(self, op: WeylOp) -> WeylOp:
        """op in prefix coordinates V_j = u_1 + ... + u_j (written u_j), by the Weyl-algebra
        automorphism u_i -> V_i - V_{i-1}, d_i -> d_{V_i} + ... + d_{V_{n-2}}. It takes step(j)
        to d_{V_{j-2}} and u_{lo-1..hi-2} to V_{hi-2} - V_{lo-2}: for lo >= 3, c_pair(lo, hi)
        becomes the two-body su(1,1) Casimir in x_lo = V_{lo-2} and x_hi = V_{hi-2}."""
        return op.substitute(*self._prefix_maps()[0])

    def from_prefix(self, op: WeylOp) -> WeylOp:
        """The inverse of to_prefix: u_i -> u_1 + ... + u_i, d_i -> d_i - d_{i+1} = step(i + 2)."""
        return op.substitute(*self._prefix_maps()[1])

    def prefix_commutator(self, p: tuple, q: tuple) -> WeylOp:
        """[phi C_p, phi C_q] for sorted pairs p < q, the table entry, from the to_prefix images
        of c_set(p) and c_set(q), each formed once. As phi (to_prefix) is an automorphism,
        entries are zero or equal exactly where the [C_p, C_q] are."""
        if (p, q) not in self._brackets:
            for pair in (p, q):
                if pair not in self._images:
                    self._images[pair] = self.to_prefix(self.c_set(pair))
            self._brackets[p, q] = self._images[p].commutator(self._images[q])
        return self._brackets[p, q]

    def pair_commutator(self, p: tuple, q: tuple) -> WeylOp:
        """[C_p, C_q] for sorted pairs p < q: the table entry mapped back by from_prefix,
        once. Only pair sums that the table does not certify read it."""
        if (p, q) not in self._u_brackets:
            self._u_brackets[p, q] = self.from_prefix(self.prefix_commutator(p, q))
        return self._u_brackets[p, q]

    def uncertified(self) -> dict:
        """Each table entry that does not certify, built once in its own
        guarded build: a triple t = (i, j, k) whose [C_ij,C_jk] = [C_jk,C_ik] =
        [C_ik,C_ij] fails, or a nonzero disjoint entry, maps to None; an entry
        whose build raised maps to its exception. The table entries decide it:
        [C_jk,C_ik] and [C_ik,C_ij] are minus those of (ik, jk) and (ij, ik)."""
        if self._uncertified is None:
            bad, table, factors = {}, self.prefix_commutator, range(1, self.n + 1)
            pairs = combinations(combinations(factors, 2), 2)
            disjoint = [(p, q) for p, q in pairs if not {*p} & {*q}]
            for key in [*combinations(factors, 3), *disjoint]:
                try:
                    if len(key) == 3:
                        ij, jk, ik = key[:2], key[1:], key[::2]
                        ok = -table(ij, jk) == table(ik, jk) == table(ij, ik)
                    else:
                        ok = not table(*key)
                    if not ok:
                        bad[key] = None
                except Exception as exc:
                    bad[key] = exc
            self._uncertified = bad
        return self._uncertified

    def set_commutator(self, A: Iterable[int], B: Iterable[int]) -> WeylOp:
        """[C_A, C_B], the sum of [C_p, C_q] over pairs p of A and q of B, as
        singleton Casimirs are central. A term with p != q reads one group:
        the triple p | q, or the disjoint entry (min(p, q), max(p, q)) when p
        and q share no factor. For disjoint or nested A and B it is zero when
        the whole table certifies (`uncertified`); otherwise a term whose
        group raised re-raises its error, and the rest is the pair sum over
        the uncertified groups, without zero entries and the terms below that
        cancel. Other subsets take the pair sum of every term.

        Terms with p and q both in A & B cancel in pairs, as [C_q, C_p] =
        -[C_p, C_q]. On disjoint or nested A and B, so do the other terms of
        a cyclic triple t: there [C_p, C_q] = +-[C_ij, C_jk], + when q follows
        p in the cycle ij -> jk -> ik. If A and B are disjoint, no p and q
        share a factor. If A lies in B (the other way flips every sign), a
        term of t outside A & B has p = t & A, a pair, and q one of the other
        two pairs of t, one following and one preceding p. So where every
        triple is cyclic, only the disjoint entries are left.
        """
        a, b = self.subset_key(A), self.subset_key(B)
        both = set(a) & set(b)
        bad = self.uncertified() if both in (set(), set(a), set(b)) else None
        if bad == {}:
            return WeylOp.zero(self.ring)
        terms = []
        for p in combinations(a, 2):
            for q in combinations(b, 2):
                t = tuple(sorted({*p, *q}))
                key = (p, q) if p < q else (q, p)
                if bad is not None:
                    group = t if len(t) == 3 else key
                    if isinstance(bad.get(group), Exception):
                        raise bad[group].with_traceback(None)
                    if group not in bad:
                        continue
                if {*t} <= both:
                    continue
                entry = self.pair_commutator(*key)
                if entry:
                    terms.append(entry if p < q else -entry)
        return sum(terms, WeylOp.zero(self.ring))


def check_racah_structure(ctx: RacahContext) -> Report:
    """Subset Casimirs commute whenever the subsets are disjoint or nested.
    The pair table is certified once, before the first check, so no check's
    time holds a table build; an entry that failed to build fails the checks
    whose pair sums have a term in its group."""
    report = Report("racah", {"n": ctx.n, "k_mode": "symbolic"})
    ctx.uncertified()
    subsets = nonempty_subsets(ctx.n)
    sets = [set(A) for A in subsets]
    texts = [str(s) for s in sets]
    zero = WeylOp.zero(ctx.ring)
    for pos, (A, set_a, text_a) in enumerate(zip(subsets, sets, texts)):
        for B, set_b, text_b in zip(subsets[pos:], sets[pos:], texts[pos:]):
            if not set_a & set_b:
                kind = "disjoint"
            elif set_a <= set_b or set_b <= set_a:
                kind = "nested"
            else:
                continue
            report.add(
                timed_check(
                    f"{kind}:{text_a}|{text_b}",
                    f"{kind} subset Casimirs commute",
                    lambda: (ctx.set_commutator(A, B), zero),
                )
            )
    return report
