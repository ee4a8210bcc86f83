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
from .weyl import WeylOp, _compose_into, _normal

__all__ = ["RacahContext", "check_racah_structure", "subset_casimir"]


def subset_casimir(a: tuple[int, ...], single: Callable, pair: Callable,
                   total: Callable | None = None):
    """Casimir of the sorted factor subset a: singletons and pairs are the
    base cases; larger subsets are the sum of their pair Casimirs minus
    (|a|-2) times the sum of their singleton Casimirs, formed by
    total(pairs, singles, |a| - 2) when given and by + and * otherwise."""
    if len(a) == 1:
        return single(a[0])
    if len(a) == 2:
        return pair(*a)
    pairs = [pair(i, j) for i, j in combinations(a, 2)]
    singles = [single(i) for i in a]
    if total is not None:
        return total(pairs, singles, len(a) - 2)
    return reduce(add, pairs) - (len(a) - 2) * reduce(add, singles)


def _composed_sum(ring: Ring, parts) -> WeylOp:
    """sum p op over the (polynomial p, operator op) parts, each composed
    coefficient-wise into one map (`weyl._compose_into`), closed once."""
    out: dict = {}
    for p, op in parts:
        _compose_into(out, p.terms, op)
    return _normal(ring, out)


class RacahContext:
    """Shared ring and operator cache for one value of n (n >= 3)."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least 3 factors")
        self.n = n
        self.ring = Ring(n - 2, n)
        # ambient sl realization used by the embedding; same coefficient ring
        self.dm = DmContext(n - 1, self.ring)
        # each sorted pair's (leading term or None until c_pair_lead forms it, operator),
        # the (-f^2, A B) that c_pair_lead forms the leading term from, and the shape
        # pieces (steps, Euler rows, nu_casimir values), each kept once complete
        self._pairs: dict = {}
        self._lead_factors: dict = {}
        self._pieces: dict = {}
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

    def _piece(self, key, build: Callable):
        """The shape piece under key, from build() once: kept only once complete, so
        a build refused part way leaves nothing behind."""
        piece = self._pieces.get(key)
        if piece is None:
            piece = self._pieces[key] = build()
        return piece

    def nu_casimir(self, *factors: int) -> Poly:
        """s (s - 1) for s the sum of nu_i over the factors: the scalar of a
        singleton Casimir and the constant term of a pair Casimir."""

        def build():
            s = sum((self.ring.nu(i) for i in factors), self.ring.zero())
            return s * (s - 1)

        return self._piece(factors, build)

    def c_single(self, i: int) -> WeylOp:
        """Scalar Casimir nu_i (nu_i - 1)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"factor index {i} out of range 1..{self.n}")
        return WeylOp.from_poly(self.nu_casimir(i))

    def step(self, j: int) -> WeylOp:
        """d_{j-2} - d_{j-1}, the step derivative of the factor index j."""
        return self._piece(("step", j),
                           lambda: self.partial_or_zero(j - 2) - self.partial_or_zero(j - 1))

    def _euler_rows(self) -> tuple:
        """-E - 1, -E, E + 1 - d_1, d_1 - E and E - d_1: the rows of `_pair_shape`
        that hold the Euler operator E."""
        e, d1 = self.dm.euler_op(), self.partial_or_zero(1)
        return -e - 1, -e, e + 1 - d1, d1 - e, e - d1

    def _pair_shape(self, lo: int, hi: int) -> tuple:
        """(f, A, B, P, Q) of the sorted pair (lo, hi), with E the Euler
        operator sum_l u_l d_l - k and S_j = step(j):
          lo = 1:   f = 1 - u_{1..hi-2},  A = -E - 1,      B = S_hi,  P = -E,       Q = -B
          lo = 2:   f = u_{1..hi-2},      A = E + 1 - d_1, B = S_hi,  P = d_1 - E,  Q = B
          lo >= 3:  f = u_{lo-1..hi-2},   A = S_hi,        B = S_lo,  P = -S_lo,    Q = S_hi
        At (1, 2), f = 1 and B = E - d_1 stands in for S_2. The steps and the
        rows that hold E are shape pieces of the context, each formed once.

        Each row is the chart image of one two-body su(1,1) Casimir,
        -(x_hi - x_lo)^2 d_lo d_hi + 2 (x_hi - x_lo)(nu_lo d_hi - nu_hi d_lo)
        + s (s - 1) with s = nu_lo + nu_hi: f P is -(x_hi - x_lo) d_lo, f Q is
        (x_hi - x_lo) d_hi, and A B is d_lo d_hi, B taken first. The chart reads
        x_1 = 1, x_2 = 0 and x_j = V_{j-2} for j >= 3, in the prefix coordinates
        of `to_prefix`, which takes E to itself, d_1 to D = sum_j d_{V_j} and
        S_j to d_{V_{j-2}}. On a function of degree k - r, d_{x_1} acts as
        -E - r and d_{x_2} as E + r - D, so:
          lo = 1:   A = -E - 1 is d_{x_1} after one derivative, and f = 1 - V_{hi-2} is x_1 - x_hi;
          lo = 2:   A = E + 1 - D is d_{x_2} after one derivative, and f = V_{hi-2} is x_hi - x_2;
          (1, 2):   B = E - D is d_{x_2};
          lo >= 3:  f = V_{hi-2} - V_{lo-2} is x_hi - x_lo, A = d_{x_hi} and B = d_{x_lo}.
        """
        if lo <= 2:
            e_1, e_0, lowered, d1_e, e_d1 = self._piece("E", self._euler_rows)
        if lo == 1:
            b = self.step(hi) if hi > 2 else e_d1
            return self.ring.one() - self.u_range(1, hi - 2), e_1, b, e_0, -b
        if lo == 2:
            b = self.step(hi)
            return self.u_range(1, hi - 2), lowered, b, d1_e, b
        step_hi, step_lo = self.step(hi), self.step(lo)
        return self.u_range(lo - 1, hi - 2), step_hi, step_lo, -step_lo, step_hi

    def c_pair(self, i: int, j: int) -> WeylOp:
        """Two-factor Casimir -f^2 A B + 2 nu_hi f P + 2 nu_lo f Q + s (s - 1),
        s = nu_lo + nu_hi, over the shape (f, A, B, P, Q) of the sorted pair.
        A B is its one kernel product; the four parts -f^2 (A B), (2 nu_hi f) P,
        (2 nu_lo f) Q and s (s - 1) are composed coefficient-wise into one map,
        closed once (`_composed_sum`). The operator is cached per pair, with
        -f^2 and A B, from which `c_pair_lead` forms the leading term.
        """
        lo, hi = self.pair_key(i, j)
        cached = self._pairs.get((lo, hi))
        if cached is not None:
            return cached[1]
        f, a, b, p, q = self._pair_shape(lo, hi)
        ring, nu = self.ring, self.ring.nu
        lead_factors = (-f**2, a * b)
        parts = (lead_factors, (2 * nu(hi) * f, p), (2 * nu(lo) * f, q),
                 (self.nu_casimir(lo, hi), WeylOp.identity(ring)))
        op = _composed_sum(ring, parts)
        self._lead_factors[lo, hi] = lead_factors
        self._pairs[lo, hi] = (None, op)
        return op

    def c_pair_lead(self, i: int, j: int) -> WeylOp:
        """The quadratic leading term -f^2 (A B) of c_pair(i, j), formed once,
        when first asked for: the product that the embedding's rewrite steps
        normal-order into L blocks."""
        key = self.pair_key(i, j)
        self.c_pair(*key)
        lead, op = self._pairs[key]
        if lead is None:
            lead = _composed_sum(self.ring, (self._lead_factors[key],))
            self._pairs[key] = (lead, op)
        return lead

    def pair_key(self, i: int, j: int) -> tuple[int, int]:
        """The sorted pair (lo, hi) of two distinct factors."""
        if i == j:
            raise ValueError("pair Casimir needs two distinct factors")
        return self.subset_key((i, j))

    def subset_key(self, A: Iterable[int]) -> tuple[int, ...]:
        """The sorted distinct factors of A, checked against 1..n."""
        return index_subset(A, self.n)

    def c_set(self, A: Iterable[int]) -> WeylOp:
        """Casimir of a factor subset, by `subset_casimir`: for three factors or
        more, the cached pair Casimirs and -(|A| - 2) times the singleton
        Casimirs are added into one map in one pass, closed once."""
        return subset_casimir(self.subset_key(A), self.c_single, self.c_pair, self._subset_total)

    def _subset_total(self, pairs: list, singles: list, weight: int) -> WeylOp:
        """sum(pairs) - weight * sum(singles), as one coefficient-wise sum."""
        one, scale = self.ring.one(), self.ring.const(-weight)
        return _composed_sum(self.ring, [*((one, op) for op in pairs),
                                         *((scale, op) for op in singles)])

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
        to d_{V_{j-2}}, u_{lo-1..hi-2} to V_{hi-2} - V_{lo-2}, d_1 to D = d_{V_1} + ... +
        d_{V_{n-2}} and E to itself. So c_pair(lo, hi) becomes the chart image of the two-body
        su(1,1) Casimir in x_lo and x_hi, with x_1 = 1, x_2 = 0 and x_j = V_{j-2} for j >= 3:
        for lo >= 3 it is that Casimir itself, and for lo in {1, 2} `_pair_shape` gives how
        E and D stand for d_{x_1} and d_{x_2}."""
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
