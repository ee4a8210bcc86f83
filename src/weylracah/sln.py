"""Differential realization of sl_m in m-1 variables.

The generators act on polynomials in u1..u_{m-1} and carry a deformation
parameter k. The abstract side is the trace-zero matrix algebra with basis
E_ij (i != j) and H_d = E_dd - E_mm; its bracket is computed from matrix
units rather than hard-coded tables.

Assemblies of generator images are recorded as provenance trees; `evaluate`
is the one walk that turns a tree into an operator or an exact matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .poly import Poly, Rat, Ring, SparseSum, _as_rat
from .report import Report, timed_check
from .weyl import WeylOp

__all__ = [
    "DmContext",
    "SlElement",
    "evaluate",
    "nonempty_subsets",
    "check_sl_homomorphism",
    "check_lemma1",
    "check_generator_membership",
]


def nonempty_subsets(limit: int) -> list[tuple[int, ...]]:
    """Non-empty subsets of {1..limit}, ordered by size then lexicographically."""
    universe = range(1, limit + 1)
    out: list[tuple[int, ...]] = []
    for size in range(1, limit + 1):
        out.extend(combinations(universe, size))
    return out


def index_subset(indices: Iterable[int], limit: int) -> tuple[int, ...]:
    """The distinct indices in increasing order; they must be non-empty and in 1..limit."""
    a = tuple(sorted(set(indices)))
    if not a:
        raise ValueError("empty subset")
    if a[0] < 1 or a[-1] > limit:
        raise ValueError(f"subset {a} not contained in 1..{limit}")
    return a


class SlElement(SparseSum):
    """An element of sl_m, stored as its trace-free m x m rational matrix.

    `terms` maps the 1-based position (i, j) of each nonzero entry to its
    value, and `ring` is the rank m; sums and equality come from SparseSum.
    The basis is E_ij = {(i, j): 1} for i != j and H_d = E_dd - E_mm =
    {(d, d): 1, (m, m): -1} for d < m; `parts` reads coefficients in it.
    Unless _trusted, the constructor checks the positions and the trace.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: int, terms: dict, *, _trusted=False):
        self.ring = ring
        if not _trusted:
            for key in terms:
                if type(key) is not tuple or len(key) != 2 or not all(
                        type(x) is int and 1 <= x <= ring for x in key):
                    raise ValueError(f"{key!r} is not an entry position (i, j) with i, j in "
                                     f"1..{ring}: E_ij is {{(i, j): 1}}, not a basis label")
            terms = {key: _as_rat(c) for key, c in terms.items() if c}
            if sum(c for (i, j), c in terms.items() if i == j):
                raise ValueError("matrix is not trace-free")
        self.terms = terms

    def _coerce(self, other) -> "SlElement | None":
        if not isinstance(other, SlElement):
            return None
        if other.ring != self.ring:
            raise ValueError(f"sl elements of ranks {self.ring} and {other.ring}")
        return other

    @staticmethod
    def E(m: int, i: int, j: int) -> "SlElement":
        if i == j or not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"E({i},{j}) is not a basis element of sl_{m}")
        return SlElement(m, {(i, j): 1}, _trusted=True)

    @staticmethod
    def H(m: int, d: int) -> "SlElement":
        if not 1 <= d <= m - 1:
            raise ValueError(f"H({d}) out of range 1..{m - 1}")
        return SlElement(m, {(d, d): 1, (m, m): -1}, _trusted=True)

    @staticmethod
    def basis(m: int) -> list["SlElement"]:
        """The m^2 - 1 basis elements in deterministic order."""
        elems = [
            SlElement.E(m, i, j)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
            if i != j
        ]
        elems.extend(SlElement.H(m, d) for d in range(1, m))
        return elems

    def parts(self) -> list:
        """The nonzero basis coefficients as ((i, j), c), in order: c E_ij for
        i != j first, then c H_d as ((d, d), c) for d < m, read off entry
        (d, d), which no other basis element has."""
        m = self.ring
        return sorted(((key, c) for key, c in self.terms.items() if key != (m, m)),
                      key=lambda part: (part[0][0] == part[0][1], part[0]))

    def label(self) -> str:
        names = ((f"E({i},{j})" if i != j else f"H({i})", c) for (i, j), c in self.parts())
        return " + ".join(name if c == 1 else f"{c}*{name}" for name, c in names) or "0"

    def bracket(self, other: "SlElement") -> "SlElement":
        """Lie bracket XY - YX by matrix units: E_ij E_kl = delta_jk E_il."""
        self._coerce(other)  # raises on a rank mismatch
        out = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                if j == k:
                    out[(i, l)] = out.get((i, l), 0) + a * b
                if l == i:
                    out[(k, j)] = out.get((k, j), 0) - b * a
        return SlElement(self.ring, {key: c for key, c in out.items() if c}, _trusted=True)

    def __repr__(self):
        return f"SlElement({self.label()})"


class DmContext:
    """The m-1 variable differential model of sl_m with parameter k."""

    def __init__(self, m: int, ring: Ring | None = None):
        if m < 2:
            raise ValueError("rank m must be at least 2")
        if ring is None:
            ring = Ring(m - 1, 0)
        elif ring.num_vars != m - 1:
            raise ValueError(f"ring has {ring.num_vars} variables, expected {m - 1}")
        self.m = m
        self.ring = ring
        self._euler: WeylOp | None = None
        self._gens: dict = {}
        # the symbolic value of every provenance node `evaluate` has formed
        self._values: dict = {}

    def __repr__(self):
        return f"DmContext(m={self.m})"

    def euler_op(self) -> WeylOp:
        """sum_i u_i d_i - k, the degree operator shifted by the parameter."""
        if self._euler is None:
            ring = self.ring
            op = WeylOp.from_poly(-ring.k())
            for i in range(1, self.m):
                op = op + ring.u(i) * WeylOp.partial(ring, i)
            self._euler = op
        return self._euler

    def t_op(self, i: int, j: int) -> WeylOp:
        """Generator image of E_ij: -u_j d_i, -d_i, or u_j times the Euler operator."""
        if i == j:
            raise ValueError("diagonal index pair: use ttilde_op")
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise ValueError(f"index pair ({i},{j}) out of range 1..{self.m}")
        key = ("t", i, j)
        op = self._gens.get(key)
        if op is None:
            ring = self.ring
            if i < self.m and j < self.m:
                op = -(ring.u(j) * WeylOp.partial(ring, i))
            elif j == self.m:
                op = -WeylOp.partial(ring, i)
            else:
                op = ring.u(j) * self.euler_op()
            self._gens[key] = op
        return op

    def ttilde_op(self, d: int) -> WeylOp:
        """Generator image of E_dd - E_mm: -u_d d_d minus the Euler operator."""
        if not 1 <= d <= self.m - 1:
            raise ValueError(f"diagonal index {d} out of range 1..{self.m - 1}")
        key = ("tt", d)
        op = self._gens.get(key)
        if op is None:
            ring = self.ring
            op = -(ring.u(d) * WeylOp.partial(ring, d)) - self.euler_op()
            self._gens[key] = op
        return op

    def sigma(self, x: SlElement) -> WeylOp:
        """Linear extension of E_ij -> t_op(i,j), H_d -> ttilde_op(d)."""
        if x.ring != self.m:
            raise ValueError(f"element of sl_{x.ring} fed to {self!r}")
        op = WeylOp.zero(self.ring)
        for (i, j), c in x.parts():
            op = op + c * (self.t_op(i, j) if i != j else self.ttilde_op(i))
        return op


# -- provenance trees --------------------------------------------------------
# Leaves are the generator images t_op(i, j) and ttilde_op(d), the Euler
# operator (which stands for euler_tree) and u-free scalars in k and the nu.


@dataclass(frozen=True)
class GenT:
    i: int
    j: int


@dataclass(frozen=True)
class GenTtilde:
    d: int


@dataclass(frozen=True)
class GenEuler:
    pass


def _hash_once(cls):
    """cls as a frozen dataclass whose field hash is computed on the first
    `hash` and kept on the node: `evaluate` looks up every node it meets,
    and a field hash hashes the subtree again. Equality is the fields'."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
class ScalarNode:
    value: Poly


@_hash_once
class SumNode:
    parts: tuple


@_hash_once
class ProdNode:
    parts: tuple


class TreeBackend(NamedTuple):
    """What `evaluate` turns leaves into: `image` maps a generator's
    operator, `scalar` a u-free polynomial, and `product` joins factors."""

    image: Callable
    scalar: Callable
    product: Callable


SYMBOLIC = TreeBackend(lambda op: op, WeylOp.from_poly, operator.mul)


def evaluate(tree, dm: DmContext, backend: TreeBackend = SYMBOLIC, cache: dict | None = None):
    """Value of a provenance tree, with every node memoised in `cache`,
    keyed by the node, so a value shared by several trees or calls is
    formed once. Without `cache` the symbolic backend uses the model's own,
    `dm._values`, and any other backend a fresh dict. A node that raises
    memoises nothing."""
    if cache is None:
        cache = dm._values if backend is SYMBOLIC else {}

    def rec(node):
        value = cache.get(node)
        if value is None:
            if isinstance(node, SumNode):
                value = reduce(operator.add, map(rec, node.parts))
            elif isinstance(node, ProdNode):
                value = reduce(backend.product, map(rec, node.parts))
            elif isinstance(node, ScalarNode):
                value = backend.scalar(node.value)
            elif isinstance(node, GenT):
                value = backend.image(dm.t_op(node.i, node.j))
            elif isinstance(node, GenTtilde):
                value = backend.image(dm.ttilde_op(node.d))
            elif isinstance(node, GenEuler):
                value = rec(euler_tree(dm))
            else:
                raise TypeError(f"not a provenance node: {node!r}")
            cache[node] = value
        return value

    return rec(tree)


def is_generator_tree(tree, dm: DmContext) -> bool:
    """True when every leaf is a generator of the model or a u-free scalar."""
    if isinstance(tree, (SumNode, ProdNode)):
        return bool(tree.parts) and all(is_generator_tree(part, dm) for part in tree.parts)
    if isinstance(tree, ScalarNode):
        p = tree.value
        return isinstance(p, Poly) and p.ring == dm.ring and p.is_u_free()
    if isinstance(tree, GenT):
        return tree.i != tree.j and 1 <= tree.i <= dm.m and 1 <= tree.j <= dm.m
    if isinstance(tree, GenTtilde):
        return 1 <= tree.d <= dm.m - 1
    return isinstance(tree, GenEuler)


def euler_tree(dm: DmContext) -> ProdNode:
    """The Euler operator from generators alone: -(k + sum_d ttilde_d)/m."""
    total = SumNode((ScalarNode(dm.ring.k()),) + tuple(GenTtilde(d) for d in range(1, dm.m)))
    return ProdNode((ScalarNode(dm.ring.const(Rat(-1, dm.m))), total))


def u_euler_tree(dm: DmContext, B: Iterable[int]) -> SumNode:
    """u_B times the Euler operator as the sum of t_op(m, j) over j in B."""
    return SumNode(tuple(GenT(dm.m, j) for j in index_subset(B, dm.m - 1)))


def u_partial_tree(dm: DmContext, B: Iterable[int], alpha: int) -> ProdNode:
    """u_B d_alpha = -delta(alpha in B) (ttilde_alpha + Euler) minus the
    sum of t_op(alpha, j) over j in B other than alpha."""
    b = index_subset(B, dm.m - 1)
    if not 1 <= alpha <= dm.m - 1:
        raise ValueError(f"derivative index {alpha} out of range 1..{dm.m - 1}")
    parts = (GenTtilde(alpha), GenEuler()) if alpha in b else ()
    parts += tuple(GenT(alpha, j) for j in b if j != alpha)
    return ProdNode((ScalarNode(dm.ring.const(-1)), SumNode(parts)))


def check_sl_homomorphism(ctx: DmContext) -> Report:
    """Verify [sigma(x), sigma(y)] = sigma([x, y]) on all ordered basis pairs."""
    basis = SlElement.basis(ctx.m)
    report = Report("sln", {"m": ctx.m, "k_mode": "symbolic"})
    images = [ctx.sigma(x) for x in basis]
    for x, sx in zip(basis, images):
        for y, sy in zip(basis, images):
            report.add(
                timed_check(
                    f"[{x.label()},{y.label()}]",
                    "commutator of images matches image of bracket",
                    lambda: (sx.commutator(sy), ctx.sigma(x.bracket(y))),
                )
            )
    return report


def check_lemma1(ctx: DmContext) -> Report:
    """Commutators of u_B * Euler and of plain u_A against each derivative."""
    report = Report("lemma1", {"m": ctx.m, "k_mode": "symbolic"})
    ring = ctx.ring
    euler = ctx.euler_op()
    subsets = nonempty_subsets(ctx.m - 1)
    for B in subsets:
        u_b = ring.u_sum(B)
        ub_euler = u_b * euler
        for alpha in range(1, ctx.m):
            d_alpha = WeylOp.partial(ring, alpha)
            delta = 1 if alpha in B else 0
            report.add(
                timed_check(
                    f"[uE{set(B)},d{alpha}]",
                    "raising commutator reduces to -u_B d_alpha - delta Euler",
                    lambda: (ub_euler.commutator(d_alpha), -(u_b * d_alpha) - delta * euler),
                )
            )
    for A in subsets:
        u_a = WeylOp.from_poly(ring.u_sum(A))
        for alpha in range(1, ctx.m):
            delta = 1 if alpha in A else 0
            report.add(
                timed_check(
                    f"[u{set(A)},d{alpha}]",
                    "multiplication operator commutator is -delta",
                    lambda: (
                        u_a.commutator(WeylOp.partial(ring, alpha)),
                        WeylOp.scalar(ring, -delta),
                    ),
                )
            )
    return report


def check_generator_membership(ctx: DmContext) -> Report:
    """Generator-only assemblies reproduce u_B Euler, u_B d_alpha, and Euler."""
    report = Report("membership", {"m": ctx.m, "k_mode": "symbolic"})
    ring = ctx.ring
    euler = ctx.euler_op()
    report.add(
        timed_check(
            "euler",
            "Euler operator equals -(k + sum ttilde)/m",
            lambda: (euler, evaluate(euler_tree(ctx), ctx)),
        )
    )
    for B in nonempty_subsets(ctx.m - 1):
        u_b = ring.u_sum(B)
        report.add(
            timed_check(
                f"uE{set(B)}",
                "generator sum equals u_B composed with Euler",
                lambda: (evaluate(u_euler_tree(ctx, B), ctx), u_b * euler),
            )
        )
        for alpha in range(1, ctx.m):
            report.add(
                timed_check(
                    f"uD{set(B)},d{alpha}",
                    "generator assembly equals u_B composed with d_alpha",
                    lambda: (
                        evaluate(u_partial_tree(ctx, B, alpha), ctx),
                        u_b * WeylOp.partial(ring, alpha),
                    ),
                )
            )
    return report
