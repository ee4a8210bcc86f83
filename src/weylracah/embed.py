"""Embedding of the pair Casimirs into the enveloping algebra of the
ambient sl realization.

Every operator here is assembled from generator images of the one-lower-rank
sl model (t_op, ttilde_op, the Euler combination) together with u-free
scalars, sums, and products. The assembly is recorded as a provenance tree
(see `sln`), and the operator is evaluated from that tree alone, so
enveloping-algebra membership is a structural property of the expression and
operator equality with the direct realization is its certificate.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable

from .poly import Poly
from .racah import RacahContext, subset_casimir
from .report import Report, timed_check
from .repmat import OpMatrix, to_matrix
from .sln import GenEuler, GenT, ProdNode, ScalarNode, SumNode, TreeBackend, evaluate
from .sln import is_generator_tree, u_euler_tree, u_partial_tree
from .weyl import WeylOp

__all__ = [
    "EmbeddedExpr",
    "l_op",
    "l_op_pair",
    "embedded_c_pair",
    "embedded_c_set",
    "verify_embedding",
]


def eval_tree(ctx: RacahContext, node) -> WeylOp:
    """Rebuild the operator from generator images only; the Euler leaf
    expands through -(k + sum_d ttilde_d)/m."""
    return evaluate(node, ctx.dm)


def eval_tree_matrix(ctx: RacahContext, node, basis, assignment, cache=None):
    """Evaluate the provenance tree in the exact matrix model: generator
    leaves become their matrices on the bounded-degree basis and scalar
    leaves scalar matrices, and products become matrix products. Every
    node is memoised in `cache`, keyed by the node, so trees evaluated
    through one cache form each shared value once; without one, in a fresh
    dict for this call alone, never in the model's."""
    backend = TreeBackend(
        lambda op: to_matrix(op, basis, assignment),
        lambda p: OpMatrix.scalar(basis.size, p.subs(assignment).constant_value()),
        operator.matmul,
    )
    return evaluate(node, ctx.dm, backend, cache)


# -- embedded expressions ----------------------------------------------------


class EmbeddedExpr:
    """An operator known only by its generator-only assembly.

    `op` is evaluated from the tree, whose every node the model memoises.
    """

    __slots__ = ("ctx", "tree")

    def __init__(self, ctx: RacahContext, tree):
        self.ctx = ctx
        self.tree = tree

    @property
    def op(self) -> WeylOp:
        return eval_tree(self.ctx, self.tree)

    @staticmethod
    def scalar(ctx: RacahContext, value) -> "EmbeddedExpr":
        p = value if isinstance(value, Poly) else ctx.ring.const(value)
        if not p.is_u_free():
            raise ValueError("embedded scalars must be free of the u variables")
        return EmbeddedExpr(ctx, ScalarNode(p))

    def _join(self, other) -> "EmbeddedExpr":
        if not isinstance(other, EmbeddedExpr):
            other = EmbeddedExpr.scalar(self.ctx, other)
        if other.ctx.n != self.ctx.n:
            raise ValueError("embedded expressions from different contexts")
        return other

    def __add__(self, other):
        return EmbeddedExpr(self.ctx, SumNode((self.tree, self._join(other).tree)))

    def __radd__(self, other):
        return self._join(other).__add__(self)

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        return self + (-self._join(other))

    def __mul__(self, other):
        return EmbeddedExpr(self.ctx, ProdNode((self.tree, self._join(other).tree)))

    def __rmul__(self, scalar):
        return EmbeddedExpr.scalar(self.ctx, scalar) * self

    def check_tree(self) -> bool:
        """True when every leaf of the tree is a generator or a u-free scalar.

        Since `op` is evaluated from the tree, this makes it an element of
        the enveloping algebra of the sl model.
        """
        return is_generator_tree(self.tree, self.ctx.dm)

    def __repr__(self):
        return f"EmbeddedExpr({self.op!r})"


# -- generator-level building blocks ----------------------------------------


def _partial(ctx: RacahContext, B: Iterable[int], alpha: int) -> EmbeddedExpr:
    """u_B d_alpha from generators, and d_alpha = -t_op(alpha, m) when B is
    empty; zero at alpha = m, the one place the index convention applies."""
    m = ctx.dm.m
    if alpha == m:
        return EmbeddedExpr.scalar(ctx, 0)
    if not B:
        return (-1) * EmbeddedExpr(ctx, GenT(alpha, m))
    return EmbeddedExpr(ctx, u_partial_tree(ctx.dm, B, alpha))


def _step(ctx: RacahContext, B: Iterable[int], j: int) -> EmbeddedExpr:
    """u_B (d_{j-2} - d_{j-1}), the step derivative of the factor index j."""
    return _partial(ctx, B, j - 2) - _partial(ctx, B, j - 1)


# -- the six L operators -----------------------------------------------------


def l_op(ctx: RacahContext, tag: str, j: int) -> EmbeddedExpr:
    """The four single-index building blocks of the embedded Casimirs.

    With B = {1..j-2}: L1 = (1-u_B)(d_{j-2} - d_{j-1}), L2 = (1-u_B) Euler,
    L3 = u_B (d_{j-2} - d_{j-1}), L4 = u_B (-d_1 + Euler).
    """
    if not 3 <= j <= ctx.n:
        raise ValueError(f"index {j} out of range 3..{ctx.n}")
    B = range(1, j - 1)
    if tag == "L1":
        return _step(ctx, (), j) - _step(ctx, B, j)
    if tag == "L2":
        return EmbeddedExpr(ctx, GenEuler()) - EmbeddedExpr(ctx, u_euler_tree(ctx.dm, B))
    if tag == "L3":
        return _step(ctx, B, j)
    if tag == "L4":
        return -_partial(ctx, B, 1) + EmbeddedExpr(ctx, u_euler_tree(ctx.dm, B))
    raise ValueError(f"unknown tag {tag!r}, expected L1..L4")


def l_op_pair(ctx: RacahContext, tag: str, i: int, j: int) -> EmbeddedExpr:
    """The two-index blocks: over B = {j-1..i-2},
    L5 = u_B (d_{i-2} - d_{i-1}) and L6 = u_B (d_{j-2} - d_{j-1})."""
    if not 3 <= j < i <= ctx.n:
        raise ValueError(f"need 3 <= j < i <= {ctx.n}, got ({i},{j})")
    B = range(j - 1, i - 1)
    if tag == "L5":
        return _step(ctx, B, i)
    if tag == "L6":
        return _step(ctx, B, j)
    raise ValueError(f"unknown tag {tag!r}, expected L5 or L6")


# -- embedded Casimirs -------------------------------------------------------


def _lead_blocks(ctx: RacahContext, lo: int, hi: int):
    """(s, X, Y) with c_pair_lead(lo, hi) = s X Y + Y: the one table of which
    blocks, with which sign, lead each pair. At (1, 2), X = Euler - d_1 stands
    for the step derivative, as in the realization's `_pair_shape`."""
    if hi == 2:
        euler = EmbeddedExpr(ctx, GenEuler())
        return 1, euler - _partial(ctx, (), 1), euler
    if lo == 1:
        return 1, l_op(ctx, "L1", hi), l_op(ctx, "L2", hi)
    if lo == 2:
        return -1, l_op(ctx, "L3", hi), l_op(ctx, "L4", hi)
    return -1, l_op_pair(ctx, "L5", hi, lo), l_op_pair(ctx, "L6", hi, lo)


def embedded_c_pair(ctx: RacahContext, i: int, j: int) -> EmbeddedExpr:
    """Pair Casimir assembled inside the enveloping algebra.

    For the sorted pair (lo, hi) and (s, X, Y) from `_lead_blocks`:
      s X Y - (2 nu_hi - 1) Y - 2 s nu_lo X + const,
    where const = ctx.nu_casimir(lo, hi), the constant of c_pair(lo, hi).
    Built once per context and kept in `ctx.embedded_pairs`.
    """
    lo, hi = ctx.pair_key(i, j)
    expr = ctx.embedded_pairs.get((lo, hi))
    if expr is None:
        nu = ctx.ring.nu
        const = EmbeddedExpr.scalar(ctx, ctx.nu_casimir(lo, hi))
        s, x, y = _lead_blocks(ctx, lo, hi)
        expr = (s * x) * y - (2 * nu(hi) - 1) * y + (-2 * s * nu(lo)) * x + const
        ctx.embedded_pairs[lo, hi] = expr
    return expr


def embedded_c_set(ctx: RacahContext, A: Iterable[int]) -> EmbeddedExpr:
    """Subset Casimir assembled from embedded pairs and scalar singletons."""
    return subset_casimir(
        ctx.subset_key(A),
        lambda i: EmbeddedExpr.scalar(ctx, ctx.nu_casimir(i)),
        lambda i, j: embedded_c_pair(ctx, i, j),
    )


# -- verification ------------------------------------------------------------


def _rewriting_checks(ctx: RacahContext, report: Report) -> None:
    """The normal-ordering steps that justify each embedded product form.

    Each chain starts from the leading term of the pair Casimir it rewrites,
    as `c_pair` computes it, and ends in the product of L blocks that
    `_lead_blocks` gives, the same table `embedded_c_pair` reads.
    """
    euler = ctx.dm.euler_op()

    def raised(j):
        """(1 - u_B)^2 (d_{j-2} - d_{j-1}) Euler with B = {1..j-2}."""
        return (ctx.ring.one() - ctx.u_range(1, j - 2)) ** 2 * (ctx.step(j) * euler)

    def lowered(j):
        """-u_B^2 (d_{j-2} - d_{j-1}) (-d_1 + Euler) with B = {1..j-2}."""
        return -(ctx.u_range(1, j - 2) ** 2 * (ctx.step(j) * (-ctx.partial_or_zero(1) + euler)))

    def split(lo, hi):
        """s X Y + Y over the lead blocks of (lo, hi), the form of c_pair_lead."""
        s, x, y = _lead_blocks(ctx, lo, hi)
        return (s * x.op) * y.op + y.op

    steps = (
        (1, raised, "degree factor commutes through the step derivative", "L1 L2 + L2"),
        (2, lowered, "lowering factor commutes through the step derivative", "-L3 L4 + L4"),
    )
    for j in range(3, ctx.n + 1):
        for lo, middle, commutes, form in steps:
            report.add(
                timed_check(f"rw{lo}a({j})", commutes, lambda: (ctx.c_pair_lead(lo, j), middle(j)))
            )
            splits = f"first term splits as {form}"
            report.add(timed_check(f"rw{lo}b({j})", splits, lambda: (middle(j), split(lo, j))))
    for lo, hi in combinations(range(3, ctx.n + 1), 2):
        splits = "first term splits as -L5 L6 + L6"
        report.add(
            timed_check(f"rw3({lo},{hi})", splits, lambda: (ctx.c_pair_lead(lo, hi), split(lo, hi)))
        )


def verify_embedding(ctx: RacahContext) -> Report:
    """Certify embedded = direct for every pair, plus the rewriting steps."""
    report = Report("embedding", {"n": ctx.n, "k_mode": "symbolic"})
    _rewriting_checks(ctx, report)
    for lo, hi in combinations(range(1, ctx.n + 1), 2):
        # prov checks the tree's leaves (generators, u-free scalars); C its value
        report.add(
            timed_check(
                f"prov({lo},{hi})",
                "provenance tree reproduces the stored operator",
                lambda: (embedded_c_pair(ctx, hi, lo).check_tree(), True),
            )
        )
        report.add(
            timed_check(
                f"C({lo},{hi})",
                "embedded pair Casimir equals the direct realization",
                lambda: (embedded_c_pair(ctx, hi, lo).op, ctx.c_pair(lo, hi)),
            )
        )
    return report
