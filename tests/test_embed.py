"""Embedded Casimirs: L operators, provenance, equality with the realization."""

import pytest

from weylracah import (
    RacahContext,
    WeylOp,
    embedded_c_pair,
    embedded_c_set,
    eval_tree,
    l_op,
    l_op_pair,
    verify_embedding,
)
from weylracah.embed import (
    EmbeddedExpr,
    GenEuler,
    GenT,
    GenTtilde,
    ProdNode,
    ScalarNode,
    SumNode,
)


@pytest.fixture
def rc4():
    return RacahContext(4)


def test_l2_is_euler_minus_raising(rc4):
    ring = rc4.ring
    expected = (1 - ring.u(1)) * rc4.dm.euler_op()
    assert l_op(rc4, "L2", 3).op == expected
    assert l_op(rc4, "L2", 3).op == rc4.dm.euler_op() - rc4.dm.t_op(3, 1)


def test_l1_with_both_derivatives(rc4):
    ring = rc4.ring
    step = WeylOp.partial(ring, 1) - WeylOp.partial(ring, 2)
    assert l_op(rc4, "L1", 3).op == (1 - ring.u(1)) * step


def test_l3_at_top_index_drops_derivative(rc4):
    # j = n: the second derivative in the step is out of range and vanishes
    ring = rc4.ring
    expected = (ring.u(1) + ring.u(2)) * WeylOp.partial(ring, 2)
    assert l_op(rc4, "L3", 4).op == expected


def test_l4(rc4):
    ring = rc4.ring
    expected = ring.u(1) * (-WeylOp.partial(ring, 1) + rc4.dm.euler_op())
    assert l_op(rc4, "L4", 3).op == expected


def test_l_op_range(rc4):
    with pytest.raises(ValueError):
        l_op(rc4, "L1", 2)
    with pytest.raises(ValueError):
        l_op(rc4, "L1", 5)
    with pytest.raises(ValueError):
        l_op(rc4, "L9", 3)


def test_l_op_pair_examples():
    rc = RacahContext(5)
    ring = rc.ring
    step_hi = WeylOp.partial(ring, 2) - WeylOp.partial(ring, 3)
    step_lo = WeylOp.partial(ring, 1) - WeylOp.partial(ring, 2)
    assert l_op_pair(rc, "L5", 4, 3).op == ring.u(2) * step_hi
    assert l_op_pair(rc, "L6", 4, 3).op == ring.u(2) * step_lo
    # i = n drops the out-of-range derivative
    top = l_op_pair(rc, "L5", 5, 3)
    assert top.op == (ring.u(2) + ring.u(3)) * WeylOp.partial(ring, 3)


def test_l_op_pair_range():
    rc = RacahContext(5)
    with pytest.raises(ValueError):
        l_op_pair(rc, "L5", 3, 3)
    with pytest.raises(ValueError):
        l_op_pair(rc, "L5", 3, 4)
    with pytest.raises(ValueError):
        l_op_pair(rc, "L7", 4, 3)


def test_embedded_first_pair_on_constant(rc4):
    ring = rc4.ring
    s = ring.k() + ring.nu(1) + ring.nu(2)
    assert embedded_c_pair(rc4, 1, 2).op.apply(ring.one()) == s * (s - 1)


def test_embedded_matches_direct(rc4):
    assert embedded_c_pair(rc4, 1, 3).op == rc4.c_pair(1, 3)
    rc5 = RacahContext(5)
    assert embedded_c_pair(rc5, 4, 3).op == rc5.c_pair(4, 3)


def test_verify_embedding_small():
    for n in (3, 4):
        report = verify_embedding(RacahContext(n))
        assert report.failed == 0, report.to_text()
        pair_checks = [c for c in report.checks if c.id.startswith("C(")]
        assert len(pair_checks) == n * (n - 1) // 2


def test_corrupted_coefficient_fails(rc4):
    # 2 nu_j instead of 2 nu_j - 1 leaves a nonzero difference
    ring = rc4.ring
    l1 = l_op(rc4, "L1", 3)
    l2 = l_op(rc4, "L2", 3)
    const = (ring.nu(1) + ring.nu(3)) * (ring.nu(1) + ring.nu(3) - 1)
    corrupted = (
        l1.op * l2.op
        - (2 * ring.nu(3)) * l2.op
        - (2 * ring.nu(1)) * l1.op
        + WeylOp.from_poly(const)
    )
    assert corrupted != rc4.c_pair(1, 3)
    assert corrupted - rc4.c_pair(1, 3) == -l2.op


def test_provenance_reproduces_operator(rc4):
    for lo in range(1, 5):
        for hi in range(lo + 1, 5):
            expr = embedded_c_pair(rc4, lo, hi)
            assert expr.check_tree()
            assert eval_tree(rc4, expr.tree) == expr.op


def test_provenance_node_types_only(rc4):
    allowed = (GenT, GenTtilde, GenEuler, ScalarNode, SumNode, ProdNode)

    def walk(node):
        assert isinstance(node, allowed), f"foreign node {node!r}"
        if isinstance(node, (SumNode, ProdNode)):
            for part in node.parts:
                walk(part)
        if isinstance(node, ScalarNode):
            assert node.value.is_u_free()

    for lo, hi in ((1, 2), (1, 3), (2, 4), (3, 4)):
        walk(embedded_c_pair(rc4, lo, hi).tree)


def test_scalar_rejects_u_dependence(rc4):
    with pytest.raises(ValueError):
        EmbeddedExpr.scalar(rc4, rc4.ring.u(1))


def test_embedded_c_set_matches_direct():
    for n in (4, 5):
        rc = RacahContext(n)
        for a in ((1, 2, 3), (2, 3, 4), (1, 3, n)):
            expr = embedded_c_set(rc, a)
            assert expr.op == rc.c_set(a)
            assert expr.check_tree()


def test_embedded_c_set_singleton():
    rc = RacahContext(4)
    assert embedded_c_set(rc, [2]).op == rc.c_single(2)


def test_intermediate_rewrites_recorded():
    report = verify_embedding(RacahContext(5))
    ids = {c.id for c in report.checks}
    assert "rw1a(3)" in ids and "rw2b(5)" in ids and "rw3(3,4)" in ids
    assert report.failed == 0


def test_embedded_pair_errors(rc4):
    with pytest.raises(ValueError):
        embedded_c_pair(rc4, 2, 2)
    with pytest.raises(ValueError):
        embedded_c_pair(rc4, 0, 1)


def test_check_tree_is_structural(rc4):
    ring = rc4.ring
    assert EmbeddedExpr(rc4, SumNode((GenT(3, 1), ScalarNode(ring.nu(1))))).check_tree()
    # a u-dependent scalar that bypasses EmbeddedExpr.scalar
    assert not EmbeddedExpr(rc4, SumNode((GenT(3, 1), ScalarNode(ring.u(1))))).check_tree()
    # an operator smuggled in as a leaf
    assert not EmbeddedExpr(rc4, ProdNode((GenT(3, 1), rc4.dm.t_op(3, 1)))).check_tree()
    # index pairs that name no generator of the rank-3 model
    assert not EmbeddedExpr(rc4, GenT(4, 1)).check_tree()
    assert not EmbeddedExpr(rc4, GenTtilde(3)).check_tree()


def test_op_is_evaluated_from_the_tree(rc4):
    expr = embedded_c_pair(rc4, 2, 4)
    assert expr.op is expr.op
    assert expr.op == eval_tree(rc4, expr.tree) == rc4.c_pair(2, 4)
    with pytest.raises(TypeError):
        EmbeddedExpr(rc4, SumNode((GenT(3, 1), "junk"))).op


def test_failing_block_build_fails_only_its_checks(monkeypatch):
    # the L5/L6 blocks of (3,5) cannot be built: only the checks using them fail
    import weylracah.embed as embed_mod

    original = embed_mod.l_op_pair

    def broken(ctx, tag, i, j):
        if (i, j) == (5, 3):
            raise RuntimeError("no L block")
        return original(ctx, tag, i, j)

    monkeypatch.setattr(embed_mod, "l_op_pair", broken)
    report = verify_embedding(RacahContext(5))
    assert len(report.checks) == 35
    failed = [c for c in report.checks if not c.equal]
    assert [c.id for c in failed] == ["rw3(3,5)", "prov(3,5)", "C(3,5)"]
    assert all(c.lhs == "RuntimeError: no L block" for c in failed)


def test_rewrite_steps_start_from_c_pair():
    # c_pair caches (leading term, operator) per pair, the one place both
    # are read from; perturbing the (1,3) entry reaches rw1a(3) and C(1,3)
    rc = RacahContext(4)
    lead, op = rc.c_pair_lead(1, 3), rc.c_pair(3, 1)
    bump = rc.ring.nu(1) * WeylOp.partial(rc.ring, 1)
    rc._pairs[(1, 3)] = (lead + bump, op + bump)
    assert rc.c_pair_lead(3, 1) == lead + bump
    report = verify_embedding(rc)
    assert [c.id for c in report.checks if not c.equal] == ["rw1a(3)", "C(1,3)"]


@pytest.mark.parametrize(
    "n, pair, corrupt, failing",
    [
        (4, (1, 3), lambda s, x, y: (-s, x, y), ["rw1b(3)", "C(1,3)"]),
        (5, (3, 5), lambda s, x, y: (s, y, x), ["rw3(3,5)", "C(3,5)"]),
    ],
    ids=["sign-flipped-1-3", "blocks-swapped-3-5"],
)
def test_lead_blocks_feed_both_sides(monkeypatch, n, pair, corrupt, failing):
    # one wrong table entry reaches its rewrite step and its embedded pair only
    import weylracah.embed as embed_mod

    original = embed_mod._lead_blocks

    def wrong(ctx, lo, hi):
        blocks = original(ctx, lo, hi)
        return corrupt(*blocks) if (lo, hi) == pair else blocks

    monkeypatch.setattr(embed_mod, "_lead_blocks", wrong)
    report = verify_embedding(RacahContext(n))
    assert len(report.checks) == {4: 21, 5: 35}[n]
    assert [c.id for c in report.checks if not c.equal] == failing
