"""Racah realization: Casimir families, subset assembly, commutation."""

import random
import re
from functools import reduce
from itertools import combinations
from operator import add

import pytest

from helpers import kernel_c_pair, random_invariant_op
from weylracah import RacahContext, WeylOp, check_racah_structure, embedded_c_set, racah, weyl
from weylracah.sln import nonempty_subsets


def test_c_single_value():
    rc = RacahContext(4)
    nu1 = rc.ring.nu(1)
    assert rc.c_single(1) == WeylOp.from_poly(nu1 * (nu1 - 1))


def test_c_single_is_central():
    rc = RacahContext(4)
    op = random_invariant_op(random.Random(2), rc.dm)
    assert rc.c_single(1).commutator(op) == WeylOp.zero(rc.ring)


def test_c_single_vanishes_at_one():
    rc = RacahContext(4)
    assert rc.c_single(2).subs({"nu2": 1}) == WeylOp.zero(rc.ring)


def test_c_single_range():
    rc = RacahContext(4)
    with pytest.raises(ValueError):
        rc.c_single(0)
    with pytest.raises(ValueError):
        rc.c_single(5)


def test_c_pair_on_constant():
    rc = RacahContext(5)
    s = rc.ring.k() + rc.ring.nu(1) + rc.ring.nu(2)
    assert rc.c_pair(1, 2).apply(rc.ring.one()) == s * (s - 1)


def test_c_pair_one_j_on_constant():
    # j=3, n=3: only the middle term and the constant survive on 1
    rc = RacahContext(3)
    ring = rc.ring
    got = rc.c_pair(1, 3).apply(ring.one())
    expected = 2 * ring.nu(3) * ring.k() * (1 - ring.u(1)) + (ring.nu(1) + ring.nu(3)) * (
        ring.nu(1) + ring.nu(3) - 1
    )
    assert got == expected


def test_c_pair_two_j_on_constant():
    rc = RacahContext(3)
    ring = rc.ring
    got = rc.c_pair(2, 3).apply(ring.one())
    expected = 2 * ring.nu(3) * ring.k() * ring.u(1) + (ring.nu(2) + ring.nu(3)) * (
        ring.nu(2) + ring.nu(3) - 1
    )
    assert got == expected


def test_c_pair_generic_branch_support():
    # interior pair at n=5 involves u2 and the derivative steps (d2-d3), (d1-d2)
    rc = RacahContext(5)
    ring = rc.ring
    front = ring.u(2)
    step_hi = WeylOp.partial(ring, 2) - WeylOp.partial(ring, 3)
    step_lo = WeylOp.partial(ring, 1) - WeylOp.partial(ring, 2)
    expected = (
        -(front**2 * (step_hi * step_lo))
        + 2 * ring.nu(3) * (front * step_hi)
        - 2 * ring.nu(4) * (front * step_lo)
        + (ring.nu(3) + ring.nu(4)) * (ring.nu(3) + ring.nu(4) - 1)
    )
    assert rc.c_pair(3, 4) == expected


def test_c_pair_convention_drops_last_derivative():
    # at j = n the step derivative loses its second half: only d_{n-2} remains
    rc = RacahContext(4)
    ring = rc.ring
    eu = ring.u(1) * WeylOp.partial(ring, 1) + ring.u(2) * WeylOp.partial(ring, 2)
    front = 1 - ring.u(1) - ring.u(2)
    step = WeylOp.partial(ring, 2)
    expected = (
        -(front**2 * ((WeylOp.from_poly(ring.k() - 1) - eu) * step))
        + 2 * ring.nu(4) * (front * (WeylOp.from_poly(ring.k()) - eu))
        - 2 * ring.nu(1) * (front * step)
        + (ring.nu(1) + ring.nu(4)) * (ring.nu(1) + ring.nu(4) - 1)
    )
    assert rc.c_pair(1, 4) == expected


def test_c_pair_unordered():
    rc = RacahContext(5)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert rc.c_pair(i, j) == rc.c_pair(j, i)


def test_c_pair_errors():
    rc = RacahContext(4)
    with pytest.raises(ValueError):
        rc.c_pair(2, 2)
    with pytest.raises(ValueError):
        rc.c_pair(0, 1)
    with pytest.raises(ValueError):
        rc.c_pair(1, 5)


def euler_sum(rc):
    """sum_l u_l d_l over the n-2 variables, term by term."""
    ring = rc.ring
    return sum((ring.u(l) * WeylOp.partial(ring, l) for l in range(1, rc.n - 1)), WeylOp.zero(ring))


def reference_pair(rc, lo, hi):
    """(lead, op) of the pair Casimir (lo, hi) by four per-shape formulas
    written with the Euler sum: a reference for the shape table of c_pair."""
    ring, k, nu = rc.ring, rc.ring.k(), rc.ring.nu

    def d(i):  # d_{n-1} is zero by the index convention
        return WeylOp.zero(ring) if i == rc.n - 1 else WeylOp.partial(ring, i)

    def step(j):
        return d(j - 2) - d(j - 1)

    def u_range(a, b):
        return sum((ring.u(l) for l in range(a, b + 1)), ring.zero())

    eu = euler_sum(rc)
    const = (nu(lo) + nu(hi)) * (nu(lo) + nu(hi) - 1)
    if (lo, hi) == (1, 2):
        lower = WeylOp.from_poly(-k) - d(1) + eu
        lead = -((WeylOp.from_poly(k - 1) - eu) * lower)
        return lead, lead + 2 * nu(2) * (WeylOp.from_poly(k) - eu) - 2 * nu(1) * lower + const
    if lo == 1:
        front = ring.one() - u_range(1, hi - 2)
        lead = -(front**2 * ((WeylOp.from_poly(k - 1) - eu) * step(hi)))
        middle = 2 * nu(hi) * (front * (WeylOp.from_poly(k) - eu))
        return lead, lead + middle - 2 * nu(1) * (front * step(hi)) + const
    if lo == 2:
        front = u_range(1, hi - 2)
        lower = WeylOp.from_poly(1 - k) - d(1) + eu
        lead = -(front**2 * (lower * step(hi)))
        middle = 2 * nu(hi) * (front * (WeylOp.from_poly(k) + d(1) - eu))
        return lead, lead + middle + 2 * nu(2) * (front * step(hi)) + const
    front = u_range(lo - 1, hi - 2)
    lead = -(front**2 * (step(hi) * step(lo)))
    middle = 2 * nu(lo) * (front * step(hi)) - 2 * nu(hi) * (front * step(lo))
    return lead, lead + middle + const


def test_c_pair_matches_four_branch_reference():
    for n in range(3, 9):
        rc = RacahContext(n)
        for lo, hi in combinations(range(1, n + 1), 2):
            lead, op = reference_pair(rc, lo, hi)
            assert rc.c_pair(hi, lo) == op, (n, lo, hi)
            assert rc.c_pair_lead(lo, hi) == lead, (n, lo, hi)


def test_c_pair_matches_kernel_assembly():
    # the grouping with one kernel product, A B, against the term-by-term
    # assembly with every product through the Leibniz kernel
    for n in range(3, 9):
        rc, ref = RacahContext(n), RacahContext(n)
        for lo, hi in combinations(range(1, n + 1), 2):
            lead, op = kernel_c_pair(ref, lo, hi)
            assert rc.c_pair(lo, hi) == op, (n, lo, hi)
            assert rc.c_pair_lead(hi, lo) == lead, (n, lo, hi)


def test_nu_casimir_from_ring_symbols():
    # c_pair and embedded_c_pair share nu_casimir, so the embedding
    # certificate C(lo,hi) cannot see an error in it
    rc = RacahContext(5)
    nu = {i: rc.ring.symbol(f"nu{i}") for i in range(1, 6)}
    for i in nu:
        assert rc.nu_casimir(i) == nu[i] * (nu[i] - 1)
    for i, j in combinations(nu, 2):
        s = nu[i] + nu[j]
        assert rc.nu_casimir(i, j) == s * (s - 1)


def test_c_set_degenerate_cases():
    rc = RacahContext(4)
    assert rc.c_set([2]) == rc.c_single(2)
    assert rc.c_set([1, 2]) == rc.c_pair(1, 2)
    assert rc.c_set((2, 1)) == rc.c_pair(1, 2)


def test_c_set_triple():
    rc = RacahContext(4)
    expected = (
        rc.c_pair(1, 2)
        + rc.c_pair(1, 3)
        + rc.c_pair(2, 3)
        - (rc.c_single(1) + rc.c_single(2) + rc.c_single(3))
    )
    assert rc.c_set([1, 2, 3]) == expected


def reference_c_set(ctx: RacahContext, a: tuple) -> WeylOp:
    """The subset rule as operator sums: pairs, minus |a| - 2 times the singletons."""
    if len(a) < 3:
        return ctx.c_single(*a) if len(a) == 1 else ctx.c_pair(*a)
    pairs = reduce(add, (ctx.c_pair(i, j) for i, j in combinations(a, 2)))
    return pairs - (len(a) - 2) * reduce(add, map(ctx.c_single, a))


@pytest.mark.parametrize("n", range(3, 8))
def test_c_set_matches_the_rule_as_sums(n):
    # the one-pass subset sum against the rule added up operator by operator
    # on a separate context, for every subset; at n <= 5 against the
    # embedded subset Casimir too, which reads the same rule with + and *
    rc, ref = RacahContext(n), RacahContext(n)
    for a in nonempty_subsets(n):
        op = rc.c_set(a)
        assert op == reference_c_set(ref, a), a
        if n <= 5:
            assert op == embedded_c_set(rc, a).op, a


def test_c_set_closes_each_operator_once(monkeypatch):
    # C_{1..5} on a fresh context: 10 kernel products A B, and 24 maps closed
    # by weyl._normal: the 10 products A B, the 3 products u_l d_l of the
    # Euler operator, one per pair for its four parts and one for the subset
    # sum (53 when each pair's parts and the subset's pairs were added as
    # operators)
    calls = {"leibniz": 0, "normal": 0}
    leibniz, normal = WeylOp._leibniz, weyl._normal

    def counted(self, other, start):
        calls["leibniz"] += 1
        return leibniz(self, other, start)

    def closed(ring, out):
        calls["normal"] += 1
        return normal(ring, out)

    monkeypatch.setattr(WeylOp, "_leibniz", counted)
    for module in (weyl, racah):  # racah closes the maps it assembles itself
        monkeypatch.setattr(module, "_normal", closed)
    full = RacahContext(5).c_set(range(1, 6))
    assert calls == {"leibniz": 10, "normal": 24}
    assert sum(len(p.terms) for p in full.terms.values()) == 27


def test_shape_pieces_are_formed_once():
    # each step, the Euler rows and each nu_casimir are kept per context: at
    # n = 6 every subset Casimir reads step(3..6), the Euler rows and the
    # nu_casimir of the 6 singletons and 15 pairs, 26 pieces
    rc = RacahContext(6)
    for a in nonempty_subsets(6):
        rc.c_set(a)
    assert len(rc._pieces) == 4 + 1 + 6 + 15
    assert rc.step(4) is rc.step(4) and rc.nu_casimir(2, 5) is rc.nu_casimir(2, 5)
    # the leading term is formed when first asked for, then kept
    assert rc._pairs[(1, 4)][0] is None
    lead = rc.c_pair_lead(4, 1)
    assert rc.c_pair_lead(1, 4) is lead and rc._pairs[(1, 4)][0] is lead


def test_c_set_empty():
    rc = RacahContext(4)
    with pytest.raises(ValueError):
        rc.c_set([])


def test_structure_suite_small():
    for n in (3, 4):
        report = check_racah_structure(RacahContext(n))
        assert report.failed == 0, report.to_text()


def test_failing_casimir_build_fails_only_its_checks(monkeypatch):
    # each check's pair sum has a term [C_p, C_q] for every pair p of A and
    # q != p of B, in the group of its triple or disjoint entry. The table
    # build stores the error of each group with the pair (2, 4), and a check
    # fails exactly when one of its terms has that pair, inside A & B or not
    original = RacahContext.c_set

    def broken(self, A):
        if self.subset_key(A) == (2, 4):
            raise RuntimeError("no Casimir")
        return original(self, A)

    monkeypatch.setattr(RacahContext, "c_set", broken)
    report = check_racah_structure(RacahContext(4))
    assert len(report.checks) == 90
    failed = [c for c in report.checks if not c.equal]
    assert all(c.lhs == "RuntimeError: no Casimir" for c in failed)

    def reads_2_4(check_id):
        A, B = (tuple(map(int, re.findall(r"\d+", side))) for side in check_id.split("|"))
        return any((2, 4) in (p, q) for p in combinations(A, 2) for q in combinations(B, 2) if p != q)

    expected = [c.id for c in report.checks if reads_2_4(c.id)]
    assert [c.id for c in failed] == expected
    assert 0 < len(expected) < 90


def test_disjoint_commutator_example():
    rc = RacahContext(4)
    assert rc.c_pair(1, 2).commutator(rc.c_pair(3, 4)) == WeylOp.zero(rc.ring)


def test_full_casimir_commutes_with_pairs():
    rc = RacahContext(4)
    full = rc.c_set([1, 2, 3, 4])
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert full.commutator(rc.c_pair(i, j)) == WeylOp.zero(rc.ring)


def test_self_commutator():
    rc = RacahContext(4)
    assert rc.c_pair(1, 2).commutator(rc.c_pair(1, 2)) == WeylOp.zero(rc.ring)


def test_full_casimir_scalar_on_constant():
    # the u-dependent pieces of the individual pair images cancel in the sum
    for n in (3, 4, 5):
        rc = RacahContext(n)
        image = rc.c_set(range(1, n + 1)).apply(rc.ring.one())
        assert image.is_u_free(), f"n={n}: {image!r}"


def test_context_requires_three_factors():
    with pytest.raises(ValueError):
        RacahContext(2)


def test_euler_sum_is_sum_of_u_d():
    for n in (3, 4, 5, 6):
        rc = RacahContext(n)
        terms = {}
        for l in range(1, n - 1):
            d_l = tuple(int(pos == l - 1) for pos in range(n - 2))
            terms[d_l] = rc.ring.u(l)
        assert rc.dm.euler_op() + rc.ring.k() == WeylOp(rc.ring, terms)
