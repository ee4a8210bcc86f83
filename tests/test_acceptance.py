"""Acceptance criteria, one test per criterion.

Every identity is exact (zero tolerance): symbolic checks compare normal
forms, matrix checks compare exact rational entries. Each test prints one
pass/fail line; run with `pytest -s -v tests/test_acceptance.py` to see
them as they complete.
"""

import functools
import random
import time
from itertools import combinations

from helpers import diff, random_invariant_op, random_nu_values, random_poly, random_weyl

from weylracah import (
    DmContext,
    OpMatrix,
    RacahContext,
    Rat,
    Ring,
    SlElement,
    WeylOp,
    basis,
    check_lemma1,
    check_racah_structure,
    check_sl_homomorphism,
    elaborate,
    embedded_c_pair,
    eval_tree_matrix,
    nonempty_subsets,
    parse,
    print_canonical,
    run_cli,
    to_matrix,
    verify_embedding,
)
from weylracah.sln import evaluate, u_euler_tree, u_partial_tree


def criterion(acid, detail):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{acid} FAIL: {detail}")
                raise
            print(f"{acid} PASS: {detail}")

        return wrapper

    return decorate


@criterion("AC-1", "sl homomorphism on all ordered basis pairs, m = 2..6")
def test_ac1_sl_homomorphism():
    start = time.perf_counter()
    for m in range(2, 7):
        report = check_sl_homomorphism(DmContext(m))
        assert report.failed == 0, report.to_text()
        assert report.passed == (m * m - 1) ** 2
    assert time.perf_counter() - start < 60.0


@criterion("AC-2", "both bracket identities for all subsets and derivatives, m = 2..5")
def test_ac2_lemma1():
    for m in range(2, 6):
        report = check_lemma1(DmContext(m))
        assert report.failed == 0, report.to_text()
        assert len(report.checks) == 2 * (2 ** (m - 1) - 1) * (m - 1)


@criterion("AC-3", "generator assemblies equal their raw compositions")
def test_ac3_generator_membership():
    for m in range(2, 6):
        ctx = DmContext(m)
        ring = ctx.ring
        euler = ctx.euler_op()
        for B in nonempty_subsets(m - 1):
            u_b = ring.u_sum(B)
            assert evaluate(u_euler_tree(ctx, B), ctx) == u_b * euler
            for alpha in range(1, m):
                u_b_d = u_b * WeylOp.partial(ring, alpha)
                assert evaluate(u_partial_tree(ctx, B, alpha), ctx) == u_b_d
    for m in range(2, 7):
        ctx = DmContext(m)
        total = WeylOp.from_poly(ctx.ring.k())
        for d in range(1, m):
            total = total + ctx.ttilde_op(d)
        assert ctx.euler_op() == Rat(-1, m) * total


@criterion("AC-4", "embedded pair Casimirs equal the realization, n = 3..6, symbolic")
def test_ac4_embedding():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        rc = RacahContext(n)
        report = verify_embedding(rc)
        assert report.failed == 0, report.to_text()
        pair_checks = [c for c in report.checks if c.id.startswith("C(")]
        assert len(pair_checks) == n * (n - 1) // 2
    assert time.perf_counter() - start < 120.0


@criterion("AC-5", "disjoint and nested subset Casimirs commute, n = 3..5")
def test_ac5_racah_structure():
    for n in (3, 4, 5):
        report = check_racah_structure(RacahContext(n))
        assert report.failed == 0, report.to_text()
    # the full Casimir in particular commutes with every pair
    rc = RacahContext(5)
    full = rc.c_set(range(1, 6))
    for i, j in combinations(range(1, 6), 2):
        assert full.commutator(rc.c_pair(i, j)) == WeylOp.zero(rc.ring)


def _sigma_matrix(element, gen_mats, size):
    out = OpMatrix.scalar(size, 0)
    for (i, j), coeff in element.parts():
        out = out + coeff * gen_mats[("E", i, j) if i != j else ("H", i)]
    return out


def _matrix_identities_for(rc, pi, values, failures):
    """Matrix versions of the criterion 1-5 identities at one assignment.

    Wherever both sides factor into operators that preserve the space,
    products of matrices replace symbolic composition entirely, which is
    the independent cross-check. The one exception is the commutator with
    a bare multiplication operator (it leaves the space), which is checked
    through the matrix of its already-commuted normal form.
    """
    n = rc.n
    m = rc.dm.m
    ring = rc.ring
    dm = rc.dm
    size = pi.size
    mat = lambda op: to_matrix(op, pi, values)

    # criterion 1: homomorphism, matrices multiplied directly
    sl_basis = SlElement.basis(m)
    gen_mats = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                gen_mats[("E", i, j)] = mat(dm.t_op(i, j))
    for d in range(1, m):
        gen_mats[("H", d)] = mat(dm.ttilde_op(d))
    images = [_sigma_matrix(x, gen_mats, size) for x in sl_basis]
    products = {}
    for a, ma in enumerate(images):
        for b, mb in enumerate(images):
            if (a, b) not in products:
                products[(a, b)] = ma @ mb
            if (b, a) not in products:
                products[(b, a)] = mb @ ma
            lhs = products[(a, b)] - products[(b, a)]
            rhs = _sigma_matrix(sl_basis[a].bracket(sl_basis[b]), gen_mats, size)
            if lhs != rhs:
                failures.append(f"hom[{a},{b}] n={n} k={pi.degree}")

    euler_mat = mat(dm.euler_op())
    partial_mats = {a: mat(WeylOp.partial(ring, a)) for a in range(1, m)}

    # criterion 2: bracket identities
    for B in nonempty_subsets(m - 1):
        u_b = ring.u_sum(B)
        ub_euler_mat = mat(u_b * dm.euler_op())
        for alpha in range(1, m):
            delta = 1 if alpha in B else 0
            lhs = ub_euler_mat @ partial_mats[alpha] - partial_mats[alpha] @ ub_euler_mat
            rhs = -mat(u_b * WeylOp.partial(ring, alpha)) - delta * euler_mat
            if lhs != rhs:
                failures.append(f"lemma1a[{B},{alpha}] n={n} k={pi.degree}")
            # multiplication by u_B alone leaves the space, so this side is
            # checked through its normal-ordered commutator
            com = WeylOp.from_poly(u_b).commutator(WeylOp.partial(ring, alpha))
            if mat(com) != (-delta) * OpMatrix.scalar(size, 1):
                failures.append(f"lemma1b[{B},{alpha}] n={n} k={pi.degree}")

    # criterion 3: membership identities
    ksum = OpMatrix.scalar(size, Rat(values["k"]))
    for d in range(1, m):
        ksum = ksum + gen_mats[("H", d)]
    if euler_mat != Rat(-1, m) * ksum:
        failures.append(f"euler n={n} k={pi.degree}")
    for B in nonempty_subsets(m - 1):
        u_b = ring.u_sum(B)
        if mat(evaluate(u_euler_tree(dm, B), dm)) != mat(u_b * dm.euler_op()):
            failures.append(f"mem-euler[{B}] n={n} k={pi.degree}")
        for alpha in range(1, m):
            assembly = evaluate(u_partial_tree(dm, B, alpha), dm)
            if mat(assembly) != mat(u_b * WeylOp.partial(ring, alpha)):
                failures.append(f"mem-partial[{B},{alpha}] n={n} k={pi.degree}")

    # criterion 4: embedding, tree evaluated in matrix land
    tree_cache = {}
    for i, j in combinations(range(1, n + 1), 2):
        expr = embedded_c_pair(rc, i, j)
        if eval_tree_matrix(rc, expr.tree, pi, values, tree_cache) != mat(rc.c_pair(i, j)):
            failures.append(f"embed[{i},{j}] n={n} k={pi.degree}")

    # criterion 5: structure, commutation via matrix products
    subsets = nonempty_subsets(n)
    cset_mats = {A: mat(rc.c_set(A)) for A in subsets}
    for pos, A in enumerate(subsets):
        for B in subsets[pos:]:
            sa, sb = set(A), set(B)
            if not (not sa & sb or sa <= sb or sb <= sa):
                continue
            if cset_mats[A] @ cset_mats[B] != cset_mats[B] @ cset_mats[A]:
                failures.append(f"struct[{A},{B}] n={n} k={pi.degree}")


@criterion("AC-6", "matrix oracle: invariance, identity agreement, multiplicativity")
def test_ac6_matrix_oracle():
    rng = random.Random(4242)
    failures = []
    for n in (4, 5):
        rc = RacahContext(n)
        pairs = list(combinations(range(1, n + 1), 2))
        for k in range(4):
            pi = basis(rc.ring, k)
            for _ in range(3):
                values = {"k": k, **random_nu_values(rng, n)}
                # (a) no leakage on any pair Casimir, direct or embedded
                for i, j in pairs:
                    to_matrix(rc.c_pair(i, j), pi, values)
                    to_matrix(embedded_c_pair(rc, i, j).op, pi, values)
                # (b) every symbolic identity holds entrywise
                _matrix_identities_for(rc, pi, values, failures)
            # (c) multiplicativity on fresh random enveloping-algebra pairs
            values = {"k": k, **random_nu_values(rng, n)}
            for _ in range(25):
                a = random_invariant_op(rng, rc.dm)
                b = random_invariant_op(rng, rc.dm)
                left = to_matrix(a * b, pi, values)
                right = to_matrix(a, pi, values) @ to_matrix(b, pi, values)
                if left != right:
                    failures.append(f"mult n={n} k={k}")
    assert not failures, failures[:10]


@criterion("AC-7", "closed-form value of the first pair Casimir on constants")
def test_ac7_spot_value():
    rc = RacahContext(4)
    ring = rc.ring
    s = ring.k() + ring.nu(1) + ring.nu(2)
    expected = s * (s - 1)
    assert rc.c_pair(1, 2).apply(ring.one()) == expected

    rng = random.Random(777)
    k = 2
    pi = basis(ring, k)
    for _ in range(3):
        values = {"k": k, **random_nu_values(rng, 4)}
        column = [row[0] for row in to_matrix(rc.c_pair(1, 2), pi, values).rows]
        want = expected.subs(values).constant_value()
        assert column[0] == want
        assert all(not entry for entry in column[1:])


@criterion("AC-8", "bulk property suites, 500 random cases each")
def test_ac8_engine_properties():
    ring = Ring(2, 1)
    rng = random.Random(8001)
    for _ in range(500):
        a = random_weyl(rng, ring)
        b = random_weyl(rng, ring)
        c = random_weyl(rng, ring)
        assert (a * b) * c == a * (b * c)

    rng = random.Random(8002)
    for _ in range(500):
        a = random_weyl(rng, ring)
        b = random_weyl(rng, ring)
        c = random_weyl(rng, ring)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    rng = random.Random(8003)
    for _ in range(500):
        p = random_poly(rng, ring, max_degree=4)
        q = random_poly(rng, ring, max_degree=4)
        for i in (1, 2):
            assert diff(p * q, i) == diff(p, i) * q + p * diff(q, i)

    rc = RacahContext(4)
    rng = random.Random(8004)
    for _ in range(500):
        op = random_weyl(rng, rc.ring)
        assert elaborate(parse(print_canonical(op), rc), rc) == op


@criterion("AC-9", "single-coefficient corruption makes the embedding suite fail")
def test_ac9_mutation_sensitivity(capsys):
    import weylracah.embed as embed_mod

    original = embed_mod.embedded_c_pair

    def corruptions(ctx, expr):
        l1 = embed_mod.l_op(ctx, "L1", 3)
        l2 = embed_mod.l_op(ctx, "L2", 3)
        return {
            "L2 coefficient 2nu_j in place of 2nu_j-1": expr - l2,
            "L1 coefficient nu_1 in place of 2nu_1": expr + ctx.ring.nu(1) * l1,
            "doubled quadratic term": expr + l1 * l2,
            "shifted additive constant": expr + 1,
        }

    baseline = run_cli(["verify", "--suite", "embedding", "--n", "4"])
    capsys.readouterr()
    assert baseline == 0

    for name in corruptions(RacahContext(4), embedded_c_pair(RacahContext(4), 1, 3)):
        def corrupted(ctx, i, j, _name=name):
            expr = original(ctx, i, j)
            if tuple(sorted((i, j))) == (1, 3):
                expr = corruptions(ctx, expr)[_name]
            return expr

        embed_mod.embedded_c_pair = corrupted
        try:
            code = run_cli(["verify", "--suite", "embedding", "--n", "4"])
        finally:
            embed_mod.embedded_c_pair = original
        capsys.readouterr()
        assert code == 1, f"mutation not detected: {name}"
