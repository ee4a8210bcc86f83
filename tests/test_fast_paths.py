"""Fast paths of the arithmetic core, cross-checked against the direct path.

Coefficients are ints wherever they are integral, `WeylOp.commutator`
composes both orders without the Leibniz terms that cancel, the racah
suite reads [C_A, C_B] from a table of pair commutators, and provenance
trees evaluated through one shared cache form each distinct sum and product
once.
Each test here compares one of these against the plain definition.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import perturbed_context, random_weyl
from weylracah import (
    ContextMismatchError,
    LeakageError,
    OpMatrix,
    Poly,
    RacahContext,
    Ring,
    SlElement,
    WeylOp,
    basis,
    check_racah_structure,
    embedded_c_pair,
    embedded_c_set,
    eval_tree_matrix,
    print_canonical,
    to_matrix,
    verify_embedding,
)
from weylracah.report import timed_check
from weylracah.sln import (GenEuler, GenT, ProdNode, ScalarNode, SumNode, euler_tree, evaluate,
                           nonempty_subsets)


@pytest.fixture(scope="module")
def rc5():
    return RacahContext(5)


def coefficients(op: WeylOp):
    return [c for p in op.terms.values() for c in p.terms.values()]


def as_fractions(x):
    """The same operator or polynomial with every coefficient stored as a Fraction."""
    if isinstance(x, Poly):
        return Poly(x.ring, {m: Fraction(c) for m, c in x.terms.items()}, _trusted=True)
    return WeylOp(x.ring, {alpha: as_fractions(p) for alpha, p in x.terms.items()}, _trusted=True)


def test_subset_commutators_match_direct_path(rc5):
    # all 496 unordered subset pairs at n=5, including the 195 with a nonzero
    # commutator: a fast path that returned zero would fail those
    subsets = nonempty_subsets(rc5.n)
    nonzero = 0
    for pos, A in enumerate(subsets):
        a = rc5.c_set(A)
        for B in subsets[pos:]:
            b = rc5.c_set(B)
            fast = a.commutator(b)
            assert fast == a * b - b * a, (A, B)
            nonzero += bool(fast)
    assert len(subsets) * (len(subsets) + 1) // 2 == 496
    assert nonzero == 195


def test_commutator_with_poly_and_scalar_operands(rc5):
    ring = rc5.ring
    op = rc5.c_pair(2, 4)
    p = ring.u(1) * ring.u(2) - 3 * ring.nu(4)
    assert op.commutator(p) == op * p - p * op
    assert op.commutator(p) == -WeylOp.from_poly(p).commutator(op)
    assert WeylOp.partial(ring, 1).commutator(ring.u(1)) == WeylOp.identity(ring)
    for scalar in (0, 5, Fraction(-3, 7)):
        assert op.commutator(scalar) == WeylOp.zero(ring)
    with pytest.raises(TypeError):
        op.commutator("u1")


def test_casimir_and_image_coefficients_are_ints(rc5):
    ops = [rc5.c_pair(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    ops += [rc5.c_set(A) for A in nonempty_subsets(5)]
    dm = rc5.dm
    basis = SlElement.basis(dm.m)
    ops += [dm.sigma(x) for x in basis]
    for op in ops:
        assert all(type(c) is int for c in coefficients(op))
    for x in basis:
        for y in basis:
            assert all(type(c) is int for c in x.bracket(y).terms.values())


def test_tree_built_operators_have_int_coefficients():
    # the Euler tree scales a sum by -1/m, and every coefficient of the
    # result is integral: it and each value built from it hold ints only;
    # the scalar leaf -1/m is the one node value that is not integral
    ctx = RacahContext(5)
    dm = ctx.dm
    ops = [evaluate(euler_tree(dm), dm)]
    ops += [embedded_c_pair(ctx, i, j).op for i, j in combinations(range(1, 6), 2)]
    assert verify_embedding(ctx).ok()
    ops += [value for node, value in dm._values.items()
            if isinstance(value, WeylOp) and not isinstance(node, ScalarNode)]
    assert len(ops) > 100
    for op in ops:
        assert all(type(c) is int for c in coefficients(op))


RING = Ring(2, 1)
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), small_rationals, max_size=3)
small_ops = st.builds(
    lambda d: WeylOp(RING, {alpha: Poly(RING, t) for alpha, t in d.items()}),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), small_polys, max_size=3),
)
non_integral = st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)).filter(
    lambda s: s.denominator != 1)


@settings(max_examples=100, deadline=None)
@given(small_ops, small_ops, non_integral)
def test_integral_results_are_stored_as_ints(a, b, s):
    # coefficients with denominators up to 4 often multiply, add or scale
    # to integers; the all-Fraction reference fixes the values
    p, q = a.terms.get((0, 0), RING.zero()), b.terms.get((1, 0), RING.one())
    fa, fb, fp, fq = map(as_fractions, (a, b, p, q))
    for result, reference in (
        (a * b, fa * fb), (a.commutator(b), fa.commutator(fb)), (a + b, fa + fb),
        (a - b, fa - fb), (s * a, s * fa), (a * s, fa * s), (p * q, fp * fq),
        (p + q, fp + fq), (s * p, s * fp), (q.diff_multi((1, 0)), fq.diff_multi((1, 0))),
    ):
        assert result == reference
        values = coefficients(result) if isinstance(result, WeylOp) else result.terms.values()
        assert all(type(c) is int or c.denominator != 1 for c in values)
        assert all(values)


def test_fractions_stay_where_needed(rc5):
    scalar = euler_tree(rc5.dm).parts[0].value
    assert scalar.constant_value() == Fraction(-1, 4)
    assert type(scalar.constant_value()) is Fraction
    ring = Ring(2, 1)
    two = ring.const(Fraction(6, 3))
    assert type(two.constant_value()) is int and two.constant_value() == 2
    assert type(ring.const("4/2").constant_value()) is int
    assert type(ring.const(Fraction(1, 2)).constant_value()) is Fraction
    with pytest.raises(TypeError):
        ring.const(0.5)


def test_int_coefficients_match_fraction_reference(rc5):
    # products and commutators with every coefficient stored as a Fraction
    # equal, hash and print like the int-first ones
    rng = random.Random(6)
    pairs = [(rc5.c_set((1, 2)), rc5.c_set((2, 3))), (rc5.c_set((1, 2, 3)), rc5.c_pair(3, 5))]
    pairs += [(random_weyl(rng, rc5.ring), random_weyl(rng, rc5.ring)) for _ in range(20)]
    for a, b in pairs:
        fa, fb = as_fractions(a), as_fractions(b)
        for fast, reference in ((a * b, fa * fb), (a.commutator(b), fa.commutator(fb))):
            assert fast == reference
            assert print_canonical(fast) == print_canonical(reference)
            assert all(hash(p) == hash(reference.terms[alpha]) for alpha, p in fast.terms.items())


def racah_rows(ctx: RacahContext, direct: bool) -> list[tuple]:
    """The racah report of ctx as (id, lhs, rhs, equal) rows; the direct
    path commutes the two subset Casimirs of each check in full."""
    if direct:
        ctx.set_commutator = lambda A, B: ctx.c_set(A).commutator(ctx.c_set(B))
    return [(c.id, c.lhs, c.rhs, c.equal) for c in check_racah_structure(ctx).checks]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_racah_table_matches_direct_path(n):
    assert racah_rows(RacahContext(n), False) == racah_rows(RacahContext(n), True)


def test_perturbed_pair_fails_the_same_checks_on_both_paths():
    # u1 d1 added to C_13 at n=4 and n=5 breaks the cyclic triples through
    # (1, 3): the checks that read them take the pair sum of the table's
    # own entries
    for n in (4, 5):
        rows, contexts = {}, {}
        for direct in (False, True):
            ctx = contexts[direct] = perturbed_context(n)
            rows[direct] = racah_rows(ctx, direct)
        assert rows[False] == rows[True], n
        assert any(not equal for _, _, _, equal in rows[False])
    uncertified = [(1, 2, 3), (1, 3, 4), (1, 3, 5), ((1, 3), (2, 4)), ((1, 3), (2, 5))]
    assert contexts[False].uncertified() == dict.fromkeys(uncertified)


def test_perturbed_su11_pair_fails_the_same_checks_on_both_paths():
    # u1 d1 added to C_35 at n=6, a pair whose prefix image is the short
    # su(1,1) form: the table sees the perturbation through the image of the
    # context's own operator, and the failing checks print u-coordinates.
    # A check with {3, 5} in neither subset does not hold C_35, so its
    # direct commutator is the unperturbed one, zero: the direct path is
    # taken for the 373 checks that hold C_35
    rows = racah_rows(perturbed_context(6, (3, 5)), False)
    direct = perturbed_context(6, (3, 5))
    zero = WeylOp.zero(direct.ring)
    holding = {check_id: (A, B) for check_id, A, B in racah_pairs(6)
               if {3, 5} <= {*A} or {3, 5} <= {*B}}
    assert len(rows) == 966 and len(holding) == 373
    for row in rows:
        if row[0] in holding:
            A, B = holding[row[0]]
            c = timed_check(row[0], "", lambda: (direct.c_set(A).commutator(direct.c_set(B)), zero))
            assert row == (c.id, c.lhs, c.rhs, c.equal)
        else:
            assert row[1:] == ("0", "0", True)
    assert sum(not equal for *_, equal in rows) == 233
    uncertified = [(1, 3, 5), (2, 3, 5), (3, 4, 5), (3, 5, 6)]
    uncertified += [(p, (3, 5)) for p in ((1, 2), (1, 4), (1, 6), (2, 4), (2, 6))]
    assert perturbed_context(6, (3, 5)).uncertified() == dict.fromkeys(uncertified)


@pytest.mark.parametrize("n", range(3, 13))
def test_prefix_images_keep_the_weyl_relations(n):
    # to_prefix and from_prefix on the generators: [phi d_i, phi u_k] =
    # delta_ik, the u-images commute, the d-images commute, and each map
    # undoes the other
    ctx = RacahContext(n)
    ring, m = ctx.ring, n - 2
    us = [WeylOp.from_poly(ring.u(i)) for i in range(1, m + 1)]
    ds = [WeylOp.partial(ring, i) for i in range(1, m + 1)]
    phi_u, phi_d = [ctx.to_prefix(x) for x in us], [ctx.to_prefix(x) for x in ds]
    one, zero = WeylOp.identity(ring), WeylOp.zero(ring)
    for i in range(m):
        for k in range(m):
            assert phi_d[i].commutator(phi_u[k]) == (one if i == k else zero), (i, k)
            assert phi_u[i].commutator(phi_u[k]) == zero
            assert phi_d[i].commutator(phi_d[k]) == zero
    assert [ctx.from_prefix(x) for x in phi_u + phi_d] == us + ds
    assert [ctx.to_prefix(ctx.from_prefix(x)) for x in us + ds] == us + ds
    # an operator of another ring has no image: its packed monomials mean other symbols
    with pytest.raises(ContextMismatchError):
        ctx.to_prefix(WeylOp.partial(Ring(m, n + 1), 1))


@pytest.mark.parametrize("n", range(4, 9))
def test_prefix_pair_casimirs_are_su11_two_body_casimirs(n):
    # for 3 <= lo < hi, to_prefix takes c_pair(lo, hi) to J0^2 - J0 - J+ J-
    # of J = J^lo + J^hi, where J^j has J- = d, J0 = x d + nu_j and
    # J+ = x^2 d + 2 nu_j x in x = x_j = V_{j-2}, the prefix variable u_{j-2}
    ctx = RacahContext(n)
    ring = ctx.ring

    def su11(j: int) -> tuple:
        x, d, nu = ring.u(j - 2), WeylOp.partial(ring, j - 2), ring.nu(j)
        return d, WeylOp.from_poly(x) * d + nu, WeylOp.from_poly(x * x) * d + 2 * nu * x

    for lo, hi in combinations(range(3, n + 1), 2):
        j_minus, j0, j_plus = (a + b for a, b in zip(su11(lo), su11(hi)))
        assert ctx.to_prefix(ctx.c_pair(lo, hi)) == j0 * j0 - j0 - j_plus * j_minus, (lo, hi)


def racah_pairs(n: int):
    """(id, A, B) of every check of the racah suite at n."""
    subsets = nonempty_subsets(n)
    for pos, A in enumerate(subsets):
        for B in subsets[pos:]:
            set_a, set_b = set(A), set(B)
            kind = "nested" if set_a & set_b else "disjoint"
            if kind == "disjoint" or set_a <= set_b or set_b <= set_a:
                yield f"{kind}:{set_a}|{set_b}", A, B


def test_failing_disjoint_entry_fails_exactly_its_readers():
    # a nonzero [C_12, C_34] fails the checks that read it with a nonzero
    # net weight, and only those: +1 from 12 in A and 34 in B, -1 from the
    # reverse; a check that reads it both ways fails certification but still
    # passes, as its pair sum skips both terms, which lie inside A & B
    # the table keeps prefix-coordinate entries: d1 is planted as its image
    ctx = RacahContext(5)
    p, q = (1, 2), (3, 4)
    d1 = WeylOp.partial(ctx.ring, 1)
    ctx._brackets[p, q] = ctx.to_prefix(d1)
    weights = {}
    for check_id, A, B in racah_pairs(5):
        w = (set(p) <= set(A) and set(q) <= set(B)) - (set(q) <= set(A) and set(p) <= set(B))
        if w:
            weights[check_id] = w
    checks = check_racah_structure(ctx).checks
    assert len(checks) == 301
    assert {c.id for c in checks if not c.equal} == set(weights)
    assert set(weights.values()) == {-1, 1}
    for c in checks:
        if not c.equal:
            assert c.lhs == repr(weights[c.id] * d1)


def table_reads(a: tuple, b: tuple) -> tuple[set, set] | None:
    """The triples and the disjoint entries that [C_a, C_b] reads, for sorted
    disjoint or nested subsets a and b; None if they overlap otherwise. For
    pairs p of a and q != p of b, p | q is a triple when p and q share a
    factor, and (min(p, q), max(p, q)) a disjoint entry when they do not.
    A singleton has no pairs, so it reads nothing."""
    if len(a) < 2 or len(b) < 2:
        return set(), set()
    sa, sb = set(a), set(b)
    if sa <= sb or sb <= sa:
        inner, outer = (a, sb) if sa <= sb else (b, sa)
        triples = {tuple(sorted((*p, x))) for p in combinations(inner, 2) for x in outer - {*p}}
    elif sa & sb:
        return None
    else:
        triples = set()
    disjoint = {
        (p, q) if p < q else (q, p)
        for p in combinations(a, 2)
        for q in combinations([x for x in b if x not in p], 2)
    }
    return triples, disjoint


def reference_rule(ctx: RacahContext):
    """[C_A, C_B] on ctx by the rule that reads each check's own entries. For
    disjoint or nested A and B it builds every entry in `table_reads`, and
    is zero when every triple read is cyclic and every disjoint entry read
    is zero. Otherwise it is the pair sum, without the terms inside A & B,
    those of cyclic triples and zero entries. Each triple's cyclic verdict
    is built once; one that raised is built again when read."""
    cyclic = {}

    def is_cyclic(t: tuple) -> bool:
        if t not in cyclic:
            ij, jk, ik = t[:2], t[1:], t[::2]
            cs = ctx.c_set
            g = ctx.pair_commutator(ij, jk)
            cyclic[t] = g == cs(jk).commutator(cs(ik)) == cs(ik).commutator(cs(ij))
        return cyclic[t]

    def set_commutator(A, B) -> WeylOp:
        a, b = ctx.subset_key(A), ctx.subset_key(B)
        reads = table_reads(a, b)
        if reads is not None:
            verdicts = [is_cyclic(t) for t in reads[0]]
            entries = [ctx.pair_commutator(*key) for key in reads[1]]
            if all(verdicts) and not any(entries):
                return WeylOp.zero(ctx.ring)
        both = set(a) & set(b)
        terms = []
        for p in combinations(a, 2):
            for q in combinations(b, 2):
                t = tuple(sorted({*p, *q}))
                if {*t} <= both or len(t) == 3 and reads is not None and is_cyclic(t):
                    continue
                entry = ctx.pair_commutator(min(p, q), max(p, q))
                if entry:
                    terms.append(entry if p < q else -entry)
        return sum(terms, WeylOp.zero(ctx.ring))

    return set_commutator


def reference_rows(ctx: RacahContext) -> list[tuple]:
    """The racah report of ctx as (id, lhs, rhs, equal) rows, each check's
    [C_A, C_B] taken by `reference_rule`."""
    rule, zero = reference_rule(ctx), WeylOp.zero(ctx.ring)
    checks = (timed_check(i, "", lambda: (rule(A, B), zero)) for i, A, B in racah_pairs(ctx.n))
    return [(c.id, c.lhs, c.rhs, c.equal) for c in checks]


def failing_casimir(monkeypatch, key: tuple) -> None:
    """Make c_set raise for the factor subset key."""
    c_set = RacahContext.c_set

    def broken(self, A):
        if self.subset_key(A) == key:
            raise RuntimeError(f"no Casimir for {key}")
        return c_set(self, A)

    monkeypatch.setattr(RacahContext, "c_set", broken)


def planted_context(n: int, p: tuple, q: tuple) -> RacahContext:
    """A racah context at n whose table entry [C_p, C_q] is d_1, planted as its
    prefix-coordinate image."""
    ctx = RacahContext(n)
    ctx._brackets[p, q] = ctx.to_prefix(WeylOp.partial(ctx.ring, 1))
    return ctx


PLANTED = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 2), (2, 3)), ((2, 3), (3, 4))]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_racah_suite_matches_reference_rule_under_planted_faults(monkeypatch, n):
    # a perturbed pair Casimir, a pair Casimir that fails to build, and a
    # planted table entry each leave entries uncertified; the suite's rows,
    # failures and error texts included, are the reference rule's on a
    # second context with the same fault
    faults = [(perturbed_context, None)]
    faults += [(RacahContext, key) for key in ((2, 4), (1, n), (n - 1, n))]
    faults += [(partial(planted_context, p=p, q=q), None) for p, q in PLANTED]
    for make, broken in faults:
        with monkeypatch.context() as patch:
            if broken:
                failing_casimir(patch, broken)
            rows = racah_rows(make(n), False)
            assert rows == reference_rows(make(n)), broken
        assert not all(equal for *_, equal in rows), broken


def outcome(compute):
    """compute()'s value, or the text of the RuntimeError it raised."""
    try:
        return compute()
    except RuntimeError as exc:
        return f"raised {exc}"


@pytest.mark.parametrize("n", [4, 5])
def test_set_commutator_matches_reference_rule_with_a_failing_casimir(monkeypatch, n):
    # every ordered subset pair, overlapping ones included: an overlapping
    # pair takes its plain pair sum and raises only if a term of it raises
    failing_casimir(monkeypatch, (2, 4))
    ctx, rule = RacahContext(n), reference_rule(RacahContext(n))
    subsets = nonempty_subsets(n)
    raised = 0
    for A in subsets:
        for B in subsets:
            got, want = outcome(lambda: ctx.set_commutator(A, B)), outcome(lambda: rule(A, B))
            assert type(got) is type(want) and got == want, (A, B)
            raised += isinstance(got, str)
    assert 0 < raised < len(subsets) ** 2


def pair_loop_weights(a: tuple, b: tuple) -> tuple[dict, dict]:
    """The weights of the pair-by-pair expansion of [C_a, C_b] with every
    triple cyclic: each (p, q) adds its cycle sign to its triple, or its
    order sign to its disjoint entry."""
    triples, disjoint = {}, {}
    for p in combinations(a, 2):
        for q in combinations(b, 2):
            if p == q:
                continue
            t = tuple(sorted({*p, *q}))
            if len(t) == 3:
                cycle = [t[:2], t[1:], t[::2]]
                sign = 1 if (cycle.index(q) - cycle.index(p)) % 3 == 1 else -1
                triples[t] = triples.get(t, 0) + sign
            else:
                key, sign = ((p, q), 1) if p < q else ((q, p), -1)
                disjoint[key] = disjoint.get(key, 0) + sign
    return triples, disjoint


@pytest.mark.parametrize("n", range(3, 9))
def test_triple_weights_match_pair_loop(n):
    # every racah check reads the entries of its pair loop, and each of its
    # triples with weight 0
    for _, A, B in racah_pairs(n):
        triples, disjoint = pair_loop_weights(A, B)
        assert table_reads(A, B) == (set(triples), set(disjoint)), (A, B)
        assert not any(triples.values())


def test_pair_sum_matches_direct_path_on_overlapping_subsets(rc5):
    # subsets that overlap without nesting read triples of weight +-1, so
    # no entry is certified and the pair sum keeps every term
    subsets = nonempty_subsets(5)
    overlapping = set()
    for A in subsets:
        for B in subsets:
            set_a, set_b = set(A), set(B)
            if not set_a & set_b or set_a <= set_b or set_b <= set_a:
                continue
            overlapping.add(frozenset((A, B)))
            assert table_reads(A, B) is None
            assert rc5.set_commutator(A, B) == rc5.c_set(A).commutator(rc5.c_set(B)), (A, B)
    assert len(overlapping) == 195


@pytest.mark.parametrize("n", range(3, 9))
def test_singleton_casimirs_are_u_free_multipliers(n):
    # the premise of the table: c_single(i) commutes with every operator
    ctx = RacahContext(n)
    for i in range(1, n + 1):
        op = ctx.c_single(i)
        assert list(op.terms) == [(0,) * ctx.ring.num_vars]
        assert op.terms[(0,) * ctx.ring.num_vars].is_u_free()


# n=4, k=2 with rational nu
MEMO_VALUES = {
    "k": 2,
    "nu1": Fraction(3, 2),
    "nu2": Fraction(-4, 3),
    "nu3": Fraction(7, 5),
    "nu4": 5,
}


def memo_trees(rc: RacahContext) -> dict:
    """Every pair and subset tree of the embedding, keyed by its subset."""
    return {A: embedded_c_set(rc, A).tree for A in nonempty_subsets(rc.n)}


def distinct_nodes(tree, dm, kind, seen: set) -> set:
    """The distinct nodes of one kind in a tree, with the Euler leaf expanded."""
    if isinstance(tree, GenEuler):
        tree = euler_tree(dm)
    if isinstance(tree, kind):
        if tree in seen:
            return seen
        seen.add(tree)
    for part in getattr(tree, "parts", ()):
        distinct_nodes(part, dm, kind, seen)
    return seen


def product_nodes(tree, dm, seen: set) -> set:
    """The distinct product nodes of a tree, with the Euler leaf expanded."""
    return distinct_nodes(tree, dm, ProdNode, seen)


def test_shared_cache_values_match_fresh_evaluation():
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    cache: dict = {}
    for A, tree in memo_trees(rc).items():
        shared = eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache)
        assert shared == eval_tree_matrix(rc, tree, pi, MEMO_VALUES), A
        assert shared == to_matrix(rc.c_set(A), pi, MEMO_VALUES), A
    assert any(isinstance(key, ProdNode) for key in cache)


def test_shared_cache_forms_each_distinct_product_once(monkeypatch):
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    trees = memo_trees(rc)
    calls = []
    matmul = OpMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(OpMatrix, "__matmul__", counted)
    cache: dict = {}
    for tree in trees.values():
        eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache)
    distinct: set = set()
    for tree in trees.values():
        product_nodes(tree, rc.dm, distinct)
    assert len(calls) == sum(len(node.parts) - 1 for node in distinct) == len(distinct)
    # the trees share products: walked one by one they hold many more
    walked = sum(len(product_nodes(tree, rc.dm, set())) for tree in trees.values())
    assert walked > 2 * len(distinct)


def test_failed_product_is_not_memoised(monkeypatch):
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    tree = embedded_c_pair(rc, 1, 3).tree
    matmul = OpMatrix.__matmul__

    def leaking(a, b):
        raise LeakageError("product left the space")

    monkeypatch.setattr(OpMatrix, "__matmul__", leaking)
    cache: dict = {}
    for _ in range(2):
        with pytest.raises(LeakageError):
            eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache)
        assert not any(isinstance(key, ProdNode) for key in cache)
    monkeypatch.setattr(OpMatrix, "__matmul__", matmul)
    assert eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache) == to_matrix(
        rc.c_pair(1, 3), pi, MEMO_VALUES
    )


def test_shared_cache_forms_each_distinct_sum_once(monkeypatch):
    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    trees = memo_trees(rc)
    calls = []
    add = OpMatrix.__add__

    def counted(a, b):
        calls.append(1)
        return add(a, b)

    monkeypatch.setattr(OpMatrix, "__add__", counted)
    cache: dict = {}
    for tree in trees.values():
        eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache)
    distinct: set = set()
    for tree in trees.values():
        distinct_nodes(tree, rc.dm, SumNode, distinct)
    assert len(calls) == sum(len(node.parts) - 1 for node in distinct)
    assert all(node in cache for node in distinct)
    # each subset tree holds the sums of its pair trees: walked one by one
    # the trees hold many more additions than the shared cache makes
    walked = sum(
        len(node.parts) - 1
        for tree in trees.values()
        for node in distinct_nodes(tree, rc.dm, SumNode, set())
    )
    assert walked > 2 * len(calls)


def test_failed_sum_is_not_memoised(monkeypatch):
    # every leaf but t_op(2, 1) evaluates: the sums and products above that
    # leaf raise and memoise nothing, while those beside it are kept
    import weylracah.embed as embed_mod

    rc = RacahContext(4)
    pi = basis(rc.ring, 2)
    tree = embedded_c_pair(rc, 1, 3).tree
    bad, leaf_matrix = rc.dm.t_op(2, 1), embed_mod.to_matrix

    def leaking(op, *args):
        if op is bad:
            raise LeakageError("image left the space")
        return leaf_matrix(op, *args)

    def holds_bad(node):
        return node == GenT(2, 1) or any(map(holds_bad, getattr(node, "parts", ())))

    monkeypatch.setattr(embed_mod, "to_matrix", leaking)
    cache: dict = {}
    for _ in range(2):
        with pytest.raises(LeakageError):
            eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache)
        inner = [key for key in cache if isinstance(key, (SumNode, ProdNode))]
        assert any(isinstance(key, SumNode) for key in inner)
        assert holds_bad(tree) and not any(map(holds_bad, inner))
    monkeypatch.setattr(embed_mod, "to_matrix", leaf_matrix)
    assert eval_tree_matrix(rc, tree, pi, MEMO_VALUES, cache) == to_matrix(
        rc.c_pair(1, 3), pi, MEMO_VALUES
    )
    assert tree in cache


def test_equal_nodes_built_apart_hash_equal():
    a, b = (embedded_c_pair(RacahContext(4), 1, 3).tree for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b) == hash(a)
    # the cache keys equal nodes together, whichever was built first
    assert {a: "value"}[b] == "value"
    ring = Ring(3, 4)
    parts = (GenT(3, 1), ScalarNode(ring.nu(2)))
    for kind in (SumNode, ProdNode):
        assert kind(parts) == kind(tuple(parts)) and hash(kind(parts)) == hash(kind(parts))
    assert SumNode(parts) != ProdNode(parts) and SumNode(parts) != SumNode(parts[:1])
    assert ScalarNode(ring.nu(2)) != ScalarNode(ring.nu(1))


def test_scalar_node_hashes_its_poly_once(monkeypatch):
    value = Ring(3, 4).nu(2) - 7
    expected = hash(ScalarNode(value))  # another node, hashed before counting
    calls = []
    poly_hash = Poly.__hash__

    def counted(self):
        calls.append(1)
        return poly_hash(self)

    monkeypatch.setattr(Poly, "__hash__", counted)
    node = ScalarNode(value)
    cache = {node: 1}
    for _ in range(5):
        assert hash(node) == expected and cache[node] == 1
    assert len(calls) == 1
