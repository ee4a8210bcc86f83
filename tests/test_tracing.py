"""The benchmark harness in perfbench/ still fits the package: its span table
names attributes the package has, its self-test passes, and an oracle unit
still does the work its layer counts pin."""

import importlib
import importlib.util
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # imported only: `install` is never called, so nothing is wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for name, owner_path, attr in tracing.SPANS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"weylracah.{module}")
        if cls:
            assert attr in vars(getattr(owner, cls)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_benchmark_selftest_passes():
    # runs every workload shrunken, traced too, so a span in tracing.REQUIRED
    # that a refactor stops calling fails here
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_oracle_unit_work_counts(monkeypatch):
    # one oracle-n5k4 unit at seed 1 does a fixed amount of work, however
    # fast each call runs: calls are counted by wrapping the package's
    # functions here, so the benchmark's own files stay untouched
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    import weylracah
    from weylracah import repmat
    from weylracah.poly import Poly
    from weylracah.repmat import OpMatrix, to_matrix
    from weylracah.weyl import WeylOp

    counts = Counter()

    def counted(name, fn, nnz=False):
        def wrapper(*args):
            counts[name] += 1
            if nnz:
                counts["nnz_in"] += len(args[0].num) + len(args[1].num)
            return fn(*args)

        return wrapper

    for module in [m for key, m in sys.modules.items() if key.startswith("weylracah")]:
        if getattr(module, "to_matrix", None) is to_matrix:
            monkeypatch.setattr(module, "to_matrix", counted("to_matrix", to_matrix))
    monkeypatch.setattr(OpMatrix, "__matmul__", counted("matmul", OpMatrix.__matmul__, nnz=True))
    monkeypatch.setattr(OpMatrix, "commutator", counted("commutator", OpMatrix.commutator))
    monkeypatch.setattr(WeylOp, "apply", counted("apply", WeylOp.apply))
    monkeypatch.setattr(repmat, "_kernel", counted("kernel", repmat._kernel))
    monkeypatch.setattr(OpMatrix, "__add__", counted("add", OpMatrix.__add__))
    monkeypatch.setattr(Poly, "subs", counted("poly_subs", Poly.subs))
    monkeypatch.setattr(WeylOp, "subs", counted("weyl_subs", WeylOp.subs))
    contexts = []
    init = weylracah.racah.RacahContext.__init__

    def recorded(self, n):
        contexts.append(self)
        init(self, n)

    monkeypatch.setattr(weylracah.racah.RacahContext, "__init__", recorded)

    class Clock:
        def mark(self):
            return SimpleNamespace(busy=time.perf_counter(), probes=0)

    oracle = workloads.MatrixOracle()
    state = {**oracle.setup(weylracah, 1), "speed": Clock()}
    ops = oracle.unit(weylracah, state, 0)
    assert len(ops) == oracle.expected and all(op.ok for op in ops)
    # apply runs once per distinct derivative exponent of the unit's
    # operators (10 of them), forming that derivative's rows on the whole
    # basis, which the unit's fresh ring keeps for its 56 matrices; the
    # kernel runs 301 - 31 - 165 + 117 = 222 times: 301 commutators less the
    # 31 of a subset with itself and the 165 more with a scalar operand (the
    # five singletons and C_{1..5}), plus the 117 products; each distinct
    # sum of the 41 trees is formed once in the shared cache, by 162 additions;
    # to_matrix values the operators' coefficients without substituting them,
    # so the only substitutions are the 30 of the trees' scalar leaves
    assert counts == {
        "to_matrix": 56, "matmul": 117, "nnz_in": 9505, "commutator": 301, "apply": 10,
        "kernel": 222, "add": 162, "poly_subs": 30,
    }
    assert counts["weyl_subs"] == 0
    # each of the 10 embedded pair trees is built once, in the unit's context
    unit_ctx = contexts[-1]
    assert len(unit_ctx.embedded_pairs) == 10 and len(unit_ctx.ring._rows) == 10


def test_small_checks_unit_work_counts(monkeypatch):
    # one small-checks-n7 unit: the model memoises every provenance node it
    # evaluates, 672 of them, so a value that the membership checks and the
    # embedding trees share is formed once. Before that memo (generator and
    # Euler leaves only, per call) the unit formed 1353 WeylOp products and
    # 2527 WeylOp additions. Each passing check of an operator prints it
    # once, 1773 print_canonical calls; printing both sides took 3546. Each
    # of the 21 pair Casimirs takes one WeylOp product, A B: its parts are
    # composed into one map, and c_pair_lead forms -f^2 (A B) the same way.
    # That is 790 WeylOp products; 874 when each pair also formed -f^2 (A B),
    # 2 nu_hi P, 2 nu_lo Q and f (2 nu_hi P + 2 nu_lo Q) as products, and 895
    # with f P and f Q apart. The pair shapes' steps and Euler rows are formed
    # once: the five Euler rows take 5 additions and step(3..7) 5, and the
    # pairs' sums none, 1198 WeylOp additions; 1323 when each pair formed its
    # rows and steps (52 additions), the embedding's rewrite steps formed
    # step(j) four times for each j (20) and each pair added its parts (63)
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    import weylracah
    from weylracah import printing
    from weylracah.weyl import WeylOp

    counts = Counter()
    mul, add, print_canonical = WeylOp.__mul__, WeylOp.__add__, printing.print_canonical

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counted_print(op):
        counts["print"] += 1
        return print_canonical(op)

    monkeypatch.setattr(WeylOp, "__mul__", counted_mul)
    monkeypatch.setattr(WeylOp, "__add__", counted_add)
    monkeypatch.setattr(printing, "print_canonical", counted_print)
    contexts = []
    init = weylracah.racah.RacahContext.__init__

    def recorded(self, n):
        contexts.append(self)
        init(self, n)

    monkeypatch.setattr(weylracah.racah.RacahContext, "__init__", recorded)
    small = workloads.SmallChecks()
    ops = small.unit(weylracah, {"check_probes": {}}, 0)
    assert len(ops) == small.expected == 1794 and all(op.ok for op in ops)
    assert counts == Counter(mul=790, add=1198, print=1773)
    assert len(contexts[-1].dm._values) == 672


def test_racah_unit_work_counts(monkeypatch):
    # one racah-n5 unit: 45 table commutators of the pair Casimirs' prefix
    # images, each d^gamma q of an image formed once in that operator's
    # derivative table (456; the u-coordinate operators formed 554), and no
    # operator added by set_commutator itself, since every entry certifies.
    # The table is built once, before the checks: its 10 triples read their
    # three entries each and its 15 disjoint entries one, 45 reads of 45
    # distinct entries; the 301 checks read none, and no entry is mapped back
    # to u-coordinates
    from weylracah.poly import Poly
    from weylracah.racah import RacahContext, check_racah_structure
    from weylracah.weyl import WeylOp

    counts = Counter()
    inside = []
    diff_multi, commutator, add = Poly.diff_multi, WeylOp.commutator, WeylOp.__add__

    def counted_diff(self, gamma):
        counts["diff_multi"] += any(gamma)
        return diff_multi(self, gamma)

    def counted_commutator(self, other):
        counts["commutator"] += 1
        return commutator(self, other)

    def counted_add(self, other):
        counts["set_commutator_adds"] += inside[-1:] == ["set_commutator"]
        return add(self, other)

    def marked(name):
        fn = getattr(RacahContext, name)

        def wrapper(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    monkeypatch.setattr(Poly, "diff_multi", counted_diff)
    monkeypatch.setattr(WeylOp, "commutator", counted_commutator)
    monkeypatch.setattr(WeylOp, "__add__", counted_add)
    for name in ("set_commutator", "c_pair"):
        monkeypatch.setattr(RacahContext, name, marked(name))
    def counted(name):
        fn = getattr(RacahContext, name)

        def wrapper(self, p, q):
            counts[name] += 1
            return fn(self, p, q)

        return wrapper

    for name in ("prefix_commutator", "pair_commutator"):
        monkeypatch.setattr(RacahContext, name, counted(name))
    ctx = RacahContext(5)
    ctx.uncertified()
    assert counts["prefix_commutator"] == 45
    report = check_racah_structure(ctx)
    assert len(report.checks) == 301 and all(c.equal for c in report.checks)
    assert counts == Counter(commutator=45, diff_multi=456, prefix_commutator=45,
                             set_commutator_adds=0)


def test_perturbed_racah_work_counts(monkeypatch):
    # u1 d1 added to C_13 at n=5: the three triples through (1, 3) are not
    # cyclic and 67 checks fail. Each of those triples fails its first
    # comparison and leaves its third entry unbuilt, which the pair sum
    # builds: 45 commutators, one per table entry (48 while a triple's other
    # two commutators were not kept in the table). Every WeylOp addition of
    # the run is counted: 204 in the pair sums, 6 for the derivative images
    # of to_prefix, and 2 for step(4) and step(5), each formed once as a shape
    # piece and read again by from_prefix (C_13, built before the count,
    # formed the Euler rows and step(3)). A pair Casimir's parts are composed
    # into one map, with no addition: 212 in all. It was 264 when each of the
    # nine pairs formed its own rows and steps and added its parts (51) and
    # from_prefix formed step(3..5) again (3), and 255 before those maps
    from helpers import perturbed_context
    from weylracah.racah import check_racah_structure
    from weylracah.weyl import WeylOp

    ctx = perturbed_context(5)
    counts = Counter()
    commutator, add = WeylOp.commutator, WeylOp.__add__

    def counted_commutator(self, other):
        counts["commutator"] += 1
        return commutator(self, other)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(WeylOp, "commutator", counted_commutator)
    monkeypatch.setattr(WeylOp, "__add__", counted_add)
    report = check_racah_structure(ctx)
    assert len(report.checks) == 301
    assert sum(not c.equal for c in report.checks) == 67
    assert counts == Counter(commutator=45, add=212)


def test_pair_and_query_kernel_calls(monkeypatch, capsys):
    # a multiplication operator composes coefficient-wise, and a pair
    # Casimir takes one Leibniz product, A B: the 10 pair Casimirs at n = 5
    # make 10 _leibniz calls, and the 126 requests of queries.json through
    # run_cli make 215. With every product through the kernel they made 63
    # and 1709. Each operator formed closes its map once, in weyl._normal:
    # the pairs make 23 closes, 10 for A B, 3 for the Euler operator's
    # products u_l d_l and one per pair for its four parts composed into one
    # map (53 when the parts were formed and added as operators), and the
    # requests 1010 (1555 then)
    import json

    from weylracah import racah, weyl
    from weylracah.cli import run_cli
    from weylracah.racah import RacahContext
    from weylracah.weyl import WeylOp

    calls = Counter()
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
    ctx = RacahContext(5)
    for lo in range(1, 6):
        for hi in range(lo + 1, 6):
            ctx.c_pair(lo, hi)
    assert calls == Counter(leibniz=10, normal=23)
    calls.clear()
    requests = json.loads((ROOT / "perfbench" / "queries.json").read_text(encoding="utf-8"))
    assert len(requests) == 126
    for request in requests:
        assert run_cli(request["argv"]) == 0
    capsys.readouterr()
    assert calls == Counter(leibniz=215, normal=1010)
