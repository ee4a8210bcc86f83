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
    # sum of the 41 trees is formed once in the shared cache, by 162 additions
    assert counts == {
        "to_matrix": 56, "matmul": 117, "nnz_in": 9505, "commutator": 301, "apply": 10,
        "kernel": 222, "add": 162,
    }
    # each of the 10 embedded pair trees is built once, in the unit's context
    unit_ctx = contexts[-1]
    assert len(unit_ctx.embedded_pairs) == 10 and len(unit_ctx.ring._rows) == 10


def test_small_checks_unit_work_counts(monkeypatch):
    # one small-checks-n7 unit: the model memoises every provenance node it
    # evaluates, 672 of them, so a value that the membership checks and the
    # embedding trees share is formed once. Before that memo (generator and
    # Euler leaves only, per call) the unit formed 1353 WeylOp products and
    # 2527 WeylOp additions
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    import weylracah
    from weylracah.weyl import WeylOp

    counts = Counter()
    mul, add = WeylOp.__mul__, WeylOp.__add__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(WeylOp, "__mul__", counted_mul)
    monkeypatch.setattr(WeylOp, "__add__", counted_add)
    contexts = []
    init = weylracah.racah.RacahContext.__init__

    def recorded(self, n):
        contexts.append(self)
        init(self, n)

    monkeypatch.setattr(weylracah.racah.RacahContext, "__init__", recorded)
    small = workloads.SmallChecks()
    ops = small.unit(weylracah, {"check_probes": {}}, 0)
    assert len(ops) == small.expected == 1794 and all(op.ok for op in ops)
    assert counts == Counter(mul=895, add=1323)
    assert len(contexts[-1].dm._values) == 672


def test_racah_unit_work_counts(monkeypatch):
    # one racah-n5 unit: 45 table commutators, each d^gamma q of a pair
    # Casimir formed once in that operator's derivative table, and no
    # operator added by set_commutator itself, since every entry certifies;
    # the sums that build a pair Casimir in the first check to read it are
    # not set_commutator's
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
    report = check_racah_structure(RacahContext(5))
    assert len(report.checks) == 301 and all(c.equal for c in report.checks)
    assert counts == Counter(commutator=45, diff_multi=554, set_commutator_adds=0)


def test_perturbed_racah_work_counts(monkeypatch):
    # u1 d1 added to C_13 at n=5: the three triples through (1, 3) are not
    # cyclic and 67 checks fail. Each of those triples fails its first
    # comparison, one commutator less, and builds its two other entries for
    # the pair sum: 45 - 3 + 6 commutators. Every WeylOp addition of the run
    # is counted, those of the pair sums and of building the pair Casimirs
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
    assert counts == Counter(commutator=48, add=255)
