"""The benchmark harness in perfbench/ still fits the package: its span table
names attributes the package has, and its self-test passes."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

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
