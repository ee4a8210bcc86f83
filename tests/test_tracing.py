"""The span table of perfbench/tracing.py names attributes the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
