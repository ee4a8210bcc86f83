"""Span tracing installed from outside the program.

Each traced name is wrapped where it is looked up: as a class attribute
(every alias such as `__rmul__ = __mul__` gets the same span), or as a
module attribute in every `weylracah` module that bound it, since `cli`,
`sln`, `racah` and `embed` bind functions by `from ... import`. Methods that
reroute through a traced one (`Poly.__sub__` -> `__add__`,
`WeylOp.__rmul__` -> `__mul__`) are left unwrapped so their work is counted
once.

Spans are aggregated per name in place rather than stored, since only the
per-name totals are reported. A span's self time is its duration minus the
time covered by its child spans. Counter hooks run outside the span and are
excluded from the parent's self time too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, owner path, attribute): owner is a class "module.Class" or a module.
SPANS = [
    ("poly.mul", "poly.Poly", "__mul__"),
    ("poly.add", "poly.Poly", "__add__"),
    ("poly.subs", "poly.Poly", "subs"),
    ("weyl.mul", "weyl.WeylOp", "__mul__"),
    ("weyl.commutator", "weyl.WeylOp", "commutator"),
    ("weyl.apply", "weyl.WeylOp", "apply"),
    ("sln.bracket", "sln.SlElement", "bracket"),
    ("sln.sigma", "sln.DmContext", "sigma"),
    ("racah.c_set", "racah.RacahContext", "c_set"),
    ("embed.eval_tree", "embed", "eval_tree"),
    ("embed.eval_tree_matrix", "embed", "eval_tree_matrix"),
    ("embed.embedded_c_pair", "embed", "embedded_c_pair"),
    ("repmat.to_matrix", "repmat", "to_matrix"),
    ("repmat.matmul", "repmat.OpMatrix", "__matmul__"),
    ("dsl.parse", "dsl", "parse"),
    ("dsl.elaborate", "dsl", "elaborate"),
    ("printing.print_canonical", "printing", "print_canonical"),
    ("report.timed_check", "report", "timed_check"),
    ("cli.run_cli", "cli", "run_cli"),
]

# The per-layer metrics, per unit of work: (name, unit, better).
LAYER_METRICS = [
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("poly.add.self_s", "s", "lower"),
    ("poly.subs.self_s", "s", "lower"),
    ("weyl.mul.calls", "count", "lower"),
    ("weyl.mul.self_s", "s", "lower"),
    ("weyl.mul.terms_out", "count", "lower"),
    ("weyl.commutator.calls", "count", "lower"),
    ("weyl.commutator.self_s", "s", "lower"),
    ("weyl.commutator.zero_ratio", "ratio", "lower"),
    ("weyl.apply.self_s", "s", "lower"),
    ("weyl.max_op_terms", "count", "lower"),
    ("sln.bracket.calls", "count", "lower"),
    ("sln.bracket.self_s", "s", "lower"),
    ("sln.sigma.self_s", "s", "lower"),
    ("racah.c_set.self_s", "s", "lower"),
    ("embed.eval_tree.self_s", "s", "lower"),
    ("embed.eval_tree_matrix.self_s", "s", "lower"),
    ("embed.embedded_c_pair.self_s", "s", "lower"),
    ("repmat.to_matrix.calls", "count", "lower"),
    ("repmat.to_matrix.self_s", "s", "lower"),
    ("repmat.matmul.calls", "count", "lower"),
    ("repmat.matmul.self_s", "s", "lower"),
    ("repmat.matmul.nnz_in", "count", "lower"),
    ("dsl.parse.self_s", "s", "lower"),
    ("dsl.elaborate.self_s", "s", "lower"),
    ("printing.print_canonical.calls", "count", "lower"),
    ("printing.print_canonical.self_s", "s", "lower"),
    ("printing.print_canonical.chars_out", "count", "lower"),
    ("report.timed_check.calls", "count", "lower"),
    ("report.timed_check.self_s", "s", "lower"),
    ("cli.run_cli.self_s", "s", "lower"),
    ("trace.verdict_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Spans that must record calls on the workload named for their layer.
REQUIRED = {
    "racah-n5": ["poly.mul", "poly.add", "weyl.mul", "weyl.commutator", "racah.c_set", "report.timed_check"],
    "small-checks-n7": [
        "sln.bracket",
        "sln.sigma",
        "report.timed_check",
        "printing.print_canonical",
        "embed.eval_tree",
        "embed.embedded_c_pair",
    ],
    "oracle-n5k4": ["repmat.to_matrix", "repmat.matmul", "poly.subs", "weyl.apply", "embed.eval_tree_matrix"],
    "queries-n5": ["dsl.parse", "dsl.elaborate", "printing.print_canonical", "cli.run_cli"],
}


def _op_terms(op) -> int:
    return sum(len(p.terms) for p in op.terms.values())


def _count_poly_mul(tracer, args, result):
    if result is NotImplemented:
        return
    other = args[1]
    width = len(other.terms) if hasattr(other, "terms") else (1 if other else 0)
    tracer.count("poly.mul.term_pairs", len(args[0].terms) * width)
    tracer.count("poly.mul.terms_out", len(result.terms))


def _count_weyl_mul(tracer, args, result):
    if result is NotImplemented:
        return
    size = _op_terms(result)
    tracer.count("weyl.mul.terms_out", size)
    tracer.maximum("weyl.max_op_terms", size)


def _count_commutator(tracer, args, result):
    tracer.count("weyl.commutator.zeros", 0 if result.terms else 1)


def _count_matmul(tracer, args, result):
    tracer.count(
        "repmat.matmul.nnz_in",
        sum(1 for m in args[:2] for row in m.rows for e in row if e),
    )


def _count_print(tracer, args, result):
    tracer.count("printing.print_canonical.chars_out", len(result))


HOOKS = {
    "poly.mul": _count_poly_mul,
    "weyl.mul": _count_weyl_mul,
    "weyl.commutator": _count_commutator,
    "repmat.matmul": _count_matmul,
    "printing.print_canonical": _count_print,
}


def rebind(pkg, original, replacement) -> None:
    """Replace a function in every module of the package that bound it."""
    prefix = pkg.__name__ + "."
    for key, module in list(sys.modules.items()):
        if key == pkg.__name__ or key.startswith(prefix):
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, replacement)


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, fn):
        children = self._children
        calls, self_s = self.calls, self.self_s
        hook = HOOKS.get(name)
        clock = self.clock

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                calls[name] += 1
                self_s[name] += end - start - children.pop()
                if children:
                    children[-1] += end - start
            if hook is not None:
                hook(self, args, result)
                if children:
                    children[-1] += clock() - end
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self, pkg) -> None:
        """Wrap every traced name of a freshly imported weylracah package."""
        for name, owner_path, attr in SPANS:
            parts = owner_path.split(".")
            owner = getattr(pkg, parts[0])
            if len(parts) == 2:
                owner = getattr(owner, parts[1])
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original)
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, alias, wrapped)
            else:
                original = getattr(owner, attr)
                rebind(pkg, original, self.wrap(name, original))

    def metrics(self, units: int) -> dict[str, float]:
        """The per-layer metrics of LAYER_METRICS, per unit of work."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name] / units
            out[f"{name}.self_s"] = self.self_s[name] / units
        for key, value in self.counters.items():
            out[key] = value / units
        commutators = self.calls["weyl.commutator"]
        zeros = self.counters["weyl.commutator.zeros"]
        out["weyl.commutator.zero_ratio"] = zeros / commutators if commutators else 0.0
        out["weyl.max_op_terms"] = self.counters["weyl.max_op_terms"]
        return {name: out.get(name, 0.0) for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}

    def missing(self, workload: str) -> list[str]:
        """Required spans of this workload that recorded no calls."""
        return [name for name in REQUIRED.get(workload, []) if not self.calls[name]]
