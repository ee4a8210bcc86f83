"""The four benchmark workloads.

Each workload is a closed loop with one caller in one process. `setup` does
what a call pays before its first check: context construction and, for the
oracle, the basis build. `unit` does one unit of work on a fresh
`RacahContext`, so the context caches start cold as they do for every CLI
call, and returns one `Op` per operation with its latency and verdict.
Operations carry the index range of the host-speed probes taken while they
ran (see hostspeed.py): `state["speed"]` is the run's `HostSpeed`, and
`state["check_probes"]` maps a report check's `ms` to its range.

Expected check counts are derived combinatorially, never read back from the
program's own report.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

QUERIES_FILE = Path(__file__).resolve().parent / "queries.json"
# The oracle's nu values, one per factor.
NU_VALUES = (Fraction(3, 2), Fraction(-4, 3), Fraction(7, 5), Fraction(-9, 7), Fraction(5, 4))


@dataclass(frozen=True)
class Op:
    label: str
    ms: float
    ok: bool
    detail: str = ""
    probes: tuple[int, int] | None = None


def subsets(n: int) -> list[tuple[int, ...]]:
    """Non-empty subsets of 1..n, by size then lexicographically."""
    return [s for size in range(1, n + 1) for s in combinations(range(1, n + 1), size)]


def commuting_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered pairs (A, B), A = B allowed, of disjoint or nested subsets."""
    subs = subsets(n)
    out = []
    for pos, a in enumerate(subs):
        for b in subs[pos:]:
            sa, sb = set(a), set(b)
            if not sa & sb or sa <= sb or sb <= sa:
                out.append((a, b))
    return out


def racah_counts(n: int) -> dict[str, int]:
    """Disjoint and nested subset-Casimir checks of the racah suite.

    Disjoint unordered pairs of non-empty subsets: (3^n - 2^(n+1) + 1)/2.
    Nested pairs: the 2^n - 1 equal pairs plus 3^n - 2^(n+1) + 1 strict ones.
    """
    strict = 3**n - 2 ** (n + 1) + 1
    return {"disjoint": strict // 2, "nested": (2**n - 1) + strict}


def small_counts(n: int) -> dict[str, int]:
    """Check counts of the sln, lemma1 and embedding suites at n factors."""
    m = n - 1
    blocks = 2 ** (m - 1) - 1
    return {
        "hom": (m * m - 1) ** 2,
        "mem": 1 + blocks * m,
        "lemma1": 2 * blocks * (m - 1),
        "embedding": 4 * (n - 2) + comb(n - 2, 2) + 2 * comb(n, 2),
    }


def _count_ops(ops: list[Op], expected: int, what: str) -> list[Op]:
    """Add failed ops for a shortfall or surplus against the derived count."""
    if len(ops) == expected:
        return ops
    missing = Op(f"{what}:count", 0.0, False, f"expected {expected} checks, got {len(ops)}")
    return ops + [missing] * max(expected - len(ops), 1)


def _report_ops(report, prefix: str, state) -> list[Op]:
    probes = state["check_probes"]
    return [
        Op(
            f"{prefix}{c.id}",
            c.ms,
            bool(c.equal),
            "" if c.equal else f"lhs {c.lhs} rhs {c.rhs}",
            probes.get(c.ms),
        )
        for c in report.checks
    ]


class Workload:
    name: str
    n: int
    expected: int

    def setup(self, pkg, seed: int) -> dict:
        """Build the context a call starts from; units then build their own."""
        pkg.racah.RacahContext(self.n)
        return {"seed": seed}


class RacahSuite(Workload):
    """`verify --suite racah --n 5`: large operator compositions."""

    name = "racah-n5"

    def __init__(self, n: int = 5):
        self.n = n
        self.counts = racah_counts(n)
        self.expected = sum(self.counts.values())

    def unit(self, pkg, state, index: int) -> list[Op]:
        report = pkg.racah.check_racah_structure(pkg.racah.RacahContext(self.n))
        by_kind: dict[str, list[Op]] = {kind: [] for kind in self.counts}
        out = []
        for op in _report_ops(report, "", state):
            kind = op.label.split(":", 1)[0]
            if kind in by_kind:
                by_kind[kind].append(op)
            else:
                out.append(Op(op.label, op.ms, False, "check of neither kind"))
        for kind, want in self.counts.items():
            out += _count_ops(by_kind[kind], want, kind)
        return out


class SmallChecks(Workload):
    """The sln, lemma1 and embedding suites at n = 7: many tiny operators."""

    name = "small-checks-n7"

    def __init__(self, n: int = 7):
        self.n = n
        self.counts = small_counts(n)
        self.expected = sum(self.counts.values())

    def unit(self, pkg, state, index: int) -> list[Op]:
        ctx = pkg.racah.RacahContext(self.n)
        reports = {
            "hom": pkg.sln.check_sl_homomorphism(ctx.dm),
            "mem": pkg.sln.check_generator_membership(ctx.dm),
            "lemma1": pkg.sln.check_lemma1(ctx.dm),
            "embedding": pkg.embed.verify_embedding(ctx),
        }
        ops = []
        for key, report in reports.items():
            part = _report_ops(report, f"{key}:", state)
            ops.extend(_count_ops(part, self.counts[key], key))
        return ops


def _timed(label: str, identity, speed) -> Op:
    """Time identity() -> bool; an exception is a failed operation."""
    begin = speed.mark()
    try:
        ok = bool(identity())
        detail = "" if ok else "matrices differ"
    except Exception as exc:  # a LeakageError or any crash is a failed identity
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    end = speed.mark()
    return Op(label, (end.busy - begin.busy) * 1000.0, ok, detail, (begin.probes, end.probes))


class MatrixOracle(Workload):
    """Exact matrix model at n = 5 on the degree <= 4 basis.

    Each unit draws one assignment of non-integral rational nu from the
    seed and checks, as matrices: every pair and subset Casimir against its
    provenance tree, and every disjoint or nested commutation.
    """

    name = "oracle-n5k4"

    def __init__(self, n: int = 5, k: int = 4):
        self.n = n
        self.k = k
        self.pairs = list(combinations(range(1, n + 1), 2))
        self.subsets = subsets(n)
        self.commuting = commuting_pairs(n)
        self.expected = len(self.pairs) + len(self.subsets) + sum(racah_counts(n).values())

    def assignment(self, seed: int, index: int) -> dict:
        """Non-integral rational nu: NU_VALUES permuted by the seed and unit.

        The identities checked are symmetric under permuting the factors,
        so every seed and unit does the same amount of work.
        """
        nus = [NU_VALUES[i % len(NU_VALUES)] for i in range(self.n)]
        random.Random(f"oracle:{seed}:{index}").shuffle(nus)
        return {"k": self.k, **{f"nu{i}": nu for i, nu in enumerate(nus, start=1)}}

    def setup(self, pkg, seed: int) -> dict:
        ctx = pkg.racah.RacahContext(self.n)
        return {"seed": seed, "basis": pkg.repmat.basis(ctx.ring, self.k)}

    def unit(self, pkg, state, index: int) -> list[Op]:
        ctx = pkg.racah.RacahContext(self.n)
        pi = state["basis"]
        values = self.assignment(state["seed"], index)
        repmat, embed = pkg.repmat, pkg.embed
        speed = state["speed"]
        leaves: dict = {}
        direct: dict = {}

        def tree_identity(op, expr, key=None) -> bool:
            mat = repmat.to_matrix(op, pi, values)
            if key is not None:
                direct[key] = mat
            return embed.eval_tree_matrix(ctx, expr.tree, pi, values, leaves) == mat

        # Each lambda runs at once inside _timed, so building the operator,
        # its tree and its matrix all count towards the identity's latency.
        ops = [
            _timed(
                f"pair:{lo},{hi}",
                lambda: tree_identity(ctx.c_pair(lo, hi), embed.embedded_c_pair(ctx, lo, hi)),
                speed,
            )
            for lo, hi in self.pairs
        ]
        ops += [
            _timed(f"set:{a}", lambda: tree_identity(ctx.c_set(a), embed.embedded_c_set(ctx, a), a), speed)
            for a in self.subsets
        ]
        ops += [
            _timed(f"commute:{a}|{b}", lambda: direct[a].commutator(direct[b]).is_zero(), speed)
            for a, b in self.commuting
        ]
        return _count_ops(ops, self.expected, "oracle")


_SUBSET_RE = re.compile(r"^C\[\{([0-9,]+)\}\]$")


def expects_zero(argv: list[str]) -> bool:
    """True for `commute` of two subset Casimirs that are disjoint or nested."""
    if argv[0] != "commute":
        return False
    sides = [_SUBSET_RE.match(argv[argv.index(flag) + 1]) for flag in ("--lhs", "--rhs")]
    if not all(sides):
        return False
    a, b = ({int(i) for i in m.group(1).split(",")} for m in sides)
    return not a & b or a <= b or b <= a


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliQueries(Workload):
    """In-process `run_cli` requests at n = 5: parse, elaborate, print.

    The requests and the digest of each one's stdout, recorded from the
    program by record_queries.py, live in queries.json. One unit sends every
    request once, in an order drawn from the seed.
    """

    name = "queries-n5"
    n = 5

    def __init__(self, requests: list[dict] | None = None):
        if requests is None:
            requests = json.loads(QUERIES_FILE.read_text(encoding="utf-8"))
        self.requests = requests
        self.expected = len(requests)

    def unit(self, pkg, state, index: int) -> list[Op]:
        order = list(range(len(self.requests)))
        random.Random(f"queries:{state['seed']}:{index}").shuffle(order)
        speed = state["speed"]
        ops = []
        for pos in order:
            request = self.requests[pos]
            argv = request["argv"]
            out, err = io.StringIO(), io.StringIO()
            problems = []
            begin = speed.mark()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = pkg.cli.run_cli(argv)
                except Exception as exc:  # a crash is a failed request, not a lost run
                    code = None
                    problems.append(f"{type(exc).__name__}: {exc}")
            end = speed.mark()
            text = out.getvalue()
            if code not in (0, None):
                problems.append(f"exit {code}: {err.getvalue().strip()}")
            if digest(text) != request["sha256"]:
                problems.append("stdout differs from the recorded digest")
            if expects_zero(argv) and text != "0\n":
                problems.append("commuting subset Casimirs did not print 0")
            ms = (end.busy - begin.busy) * 1000.0
            span = (begin.probes, end.probes)
            ops.append(Op(" ".join(argv), ms, not problems, "; ".join(problems), span))
        return ops


WORKLOADS = {w.name: w for w in (RacahSuite, SmallChecks, MatrixOracle, CliQueries)}
