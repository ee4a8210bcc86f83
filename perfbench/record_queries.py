"""Record the queries-n5 request pool and the digest of each request's stdout.

    python3 perfbench/record_queries.py

Writes perfbench/queries.json. Rerun it only when a change is meant to alter
printed normal forms or matrix dumps; the benchmark treats any other change
of output as a failure.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations

from run import load_package
from workloads import QUERIES_FILE, commuting_pairs, digest, subsets

N = 5
NU_CHOICES = ("1/2,3/2,5/2,7/2,9/2", "-1/3,2/5,7/4,-5/2,1/7", "5/3,-3/4,1/6,9/5,-7/2")


def _set(a) -> str:
    return "C[{" + ",".join(map(str, a)) + "}]"


def requests() -> list[list[str]]:
    """The pool: normalize, commute and matrix requests at n = 5, k <= 4."""
    n = ["--n", str(N)]
    pairs = list(combinations(range(1, N + 1), 2))
    blocks = [f"L{t}[{j}]" for t in (1, 2, 3, 4) for j in range(3, N + 1)]
    blocks += [f"L{t}[{i},{j}]" for t in (5, 6) for j, i in combinations(range(3, N + 1), 2)]
    gens = [f"T[{i},{j}]" for i, j in combinations(range(1, N), 2)] + [f"Td[{d}]" for d in range(1, N - 1)]

    # Subset Casimirs of at most two factors from 3..n keep each commutator
    # request to milliseconds, as interactive use is; racah-n5 covers the rest.
    small = [a for a in subsets(N) if a[0] >= 3 and len(a) <= 2]
    zero = [(a, b) for a, b in commuting_pairs(N) if a in small and b in small]
    overlapping = [(a, b) for a, b in combinations(small, 2) if len(set(a) & set(b)) == 1]

    exprs = [_set(a) for a in subsets(N) if len(a) >= 3]
    exprs += blocks
    exprs += [f"L1[{j}] L2[{j}]" for j in range(3, N + 1)] + [f"L3[{j}] L4[{j}]" for j in range(3, N + 1)]
    exprs += [f"L5[{i},{j}] L6[{i},{j}] - L6[{i},{j}]" for j, i in combinations(range(3, N + 1), 2)]
    exprs += [f"{g} C[{i},{j}]" for g, (i, j) in zip(gens, pairs)]
    exprs += [f"{_set(a)} {_set(b)}" for a, b in overlapping]
    exprs += ["d1 u1 - u1 d1", "E^2 - E E", "(u1 + u2 - u3)^3 d2 d3", "2/3 nu1 C[{2,3}] - k E"]
    out = [["normalize", *n, "--expr", e] for e in exprs]

    out += [["commute", *n, "--lhs", _set(a), "--rhs", _set(b)] for a, b in zero + overlapping]
    out += [["commute", *n, "--lhs", g, "--rhs", b] for g, b in zip(gens, blocks)]

    ops = [f"C[{i},{j}]" for i, j in pairs] + [_set(a) for a in subsets(N) if len(a) >= 3][::3] + gens
    for pos, op in enumerate(ops):
        out.append(["matrix", *n, "--k", str(1 + pos % 4), f"--nu={NU_CHOICES[pos % len(NU_CHOICES)]}", "--op", op])
    return out


def main() -> int:
    pkg = load_package()
    pool = []
    for argv in requests():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pkg.cli.run_cli(argv)
        if code != 0:
            print(f"request {argv} exited with {code}", file=sys.stderr)
            return 1
        pool.append({"argv": argv, "sha256": digest(buf.getvalue())})
    lines = ",\n".join(json.dumps(entry) for entry in pool)
    QUERIES_FILE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(pool)} requests to {QUERIES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
