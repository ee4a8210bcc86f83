"""Command-line verification front end.

Exit codes: 0 when every check passes, 1 on a verification failure or a
leakage error, 2 on usage or expression errors.
"""

from __future__ import annotations

import argparse
import re
import sys

from .dsl import ParseError, elaborate, parse
from .embed import verify_embedding
from .poly import Rat
from .printing import print_canonical
from .racah import RacahContext, check_racah_structure
from .repmat import LeakageError, basis, to_matrix
from .report import Report
from .sln import check_generator_membership, check_lemma1, check_sl_homomorphism

SUITES = ("sln", "lemma1", "racah", "embedding", "all")
# Largest --n: the ring has 2n - 1 symbols and the racah suite about 3^n checks.
MAX_N = 12
# A --nu value: an integer p or a fraction p/q, as the README documents.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weylracah",
        description="Exact verification of sl and Racah operator identities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity-verification suite")
    verify.add_argument("--suite", choices=SUITES, required=True)
    verify.add_argument("--n", type=int, required=True, help="number of factors (>= 3)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report to a file")

    normalize = sub.add_parser("normalize", help="print the normal form of an expression")
    normalize.add_argument("--n", type=int, required=True)
    normalize.add_argument("--expr", required=True)

    commute = sub.add_parser("commute", help="print the commutator of two expressions")
    commute.add_argument("--n", type=int, required=True)
    commute.add_argument("--lhs", required=True)
    commute.add_argument("--rhs", required=True)

    matrix = sub.add_parser("matrix", help="dump the exact matrix of an expression")
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--k", type=int, required=True, help="degree bound, also the k value")
    matrix.add_argument("--nu", required=True, help="comma-separated rationals, one per factor")
    matrix.add_argument("--op", required=True)
    return top


def _run_suite(name: str, ctx: RacahContext) -> Report:
    merged = Report(name, {"n": ctx.n, "k_mode": "symbolic"})
    if name in ("sln", "all"):
        merged.extend(check_sl_homomorphism(ctx.dm), "hom:")
        merged.extend(check_generator_membership(ctx.dm), "mem:")
    if name in ("lemma1", "all"):
        merged.extend(check_lemma1(ctx.dm), "lemma1:" if name == "all" else "")
    if name in ("racah", "all"):
        merged.extend(check_racah_structure(ctx), "racah:" if name == "all" else "")
    if name in ("embedding", "all"):
        merged.extend(verify_embedding(ctx), "embed:" if name == "all" else "")
    return merged


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.n < 3:
        print(f"error: --n must be at least 3, got {args.n}", file=sys.stderr)
        return 2
    if args.n > MAX_N:
        print(f"error: --n must be at most {MAX_N}, got {args.n}", file=sys.stderr)
        return 2
    ctx = RacahContext(args.n)

    try:
        if args.command == "verify":
            report = _run_suite(args.suite, ctx)
            text = report.to_json() if args.format == "json" else report.to_text()
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            else:
                print(text)
            return 0 if report.ok() else 1

        if args.command == "normalize":
            op = elaborate(parse(args.expr, ctx), ctx)
            print(print_canonical(op))
            return 0

        if args.command == "commute":
            lhs = elaborate(parse(args.lhs, ctx), ctx)
            rhs = elaborate(parse(args.rhs, ctx), ctx)
            print(print_canonical(lhs.commutator(rhs)))
            return 0

        if args.command == "matrix":
            if args.k < 0:
                print("error: --k must be non-negative", file=sys.stderr)
                return 2
            parts = [piece.strip() for piece in args.nu.split(",")]
            if len(parts) != args.n:
                print(
                    f"error: --nu needs {args.n} comma-separated values, got {len(parts)}",
                    file=sys.stderr,
                )
                return 2
            try:
                if not all(_RATIONAL.fullmatch(piece) for piece in parts):
                    raise ValueError(args.nu)
                values = [Rat(piece) for piece in parts]
            except (ValueError, ZeroDivisionError):
                print(f"error: could not parse rationals from {args.nu!r}", file=sys.stderr)
                return 2
            assignment = {"k": Rat(args.k)}
            for i, v in enumerate(values, start=1):
                assignment[f"nu{i}"] = v
            pi = basis(ctx.ring, args.k)
            op = elaborate(parse(args.op, ctx), ctx)
            try:
                print(to_matrix(op, pi, assignment).dump())
            except LeakageError as exc:
                print(f"leakage: {exc}", file=sys.stderr)
                return 1
            return 0
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return 2


def main() -> None:
    sys.exit(run_cli())
