"""Structured results of identity-verification suites."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .poly import Poly
from .weyl import WeylOp

__all__ = ["Check", "Report", "timed_check"]


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    lhs: str
    rhs: str
    equal: bool
    ms: float


@dataclass
class Report:
    suite: str
    context: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.equal)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.equal)

    def ok(self) -> bool:
        return self.failed == 0

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, other: "Report", prefix: str = "") -> None:
        """Append other's checks with prefixed ids; with no prefix, the frozen checks themselves."""
        if not prefix:
            self.checks.extend(other.checks)
            return
        for c in other.checks:
            self.checks.append(
                Check(f"{prefix}{c.id}", c.description, c.lhs, c.rhs, c.equal, c.ms)
            )

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "context": dict(self.context),
            "checks": [
                {"id": c.id, "desc": c.description, "equal": c.equal, "ms": c.ms}
                for c in self.checks
            ],
            "summary": {"passed": self.passed, "failed": self.failed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  context {self.context}"]
        for c in self.checks:
            mark = "ok " if c.equal else "FAIL"
            lines.append(f"  [{mark}] {c.id}  {c.description}  ({c.ms:.2f} ms)")
            if not c.equal:
                lines.append(f"         lhs: {c.lhs}")
                lines.append(f"         rhs: {c.rhs}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)


def timed_check(check_id: str, description: str, build) -> Check:
    """Run build() -> (lhs, rhs), compare, and record the elapsed time.

    build() runs before this returns, so a builder may close over loop
    variables without binding them as default arguments.

    An exception in build() or in the comparison fails this check alone,
    with the error text as its lhs, so the rest of the suite still runs.

    A passing check whose sides are both `WeylOp` or both `Poly` prints its
    lhs once, for both texts: equal values of those types print alike.
    """
    start = time.perf_counter()
    try:
        lhs, rhs = build()
        equal = lhs == rhs
    except Exception as exc:
        ms = (time.perf_counter() - start) * 1000.0
        return Check(check_id, description, f"{type(exc).__name__}: {exc}", "", False, ms)
    ms = (time.perf_counter() - start) * 1000.0
    text = repr(lhs)
    once = equal and type(lhs) is type(rhs) and type(lhs) in (WeylOp, Poly)
    return Check(check_id, description, text, text if once else repr(rhs), equal, ms)
