"""Host speed sampled inside the measured process.

On a shared virtual machine a vCPU's execution speed drifts by up to 2x
over seconds to minutes, CPU time included, and the second vCPU drifts on
its own, so only a probe on the same thread tracks it. A `HostSpeed`
interrupts the run every INTERVAL_S seconds of wall time (SIGALRM) and
times `probe()`, a fixed pure-Python loop that calls nothing in weylracah.

`span(begin, end)` then gives, for a stretch of the run between two marks,
its wall time less the time spent in probes (`busy_s`) and that busy time
at reference speed (`ref_s`): busy_s times the mean over the stretch's
probes of PROBE_REF_S / probe duration. PROBE_REF_S is what one probe takes
at the reference speed, so `ref_s` equals `busy_s` when the host runs at
that speed, and a program change that does less work lowers both alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

from tracing import rebind

INTERVAL_S = 0.02
# One probe's duration at the reference speed, close to its median inside
# runs on a 2-vCPU VM with CPython 3.11.7.
PROBE_REF_S = 0.00035
# A stretch shorter than this many probe intervals borrows the probes of
# its surroundings.
MIN_PROBES = 8


def probe() -> int:
    """Fixed work in the program's style: Fraction arithmetic into a dict."""
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 41):
        key = (i & 3, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i, i + 2) * Fraction(3, i + 5)
    return len(acc)


@dataclass(frozen=True)
class Mark:
    at: float
    probe_s: float
    probes: int

    @property
    def busy(self) -> float:
        return self.at - self.probe_s


class HostSpeed:
    """Probe the host's speed on a wall-time timer inside a `with` block."""

    def __init__(self):
        self.durations = array("d")
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.durations.append(end - start)
        self.probe_s += end - start

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        while True:
            spent, probes = self.probe_s, len(self.durations)
            now = time.perf_counter()
            if spent == self.probe_s:
                return Mark(now, spent, probes)

    def busy(self) -> float:
        """A clock that stops while a probe runs."""
        while True:
            spent = self.probe_s
            now = time.perf_counter()
            if spent == self.probe_s:
                return now - spent

    def record_checks(self, pkg) -> dict[float, tuple[int, int]]:
        """Note the probes taken during each `report.timed_check` call.

        The returned table maps a check's `ms` field, which travels with
        the check into every report, to the index range of its probes.
        """
        table: dict[float, tuple[int, int]] = {}
        original = pkg.report.timed_check
        durations = self.durations

        def timed_check(*args, **kwargs):
            first = len(durations)
            check = original(*args, **kwargs)
            table[check.ms] = (first, len(durations))
            return check

        rebind(pkg, original, timed_check)
        return table

    def factor(self, first: int, last: int) -> float:
        """Mean reference-over-measured probe speed of probes first..last-1."""
        if last - first < MIN_PROBES:
            middle = (first + last) // 2
            first = max(0, min(middle - MIN_PROBES // 2, len(self.durations) - MIN_PROBES))
            last = min(len(self.durations), first + MIN_PROBES)
        if last <= first:
            return 1.0
        return statistics.fmean(PROBE_REF_S / d for d in self.durations[first:last])

    def span(self, begin: Mark, end: Mark) -> tuple[float, float]:
        """(busy_s, ref_s) of the stretch between two marks."""
        busy = (end.at - begin.at) - (end.probe_s - begin.probe_s)
        return busy, busy * self.factor(begin.probes, end.probes)
