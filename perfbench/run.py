"""Run one weylracah benchmark workload and print its metrics.

    python3 perfbench/run.py --workload racah-n5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it records the workload, seed and run environment. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones from a separate traced pass. Exit code 0 means the run
finished and every operation was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from hostspeed import HostSpeed
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
SHOWN_FAILURES = 20


def load_package():
    """Import weylracah afresh from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "weylracah" or k.startswith("weylracah.")]:
        del sys.modules[key]
    pkg = importlib.import_module("weylracah")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"weylracah was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def timed_setup(workload, seed: int, repeats: int, speed: HostSpeed):
    """Time full set-ups, a fresh import, the context and the inputs, as (busy_s, ref_s)."""
    times = []
    for _ in range(repeats):
        gc.collect()
        begin = speed.mark()
        pkg = load_package()
        state = workload.setup(pkg, seed)
        times.append(speed.span(begin, speed.mark()))
    state["speed"] = speed
    state["check_probes"] = speed.record_checks(pkg)
    return times, pkg, state


def timed_unit(workload, pkg, state, index: int, speed: HostSpeed):
    """One unit of work: its (busy_s, ref_s) and its operations."""
    state["check_probes"].clear()
    gc.collect()
    begin = speed.mark()
    ops = workload.unit(pkg, state, index)
    return speed.span(begin, speed.mark()), ops


class Tally:
    """What a run keeps of its operations: counts, failures and latencies.

    Passing operations are not kept, so peak memory does not grow with the
    number of units a run fits in.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = array("d")

    def add(self, ops, speed: HostSpeed, unit_factor: float) -> None:
        self.attempted += len(ops)
        self.failures += [op for op in ops if not op.ok]
        # An operation's latency is scaled to reference speed by the probes
        # taken while it ran, or failing those by its unit's.
        self.samples.extend(op.ms * (speed.factor(*op.probes) if op.probes else unit_factor) for op in ops)


def run_units(workload, pkg, state, deadline: float, speed: HostSpeed, tally: Tally):
    """Run units 0, 1, ... until the next would end over half a unit past the deadline."""
    durations, walls = [], []
    while True:
        start = time.perf_counter()
        (busy, ref), ops = timed_unit(workload, pkg, state, len(durations), speed)
        end = time.perf_counter()
        walls.append(end - start)
        durations.append((busy, ref))
        tally.add(ops, speed, ref / busy)
        del ops  # not alive during the next unit
        if end + 0.5 * statistics.fmean(walls) >= deadline:
            return durations


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def environment(pkg) -> dict:
    rat = pkg.poly.Rat
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": f"{rat.__module__}.{rat.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (the result object, the run record)."""
    with HostSpeed() as speed:
        return _run(workload, seed, seconds, trace, speed)


def _run(workload, seed: int, seconds: float, trace: bool, speed: HostSpeed) -> tuple[dict, dict]:
    begin = time.perf_counter()
    # Half the set-ups run before the units and half after, so their median
    # samples the machine over the whole run.
    setup_times, pkg, state = timed_setup(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2, speed)
    deadline = begin + seconds
    tracer = None
    tally = Tally()
    if trace:
        # One untraced unit on the same input as the first traced one gives
        # the tracing overhead.
        (plain_busy, plain_s), ops = timed_unit(workload, pkg, state, 0, speed)
        tally.add(ops, speed, plain_s / plain_busy)
        del ops
        tracer = Tracer(clock=speed.busy)
        tracer.install(pkg)
    durations = run_units(workload, pkg, state, deadline, speed, tally)

    failures, samples = tally.failures, tally.samples
    verdict_s = statistics.median(ref for _, ref in durations)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "units": len(durations),
        "units_busy_s": [busy for busy, _ in durations],
        "units_ref_s": [ref for _, ref in durations],
        "host_speed": sum(ref for _, ref in durations) / sum(busy for busy, _ in durations),
        "probes": len(speed.durations),
        "op_samples": len(samples),
        "fail_ratio": {"value": len(failures) / tally.attempted, "unit": "ratio"},
        "env": environment(pkg),
    }
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += timed_setup(workload, seed, SETUP_REPEATS // 2, speed)[0]
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setup_times), "unit": "s"},
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "op_ms.p50": {"value": statistics.median(samples), "unit": "ms"},
            "op_ms.p95": {"value": percentile(samples, 95), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        correct = not failures
    else:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = tracer.metrics(len(durations))
        # Self times are on the clock that stops for probes; scale them to
        # reference speed like the units.
        for name, unit in units.items():
            if unit == "s" and name in values:
                values[name] *= record["host_speed"]
        values["trace.verdict_s"] = verdict_s
        values["trace.overhead_s"] = verdict_s - plain_s
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        missing = tracer.missing(workload.name)
        if missing:
            record["uncovered_spans"] = missing
        correct = not failures and not missing
    record["failures"] = [f"{op.label}: {op.detail}" for op in failures[:SHOWN_FAILURES]]
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]()
    try:
        result, record = run(workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import weylracah from {SRC}: {exc}", file=sys.stderr)
        return 2
    for line in record.pop("failures"):
        print(f"FAIL {line[:400]}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
