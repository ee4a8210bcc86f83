"""Fast self-test of the benchmark harness on shrunken workloads.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is emitted with its unit, in
both modes, that host-speed scaling leaves probe time out, and that the
correctness gate catches a changed query output.
"""

from __future__ import annotations

import json
import time
import unittest
from pathlib import Path

import run
from hostspeed import PROBE_REF_S, HostSpeed
from workloads import CliQueries, MatrixOracle, RacahSuite, SmallChecks, expects_zero

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _sample_requests() -> list[dict]:
    by_kind = {}
    for request in CliQueries().requests:
        argv = request["argv"]
        kind = "zero" if expects_zero(argv) else argv[0]
        by_kind.setdefault(kind, request)
    return list(by_kind.values())


def _small_workloads():
    return [RacahSuite(3), SmallChecks(3), MatrixOracle(3, 2), CliQueries(_sample_requests())]


class EmittedMetrics(unittest.TestCase):
    def check_mode(self, trace: bool, section: str):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in _small_workloads():
            with self.subTest(workload=workload.name, trace=trace):
                result, record = run.run(workload, seed=3, seconds=0.01, trace=trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], workload.expected)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))
                self.assertEqual(record["seed"], 3)
                self.assertEqual(record["fail_ratio"]["value"], 0.0)
                self.assertEqual(set(record["env"]), {"python", "implementation", "backend", "nproc"})

    def test_end_to_end_metrics(self):
        self.check_mode(False, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_mode(True, "per_layer")


class HostSpeedScaling(unittest.TestCase):
    def test_busy_time_excludes_probes(self):
        with HostSpeed() as speed:
            begin = speed.mark()
            while time.perf_counter() < begin.at + 0.3:
                pass
            end = speed.mark()
        busy, ref = speed.span(begin, end)
        self.assertGreater(end.probes - begin.probes, 5)
        self.assertAlmostEqual(busy, end.at - begin.at - (end.probe_s - begin.probe_s))
        self.assertLess(busy, end.at - begin.at)
        durations = speed.durations[begin.probes : end.probes]
        self.assertAlmostEqual(ref / busy, sum(PROBE_REF_S / d for d in durations) / len(durations))


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_digest_fails(self):
        requests = _sample_requests()
        requests[0] = dict(requests[0], sha256="0" * 64)
        result, record = run.run(CliQueries(requests), seed=1, seconds=0.01, trace=False)
        self.assertFalse(result["correct"])
        self.assertGreater(record["fail_ratio"]["value"], 0.0)
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("recorded digest", record["failures"][0])

    def test_commuting_casimirs_expect_zero(self):
        base = ["commute", "--n", "5", "--lhs"]
        self.assertTrue(expects_zero(base + ["C[{1,2}]", "--rhs", "C[{3,4}]"]))
        self.assertTrue(expects_zero(base + ["C[{3}]", "--rhs", "C[{3,5}]"]))
        self.assertFalse(expects_zero(base + ["C[{3,4}]", "--rhs", "C[{4,5}]"]))
        self.assertFalse(expects_zero(base + ["T[1,2]", "--rhs", "C[{4,5}]"]))


if __name__ == "__main__":
    unittest.main()
