#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_harness.py

Checks the quartile spread and seed parsing of spread.py and the pair F1 of
run.py against hand-computed values, and runs the C++ self-test
(percentiles, open-loop latency from the due time) when it has been built.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_of_one_to_ten(self):
        # Exclusive method: q1 at position 11 * 0.25 = 2.75 -> 2.75,
        # q3 at 8.25 -> 8.25; median 5.5.
        self.assertAlmostEqual(spread.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)

    def test_quartiles_interpolate(self):
        # Sorted 2 4 4 5 7 9 10 12 15 20: q1 = 4 + 0.75 * (4 - 4) = 4,
        # q3 = 12 + 0.25 * (15 - 12) = 12.75, median (7 + 9) / 2 = 8.
        values = [20, 4, 9, 2, 15, 4, 12, 7, 10, 5]
        self.assertAlmostEqual(spread.spread(values), (12.75 - 4) / 8)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10), 0.0)

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


class RunArithmeticTest(unittest.TestCase):
    def test_pair_f1(self):
        self.assertAlmostEqual(
            run.pair_f1({"pair_precision": 0.5, "pair_recall": 1.0}), 2 / 3)
        self.assertEqual(
            run.pair_f1({"pair_precision": 0.0, "pair_recall": 0.0}), 0.0)

    def test_trace_events_are_flat_and_parented(self):
        trace = run.Trace(enabled=True)
        with trace.span("outer") as outer:
            with trace.span("inner"):
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            trace.write(path)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
        inner = next(e for e in events if e["name"] == "inner")
        self.assertEqual(inner["parent"], outer["sid"])
        for event in events:
            self.assertEqual(event["ph"], "X")
            self.assertTrue(all(not isinstance(v, (dict, list))
                                for v in event.values()))


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        binary = os.path.join(run.BUILD, "perfbench_selftest")
        if not os.path.exists(binary):
            self.skipTest("perfbench_selftest not built; run run.py once")
        result = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stderr)


if __name__ == "__main__":
    unittest.main()
