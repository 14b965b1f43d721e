#!/usr/bin/env python3
"""Self-tests of the benchmark's helpers: stats, the two-set agreement
rule, the VmHWM parser, span self times and the result schema.

    python3 perfbench/test_benchstats.py
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_are_the_exclusive_method(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 6.0, 2.0, 8.0, 5.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q1, q3))
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_spread_is_quartile_distance_over_median(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 6.0, 2.0, 8.0, 5.0, 10.0]
        self.assertAlmostEqual(benchstats.spread(values), 5.5 / 5.5)
        self.assertEqual(benchstats.spread([2.0] * 10), 0.0)


class AgreementTest(unittest.TestCase):
    STEADY = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]

    def test_close_steady_sets_agree(self):
        b = [v * 1.05 for v in self.STEADY]
        verdict = benchstats.agreement(self.STEADY, b, 0.25, "lower")
        self.assertAlmostEqual(verdict.worse_by, 0.05)
        self.assertTrue(verdict.agree)
        self.assertTrue(verdict.steady)

    def test_worse_is_signed_by_direction(self):
        b = [v * 1.05 for v in self.STEADY]
        verdict = benchstats.agreement(self.STEADY, b, 0.25, "higher")
        self.assertAlmostEqual(verdict.worse_by, -0.05)
        self.assertTrue(verdict.agree)

    def test_medians_apart_either_way_disagree(self):
        for factor in (0.7, 1.3):
            b = [v * factor for v in self.STEADY]
            for better in ("lower", "higher"):
                verdict = benchstats.agreement(self.STEADY, b, 0.25, better)
                self.assertFalse(verdict.agree, (factor, better))
                self.assertTrue(verdict.steady)

    def test_a_wide_set_disagrees(self):
        wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        verdict = benchstats.agreement(self.STEADY, wide, 0.25, "lower")
        self.assertAlmostEqual(verdict.worse_by, 0.0)
        self.assertGreater(verdict.spreads[1], 0.25)
        self.assertFalse(verdict.agree)
        self.assertFalse(verdict.steady)

    def test_steady_needs_a_third_of_the_bound(self):
        middling = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.7, 10.3, 10.0]
        verdict = benchstats.agreement(self.STEADY, middling, 0.25, "lower")
        self.assertTrue(verdict.agree)
        self.assertGreater(verdict.spreads[1], 0.25 / 3)
        self.assertFalse(verdict.steady)


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_enough_samples_lie_beyond(self):
        values = list(range(1, 2001))
        tail = benchstats.tail_percentile(values)
        self.assertEqual(tail.level, 99.0)
        self.assertEqual(tail.value, 1980)
        self.assertEqual(tail.beyond, 20)
        self.assertEqual(tail.n, 2000)

    def test_p99_at_exactly_ten_beyond(self):
        tail = benchstats.tail_percentile(list(range(1000)))
        self.assertEqual((tail.level, tail.value, tail.beyond), (99.0, 989, 10))

    def test_falls_back_to_the_highest_supported_percentile(self):
        values = [float(v) for v in range(500, 0, -1)]
        tail = benchstats.tail_percentile(values)
        self.assertEqual(tail.beyond, 10)
        self.assertAlmostEqual(tail.level, 98.0)
        self.assertEqual(tail.value, 490.0)

    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(benchstats.tail_percentile(list(range(10))))
        tail = benchstats.tail_percentile(list(range(11)))
        self.assertEqual((tail.value, tail.beyond), (0, 10))
        self.assertAlmostEqual(tail.level, 100.0 / 11)


class VmHwmTest(unittest.TestCase):
    def test_parses_status_lines(self):
        self.assertEqual(benchstats.parse_vmhwm_mb("VmHWM:\t 1219432 kB"),
                         1219432 * 1024 / 1e6)
        self.assertEqual(benchstats.parse_vmhwm_mb("VmHWM: 37756 kB\n"),
                         37756 * 1024 / 1e6)

    def test_rejects_other_lines(self):
        for line in ("", "VmRSS:\t 100 kB", "VmHWM:\t 100 MB", "VmHWM: kB",
                     "VmHWM:\t -5 kB"):
            with self.assertRaises(ValueError):
                benchstats.parse_vmhwm_mb(line)

    def test_reads_this_process(self):
        with open("/proc/self/status") as f:
            line = next(l for l in f if l.startswith("VmHWM:"))
        self.assertGreater(benchstats.parse_vmhwm_mb(line), 0)


def span(sid, parent, name, ts, dur, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"span_id": sid, "parent_id": parent, **args}}


class SpanTest(unittest.TestCase):
    EVENTS = [
        span(0, -1, "rep", 0, 1000, count=7),
        span(1, 0, "core.slot_loop", 100, 600),
        span(2, 1, "sim.inject", 150, 100),
        span(3, 0, "core.slot_loop", 750, 200),
        span(4, -1, "audit", 2000, 50),
        span(5, 4, "check.audit", 2000, 50),
    ]

    def test_self_time_excludes_direct_children(self):
        selfs = benchstats.self_times(self.EVENTS)
        self.assertAlmostEqual(selfs[0], 200e-6)
        self.assertAlmostEqual(selfs[1], 500e-6)
        self.assertAlmostEqual(selfs[2], 100e-6)
        self.assertAlmostEqual(selfs[4], 0.0)

    def test_roots_sum_self_time_by_name(self):
        groups = benchstats.roots(self.EVENTS)
        self.assertEqual([root["name"] for root, _ in groups],
                         ["rep", "audit"])
        totals = groups[0][1]
        self.assertAlmostEqual(totals["core.slot_loop"], 700e-6)
        self.assertAlmostEqual(totals["sim.inject"], 100e-6)
        self.assertAlmostEqual(totals["rep"], 200e-6)
        self.assertAlmostEqual(sum(totals.values()), 1000e-6)
        self.assertEqual(groups[0][0]["args"]["count"], 7)


class ResultSchemaTest(unittest.TestCase):
    UNITS = {"latency_ms": "ms", "setup_s": "s"}

    def result(self, **changes):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"},
                              "setup_s": {"value": 2, "unit": "s"}}}
        result.update(changes)
        return result

    def test_accepts_a_valid_line(self):
        benchstats.validate_result(self.result(), self.UNITS)

    def test_rejects_malformed_lines(self):
        bad = [
            self.result(extra=1),
            self.result(correct=1),
            self.result(attempted=0),
            self.result(attempted=True),
            self.result(failed=-1),
            self.result(failed=0.5),
            self.result(metrics={"latency_ms": {"value": 1.0, "unit": "ms"}}),
            self.result(metrics={"latency_ms": {"value": 1.0, "unit": "s"},
                                 "setup_s": {"value": 2, "unit": "s"}}),
            self.result(metrics={"latency_ms": {"value": math.nan,
                                                "unit": "ms"},
                                 "setup_s": {"value": 2, "unit": "s"}}),
            self.result(metrics={"latency_ms": {"value": "1", "unit": "ms"},
                                 "setup_s": {"value": 2, "unit": "s"}}),
            self.result(metrics={"latency_ms": {"value": 1.0, "unit": "ms",
                                                "n": 3},
                                 "setup_s": {"value": 2, "unit": "s"}}),
        ]
        for result in bad:
            with self.assertRaises(ValueError, msg=str(result)):
                benchstats.validate_result(result, self.UNITS)


if __name__ == "__main__":
    unittest.main()
