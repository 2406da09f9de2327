"""Tests for the benchmark's own helpers and its output contract.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The last test builds the runner (once) and
runs a short workload with a corrupted expectation, which must fail.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import benchlib  # noqa: E402


def trace(rows):
    """Open-loop trace from (due, sent, done, kind, failed) rows."""
    keys = ["due", "sent", "done", "kind", "failed"]
    return {k: [r[i] for r in rows] for i, k in enumerate(keys)}


class NearestRankTest(unittest.TestCase):
    def test_reports_value_and_count_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.nearest_rank(values, 0.99), (99, 1, 100))
        self.assertEqual(benchlib.nearest_rank(values, 0.50), (50, 50, 100))
        self.assertEqual(benchlib.nearest_rank(values, 1.0), (100, 0, 100))

    def test_small_and_empty_samples(self):
        self.assertEqual(benchlib.nearest_rank([7.0], 0.99), (7.0, 0, 1))
        self.assertEqual(benchlib.nearest_rank([], 0.5), (None, 0, 0))
        # 10 samples: p95 is the largest, nothing beyond it.
        self.assertEqual(benchlib.nearest_rank(range(10), 0.95), (9, 0, 10))

    def test_failures_sort_beyond_every_latency(self):
        value, beyond, n = benchlib.nearest_rank([1, 2, 3, benchlib.INF], 0.75)
        self.assertEqual((value, beyond, n), (3, 1, 4))
        self.assertEqual(benchlib.nearest_rank([1, benchlib.INF], 1.0)[0],
                         benchlib.INF)


class OpenLoopTest(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # Request 1 was sent 300 us late because the generator stalled;
        # its latency counts the stall, its lateness reports it.
        t = trace([(0, 1_000, 21_000, 0, 0),
                   (100_000, 400_000, 450_000, 0, 0),
                   (200_000, 201_000, 260_000, 1, 0)])
        latency, lateness = benchlib.open_loop_samples(t, 0)
        self.assertEqual(latency, [21.0, 350.0])
        self.assertEqual(lateness, [1.0, 300.0])
        latency, lateness = benchlib.open_loop_samples(t, 1)
        self.assertEqual(latency, [60.0])
        self.assertEqual(lateness, [1.0])

    def test_failed_and_unanswered_requests_miss_every_limit(self):
        t = trace([(0, 0, 5_000, 0, 1), (10, 10, -1, 0, 1), (20, -1, -1, 0, 1)])
        latency, lateness = benchlib.open_loop_samples(t, 0)
        self.assertEqual(latency, [benchlib.INF] * 3)
        self.assertEqual(lateness, [0.0, 0.0])  # the unsent one has none

    def test_windowed_percentile_ignores_a_stalled_window(self):
        window = 1_000_000
        rows = []
        for w in range(8):
            for i in range(100):
                due = w * window + i * 10_000
                stall = 50_000_000 if w == 3 else 0
                rows.append((due, due, due + 20_000 + i * 10 + stall, 0, 0))
        value, n, windows, _ = benchlib.windowed_percentile(trace(rows), 0,
                                                            0.99, window)
        self.assertEqual((n, windows), (800, 8))
        self.assertAlmostEqual(value, 20.0 + 98 * 0.01)

    def test_windowed_percentile_moves_when_half_the_windows_slow(self):
        window = 1_000_000
        rows = []
        for w in range(8):
            for i in range(100):
                due = w * window + i * 10_000
                slow = 30_000 if w % 2 == 0 else 0
                rows.append((due, due, due + 20_000 + slow, 0, 0))
        value, _, windows, low = benchlib.windowed_percentile(trace(rows), 0,
                                                              0.5, window)
        self.assertEqual(windows, 8)
        self.assertEqual(value, 20.0)  # 4 of 8 windows slow: rank 4 is fast
        self.assertEqual(low, 20.0)
        rows = [(d, s, done + (30_000 if d // window == 1 else 0), k, f)
                for d, s, done, k, f in rows]
        value, _, _, low = benchlib.windowed_percentile(trace(rows), 0, 0.5,
                                                        window)
        self.assertEqual(value, 50.0)  # 5 of 8 slow: the gate moves
        self.assertEqual(low, 20.0)    # the diagnostic quartile does not


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [["append", 0, 100, -1, 1],
                 ["probe", 10, 30, 0, 1],
                 ["reprice", 20, 50, 0, 1]]
        self.assertEqual(benchlib.self_times(spans), [60, 20, 30])

    def test_children_are_clipped_and_grandchildren_skipped(self):
        spans = [["run", 0, 100, -1, 0],
                 ["late child", 90, 140, 0, 0],
                 ["grandchild", 95, 99, 1, 0],
                 ["other root", 0, 10, -1, 0]]
        self.assertEqual(benchlib.self_times(spans), [90, 46, 4, 10])


def load_spec():
    return benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))


def fake_report(counters):
    """A traced report with one sample of everything per_layer reads."""
    t = trace([(0, 0, 40_000, 0, 0), (10, 10, 500_000, 1, 0)])
    return {
        "samples": {"setup_s": [0.5], "recover_s": [0.01],
                    "build_s": [0.4], "solve_s": [0.002],
                    "append_ms": [10.0], "delta_us": [300.0]},
        "open_loop": t,
        "capacity": {"completed": 100, "failed": 0, "seconds": 1.0},
        "writer": {"ops": 3, "append_failed": 0, "delta_failed": 0},
        "revenue": {"best": 5.0, "sum_valuations": 10.0, "bound": 8.0},
        "counters": counters,
        "spans": [["serve.AppendBuyers", 0, 100, -1, 0],
                  ["market.probe", 0, 20, 0, 0],
                  ["core.reprice", 20, 50, 0, 0],
                  ["core.reprice", 50, 90, 0, 0]],
    }


class PerLayerTest(unittest.TestCase):
    def test_every_per_layer_metric_is_produced(self):
        report = fake_report({n: 1.0 for n in benchlib.PER_LAYER})
        out = benchlib.per_layer(report, benchlib.end_to_end(report))
        self.assertEqual(set(out), set(benchlib.PER_LAYER))
        # Reprices of two shards run one after the other: their sum.
        self.assertAlmostEqual(out["core.reprice_ms"]["value"], 70e-6)
        self.assertAlmostEqual(out["serve.append_other_ms"]["value"], 10e-6)

    def test_a_counter_the_runner_did_not_emit_fails(self):
        counters = {n: 1.0 for n in benchlib.PER_LAYER}
        del counters["rpc.loop_allocs"]
        report = fake_report(counters)
        with self.assertRaises(benchlib.MissingMetrics) as ctx:
            benchlib.per_layer(report, benchlib.end_to_end(report))
        self.assertIn("rpc.loop_allocs", str(ctx.exception))


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_is_within_the_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(benchlib.END_TO_END["setup_s"], ("s", "lower"))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_result_line_validates(self):
        spec = load_spec()
        metrics = {n: {"value": 1.5, "unit": u, "n": 3}
                   for n, (u, _) in benchlib.END_TO_END.items()}
        metrics["quote_p99_us"] = {"value": 9.0, "unit": "us"}  # not gated
        line = benchlib.result_line(True, 10, 0, metrics, benchlib.END_TO_END)
        obj = json.loads(line)
        self.assertEqual(benchlib.validate_result(obj, spec, trace=False), [])
        self.assertNotIn("quote_p99_us", obj["metrics"])

    def test_schema_errors_are_reported(self):
        spec = load_spec()
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {n: {"value": 2.0, "unit": u}
                            for n, (u, _) in benchlib.END_TO_END.items()}}
        self.assertEqual(benchlib.validate_result(good, spec, False), [])
        bad = json.loads(json.dumps(good))
        bad["attempted"] = 0
        bad["metrics"]["setup_s"]["unit"] = "ms"
        del bad["metrics"]["solve_s"]
        errors = benchlib.validate_result(bad, spec, False)
        self.assertEqual(len(errors), 3, errors)
        self.assertTrue(benchlib.validate_result(good, spec, trace=True))
        self.assertTrue(benchlib.validate_result({"correct": True}, spec, False))


class ChecksTest(unittest.TestCase):
    def test_any_mismatch_fails_the_run(self):
        checks = {name: 0 for name in benchlib.CHECK_COUNTS}
        checks.update(twin_checked=100)
        self.assertEqual(benchlib.check_failures({"checks": checks}), [])
        checks["static_mismatches"] = 1
        checks["twin_unverifiable"] = 1
        self.assertEqual(benchlib.check_failures({"checks": checks}),
                         ["static_mismatches", "twin_unverifiable"])


class ForcedMismatchTest(unittest.TestCase):
    def test_corrupted_expectation_exits_non_zero(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "serve-read", "--seed", "3", "--seconds", "1",
             "--force-mismatch"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertNotEqual(proc.returncode, 0, proc.stdout[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("static_mismatches", proc.stdout)
        self.assertTrue(math.isfinite(result["metrics"]["quote_p50_us"]["value"]))


if __name__ == "__main__":
    unittest.main()
