"""Self-tests of the benchmark's statistics, span accounting and output
schema. Run from the repo root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import statistics
import unittest

import run
import stats


def span(id, parent, name, start, end, calls=1, run_id=1):
    return {"id": id, "parent": parent, "run": run_id, "name": name,
            "start_ns": start, "end_ns": end, "calls": calls}


class MedianAndPercentileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))
        for n in (11, 20, 37, 100, 1000):
            values = [float(v) for v in range(n, 0, -1)]
            pct, value = stats.tail_percentile(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertEqual(pct, (100 * (n - 10)) // n)
        self.assertEqual(stats.tail_percentile(list(range(100)))[0], 90)
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99)

    def test_calibration_scales_each_sample_by_its_kernel(self):
        self.assertEqual(stats.calibrated([2.0, 3.0], [0.02, 0.03], 0.01),
                         [1.0, 1.0])
        with self.assertRaises(ValueError):
            stats.calibrated([1.0], [], 0.01)
        with self.assertRaises(ValueError):
            stats.calibrated([1.0], [0.0], 0.01)

    def test_summarize_counts_samples(self):
        s = stats.summarize([1.0, 2.0, 3.0])
        self.assertEqual((s["median"], s["n"], s["tail"]), (2.0, 3, None))


class SpanSelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [span(1, 0, "run", 0, 100),
                 span(2, 1, "a", 10, 30),
                 span(3, 1, "b", 40, 70),
                 span(4, 3, "c", 45, 50)]
        own = stats.self_times(spans)
        self.assertEqual(own, {1: 50, 2: 20, 3: 25, 4: 5})
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(own.values()), 100)

    def test_overlapping_and_overhanging_children_are_clipped(self):
        spans = [span(1, 0, "p", 0, 100),
                 span(2, 1, "x", 20, 60),
                 span(3, 1, "y", 50, 130)]
        self.assertEqual(stats.self_times(spans)[1], 20)

    def test_self_time_by_name_and_per_call(self):
        spans = [span(1, 0, "registry.zone_snapshot", 0, 300),
                 span(2, 0, "registry.zone_snapshot", 300, 500),
                 span(3, 0, "registry.heartbeat", 500, 1500, calls=100)]
        by_name = stats.self_time_by_name(spans)
        self.assertEqual(by_name["registry.zone_snapshot"], 500)
        self.assertEqual(stats.per_call_ns(spans, "registry.heartbeat"), 10.0)
        self.assertEqual(stats.per_call_ns(spans, "registry.zone_snapshot"),
                         250.0)
        self.assertIsNone(stats.per_call_ns(spans, "missing"))

    def test_registry_read_share(self):
        # The sampled zone_snapshot probe counts in neither numerator nor
        # denominator; the rebuild inside zone_occupancy (span 5) is
        # zone_occupancy's own time.
        raw = {"counters": {"par.windows": 7},
               "spans": [span(1, 0, "registry.zone_occupancy", 0, 30),
                         span(2, 0, "registry.zone_snapshot", 30, 90),
                         span(3, 0, "registry.grant", 90, 100, calls=10),
                         span(4, 0, "sim.hold", 100, 200, calls=4),
                         span(5, 0, "registry.zone_occupancy", 200, 260)]}
        values = stats.layer_metrics(raw)
        self.assertAlmostEqual(values["registry.read_self_share"], 0.9)
        self.assertEqual(values["registry.zone_snapshot_us"], 60e-3)
        self.assertEqual(values["par.windows"], 7)
        self.assertEqual(values["sim.hold_ns"], 25.0)
        self.assertEqual(values["registry.grant_us"], 1e-3)
        self.assertEqual(values["net.packets"], 0)
        self.assertEqual(set(values), {n for n, _ in stats.PER_LAYER})


class OutputSchemaTest(unittest.TestCase):
    def result(self, expected):
        return stats.result_line(True, 3, 0,
                                 {n: (1.5, u) for n, u in expected})

    def test_valid_lines_pass(self):
        for expected in (stats.END_TO_END, stats.PER_LAYER):
            line = self.result(expected)
            self.assertEqual(stats.validate_result(line, expected), [])
            # The line survives a JSON round trip unchanged.
            self.assertEqual(json.loads(json.dumps(line)), line)

    def test_defects_are_reported(self):
        line = self.result(stats.END_TO_END)
        del line["metrics"]["setup_s"]
        self.assertTrue(stats.validate_result(line, stats.END_TO_END))
        line = self.result(stats.END_TO_END)
        line["metrics"]["run_s.s1"]["unit"] = "ms"
        self.assertTrue(stats.validate_result(line, stats.END_TO_END))
        line = self.result(stats.END_TO_END)
        line["attempted"] = 0
        self.assertTrue(stats.validate_result(line, stats.END_TO_END))
        line = self.result(stats.END_TO_END)
        line["metrics"]["run_s.s4"]["value"] = float("nan")
        self.assertTrue(stats.validate_result(line, stats.END_TO_END))
        line = self.result(stats.END_TO_END)
        line["extra"] = 1
        self.assertTrue(stats.validate_result(line, stats.END_TO_END))

    def test_metric_names_are_unique(self):
        names = [n for n, _ in stats.END_TO_END + stats.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json at the repo root describes what run.py prints."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.doc = json.load(f)

    def test_lists_match(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.doc["end_to_end"]], stats.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.doc["per_layer"]], stats.PER_LAYER)

    def test_contract_shape(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end",
                                         "per_layer"})
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        for m in self.doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


if __name__ == "__main__":
    unittest.main()
