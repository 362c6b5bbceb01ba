#!/usr/bin/env python3
"""Tests of compare.py on synthetic run records.

    python3 bench/e2e/compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer.us", "unit": "us", "better": "lower"}],
}


def write_runs(directory, metric_values, trace=0, valid=True, smoke=False, tag=""):
    """One record per index of the value lists; seeds 1..n."""
    os.makedirs(directory, exist_ok=True)
    n = len(next(iter(metric_values.values())))
    for i in range(n):
        record = {"workload": "w", "seed": i + 1, "trace": trace, "smoke": smoke,
                  "valid": valid,
                  "metrics": {name: values[i] for name, values in metric_values.items()}}
        with open(os.path.join(directory, f"w-{tag}{trace}-{i:02d}.json"), "w") as f:
            json.dump(record, f)


def noisy(center, rel, n=10):
    """n values around `center`, spread evenly over ±rel."""
    return [center * (1 + rel * (2 * i / (n - 1) - 1)) for i in range(n)]


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.change = os.path.join(self.tmp.name, "change")

    def tearDown(self):
        self.tmp.cleanup()

    def verdicts(self):
        rows, _, _ = compare.compare(self.base, self.change, SPEC)
        return {row["metric"]: row["verdict"] for row in rows}

    def test_same_commit_is_same(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02), "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(1.0, 0.02)[::-1], "tput": noisy(100, 0.02)})
        self.assertEqual(self.verdicts(), {"lat_ms": "same", "tput": "same"})

    def test_clear_gain_in_each_direction(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02), "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(0.8, 0.02), "tput": noisy(120, 0.02)})
        self.assertEqual(self.verdicts(), {"lat_ms": "better", "tput": "better"})

    def test_regression_past_the_bound_fails(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02), "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(1.2, 0.02), "tput": noisy(85, 0.02)})
        self.assertEqual(self.verdicts(), {"lat_ms": "worse", "tput": "worse"})
        spec = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(spec, "w") as f:
            json.dump(SPEC, f)
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare.py")
        proc = subprocess.run([sys.executable, script, self.base, self.change,
                               "--benchmark", spec], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("worse (bound 0.1)", proc.stdout)

    def test_small_slowdown_within_the_bound_is_same(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02), "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(1.05, 0.02), "tput": noisy(96, 0.02)})
        self.assertEqual(self.verdicts(), {"lat_ms": "same", "tput": "same"})

    def test_spread_wider_than_the_bound_is_unresolved(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.4), "tput": noisy(100, 0.4)})
        write_runs(self.change, {"lat_ms": noisy(0.9, 0.4), "tput": noisy(100, 0.4)})
        self.assertEqual(self.verdicts(), {"lat_ms": "unresolved", "tput": "unresolved"})

    def test_wide_spread_but_every_change_run_better(self):
        write_runs(self.base, {"lat_ms": noisy(2.0, 0.3), "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(0.5, 0.3), "tput": noisy(100, 0.02)})
        self.assertEqual(self.verdicts()["lat_ms"], "better")

    def test_gain_needs_nine_of_ten_pairs(self):
        base = [1.0] * 10
        change = [0.7] * 8 + [1.01, 1.01]  # 8 wins, 2 losses
        write_runs(self.base, {"lat_ms": base, "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": change, "tput": noisy(100, 0.02)})
        self.assertNotEqual(self.verdicts()["lat_ms"], "better")
        change[8] = 0.7  # 9 wins
        write_runs(self.change, {"lat_ms": change, "tput": noisy(100, 0.02)})
        self.assertEqual(self.verdicts()["lat_ms"], "better")

    def test_gain_needs_the_gap_to_exceed_the_base_iqr(self):
        # Every pair wins, but by less than the base's interquartile range.
        base = noisy(1.0, 0.04)
        write_runs(self.base, {"lat_ms": base, "tput": noisy(100, 0.02)})
        write_runs(self.change, {"lat_ms": [v - 0.005 for v in base], "tput": noisy(100, 0.02)})
        self.assertEqual(self.verdicts()["lat_ms"], "same")

    def test_per_layer_metrics_use_the_pair_rule_both_ways(self):
        write_runs(self.base, {"layer.us": noisy(10, 0.02)}, trace=1)
        write_runs(self.change, {"layer.us": noisy(5, 0.02)}, trace=1)
        self.assertEqual(self.verdicts(), {"layer.us": "better"})
        write_runs(self.change, {"layer.us": noisy(20, 0.02)}, trace=1)
        self.assertEqual(self.verdicts(), {"layer.us": "worse"})

    def test_traced_runs_do_not_override_untraced_metrics(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(1.0, 0.02)})
        # Halved wire phases in traced runs read much slower; they must be ignored.
        write_runs(self.change, {"lat_ms": noisy(3.0, 0.02), "layer.us": noisy(5, 0.02)},
                   trace=1)
        write_runs(self.base, {"layer.us": noisy(5, 0.02)}, trace=1)
        self.assertEqual(self.verdicts(), {"lat_ms": "same", "layer.us": "same"})

    def test_invalid_and_smoke_runs_are_left_out(self):
        write_runs(self.base, {"lat_ms": noisy(1.0, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(1.0, 0.02)})
        write_runs(self.change, {"lat_ms": noisy(9.0, 0.02)}, valid=False, tag="bad")
        write_runs(self.change, {"lat_ms": noisy(9.0, 0.02)}, smoke=True, tag="smoke")
        rows, skipped_base, skipped_change = compare.compare(self.base, self.change, SPEC)
        self.assertEqual([r["verdict"] for r in rows], ["same"])
        self.assertEqual((skipped_base, skipped_change), (0, 10))
        self.assertEqual(rows[0]["n_change"], 10)

    def test_quartiles_match_statistics_quantiles(self):
        q1, median, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, median, q3), (1.5, 3.0, 4.5))


if __name__ == "__main__":
    unittest.main()
