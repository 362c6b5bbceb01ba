#!/usr/bin/env python3
"""Self-test of check_regression.py's exit-code contract.

Run by the CI perf-gate job before any real gating, so a regression in the
gate script itself (e.g. --require silently passing on missing coverage)
fails the job instead of neutering it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_regression  # noqa: E402

CONTEXT = {"num_cpus": 4, "mhz_per_cpu": 2000, "host_name": "ci-host"}
OTHER_CONTEXT = {"num_cpus": 8, "mhz_per_cpu": 3000, "host_name": "elsewhere"}


def bench(name, cpu_time):
    return {"name": name, "run_type": "iteration", "cpu_time": cpu_time,
            "time_unit": "ns"}


def rate(name, cpu_time, items_per_second):
    entry = bench(name, cpu_time)
    entry["items_per_second"] = items_per_second
    return entry


def median(run_name, cpu_time):
    return {"name": run_name + "_median", "run_name": run_name,
            "run_type": "aggregate", "aggregate_name": "median",
            "cpu_time": cpu_time, "time_unit": "ns"}


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def _write(self, name, benchmarks, context=CONTEXT):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "benchmarks": benchmarks}, fh)
        return path

    def _run(self, base, cand, *extra):
        return check_regression.main(
            ["--baseline", base, "--candidate", cand, *extra])

    def test_identical_runs_pass(self):
        base = self._write("b.json", [bench("BM_A", 100.0)])
        cand = self._write("c.json", [bench("BM_A", 101.0)])
        self.assertEqual(self._run(base, cand), 0)

    def test_regression_fails_on_matching_host(self):
        base = self._write("b.json", [bench("BM_A", 100.0)])
        cand = self._write("c.json", [bench("BM_A", 200.0)])
        self.assertEqual(self._run(base, cand), 1)

    def test_regression_warns_on_mismatched_host(self):
        base = self._write("b.json", [bench("BM_A", 100.0)])
        cand = self._write("c.json", [bench("BM_A", 200.0)],
                           context=OTHER_CONTEXT)
        self.assertEqual(self._run(base, cand), 0)

    def test_missing_benchmark_without_require_only_warns(self):
        base = self._write("b.json", [bench("BM_A", 100.0), bench("BM_B", 50.0)])
        cand = self._write("c.json", [bench("BM_A", 100.0)])
        self.assertEqual(self._run(base, cand), 0)

    def test_require_fails_when_candidate_lacks_the_key(self):
        base = self._write("b.json", [bench("BM_A", 100.0), bench("BM_B", 50.0)])
        cand = self._write("c.json", [bench("BM_A", 100.0)])
        self.assertEqual(self._run(base, cand, "--require", "BM_B"), 1)

    def test_require_fails_even_on_mismatched_host(self):
        base = self._write("b.json", [bench("BM_B", 50.0)])
        cand = self._write("c.json", [bench("BM_A", 100.0)],
                           context=OTHER_CONTEXT)
        self.assertEqual(self._run(base, cand, "--require", "BM_B"), 1)

    def test_require_prefix_fails_when_a_gated_variant_is_dropped(self):
        # The hole this test pins down: both runs match the prefix, but the
        # candidate silently dropped the /n:10000 row. The gate must fail
        # rather than compare only the surviving small row.
        base = self._write("b.json", [bench("BM_Plan/n:500", 10.0),
                                      bench("BM_Plan/n:10000", 900.0)])
        cand = self._write("c.json", [bench("BM_Plan/n:500", 10.0)])
        self.assertEqual(self._run(base, cand, "--require", "BM_Plan"), 1)

    def test_require_prefix_passes_when_all_variants_present(self):
        rows = [bench("BM_Plan/n:500", 10.0), bench("BM_Plan/n:10000", 900.0)]
        base = self._write("b.json", rows)
        cand = self._write("c.json", rows)
        self.assertEqual(self._run(base, cand, "--require", "BM_Plan"), 0)

    def test_require_uses_median_aggregates(self):
        base = self._write("b.json", [median("BM_A/n:10", 100.0)])
        cand = self._write("c.json", [median("BM_A/n:10", 100.0)])
        self.assertEqual(self._run(base, cand, "--require", "BM_A"), 0)

    def test_strict_context_fails_on_mismatch(self):
        base = self._write("b.json", [bench("BM_A", 100.0)])
        cand = self._write("c.json", [bench("BM_A", 100.0)],
                           context=OTHER_CONTEXT)
        self.assertEqual(self._run(base, cand, "--strict-context"), 1)

    def test_ratio_passes(self):
        rows = [rate("BM_Batched/16", 400.0, 40000.0), rate("BM_Loopback/1", 100.0, 10000.0)]
        base = self._write("b.json", rows)
        cand = self._write("c.json", rows)
        self.assertEqual(self._run(base, cand, "--ratio",
                                   "items_per_second:BM_Batched/16/BM_Loopback/1>=2"), 0)

    def test_ratio_fails(self):
        rows = [bench("BM_Supervised/64", 120.0), bench("BM_Journaled/64", 100.0)]
        base = self._write("b.json", rows)
        cand = self._write("c.json", rows)
        self.assertEqual(self._run(base, cand, "--ratio",
                                   "BM_Supervised/64/BM_Journaled/64<=1.1"), 1)

    def test_ratio_fails_when_a_row_is_missing(self):
        base = self._write("b.json", [bench("BM_A", 100.0), bench("BM_B", 50.0)])
        cand = self._write("c.json", [bench("BM_A", 100.0)])
        self.assertEqual(self._run(base, cand, "--ratio", "BM_A/BM_B>=1"), 1)

    def test_ratio_catches_a_2x_slowdown_on_a_foreign_host(self):
        # The baseline gate only warns on a foreign host; a ratio within the
        # candidate run still fails when one layer doubles.
        base = self._write("b.json", [bench("BM_Full/n:10000", 450.0),
                                      bench("BM_Delta/n:10000", 50.0)])
        cand = self._write("c.json", [bench("BM_Full/n:10000", 450.0),
                                      bench("BM_Delta/n:10000", 100.0)],
                           context=OTHER_CONTEXT)
        self.assertEqual(self._run(base, cand), 0)
        self.assertEqual(self._run(base, cand, "--ratio",
                                   "BM_Full/n:10000/BM_Delta/n:10000>=5"), 1)


if __name__ == "__main__":
    unittest.main()
