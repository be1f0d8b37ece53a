#!/usr/bin/env python3
"""Self-test for scripts/bench_diff.py (wired into ctest as
bench_diff.selftest).

The CI bench-smoke job gates the committed BENCH_results.json with
`bench_diff.py --threshold 75`; these cases pin what that gate does with
a regression, a row that was not measured, a new row and noise.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_DIFF = os.path.join(REPO, "scripts", "bench_diff.py")


def snapshot(rows):
    """A google-benchmark report with one iteration row per name."""
    return {
        "context": {"dfs_build_type": "release"},
        "benchmarks": [
            {"name": name, "run_type": "iteration", "real_time": real_time,
             "time_unit": "ns"}
            for name, real_time in rows.items()
        ],
    }


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def diff(self, baseline, current, threshold=75):
        paths = []
        for label, rows in (("baseline", baseline), ("current", current)):
            path = os.path.join(self.tmp.name, label + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(snapshot(rows), handle)
            paths.append(path)
        return subprocess.run(
            [sys.executable, BENCH_DIFF, *paths, "--threshold",
             str(threshold)],
            capture_output=True, text=True, check=False)

    def test_regression_past_threshold_fails(self):
        result = self.diff({"A": 100.0, "B": 100.0},
                           {"A": 100.0, "B": 180.0})
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION B", result.stderr)

    def test_missing_baseline_row_fails(self):
        result = self.diff({"A": 100.0, "B": 100.0}, {"A": 100.0})
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("MISSING B", result.stderr)

    def test_current_only_row_passes(self):
        result = self.diff({"A": 100.0}, {"A": 100.0, "C": 5000.0})
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("only in current", result.stdout)

    def test_change_within_threshold_passes(self):
        result = self.diff({"A": 100.0, "B": 100.0},
                           {"A": 170.0, "B": 40.0})
        self.assertEqual(result.returncode, 0, result.stderr)


if __name__ == "__main__":
    unittest.main()
