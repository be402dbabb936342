"""Tests of perfbench/compare.py: cross-host reports are incomparable, and
a metric worse than its bound is marked."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

HOST = {"nproc": 4, "build_type": "RelWithDebInfo", "compiler": "GNU 12.2.0",
        "kernel": "Linux 6.18", "machine": "x86_64"}


def report(ops, host=HOST):
    return {"workload": "write-mix", "trace": 0, "host": host,
            "correct": True,
            "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"}}}


def groups(*reports):
    return {("write-mix", 0): list(reports)}


LIMITS = {"ops_per_s": {"better": "higher", "bound": 0.1}}


class CompareTest(unittest.TestCase):
    def test_same_host_prints_the_delta(self):
        lines = compare.compare(groups(report(100)), groups(report(95)), LIMITS)
        self.assertIn("-5.00%", lines[1])
        self.assertNotIn("REGRESSION", lines[1])

    def test_worse_than_the_bound_is_a_regression(self):
        lines = compare.compare(groups(report(100)), groups(report(80)), LIMITS)
        self.assertIn("REGRESSION", lines[1])

    def test_another_host_is_incomparable(self):
        other = dict(HOST, nproc=1)
        lines = compare.compare(groups(report(100)),
                                groups(report(150, other)), LIMITS)
        self.assertEqual(len(lines), 1)
        self.assertIn("incomparable", lines[0])
        self.assertNotIn("%", lines[0])

    def test_reports_are_read_from_saved_output(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "out.txt"
            path.write_text("metric x\nreport " + json.dumps(report(7)) + "\n{}\n")
            self.assertEqual(list(compare.load(path)), [("write-mix", 0)])


if __name__ == "__main__":
    unittest.main()
