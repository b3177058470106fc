#!/usr/bin/env python3
"""Unit tests for the benchmark's own arithmetic and metric tables.

Run from the repository root:  python3 perfbench/test_run.py
"""

import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$", re.ASCII)


def valid_name(name):
    """True for a metric name the benchmark contract accepts."""
    return bool(NAME_RE.match(name))


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0]), 3.0)
        self.assertEqual(run.median([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])

    def test_requests_per_second_excludes_setup(self):
        self.assertEqual(run.per_second(1_000_000, 4.25, 0.25), 250_000.0)
        with self.assertRaises(ValueError):
            run.per_second(10, 0.5, 0.5)
        with self.assertRaises(ValueError):
            run.per_second(10, 0.4, 0.5)

    def test_failed_frac(self):
        self.assertEqual(run.failed_frac(20, 0), 0.0)
        self.assertEqual(run.failed_frac(20, 1), 0.05)
        self.assertEqual(run.failed_frac(4, 4), 1.0)
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                run.failed_frac(attempted, failed)

    def test_metric_name_charset(self):
        for ok in ("req_per_s", "simkit.push_ns", "experiments.study_s.raid", "9lives", "a-b",
                   "x" * 64):
            self.assertTrue(valid_name(ok), ok)
        for bad in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65):
            self.assertFalse(valid_name(bad), bad)


class Checks(unittest.TestCase):
    def test_accounting(self):
        c = run.Checks()
        self.assertTrue(c.check(True, "fine"))
        self.assertFalse(c.check(False, "broken (expected in this test)"))
        c.check(True, "fine")
        self.assertEqual((c.attempted, c.failed), (3, 1))
        self.assertAlmostEqual(run.failed_frac(c.attempted, c.failed), 1 / 3)


class Digests(unittest.TestCase):
    def test_explore_digest_ignores_the_build_fingerprint(self):
        body = '{{\n  "schema": "s",\n  "code_version": "{}",\n  "points": []\n}}\n'
        digests = []
        for version in ("aaaa", "bbbb"):
            with tempfile.TemporaryDirectory(dir=HERE) as d:
                with open(os.path.join(d, "explore.json"), "w") as f:
                    f.write(body.format(version))
                digests.append(run.explore_json_digest(d))
        self.assertEqual(digests[0], digests[1])

    def test_pinned_digests_cover_every_workload(self):
        pinned = run.pinned_digests()
        self.assertEqual(set(pinned), set(run.WORKLOADS))
        for d in pinned.values():
            self.assertRegex(d, r"^[0-9a-f]{64}$")


class Tables(unittest.TestCase):
    """run.py, the ledger and BENCHMARK.json name the same metrics."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_names_are_valid(self):
        for kind in ("end_to_end", "per_layer"):
            for name in run.metric_units(kind):
                self.assertTrue(valid_name(name), name)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_ledger_reports_only_declared_metrics_and_covers_them(self):
        src = ""
        for name in ("main.rs", "micro.rs", "replica.rs", "timing.rs"):
            with open(os.path.join(HERE, "ledger", "src", name)) as f:
                src += f.read().split("#[cfg(test)]")[0]  # not the unit tests
        reported = set(re.findall(r'\.set\(\s*"([^"]+)"', src))
        # Names set in a loop over `repro_all_pass`'s timings.
        reported |= set(re.findall(r'timed\(\s*"([^"]+)"', src))
        self.assertEqual(reported, set(run.metric_units("per_layer")))

    def test_ledger_run_lengths_match_the_commands(self):
        with open(os.path.join(HERE, "ledger", "src", "main.rs")) as f:
            src = f.read()
        for name in ("SCALE_REQUESTS", "ALL_REQUESTS", "EXPLORE_REQUESTS"):
            m = re.search(rf"const {name}: usize = ([0-9_]+);", src)
            self.assertIsNotNone(m, name)
            self.assertEqual(int(m.group(1).replace("_", "")), getattr(run, name), name)


if __name__ == "__main__":
    unittest.main()
