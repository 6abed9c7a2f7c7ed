#!/usr/bin/env python3
"""Self-test of compare.py's verdicts: python3 perfbench/compare_test.py"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import verdict  # noqa: E402

BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class VerdictTest(unittest.TestCase):
    def test_same_code_within(self):
        self.assertEqual(verdict(BASE, [x + 1 for x in BASE], "lower", 0.1), "within")

    def test_worse_beyond_bound(self):
        self.assertEqual(verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1), "worse")
        self.assertEqual(verdict(BASE, [x * 0.8 for x in BASE], "higher", 0.1), "worse")

    def test_better_beyond_bound(self):
        self.assertEqual(verdict(BASE, [x * 0.8 for x in BASE], "lower", 0.1), "better")

    def test_wide_spread_is_unresolved(self):
        wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(verdict(BASE, wide, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        wide_low = [10, 50, 20, 40, 30, 15, 45, 25, 35, 30]
        self.assertEqual(verdict(BASE, wide_low, "lower", 0.1), "better")


if __name__ == "__main__":
    unittest.main()
