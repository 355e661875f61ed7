#!/usr/bin/env python3
"""Tests of the benchmark's own output checks.

    python3 perfbench/test_perfbench.py

Each case corrupts one output on purpose (run.py --inject) and asserts that
the run is refused: `correct` false, at least one failed operation, exit
code 1. A clean serve_closed run must pass. Run from the repository root;
the whole file takes about two minutes.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, inject=None, seconds=2):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


class CorruptedOutputFailsTheRun(unittest.TestCase):
    def assert_refused(self, workload, inject):
        code, result = run(workload, inject)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_clean_run_passes(self):
        code, result = run("serve_closed")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ok_share"]["value"], 1.0)

    def test_flipped_batch_ranking_fails_train(self):
        self.assert_refused("train", "ranking")

    def test_corrupted_bundle_fails_train(self):
        self.assert_refused("train", "bundle")

    def test_flipped_wire_ranking_fails_serve(self):
        self.assert_refused("serve_open", "ranking")

    def test_lost_response_fails_reconciliation(self):
        self.assert_refused("serve_closed", "count")


if __name__ == "__main__":
    unittest.main()
