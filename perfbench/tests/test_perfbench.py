#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a source checkout (the first test builds the
benchmark). Each deliberate fault must be caught: a non-zero exit, a
result with "correct": false and failed > 0. A clean run must exit 0, and
its prefix digest must repeat across runs and between the untraced and
traced binaries.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace=0, inject="none", seed=7, seconds=0.5):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--inject", inject],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = None
    for line in lines:
        match = re.match(r"prefix digest ([0-9a-f]+)", line)
        if match:
            digest = match.group(1)
    return done.returncode, result, digest, done.stdout


class CaughtFaults(unittest.TestCase):
    def assert_caught(self, code, result, stdout):
        self.assertNotEqual(code, 0, stdout)
        self.assertIsNotNone(result, stdout)
        self.assertFalse(result["correct"], stdout)
        self.assertGreater(result["failed"], 0, stdout)
        self.assertGreater(result["failed"] / result["attempted"], 0.0)

    def test_corrupted_ranking_fails_the_run(self):
        code, result, _, stdout = run("serve_cold", inject="corrupt_ranking")
        self.assert_caught(code, result, stdout)
        self.assertIn("not a permutation", stdout)

    def test_warm_hit_differing_from_first_computation_fails(self):
        code, result, _, stdout = run("serve_warm", inject="warm_mismatch")
        self.assert_caught(code, result, stdout)
        self.assertIn("differs from its first computation", stdout)

    def test_replay_with_wrong_seed_is_unfaithful(self):
        # rank_large: at n <= 200 annealing reaches the same ranking under
        # any seed, so only a large job can show a wrong seed.
        code, result, _, stdout = run("rank_large", trace=1,
                                      inject="replay_wrong_seed")
        self.assert_caught(code, result, stdout)
        self.assertIn("replay differs from the end-to-end answer", stdout)


class CleanRuns(unittest.TestCase):
    def test_digest_repeats_across_runs_and_trace_modes(self):
        code_a, result_a, digest_a, out_a = run("serve_cold")
        code_b, _, digest_b, _ = run("serve_cold")
        code_t, result_t, digest_t, out_t = run("serve_cold", trace=1)
        self.assertEqual(code_a, 0, out_a)
        self.assertEqual(code_b, 0)
        self.assertEqual(code_t, 0, out_t)
        self.assertTrue(result_a["correct"])
        self.assertTrue(result_t["correct"])
        self.assertIsNotNone(digest_a)
        self.assertEqual(digest_a, digest_b)
        self.assertEqual(digest_a, digest_t)

    def test_other_seed_changes_the_inputs(self):
        _, _, digest_a, _ = run("serve_cold", seed=7)
        _, _, digest_b, _ = run("serve_cold", seed=8)
        self.assertNotEqual(digest_a, digest_b)


if __name__ == "__main__":
    unittest.main(verbosity=2)
