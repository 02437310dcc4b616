#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds pdtbench through run.py, then checks that a seed reproduces
identical inputs and identical exact counts, that every printed metric is
declared in BENCHMARK.json with its unit, that a seconds-long run of each
workload passes its output checks, and that corrupted references make
each workload fail. Takes about two minutes.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per-layer metrics that are exact counts: a seed must reproduce them.
EXACT = ("core.accesses", "core.pairs", "core.edges", "core.independent_frac",
         "core.batched_frac", "core.degraded_pairs", "core.memo_hit_ratio",
         "core.store_hit_ratio", "gen.repeat_frac")


def input_digest(workload, seed):
    """pdtbench's digest of a seed's inputs."""
    return subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--inputs-only"], cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        check=True, timeout=run.RUN_TIMEOUT_S).stdout


def invoke(workload, seed, seconds, trace, *extra):
    """Runs pdtbench; returns (exit status, parsed result or None)."""
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace, "--workdir",
         run.WORK_DIR] + list(extra),
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK_DIR, exist_ok=True)

    def test_seed_reproduces_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                digest = [input_digest(workload, s) for s in (11, 11, 12)]
                self.assertEqual(digest[0], digest[1])
                self.assertNotEqual(digest[0], digest[2])

    def test_seed_reproduces_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = invoke(workload, 5, 1, "1")[1]["metrics"]
                second = invoke(workload, 5, 1, "1")[1]["metrics"]
                for name in first:
                    if name in EXACT or name.startswith("core.tests."):
                        self.assertEqual(first[name], second[name], name)
                self.assertGreater(first["core.pairs"]["value"], 0)

    def test_smoke_runs_pass_and_declare_every_metric(self):
        for mode, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = run.declared(key)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=mode):
                    status, result = invoke(workload, 3, 2, mode)
                    self.assertEqual(status, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_corrupted_references_fail_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                status, result = invoke(workload, 4, 1, "0",
                                        "--sabotage-references")
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
