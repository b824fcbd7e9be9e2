#!/usr/bin/env python3
"""Smoke test of the benchmark: python3 perfbench/test_smoke.py

Runs every workload on tiny inputs (--smoke) in both modes and checks that
the result line follows BENCHMARK.json: every metric present, with its unit,
and every digest agreeing. Also checks the digest logic of run.py directly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SPAN_NAMES = {"job", "setup", "data.gen", "apps.run", "ckpt.digest",
              "core.dispatch"}


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, result, listed):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        for m in listed:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_in_both_modes(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for workload in names:
            with self.subTest(workload=workload):
                env, result = bench(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for key in ("cpu_model", "nproc", "host_threads",
                            "simd_level", "numa", "compiler", "build_type",
                            "seed", "sizes"):
                    self.assertIn(key, env["env"])
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)

                env, result = bench(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                path = os.path.join(run.OUT_DIR,
                                    f"{workload}-seed7.wall.trace.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(SPAN_NAMES >= {e["name"] for e in events})
                self.assertIn("ckpt.digest", {e["name"] for e in events})


class DigestLogic(unittest.TestCase):
    @staticmethod
    def job(digest, threads=4, error="", virtual=1.5):
        return {"digest": digest, "threads": threads, "error": error,
                "virtual_s": virtual}

    def test_pinned_digest_must_match(self):
        jobs = [self.job("aa"), self.job("aa", threads=1), self.job("bb")]
        self.assertEqual(run.judge(jobs, "aa"), 1)
        self.assertEqual(run.judge(jobs, "cc"), 3)

    def test_unpinned_jobs_must_agree(self):
        jobs = [self.job("aa"), self.job("aa", threads=1)]
        self.assertEqual(run.judge(jobs, None), 0)
        jobs.append(self.job("bb"))
        self.assertEqual(run.judge(jobs, None), 1)

    def test_tie_goes_to_the_serial_job(self):
        jobs = [self.job("bb"), self.job("aa", threads=1)]
        self.assertEqual(run.judge(jobs, None), 1)
        self.assertTrue(jobs[0]["failed"])
        self.assertFalse(jobs[1]["failed"])

    def test_errors_and_virtual_time_count(self):
        jobs = [self.job("aa"), self.job("aa", threads=1),
                self.job("", error="boom"), self.job("aa", virtual=2.0)]
        self.assertEqual(run.judge(jobs, None), 2)

    def test_pins_cover_every_workload(self):
        self.assertEqual(set(run.PINNED_DIGESTS), set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
