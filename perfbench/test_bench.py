#!/usr/bin/env python3
"""Smoke tests for the benchmark itself.

    python3 perfbench/test_bench.py

Run from the root of a checkout.  Every workload runs in --smoke mode (a
fraction of a second each), once untraced and once traced.  The tests check
that every end-to-end and per-layer metric is emitted with its unit, that
the correctness gate ran and passed, that a workload whose jobs level
exceeds the host's cores is refused, and that the benchmark fails without
printing a result when the repository's sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# The layer each workload exercises: its traced run must report it non-zero.
ACTIVE = {
    "lemma2-race3": ["explore.configs", "valency.busy_s", "pool.batches", "gc.minor_words"],
    "lemma3-race3": ["explore.configs", "lemma3.root_s", "lemma3.pairs_s", "lemma3.pairs"],
    "service-classic-open": ["sim.events", "sim.msgs_per_decision", "service.merge_s",
                             "service.peak_inflight", "pool.batches",
                             "service.learns_per_decision"],
}

JOBS = {"lemma2-race3": 2, "lemma3-race3": 1, "service-classic-open": 1}


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def cores():
    return len(os.sched_getaffinity(0))


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        if JOBS[workload] > cores():
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("refusing to oversubscribe", proc.stderr)
            return None
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertIn("# gate: passed", lines)
        self.assertTrue(any(l.startswith("# manifest: ") for l in lines))
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units("per_layer" if trace else "end_to_end"))
        return result["metrics"], lines

    def test_end_to_end(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(JOBS))
        for workload in JOBS:
            with self.subTest(workload=workload):
                got = self.check_run(workload, 0)
                if got:
                    for name, m in got[0].items():
                        self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload in JOBS:
            with self.subTest(workload=workload):
                got = self.check_run(workload, 1)
                if got:
                    metrics, lines = got
                    for name in ACTIVE[workload]:
                        self.assertGreater(metrics[name]["value"], 0, name)
                    self.assertTrue(any("counters repeating exactly" in l for l in lines))
                    spans = os.path.join(".bench_build", "spans", workload + ".jsonl")
                    with open(spans) as f:
                        records = [json.loads(l) for l in f]
                    self.assertTrue(any(r["name"] == "bench" and r["parent"] == 0
                                        for r in records))

    def test_fails_without_sources(self):
        bare = os.path.join(".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("lemma3-race3", 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
