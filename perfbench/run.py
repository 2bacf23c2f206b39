#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lemma2-race3 --seed 1 --seconds 20 --trace 0

The script builds perfbench/bench.exe with dune into .bench_build, runs it
for one workload, relays its report lines, and prints one JSON result as the
last line of standard output:

    {"correct": true, "attempted": 32, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists;
with --trace 1 they are its per-layer metrics, and the traced run's spans
are written to .bench_build/spans/<workload>.jsonl.  --smoke shrinks every
workload to a fraction of a second (perfbench/test_bench.py uses it).

Exit codes: 0 the gate passed; 1 a correctness-gate mismatch (the result is
printed with "correct": false) or a failed build; 2 a usage error or a
workload whose jobs level exceeds the host's cores (no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
# A run is kept under 180 s; the first build in a fresh checkout may take
# longer and gets its own allowance.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(1, f"cannot read BENCHMARK.json: {e}")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail(1, "dune is not on PATH")


def build():
    if not os.path.exists("dune-project"):
        fail(1, "no dune-project here: run from the root of a checkout of the repository")
    # No shared cache: the build reads and writes inside the checkout only.
    cmd = dune_command() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                            "--cache=disabled", TARGET]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(1, "build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def git_rev():
    # The checkout need not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_result(line, spec, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
                         f"or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} has no numeric value")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload to a fraction of a second")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload!r}")
    t0 = time.monotonic()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cores", str(nproc()), "--git-rev", git_rev()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}.jsonl")]
    timeout = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - t0))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(1, f"run exceeded {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines))
        fail(proc.returncode or 1, f"bench.exe exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], spec, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail(1, f"malformed result line: {e}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
