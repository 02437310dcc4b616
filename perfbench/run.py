#!/usr/bin/env python3
"""Runs one workload of the pdt end-to-end benchmark.

    python3 perfbench/run.py --workload bulk_build|serve_mix|store_rebuild \
        --seed N --seconds S --trace 0|1

Builds the benchmark program pdtbench (perfbench/CMakeLists.txt, which
compiles the analyzer from ../src) into .bench_build/perfbench on first
use, runs the workload in its own process, and relays its result: the
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) declared in BENCHMARK.json. Build logs and
diagnostics go to stderr. The exit status is pdtbench's: 0 when every
output check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "pdtbench")
WORKLOADS = ("bulk_build", "serve_mix", "store_rebuild")
# A run must finish well inside the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds pdtbench; no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no analyzer sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                    # Configured for another checkout: start over.
                    shutil.rmtree(os.path.join(BUILD_DIR, "CMakeFiles"),
                                  ignore_errors=True)
                    os.remove(cache)
        steps = []
        if not os.path.isfile(cache):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "pdtbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def declared(mode_key):
    """The metrics BENCHMARK.json declares for one mode, name -> unit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[mode_key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", WORK_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        fail("%s exited with status %d and no result"
             % (args.workload, done.returncode))
    result = json.loads(lines[-1])

    want = declared("per_layer" if args.trace == "1" else "end_to_end")
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail("printed metrics do not match BENCHMARK.json: missing %s, "
                 "undeclared or wrong unit %s"
                 % (sorted(set(want) - set(got)),
                    sorted(k for k in got if want.get(k) != got[k])))
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
