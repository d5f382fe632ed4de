#!/usr/bin/env python3
"""Build and run the KKM pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (build tree in .bench_build,
no shared cache), runs it once in a single process, and passes its
standard output through.  The last line is the benchmark's JSON result;
it is printed only if it names exactly the metrics BENCHMARK.json
declares for this mode (end_to_end for --trace 0, per_layer for
--trace 1).  Outputs of traced runs go to .bench_out.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (%s is missing)" % needed)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/perfbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", OUT_DIR],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no JSON result (exit code %d)" % run.returncode)
    if sorted(result["metrics"]) != sorted(declared) and result["correct"]:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ set(declared)))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
