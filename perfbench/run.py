#!/usr/bin/env python3
"""Build and run the cellspot benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
the library and the benchmark (a RelWithDebInfo CMake build under
.bench_build/perfbench); later calls rebuild only what changed. The
benchmark's report goes to stdout and its last line is the result JSON,
whose metric names must match BENCHMARK.json (end_to_end with
--trace 0, per_layer with --trace 1). Traced runs also leave their span
file under .bench_build/perfbench-out/.

Exit status: 0 when every output check passed; non-zero, without a
result line, when the build, the run or the result's metric names fail;
non-zero after the result line (with "correct": false) when an output
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("cold_pipeline", "threshold_sweep", "snapshot_query", "stream_openloop")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def child_env():
    # Compiler and benchmark temporaries stay inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = TMP_DIR
    return env


def build():
    os.makedirs(TMP_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env()).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None, 1
    return out, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              env=child_env()).returncode

    os.makedirs(OUT_DIR, exist_ok=True)
    out, rc = run_binary([
        os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", OUT_DIR])
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: the benchmark printed no result line (exit %d)" % rc, file=sys.stderr)
        return rc or 1
    want = expected_metrics(args.trace == 1)
    if sorted(got) != sorted(want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: result metrics %s do not match BENCHMARK.json %s" % (got, want),
              file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
