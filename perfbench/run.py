#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench from this checkout, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steps, all inside the checkout (build tree and scratch files under
.bench_build/):
  1. configure and build perfbench/ (Release) against the checkout's src/;
  2. one ValidatingPolicy pass of the workload on the seed, in its own
     process; it prints the result fingerprint;
  3. the measuring process, which repeats the workload for --seconds and
     must reproduce that fingerprint bit for bit in every repetition.

The last line of standard output is the result JSON. Any build failure,
invariant violation, fingerprint mismatch or malformed result exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
TMP_DIR = os.path.join(WORK_DIR, "tmp")
TRACE_DIR = os.path.join(WORK_DIR, "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_JOBS = "2"  # the machine is shared


class BenchError(Exception):
    pass


def run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build():
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run(configure, timeout=120)
    run(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS], timeout=600)


def reported_metric_names(trace):
    """BENCHMARK.json decides which of the printed metrics the result carries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    trace = args.trace == "1"
    names = reported_metric_names(trace)

    build()
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", TMP_DIR]

    out = run([BINARY, "--mode", "validate"] + common, timeout=60)
    sys.stdout.write(out)
    fingerprints = [l.split()[1] for l in out.splitlines() if l.startswith("fingerprint ")]
    if len(fingerprints) != 1:
        raise BenchError("validation pass printed no fingerprint")

    out = run([BINARY, "--mode", "measure", "--seconds", str(args.seconds), "--trace", args.trace,
               "--expect", fingerprints[0], "--trace-dir", TRACE_DIR] + common,
              timeout=2 * args.seconds + 60)
    lines = out.rstrip("\n").splitlines()
    if not lines:
        raise BenchError("measuring process printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        raise BenchError("malformed or incorrect result: " + lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)
