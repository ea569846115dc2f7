#!/usr/bin/env python3
"""Build and run the slipstream performance benchmark.

    python3 perfbench/run.py --workload cmp_ir --seed 1 --seconds 20 --trace 0

It configures and builds perfbench/ (the simulator library from src/
plus the slipbench program) under .bench_build/, then runs one workload
and passes slipbench's output through: human-readable lines, then one
JSON object as the last line.
`--workload all` runs the four workloads one after another and ends
with one JSON object whose metric names carry the workload as prefix.

The exit code is 0 only when the build succeeded and every check in
the run passed. SLIPSTREAM_* variables are removed from the
environment of the run; slipbench pins every setting itself.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["cmp_ir", "ss_64x4", "campaign", "serve_warm"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run_quiet(cmd, timeout):
    """Run `cmd`; on failure echo its output to stderr. True on success."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        print("run.py: failed: " + " ".join(cmd), file=sys.stderr)
        return False
    return True


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "slipbench", "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(BUILD_DIR, "slipbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Run slipbench once. Returns (exit code, stdout text)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SLIPSTREAM_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(".bench_build", "run")]
    if trace:
        cmd += ["--spans", os.path.join(".bench_build", "spans",
                                        workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in names:
        code, out = run_workload(binary, name, args.seed, args.seconds,
                                 args.trace)
        result = last_json(out)
        if result is None:
            sys.stdout.write(out)
            print("run.py: %s printed no result" % name, file=sys.stderr)
            return 1
        if len(names) == 1:
            sys.stdout.write(out)
            sys.stdout.flush()
            return code
        # All workloads: keep each one's report, prefix its metrics.
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
        status = status or code
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
