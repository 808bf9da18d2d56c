#!/usr/bin/env python3
"""Build and run the SDX controller benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload policy_edits --seed 1 --seconds 60 --trace 0

The first call configures and builds perfbench/ (the controller libraries
from src/ plus the benchmark binary) with CMake in Release mode; later calls
only let CMake confirm the build is current. The build tree lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout. The benchmark binary runs the workload in its own process and its
standard output is relayed; the last line is the result JSON object.
--seconds is accepted and not used: every workload does a fixed amount of
work, so a run takes as long as that work takes.
The result reports the metrics BENCHMARK.json lists: its end_to_end
metrics for --trace 0, its per_layer metrics for --trace 1; any other
metric the binary measured is printed on an "unbounded:" line before it. Traced runs
also leave their spans in <build tree>/spans/<workload>-seed<seed>.jsonl.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("policy_edits", "rib_scale")
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(tree):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "sdx_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only the run.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    binary = os.path.join(tree, "sdx_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int)  # accepted, not used
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    tree = build_dir()
    binary = build(tree)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(tree, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print("perfbench: run failed with exit code %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            listed = [m["name"] for m in
                      json.load(f)["per_layer" if args.trace else "end_to_end"]]
        measured = result["metrics"]
        result["metrics"] = {name: measured[name] for name in listed}
    except (OSError, ValueError, KeyError) as e:
        print("perfbench: malformed result (%s)" % e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    # Measured but not gated (see README, "Dropped as unsteady").
    unlisted = ["%s=%.6g %s" % (name, m["value"], m["unit"])
                for name, m in measured.items() if name not in listed]
    if unlisted:
        print("unbounded: " + " ".join(unlisted))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
