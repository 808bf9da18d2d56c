#!/usr/bin/env python3
"""Steadiness check for the SDX controller benchmark.

Runs two interleaved sets of runs of each workload (set A and set B, each
run with its own seed, A and B alternating), then prints, per end-to-end
metric: set A's median and quartiles, the spread of each set (distance
between the quartiles as a share of the median), and the ratio of the two
medians, each against the metric's bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--workloads policy_edits]
        [--out FILE]

Set A uses seeds 1..N and set B seeds 1001..1000+N. --workloads limits the
check to a comma-separated list of workloads (all by default). --out
appends every run's result line (one JSON object per line) to FILE.

Exits 1 when a run reports a failed operation, when a count metric differs
between two runs of a workload, or when a spread or the median ratio
exceeds the metric's bound. A spread above a third of the bound is flagged
"above bound/3".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    steady = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = (1 if name == "A" else 1001) + i
                result = run_once(workload, seed, bench["run_seconds"])
                sets[name].append(result)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": workload,
                                            "set": name, "seed": seed,
                                            "result": result}) + "\n")
        print("== %s (%d runs per set)" % (workload, args.runs))
        for name, results in sets.items():
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            bad = sum(1 for r in results if not r["correct"])
            print("  set %s: %d/%d operations failed, %d run(s) not correct"
                  % (name, failed, attempted, bad))
            if failed or bad:
                steady = False
        print("  %-20s %12s %12s %12s %8s %8s %8s %8s %6s" % (
            "metric", "A median", "A q1", "A q3", "A iqr%", "B iqr%",
            "all iqr%", "B/A", "bound"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa1, ma, qa3, spread_a = summary(a)
            _, mb, _, spread_b = summary(b)
            spread_all = summary(a + b)[3]
            ratio = mb / ma if ma else float("inf")
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max(spread_a, spread_b)
            flag = ""
            if metric["unit"] == "count" and len(set(a + b)) != 1:
                flag = "  NOT EXACT"
                steady = False
            elif spread > bound or worse > bound:
                flag = "  OVER BOUND"
                steady = False
            elif spread > bound / 3:
                flag = "  above bound/3"
            print("  %-20s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% "
                  "%8.4f %6.2f%s" % (
                      name, ma, qa1, qa3, 100 * spread_a, 100 * spread_b,
                      100 * spread_all, ratio, bound, flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
