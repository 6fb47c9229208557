#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of benchmark runs of the
same build, compared against the bounds in BENCHMARK.json.

    python3 perfbench/aa.py [--workloads paper_sweep,service_mix]
                            [--runs 10] [--seconds S] [--seed 100]
                            [--raw .bench_run/aa_raw.jsonl]

Run from the root of a checkout. Run i of every workload goes to set A
and set B in turn, alternating which set goes first, and every run
gets its own seed. For each workload and end-to-end metric the script
prints both sets' medians and quartiles, the spread (interquartile
range over the median) of each set, how much worse set B's median is
than set A's, and a verdict against the metric's bound: both spreads
and the median difference, in either direction, must stay within the
bound. Each run's raw record, written as one JSON line to --raw, also
holds the host's steal ticks (/proc/stat) over the run and the load
average before and after it, so a run from a slow phase of the host
can be told apart from a regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def steal_ticks():
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def load_average():
    with open("/proc/loadavg") as loadavg:
        return float(loadavg.read().split()[0])


def run_once(workload, seed, seconds):
    before = (steal_ticks(), load_average(), time.monotonic())
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    record = {
        "workload": workload, "seed": seed, "exit": done.returncode,
        "wall_s": time.monotonic() - before[2],
        "steal_ticks": steal_ticks() - before[0],
        "loadavg_before": before[1], "loadavg_after": load_average(),
        # The per-repetition timings of a sweep and the service's
        # set-up samples, to spot slow phases.
        "repetitions": [line for line in done.stderr.splitlines()
                        if "repetition" in line or "set-up sample" in line],
    }
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=100,
                        help="first seed; each run takes the next one")
    parser.add_argument("--raw", default=os.path.join(
        ROOT, ".bench_run", "aa_raw.jsonl"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    os.makedirs(os.path.dirname(os.path.abspath(args.raw)), exist_ok=True)

    sets = {(w, s): [] for w in workloads for s in "AB"}
    seed = args.seed
    failures = 0
    with open(args.raw, "w") as raw:
        for i in range(args.runs):
            for workload in workloads:
                for label in ("AB" if i % 2 == 0 else "BA"):
                    record = run_once(workload, seed, args.seconds)
                    record["set"] = label
                    seed += 1
                    raw.write(json.dumps(record) + "\n")
                    raw.flush()
                    result = record.get("result")
                    if not result or not result["correct"]:
                        failures += 1
                        print(f"run failed: {json.dumps(record)}",
                              file=sys.stderr)
                        continue
                    sets[(workload, label)].append(result["metrics"])
                    print(f"{workload} set {label} seed {record['seed']}: "
                          f"{record['wall_s']:.1f} s wall, steal "
                          f"{record['steal_ticks']}, load "
                          f"{record['loadavg_before']:.2f}",
                          file=sys.stderr, flush=True)

    verdict_ok = failures == 0
    header = ("workload", "metric", "median A", "median B", "q1 A", "q3 A",
              "q1 B", "q3 B", "spread A", "spread B", "B worse", "bound",
              "verdict")
    print("\t".join(header))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [m[name]["value"] for m in sets[(workload, s)]]
                      for s in "AB"}
            if not values["A"] or not values["B"]:
                verdict_ok = False
                print(f"{workload}\t{name}\tno data")
                continue
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            spread = {s: (q[2] - q[0]) / q[1]
                      for s, q in (("A", qa), ("B", qb))}
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            bound = metric["bound"]
            ok = abs(worse) <= bound and max(spread.values()) <= bound
            verdict_ok = verdict_ok and ok
            print("\t".join([workload, name] + [f"{v:.6g}" for v in (
                qa[1], qb[1], qa[0], qa[2], qb[0], qb[2])] + [
                f"{spread['A']:.4f}", f"{spread['B']:.4f}", f"{worse:+.4f}",
                f"{bound}", "ok" if ok else "FAIL"]))
    print(f"overall: {'ok' if verdict_ok else 'FAIL'} "
          f"({failures} failed runs)")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
