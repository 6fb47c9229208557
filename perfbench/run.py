#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_sweep|tagged_shared|service_mix
                             --seed N [--seconds S] --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the bpsim
libraries plus the bpsim_perfbench binary) into .bench_build/, runs
one workload for S seconds (default: run_seconds of BENCHMARK.json)
with inputs made from seed N, checks every output, and prints as its
last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json;
with --trace 1 they are its per_layer ones, from a separate traced
run. The binary reports values only; their units come from
BENCHMARK.json. Progress and build output go to stderr. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN = ".bench_run"  # scratch files, relative to ROOT
WORKLOADS = ("paper_sweep", "tagged_shared", "service_mix")
# A run (after the build) must end within 180 s; children share this.
RUN_BUDGET_S = 170
deadline = None


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure and build bpsim_perfbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=900)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(command)}")
    return os.path.join(BUILD, "bpsim_perfbench")


def json_lines(text):
    """Every JSON object line of a child's stdout, in order."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


def time_left():
    return max(1.0, deadline - time.monotonic())


def run_child(args):
    # In a process group of its own, so that a child overrunning the
    # run's budget is killed together with any daemon it started.
    child = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=time_left())
    except subprocess.TimeoutExpired:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise BenchError(f"{args[1]} overran the run's time budget")
    if child.returncode != 0:
        raise BenchError(f"{args[1]} exited with {child.returncode}")
    return json_lines(out)


def last_report(lines, mode):
    if not lines or "values" not in lines[-1]:
        raise BenchError(f"{mode} printed no report")
    return lines[-1]


def fresh_dir(name):
    path = os.path.join(RUN, name)
    shutil.rmtree(os.path.join(ROOT, path), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, path))
    return path


def run_sweep(binary, workload, seed, seconds, trace):
    work = fresh_dir(workload)
    common = ["--workload", workload, "--seed", str(seed), "--dir", work]
    # The untimed step that fills tagged_shared's artifact cache; a
    # no-op for workloads without one.
    run_child([binary, "warm"] + common)
    return last_report(run_child(
        [binary, "sweep"] + common +
        ["--seconds", str(seconds), "--trace", str(trace)]), "sweep")


def stop(daemon):
    """Drain the daemon (SIGTERM) and return its JSON lines."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        out, _ = daemon.communicate(timeout=time_left())
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()
        raise BenchError("daemon did not drain")
    if daemon.returncode != 0:
        raise BenchError(f"daemon exited with {daemon.returncode}")
    return json_lines(out)


def run_service(binary, seed, seconds, trace):
    """Start the daemon, drive it with the load generator (which also
    times starts of daemons of its own for setup_s) and drain it."""
    work = fresh_dir("service_mix")
    socket = os.path.join(work, "daemon.sock")
    daemon = subprocess.Popen(
        [binary, "serve", "--socket", socket,
         "--state-dir", os.path.join(work, "state")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        report = last_report(run_child(
            [binary, "load", "--socket", socket, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--dir", work]), "load")
    finally:
        daemon_lines = stop(daemon)
    if not trace:
        values = report["values"]
        log("service_mix: %d requests, %.2f requests/s, latency p50 %.2f "
            "ms, p95 %.2f ms" % (values["requests"], values["requests_per_s"],
                                  values["latency_p50_ms"],
                                  values["latency_p95_ms"]))
        values["peak_rss_mb"] = next(l["peak_rss_mb"] for l in daemon_lines
                                     if "peak_rss_mb" in l)
    return report


def with_units(values, metrics, trace):
    """Every metric of `metrics` (a BENCHMARK.json list) with its value
    from `values` and its unit. A traced run reports 0 for a layer the
    workload does not run; an untraced run must report every metric."""
    names = {metric["name"] for metric in metrics}
    if trace:
        undefined = sorted(set(values) - names)
        if undefined:
            raise BenchError(f"undefined per-layer metrics: {undefined}")
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name not in values and not trace:
            raise BenchError(f"no value for {name}")
        out[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    global deadline
    # Compilers and children put temporary files under the checkout too.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    try:
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.workload == "service_mix":
            report = run_service(binary, args.seed, args.seconds,
                                 args.trace)
        else:
            report = run_sweep(binary, args.workload, args.seed,
                               args.seconds, args.trace)
        report["metrics"] = with_units(
            report["values"],
            spec["per_layer" if args.trace else "end_to_end"], args.trace)
    except (BenchError, subprocess.SubprocessError, OSError,
            StopIteration, KeyError, ValueError) as failure:
        log(f"error: {failure}")
        return 1
    for name, metric in report["metrics"].items():
        if metric["value"] or not args.trace:
            log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
