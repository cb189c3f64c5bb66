#!/usr/bin/env python3
"""The repo benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload metro|town|registry_storm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the simulator
libraries and the timing binary (perfbench/src) into .bench_build/
with CMake; later calls reuse that build. The binary measures for S seconds
and checks its outputs; this script turns its raw samples into metrics,
prints a readable summary, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). Exits 1 when a correctness check failed and
2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import stats

WORKLOADS = ("metro", "town", "registry_storm")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dlte_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "dlte_perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("dlte_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("dlte_perfbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def report_end_to_end(raw):
    """Times are calibrated to the reference host speed (calibrate.h);
    the raw wall-clock median and kernel median are printed beside them."""
    reference = raw["reference_calibration_s"]
    metrics = {}
    print("%-14s %-5s %10s %10s %10s %16s %4s %10s %10s" %
          ("metric", "unit", "median", "q1", "q3", "tail", "n", "raw_med",
           "kernel_s"))
    for name, unit in stats.END_TO_END:
        if name == "peak_rss_mb":
            metrics[name] = (raw["peak_rss_mb"], unit)
            print("%-14s %-5s %10s" % (name, unit, fmt(raw["peak_rss_mb"])))
            continue
        kernel = raw["calibration_s"][name]
        s = stats.summarize(
            stats.calibrated(raw["samples"][name], kernel, reference))
        tail = ("p%d=%s" % (s["tail"][0], fmt(s["tail"][1]))
                if s["tail"] else "n<11")
        print("%-14s %-5s %10s %10s %10s %16s %4d %10s %10s" %
              (name, unit, fmt(s["median"]), fmt(s["q1"]), fmt(s["q3"]),
               tail, s["n"], fmt(stats.median(raw["samples"][name])),
               fmt(stats.median(kernel))))
        metrics[name] = (s["median"], unit)
    return metrics


def report_layers(raw):
    values = stats.layer_metrics(raw)
    metrics = {name: (values[name], unit) for name, unit in stats.PER_LAYER}
    for name, unit in stats.PER_LAYER:
        line = "%-32s %-6s %s" % (name, unit, fmt(values[name]))
        span, scale = stats.SPAN_TIMINGS.get(name, (None, 1.0))
        samples = stats.per_call_samples(raw["spans"], span) if span else []
        if samples:
            s = stats.summarize(samples)
            tail = ("p%d=%s" % (s["tail"][0], fmt(s["tail"][1] * scale))
                    if s["tail"] else "n<11")
            line += "  (n=%d, %s)" % (s["n"], tail)
        print(line)
    unlisted = sorted(k for k in raw["counters"]
                      if k.startswith("sim.events.") and
                      k[len("sim.events."):] not in stats.SIM_LABELS)
    for name in unlisted:
        print("%-32s %-6s %s  (label not in the metric list)" %
              (name, "count", fmt(raw["counters"][name])))
    counters = raw["counters"]
    if "registry.replay_rebuilds_per_s" in counters:
        print("zone snapshot rebuilds per simulated s: storm %s, replay %s" %
              (fmt(counters.get("registry.storm_rebuilds_per_s", 0)),
               fmt(counters["registry.replay_rebuilds_per_s"])))
    print("\nself time by span (ms):")
    by_name = stats.self_time_by_name(raw["spans"])
    for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print("  %-30s %12.3f" % (name, ns / 1e6))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    raw = run_binary(args)
    print("workload=%s seed=%d trace=%d" % (args.workload, args.seed,
                                             args.trace))
    print("digest %s seed=%d %s" % (args.workload, args.seed, raw["digest"]))
    if args.trace:
        metrics = report_layers(raw)
        expected = stats.PER_LAYER
    else:
        metrics = report_end_to_end(raw)
        expected = stats.END_TO_END
    attempted, failed = raw["attempted"], raw["failed"]
    print("checks: %d attempted, %d failed, failed_share=%s" %
          (attempted, failed, fmt(failed / attempted)))
    for why in raw["failures"]:
        print("  FAILED: " + why)
    result = stats.result_line(failed == 0, attempted, failed, metrics)
    problems = stats.validate_result(result, expected)
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
