#!/usr/bin/env python3
"""Builds and runs the npat repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload evsel_scan --seed 1 --seconds 20 --trace 0

The benchmark binary is compiled from ../src and this directory into
$CARGO_TARGET_DIR (default .bench_build) on first use. Its notes go to
stdout, and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.
BENCHMARK.json is the one list of metric names and units: this script
fills in 0 for a per-layer metric of a layer the workload never enters,
and refuses a result with a missing end-to-end metric, an unlisted metric
or a different unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("evsel_scan", "evsel_sort_sweep", "memhist_remote", "fleet_ingest")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no npat sources next to perfbench/ (expected ../src/CMakeLists.txt)")
    binary = os.path.join(build_dir, "npat_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "npat_perfbench", "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-busy", default="",
                        help="test hook SPAN=MICROSECONDS, see test_bench.py")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    if args.inject_busy:
        command += ["--inject-busy", args.inject_busy]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail(f"benchmark binary exited with {result.returncode}")

    report = json.loads(lines[-1])
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    expected = expected_metrics(args.trace)
    printed = {name: m["unit"] for name, m in report["metrics"].items()}
    wrong = sorted(set(printed.items()) - set(expected.items()))
    missing = sorted(set(expected) - set(printed))
    if wrong or (missing and not args.trace):
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unlisted or wrong unit {wrong}")
    print("\n".join(lines[:-1]))
    for name in missing:
        report["metrics"][name] = {"value": 0, "unit": expected[name]}
        print(f"{name:<32} 0 {expected[name]}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
