#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root (builds the benchmark on first use; the whole
suite takes a few minutes on one core):

    python3 perfbench/test_bench.py
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("evsel_scan", "evsel_sort_sweep", "memhist_remote", "fleet_ingest")
SECONDS = 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "meta.json")) as f:
    META = json.load(f)

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("model.cycles", "model.instructions", "model.mem_ops", "model.remote_dram_loads",
                "model.atomic_ops", "evsel.runs", "trace.slices", "perf.samples",
                "fleet.frames", "fleet.delivered", "fleet.duplicates", "fleet.damage")


def run(workload, seed, trace, *extra):
    """Runs the benchmark; returns (result line, every stdout line)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace), *extra]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    lines = out.stdout.rstrip("\n").splitlines()
    return json.loads(lines[-1]), lines


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, lines = run(workload, META["seeds"]["default"], trace)
                    for metric in listed:
                        printed = result["metrics"][metric["name"]]
                        self.assertEqual(printed["unit"], metric["unit"])
                        self.assertIsInstance(printed["value"], (int, float))
                        # The human-readable notes name it with its unit too.
                        self.assertTrue(any(line.split()[:1] == [metric["name"]] and
                                            line.split()[-1] == metric["unit"] for line in lines))
                    if trace == 0:
                        for metric in listed:
                            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_checks_pass_on_default_and_held_out_seeds(self):
        for seed in (META["seeds"]["default"], META["seeds"]["held_out"]):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, seed=seed):
                    result, _ = run(workload, seed, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_counts_repeat_exactly_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = run(workload, META["seeds"]["held_out"], 1)
                second, _ = run(workload, META["seeds"]["held_out"], 1)
                self.assertTrue(first["correct"] and second["correct"])
                for name in EXACT_COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_busy_wait_lands_in_one_layer(self):
        # perf.arm is called once per node per iteration and its own work is
        # microseconds, so an injected 2 s busy-wait per call must show up
        # in the perf layer's self time and in no other layer's. The wait is
        # large against host noise in the other layers' self times (the
        # trace layer's is about 4 s per iteration, and can differ by a
        # quarter between two runs).
        inject_ms = 2000.0
        base, _ = run("memhist_remote", 7, 1)
        busy, _ = run("memhist_remote", 7, 1, "--inject-busy", f"perf.arm={inject_ms * 1e3}")
        calls = 4  # nodes of the preset, one armed chase each per iteration
        expected = calls * inject_ms
        layers = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("self.")]
        delta = {name: busy["metrics"][name]["value"] - base["metrics"][name]["value"]
                 for name in layers}
        self.assertAlmostEqual(delta["self.perf_ms"], expected, delta=0.1 * expected)
        for name in layers:
            if name != "self.perf_ms":
                self.assertLess(abs(delta[name]), 0.5 * expected, name)

    def test_meta_documents_every_workload_and_layer_metric(self):
        for workload in SPEC["workloads"]:
            why = META["workloads"][workload["name"]]["why"]
            # One sentence: a full stop only at the end ("Fig. 8" is no stop).
            self.assertTrue(why.endswith(".") and not re.search(r"\.\s+[A-Z]", why), why)
        names = {w["name"] for w in SPEC["workloads"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for metric in SPEC["per_layer"]:
            entry = META["per_layer"][metric["name"]]
            self.assertTrue(entry["moves"])
            self.assertTrue(entry["on"])
            self.assertTrue(set(entry["measured_on"]) <= names)
            self.assertTrue(entry["moves"].startswith("none") or
                            any(m in entry["moves"] for m in end_to_end), metric["name"])
        for metric in end_to_end:
            self.assertIn(metric, META["end_to_end"])
        for statement in ("cache_state", "model_validity"):
            self.assertTrue(META["statements"][statement])


if __name__ == "__main__":
    unittest.main()
