#!/usr/bin/env python3
"""Tests of the host-cost benchmark as its users run it.

    python3 hostbench/test_hostbench.py        (about three minutes)

Builds and runs the C++ self-test (engine agreement, decode vs the serial
oracle, metric tables, order statistics, self-time attribution), checks
BENCHMARK.json against the benchmark contract, runs every workload through
run.py with two seeds and with tracing, and checks that run.py refuses to
run without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the entry point under test)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, trace, cwd=ROOT):
    """Runs run.py; returns (returncode, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "hostbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def note(lines, prefix):
    for line in lines:
        if line.startswith("# " + prefix):
            return line
    return None


class SelfTest(unittest.TestCase):
    def test_cpp_selftest_passes(self):
        build = run.build(["host_bench_selftest"])
        proc = subprocess.run([os.path.join(build, "host_bench_selftest")],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class BenchmarkJson(unittest.TestCase):
    def test_contract(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        self.assertLessEqual(os.path.getsize(path), 64 * 1024)
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["hostbench"])
        self.assertLessEqual(len(spec["command"]), 32)
        for arg in spec["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)
        self.assertTrue(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Runs(unittest.TestCase):
    def test_every_workload_reports_its_metrics_and_follows_the_seed(self):
        spec = load_spec()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w in (w["name"] for w in spec["workloads"]):
            digests = []
            for seed in (1, 2):
                rc, lines = bench(w, seed, 0)
                self.assertEqual(rc, 0, (w, seed))
                result = json.loads(lines[-1])
                self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, e2e)
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                for name in e2e:
                    self.assertGreater(result["metrics"][name]["value"], 0, (w, name))
                digests.append(note(lines, "input_digest"))
            self.assertNotEqual(digests[0], digests[1], f"{w}: the seed does not change the inputs")

            rc, lines = bench(w, 1, 1)
            self.assertEqual(rc, 0, w)
            result = json.loads(lines[-1])
            self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, layers)
            self.assertTrue(result["correct"], lines)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            # The lead step is the timed calls plus the reported remainder.
            accounting = note(lines, "traced lead step")
            self.assertIsNotNone(accounting, lines)
            step, calls, rest = (float(x) for x in re.findall(r"([-\d.]+) ms", accounting))
            self.assertAlmostEqual(step, calls + rest, delta=0.01 * step)
            self.assertAlmostEqual(values["step.lead_ms"], step, delta=1e-3 * step)
            for name in ("comm.cluster_launch_ms", "kernel.mults_per_step", "sim.step_ms",
                         "wall.step_p50_ms", "step.lead_ms"):
                self.assertGreater(values[name], 0, (w, name))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "hostbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = bench("train_2d", 1, 0, cwd=tmp)
            self.assertNotEqual(rc, 0)
            self.assertEqual(lines, [""], "no result may be printed")


if __name__ == "__main__":
    unittest.main(verbosity=2)
