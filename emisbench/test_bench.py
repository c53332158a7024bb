#!/usr/bin/env python3
"""Tests for the benchmark's own code. Run from the repository root:

    python3 emisbench/test_bench.py

Builds the driver (as run.py does), then checks metric and workload names,
that BENCHMARK.json and the driver declare the same names and units, that
span self times conserve, that a smoke-size instance of every workload
passes the output gate with and without tracing, that the gate fails a run
whose statistics differ from an earlier run, that the driver will not run
without the directory that records them, and that the benchmark refuses to
run without the library sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()
        listing = subprocess.run([os.path.join(cls.out, "emisbench"), "--list"],
                                 stdout=subprocess.PIPE, text=True, check=True)
        cls.listed = {"workload": [], "end_to_end": {}, "per_layer": {}}
        for line in listing.stdout.splitlines():
            kind, name, *unit = line.split()
            if kind == "workload":
                cls.listed[kind].append(name)
            else:
                cls.listed[kind][name] = unit[0]
        cls.bench = load_benchmark()

    def smoke(self, workload, trace, seed=5):
        code, lines, _ = run.run_driver(self.out, workload, seed, 1, trace, smoke=True)
        self.assertTrue(lines, "no output from %s" % workload)
        return code, json.loads(lines[-1])

    def test_names_match_pattern(self):
        names = list(self.listed["workload"])
        names += list(self.listed["end_to_end"]) + list(self.listed["per_layer"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for unit in list(self.listed["end_to_end"].values()) + list(
                self.listed["per_layer"].values()):
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_driver(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.listed["workload"])
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.bench[kind]}
            self.assertEqual(declared, self.listed[kind], kind)
        self.assertIn("setup_s", self.listed["end_to_end"])

    def test_span_self_times_conserve(self):
        subprocess.run([os.path.join(self.out, "emisbench_trace_test")], check=True)

    def test_smoke_workloads_pass_the_gate(self):
        for w in self.listed["workload"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, result = self.smoke(w, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, self.listed[kind])
                    if trace == 0:
                        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1)
                    else:
                        path = os.path.join(self.out, "results",
                                            "trace-%s-5-smoke.json" % w)
                        with open(path) as f:
                            self.assertTrue(json.load(f)["conserved"])

    def test_gate_fails_when_statistics_differ_from_an_earlier_run(self):
        for w in self.listed["workload"]:
            with self.subTest(workload=w):
                path = os.path.join(self.out, "results", "expected-%s-77-smoke.txt" % w)
                try:
                    self.assertEqual(self.smoke(w, 0, seed=77)[0], 0)
                    with open(path) as f:
                        definition = f.read().split("-")[0]
                    with open(path, "w") as f:
                        f.write(definition + "-" + "0" * 16 + "\n")
                    code, result = self.smoke(w, 0, seed=77)
                finally:
                    os.remove(path)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_driver_requires_an_out_dir(self):
        proc = subprocess.run(
            [os.path.join(self.out, "emisbench"), "--workload",
             self.listed["workload"][0], "--seed", "1", "--seconds", "1",
             "--trace", "0", "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_refuses_without_library_sources(self):
        bare = os.path.join(self.out, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "emisbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "emisbench/run.py", "--workload", "er_dense_cd_flat",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
