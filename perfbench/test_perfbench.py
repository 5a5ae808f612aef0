#!/usr/bin/env python3
"""Self-tests of the benchmark, on short smoke runs of every workload.

    python3 perfbench/test_perfbench.py [-v]

Asserts that two runs with the same seed give identical simulated metrics
(untraced and traced alike), that another seed changes the generated
inputs, and that every reported metric is declared in BENCHMARK.json with
a well-formed name and within the declared counts.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Simulated (deterministic) metrics; everything else is host time or memory.
SIM_E2E = ["sim_cycles_per_packet", "sim_goodput_mbps", "success_frac"]
SIM_LAYER = re.compile(
    r"^(sched\.attempts|sched\.ii_over_mii|sched\..*\.ii|cga\..*\.sim_cycles|"
    r"cga\..*\.stall_share|core\.(vliw|cga)_(cycles|ipc)|mem\..*|"
    r"sdr\.paper_cycle_ratio|campaign\.per|cell\.(expired|overrun|late|"
    r"useful_decode_frac|utilization))$")


def run(workload, seed, trace):
    """One smoke run; returns (result JSON, {'inputs': .., 'sim': ..})."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    if out.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), out.returncode, out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    tags = dict(line.split(": ", 1) for line in lines
                if line.startswith(("inputs: ", "sim: ")))
    return json.loads(lines[-1]), tags


class BenchmarkDeclaration(unittest.TestCase):
    def test_names_and_counts(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertLessEqual(len(bench["end_to_end"]), 16)
        self.assertLessEqual(len(bench["per_layer"]), 128)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)


class WorkloadSmoke(unittest.TestCase):
    WORKLOAD = None

    @classmethod
    def setUpClass(cls):
        if cls.WORKLOAD is None:
            raise unittest.SkipTest("base class")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        cls.e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        cls.layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        cls.a, cls.a_tags = run(cls.WORKLOAD, 1, 0)
        cls.b, cls.b_tags = run(cls.WORKLOAD, 1, 0)
        cls.c, cls.c_tags = run(cls.WORKLOAD, 2, 0)
        cls.t, cls.t_tags = run(cls.WORKLOAD, 1, 1)
        cls.u, cls.u_tags = run(cls.WORKLOAD, 1, 1)

    def test_outputs_checked(self):
        for r in (self.a, self.b, self.c, self.t, self.u):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertGreaterEqual(r["attempted"], 1)

    def test_same_seed_same_simulation(self):
        self.assertEqual(self.a_tags["inputs"], self.b_tags["inputs"])
        self.assertEqual(self.a_tags["sim"], self.b_tags["sim"])
        for m in SIM_E2E:
            self.assertEqual(self.a["metrics"][m]["value"],
                             self.b["metrics"][m]["value"], m)
        sim_layers = [m for m in self.layers if SIM_LAYER.match(m)]
        self.assertGreater(len(sim_layers), 50)
        for m in sim_layers:
            self.assertEqual(self.t["metrics"][m]["value"],
                             self.u["metrics"][m]["value"], m)

    def test_traced_run_simulates_the_same(self):
        self.assertEqual(self.a_tags["sim"], self.t_tags["sim"])

    def test_seed_changes_inputs(self):
        self.assertNotEqual(self.a_tags["inputs"], self.c_tags["inputs"])

    def test_reported_metrics_are_declared(self):
        for result, declared in ((self.a, self.e2e), (self.t, self.layers)):
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(got, declared)
            for n in got:
                self.assertRegex(n, NAME)


class ModemSmoke(WorkloadSmoke):
    WORKLOAD = "modem_qam64_16sym"


class CampaignSmoke(WorkloadSmoke):
    WORKLOAD = "campaign_qam64_waterfall"


class CellSmoke(WorkloadSmoke):
    WORKLOAD = "cell_qam16_overload"


if __name__ == "__main__":
    unittest.main()
