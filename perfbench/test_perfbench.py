#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the probe, then check that the input generator is
deterministic per seed, that each output check catches a perturbed
value, and that the metric names the benchmark prints are exactly the
ones BENCHMARK.json declares.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()
CNTPOWER, PROBE = run.build(ROOT)
PTL = os.path.join(ROOT, run.PTL)


def probe(*args, cwd=None):
    out = subprocess.run([PROBE, *args], cwd=cwd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def gen(workload, seed, out, requests=run.serve_pool_size(15)):
    os.makedirs(out)
    probe("gen", "--workload", workload, "--seed", str(seed), "--out", out,
          "--library-file", PTL, "--requests", str(requests))
    with open(os.path.join(out, "plan.json")) as f:
        return json.load(f)


class Generator(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            a, b = os.path.join(self.tmp, w + "a"), os.path.join(self.tmp, w + "b")
            gen(w, 7, a)
            gen(w, 7, b)
            cmp = filecmp.dircmp(a, b)
            self.assertEqual(cmp.diff_files, [], w)
            self.assertEqual(cmp.left_only + cmp.right_only, [], w)
            if os.path.isdir(os.path.join(a, "pool")):
                sub = filecmp.dircmp(os.path.join(a, "pool"), os.path.join(b, "pool"))
                self.assertEqual(sub.diff_files, [], w)

    def test_other_seed_other_pool(self):
        a, b = os.path.join(self.tmp, "a"), os.path.join(self.tmp, "b")
        pa, pb = gen("serve-mixed", 7, a), gen("serve-mixed", 8, b)
        self.assertNotEqual(pa["draws"], pb["draws"])
        blif = []
        for d, p in ((a, pa), (b, pb)):
            with open(os.path.join(d, p["pool"][3]["file"])) as f:
                blif.append(f.read())
        self.assertNotEqual(blif[0], blif[1])
        ca, cb = gen("campaign-65k", 7, a + "c"), gen("campaign-65k", 8, b + "c")
        self.assertNotEqual((ca["circuits"], ca["seed"]), (cb["circuits"], cb["seed"]))

    def test_longer_pool_extends_shorter(self):
        short = gen("serve-mixed", 4, os.path.join(self.tmp, "s"), requests=40)
        long = gen("serve-mixed", 4, os.path.join(self.tmp, "l"), requests=60)
        self.assertEqual((len(short["pool"]), len(long["pool"])), (40, 60))
        self.assertEqual(long["pool"][:40], short["pool"])
        self.assertEqual(long["draws"][:40], short["draws"])

    def test_pool_bounds(self):
        p = gen("serve-mixed", 3, os.path.join(self.tmp, "p"))
        self.assertEqual(len(p["libraries"]), 4)
        self.assertEqual(len(p["pool"]), run.serve_pool_size(15))
        self.assertGreaterEqual(len(p["pool"]), 15 * run.SERVE_MAX_RPS)
        self.assertEqual(len(p["draws"]), len(p["pool"]))
        for entry in p["pool"]:
            self.assertTrue(50 <= entry["gates"] <= 600)
            self.assertTrue(0.0 <= entry["xor_fraction"] <= 0.3)


class Checks(unittest.TestCase):
    def test_table1_reference_perturbed(self):
        with open(run.TABLE1_REFERENCE) as f:
            ref = f.read()
        cells = run.table1_cells(ref)
        self.assertEqual(len(cells), 6)
        self.assertEqual(cells[("des", "GEN")][0], "1683")
        bad = ref.replace("136.01", "136.02", 1)
        got = run.table1_cells(bad)
        self.assertEqual(sum(1 for k, v in cells.items() if got.get(k) != v), 1)

    def test_serve_and_campaign_perturbed(self):
        tmp = tempfile.mkdtemp()
        try:
            plan = gen("serve-mixed", 2, os.path.join(tmp, "s"))
            ops = [f"{plan['pool'][0]['name']}/{lib}" for lib in plan["libraries"][:2]]
            with open(os.path.join(tmp, "ops.json"), "w") as f:
                json.dump(ops, f)
            ref = probe("ref", "--plan", os.path.join(tmp, "s", "plan.json"), "--ops",
                        os.path.join(tmp, "ops.json"), "--library-file", PTL, cwd=tmp)["results"]
            outputs = {k: [{x: r[x] for x in ("gates", "delay_s", "total_W")}]
                       for k, r in ref.items()}
            self.assertEqual(run.serve_mismatches(outputs, ref), 0)
            outputs[ops[1]][0]["total_W"] *= 1.0 + 1e-12
            self.assertEqual(run.serve_mismatches(outputs, ref), 1)
            shard = "i8/cmos/5"
            with open(os.path.join(tmp, "ops.json"), "w") as f:
                json.dump([shard], f)
            gen("campaign-65k", 2, os.path.join(tmp, "c"))
            cref = probe("ref", "--plan", os.path.join(tmp, "c", "plan.json"), "--ops",
                         os.path.join(tmp, "ops.json"), "--library-file", PTL, cwd=tmp)["results"]
            fields = {"s:" + k: "%.17g" % v for k, v in run.campaign_scalars(cref[shard]).items()}
            self.assertEqual(run.campaign_mismatches({shard: fields}, cref), 0)
            fields["s:delay_ps"] = "%.17g" % (float(fields["s:delay_ps"]) * 1.001)
            self.assertEqual(run.campaign_mismatches({shard: fields}, cref), 1)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class MetricNames(unittest.TestCase):
    spec = run.load_spec(ROOT)

    def test_end_to_end_names(self):
        res = {"throughput_per_s": 1.0, "latencies_s": [1.0]}
        self.assertEqual(set(run.end_to_end(res, [1.0])),
                         {m["name"] for m in self.spec["end_to_end"]})

    def test_per_layer_names(self):
        tmp = tempfile.mkdtemp()
        try:
            plan = gen("serve-mixed", 2, os.path.join(tmp, "s"))
            with open(os.path.join(tmp, "ops.json"), "w") as f:
                json.dump([f"{plan['pool'][0]['name']}/cmos"], f)
            rep = probe("replay", "--plan", os.path.join(tmp, "s", "plan.json"), "--ops",
                        os.path.join(tmp, "ops.json"), "--library-file", PTL,
                        "--spans", os.path.join(tmp, "spans.jsonl"), cwd=tmp)
            with open(os.path.join(tmp, "spans.jsonl")) as f:
                spans = [json.loads(line) for line in f]
            self.assertTrue(spans and all(s["op"] == spans[0]["op"] for s in spans))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        names = (set(rep["metrics"]) | set(run.PER_LAYER_DEFAULTS) | set(run.DES_METRICS)
                 | {"trace.overhead_ratio", "peak_rss_mb"})
        self.assertEqual(names, {m["name"] for m in self.spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
