"""Tests of the benchmark itself (no build, no `cdp` run needed).

    python3 perfbench/test_perfbench.py
"""

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Generator(unittest.TestCase):
    def test_batch_specs_follow_the_seed(self):
        for name in workloads.BATCH:
            self.assertEqual(workloads.batch_specs(name, 7, 20), workloads.batch_specs(name, 7, 20))
            self.assertNotEqual(workloads.batch_specs(name, 7, 20),
                                workloads.batch_specs(name, 8, 20))
            self.assertEqual(len(set(workloads.batch_specs(name, 7, 20))), 20)
            # the set-up's smoke runs: the same originals at budget 1 on 1000 rows
            smoke = workloads.batch_specs(name, 7, 3, "smoke")
            self.assertEqual([s.split()[-1] for s in smoke],
                             [s.split()[-1] for s in workloads.batch_specs(name, 7, 3)])
            for spec in smoke:
                self.assertIn("records=1000", spec.split())
                self.assertTrue({"iters=1", "gens=1"} & set(spec.split()), spec)

    def test_serve_schedule_follows_the_seed(self):
        a = workloads.serve_schedule(7, 20.0, 100)
        self.assertEqual(a, workloads.serve_schedule(7, 20.0, 100))
        self.assertNotEqual(a, workloads.serve_schedule(8, 20.0, 100))
        self.assertEqual(workloads.warm_specs(7), workloads.warm_specs(7))
        self.assertNotEqual(workloads.warm_specs(7), workloads.warm_specs(8))

    def test_serve_schedule_mixes_hot_and_cold_originals(self):
        schedule = workloads.serve_schedule(3, 20.0, 400)
        hot = {run.original_of(s) for s in workloads.warm_specs(3)}
        cold = [s for _, s, c in schedule if c]
        self.assertTrue(0.05 < len(cold) / len(schedule) < 0.3)
        for _, spec, is_cold in schedule:
            self.assertEqual(run.original_of(spec) not in hot, is_cold, spec)
        self.assertEqual(len({run.original_of(s) for s in cold}), len(cold))
        kinds = {s.split()[0] + (" nsga" if "mode=nsga" in s else "") for _, s, _ in schedule}
        self.assertEqual(len(kinds), 3)

    def test_schedule_offers_a_constant_rate(self):
        schedule = workloads.serve_schedule(1, 20.0, 220)
        self.assertEqual(schedule[0][0], 0.0)
        self.assertAlmostEqual(schedule[-1][0], 219 / 20.0)

    def test_ramp_offers_a_rising_rate(self):
        ramp = workloads.serve_ramp(1, 20.0, 60.0, 8.0, 11.0)
        dues = [d for d, _, _ in ramp]
        self.assertEqual(dues[0], 11.0)
        self.assertLess(dues[-1], 19.0)
        gaps = [b - a for a, b in zip(dues, dues[1:])]
        self.assertTrue(all(x > y for x, y in zip(gaps, gaps[1:])))
        # 20 -> 60 jobs/s over 8 s offers (20 + 60) / 2 * 8 requests
        self.assertAlmostEqual(len(ramp), 320, delta=1)
        self.assertEqual(ramp, workloads.serve_ramp(1, 20.0, 60.0, 8.0, 11.0))


class MaxRate(unittest.TestCase):
    FIXED_S = 10.0

    @staticmethod
    def serve(dues, service, connections=run.SERVE_CONNECTIONS, terminal="DONE x"):
        """Requests due at `dues`, served in order by `connections` workers
        that each take `service` seconds a job."""
        free, results = [0.0] * connections, []
        for due in dues:
            worker = min(range(connections), key=free.__getitem__)
            r = run.loadgen.Result(due, "spec", False)
            r.released, r.sent = due, max(due, free[worker])
            r.done = free[worker] = r.sent + service
            r.terminal = terminal
            results.append(r)
        return results

    def ramp(self, top):
        return [d for d, _, _ in workloads.serve_ramp(1, run.RAMP[0], top, 6.0, self.FIXED_S)]

    def test_reads_the_capacity_of_a_saturated_server(self):
        # 2 workers at 0.1 s a job sustain 20 jobs/s
        results = self.serve(self.ramp(60.0), 0.1)
        self.assertAlmostEqual(run.max_rate(results, self.FIXED_S), 20.0, delta=1.0)
        results = self.serve(self.ramp(60.0), 0.05)
        self.assertAlmostEqual(run.max_rate(results, self.FIXED_S), 40.0, delta=2.0)

    def test_no_qualifying_request_reads_none(self):
        dues = self.ramp(60.0)
        # every request misses the latency limit
        slow = self.serve(dues, 2 * run.LATENCY_LIMIT_MS / 1e3, connections=1000)
        self.assertIsNone(run.max_rate(slow, self.FIXED_S))
        refused = self.serve(dues, 0.01, terminal="ERR busy")
        self.assertIsNone(run.max_rate(refused, self.FIXED_S))
        # requests of the fixed-rate phase are not rungs of the ladder
        fixed = self.serve([t / 10 for t in range(100)], 0.01)
        self.assertIsNone(run.max_rate(fixed, self.FIXED_S))

    def test_a_ramp_that_never_saturates_reads_none(self):
        self.assertIsNone(run.max_rate(self.serve(self.ramp(60.0), 0.01), self.FIXED_S))

    def test_ramp_starts_below_the_fixed_rate(self):
        self.assertLess(run.RAMP[0], run.FIXED_RATE)


class Contract(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME.fullmatch(name), name)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_end_to_end_bounds(self):
        for m in SPEC["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])

    def test_workloads_match_the_generator(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_every_per_layer_metric_names_what_it_moves(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(LAYERS), {m["name"] for m in SPEC["per_layer"]})
        for metric, entry in LAYERS.items():
            self.assertIn(entry["moves"], e2e, metric)
            self.assertTrue(entry["on"], metric)
            self.assertLessEqual(set(entry["on"]), names, metric)
            self.assertTrue(metric.startswith(entry["layer"] + "."), metric)


class Helpers(unittest.TestCase):
    def test_hypervolume_2d(self):
        self.assertEqual(stats.hypervolume_2d([(50.0, 50.0)]), 2500.0)
        # a dominated point adds nothing
        self.assertEqual(stats.hypervolume_2d([(50.0, 50.0), (60.0, 60.0)]), 2500.0)
        self.assertEqual(stats.hypervolume_2d([(0.0, 50.0), (50.0, 0.0)]), 7500.0)

    def test_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 95), 95.05)

    def test_front_csv_names_may_hold_commas(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "front.csv"
            path.write_text("phase,name,il,dr,score,eps\n"
                            "initial,a,1.0000,2.0000,2.0000,3.0000\n"
                            "final,microagg(k=2,uni,median),0.5518,57.3364,57.3364,85.3034\n")
            rows = run.parse_front_csv(path, "final")
            self.assertEqual(rows, [("microagg(k=2,uni,median)",
                                     ["0.5518", "57.3364", "57.3364", "85.3034"])])


if __name__ == "__main__":
    unittest.main()
