"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests      (or: python3 -m pytest perfbench/tests)
"""
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minfinity import augment, landscape, minimize, optimize  # noqa: E402
from minfinity.fields import get_field  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        for values in ([3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0], [1.5, 9.0, 2.5, 7.0, 3.0, 8.0, 0.5],
                       [float(v) for v in range(10)]):
            self.assertEqual(stats.median(values), statistics.median(values))
            q1, q2, q3 = stats.quartiles(values)
            self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
            self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_single_value_and_errors(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.spread([2.0]), 0.0)
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.spread([0.0, 0.0, 0.0])

    def test_self_time_on_a_span_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 5.0, 9.0, 0],
            ["a", 6.0, 7.0, 2],
            ["leaf", 6.25, 6.75, 3],
            ["other-root", 11.0, 12.0, -1],
        ]
        self.assertEqual(stats.self_times(spans), [3.0, 3.0, 3.0, 0.5, 0.5, 1.0])
        agg = stats.aggregate(spans)
        self.assertEqual(agg["a"], (2, 4.0, 3.5))
        self.assertEqual(agg["root"], (1, 10.0, 3.0))
        self.assertEqual(agg["leaf"], (1, 0.5, 0.5))


class TracerTest(unittest.TestCase):
    def test_sample_stays_bounded_and_even(self):
        s = tracing.Sample()
        for n in range(5000):
            if n % s.stride == 0:
                s.add(n)
        self.assertLessEqual(len(s.items), tracing.SAMPLE_CAP)
        gaps = {b - a for a, b in zip(s.items, s.items[1:])}
        self.assertEqual(gaps, {s.stride})

    def test_uninstall_restores_every_binding(self):
        before = (landscape.descend, minimize.descend, augment.evaluate,
                  get_field("rastrigin-1d").raw_value)
        tr = tracing.Tracer()
        tr.install(["rastrigin-1d"])
        self.assertIsNot(landscape.descend, before[0])
        self.assertIsNot(get_field("rastrigin-1d").raw_value, before[3])
        tr.uninstall()
        after = (landscape.descend, minimize.descend, augment.evaluate,
                 get_field("rastrigin-1d").raw_value)
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_descend_accounting(self):
        tr = tracing.Tracer()
        tr.install([])
        try:
            # linear objective: every step is accepted, the gradient never vanishes
            minimize.descend(lambda x: x[0], lambda x: [1.0], [0.0], max_iters=5)
            # quadratic: converges
            minimize.descend(lambda x: x[0] * x[0], lambda x: [2.0 * x[0]], [1.0])
        finally:
            tr.uninstall()
        self.assertEqual(tr.counts["minimize.descend.budget"], 1)
        self.assertEqual(tr.counts["minimize.descend.converged"], 1)
        self.assertEqual(stats.aggregate(tr.spans)["minimize.descend"][0], 2)


def _small(name):
    if name == "finder-sweep":
        return workloads.FinderSweep(n_seeds=2)
    if name == "channel-dynamics":
        return workloads.ChannelDynamics(optimizers=(("gd", 1e-3),), fields=("rastrigin-1d",))
    return workloads.OracleAudit(grad_points=5, infimum_points=3, bound_samples=70,
                                 resolution=11)


class TracingChangesNothingTest(unittest.TestCase):
    """A traced pass computes exactly what an untraced pass computes."""

    def check(self, name):
        wl = _small(name)
        inputs = wl.make_inputs(3)
        with tempfile.TemporaryDirectory() as tmp:
            clock = run.Clock()
            plain, err = run.run_passes(wl, inputs, 0.0, Path(tmp) / "u", 1, clock)
            self.assertIsNone(err)
            tr = tracing.Tracer()
            tr.install(run.FIELDS)
            try:
                traced, err = run.run_passes(wl, inputs, 0.0, Path(tmp) / "t", 1, clock,
                                             tracer=tr)
            finally:
                tr.uninstall()
            self.assertIsNone(err)
        u, t = plain[0], traced[0]
        self.assertEqual(u.result.violations, 0)
        self.assertEqual(u.result.failed, 0)
        self.assertEqual(u.result.problems, [])
        self.assertEqual(u.verdict(), t.verdict())
        self.assertTrue(u.digests)
        self.assertTrue(tr.spans)
        replay = tracing.replay_ns(tr, run.FIELDS)
        self.assertTrue(replay and all(v > 0.0 for v in replay.values()))
        return tr

    def test_finder_sweep(self):
        tr = self.check("finder-sweep")
        self.assertGreater(tr.counts["minimize.descend.iterations"], 0)

    def test_channel_dynamics(self):
        tr = self.check("channel-dynamics")
        m = run.layer_metrics(tr, 1.0)
        self.assertAlmostEqual(m["optimize.raw_value_per_step"], 3.0, delta=0.1)

    def test_oracle_audit(self):
        tr = self.check("oracle-audit")
        self.assertGreater(tr.calls("augment.evaluate"), 0)


class ChannelCheckTest(unittest.TestCase):
    """The channel check reads u over the tail of a run, not at its last step."""

    def assess(self, final_u, tail_u):
        wl = workloads.ChannelDynamics()
        start = {"tag": "t", "b": 0.0, "bad_value": 1.0}
        plain = optimize.OutcomeLabel(optimize.CONVERGED, 0.0, 0.0, 0.0, 1.0, 0.0)
        aug = optimize.OutcomeLabel(optimize.EXHAUSTED, 0.02, 4.0, final_u, 1.0, 1e-3)
        return wl.assess([start], [(plain, 100, aug, 100, tail_u)])

    def test_last_step_off_one_but_tail_near_one_is_in_channel(self):
        r = self.assess(final_u=1.19, tail_u=0.9997)
        self.assertEqual((r.certified, r.problems), (2, []))

    def test_tail_off_one_leaves_the_channel(self):
        r = self.assess(final_u=1.0, tail_u=1.3)
        self.assertEqual(r.certified, 1)
        self.assertEqual(len(r.problems), 1)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_benchmark_file(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
