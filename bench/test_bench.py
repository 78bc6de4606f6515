"""Self-tests of the benchmark harness.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import copy
import itertools
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
os.chdir(ROOT)

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def payloads(cases) -> list:
    return [(case.key, case.payload) for case in cases]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        reference = workloads.load_reference()
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = payloads(workload.setup(3, reference))
                again = payloads(workload.setup(3, reference))
                other = payloads(workload.setup(4, reference))
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_renaming_keeps_vertex_ids(self):
        g = workloads.build_instance("union:grid:3+cycle:7")
        text = workloads.graph.serialize_edge_list(g)
        renamed, back = workloads.relabel(text, workloads.random.Random(5))
        h = workloads.graph.parse_edge_list(renamed)
        self.assertNotEqual(text, renamed)
        self.assertEqual(h.edges(), g.edges())
        self.assertEqual([back[label] for label in h.labels], list(g.labels))

    def test_every_pooled_instance_has_a_reference_record(self):
        reference = workloads.load_reference()
        for name, workload in workloads.WORKLOADS.items():
            cases = workload.setup(0, reference)
            with self.subTest(workload=name):
                self.assertTrue(all(case.expected is not None for case in cases))


class Arithmetic(unittest.TestCase):
    def test_percentiles_interpolate_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(measure.percentile(values, 0), 1.0)
        self.assertEqual(measure.percentile(values, 50), 2.5)
        self.assertEqual(measure.percentile(values, 100), 4.0)
        self.assertAlmostEqual(measure.percentile(range(1, 11), 90), 9.1)
        with self.assertRaises(ValueError):
            measure.percentile([], 50)

    def test_ratios(self):
        self.assertEqual(measure.ratio(3, 4), 0.75)
        self.assertEqual(measure.ratio(3, 0), 0.0)

    def test_normalize_rescales_by_nearby_calibrations(self):
        latencies = [1.0, 2.0, 3.0]
        self.assertEqual(measure.normalize(latencies, [0.5, 0.5, 0.5], 0.5), latencies)
        self.assertEqual(measure.normalize(latencies, [1.0, 1.0, 1.0], 0.5), [0.5, 1.0, 1.5])
        # the median of the window ignores one outlying calibration
        spiky = [1.0, 1.0, 9.0, 1.0, 1.0]
        self.assertEqual(measure.normalize([1.0] * 5, spiky, 1.0, window=3), [1.0] * 5)

    def test_calibrations_bracket_every_op(self):
        readings = iter([1.0, 3.0, 5.0])
        cases = [workloads.Case(str(i), None, None) for i in range(2)]
        result = measure.LoopResult()
        measure.run_pass(
            cases, lambda c: None, lambda c, o: None, result, calibrate=lambda: next(readings)
        )
        self.assertEqual(result.calibrations, [2.0, 4.0])

    def test_loop_result_rates(self):
        result = measure.LoopResult(latencies=[0.5, 0.25, 0.25], attempted=3, failed=1)
        self.assertEqual(result.ops_per_s, 2.0)
        self.assertAlmostEqual(result.fail_ratio, 1 / 3)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        root = tracer.begin("bench.op")  # 0 .. 10
        a = tracer.begin("graph.a")  # 1 .. 4
        inner = tracer.begin("oracles.c")  # 2 .. 3
        tracer.end(inner)
        tracer.end(a)
        b = tracer.begin("graph.b")  # 5 .. 9
        tracer.end(b)
        tracer.end(root)
        self.assertEqual(spans.self_times(tracer.spans), [3.0, 2.0, 1.0, 4.0])
        table = spans.summarize(tracer.spans)
        self.assertEqual(table["bench.op"], [1, 10.0, 3.0])
        self.assertEqual(table["bench.op@"], [1, 10.0, 3.0])
        self.assertEqual(table["oracles.c@graph"], [1, 1.0, 1.0])
        self.assertEqual(table["graph.b@bench"], [1, 4.0, 4.0])

    def test_spans_must_close_in_order(self):
        tracer = spans.Tracer()
        outer = tracer.begin("a")
        tracer.begin("b")
        with self.assertRaises(RuntimeError):
            tracer.end(outer)


class Instrumented(unittest.TestCase):
    def setUp(self):
        self.modules = {s: workloads.__dict__[s] for s in spans.MODULES}
        self.instrumentation = spans.Instrumentation(self.modules)

    def test_wrappers_pass_results_through_and_count_yields(self):
        g = workloads.build_instance("leafy+edge:7")
        plain = workloads.characterization.find_certifying_matching(g)
        plain_count = sum(1 for _ in workloads.characterization.iter_maximal_matchings(g))
        tracer = spans.Tracer()
        self.instrumentation.install(tracer)
        try:
            traced = workloads.characterization.find_certifying_matching(g)
            self.assertEqual(traced, plain)
            checked = tracer.counters["characterization.iter_maximal_matchings.yielded"]
            table = spans.summarize(tracer.spans)
            self.assertEqual(table["characterization.check_certificate_conditions"][0], checked)
            self.assertEqual(checked, plain_count)  # no certificate: every matching is tried
            self.assertEqual(tracer.stack, [])
        finally:
            self.instrumentation.uninstall()
        self.assertFalse(hasattr(workloads.characterization.iter_maximal_matchings, "__wrapped__"))

    def test_early_exit_closes_the_enumeration(self):
        g = workloads.build_instance("leafy:7")
        tracer = spans.Tracer()
        self.instrumentation.install(tracer)
        try:
            found = workloads.characterization.find_certifying_matching(g)
        finally:
            self.instrumentation.uninstall()
        self.assertIsNotNone(found)
        self.assertEqual(tracer.stack, [])
        yielded = tracer.counters["characterization.iter_maximal_matchings.yielded"]
        self.assertEqual(tracer.counters["characterization.certificates_found"], 1)
        self.assertLess(yielded, sum(1 for _ in workloads.characterization.iter_maximal_matchings(g)))


class FailuresAreCounted(unittest.TestCase):
    def test_wrong_answer_and_exception_are_failures(self):
        workload = workloads.WORKLOADS["exact-solve"]
        cases = [
            c
            for c in workload.setup(1, workloads.load_reference())
            if c.key in ("grid:5", "spider:7", "cycle:26")
        ]
        self.assertEqual(len(cases), 3)
        workload.prepare_checks(cases)
        wrong = next(c for c in cases if c.key == "spider:7")
        wrong.expected = dict(wrong.expected, gamma_t=wrong.expected["gamma_t"] + 1)

        def op(case):
            if case.key == "cycle:26":
                raise RecursionError("maximum recursion depth exceeded")
            return workload.op(case)

        result = measure.LoopResult()
        measure.run_pass(cases, op, workload.check, result)
        self.assertEqual((result.attempted, result.failed, len(result.latencies)), (3, 2, 3))
        self.assertEqual(sorted(key for key, _ in result.failures), ["cycle:26", "spider:7"])
        self.assertEqual(result.ops_per_s, 1 / result.busy_seconds)

    def test_wrong_certificate_digest_fails_the_check(self):
        workload = workloads.WORKLOADS["recognize-leafless"]
        case = next(
            c for c in workload.setup(2, workloads.load_reference()) if c.key == "grid:10"
        )
        workload.prepare_checks([case])
        output = workload.op(case)
        self.assertIsNone(workload.check(case, output))
        tampered = copy.copy(case)
        tampered.expected = dict(case.expected, digest="0" * 64)
        self.assertIn("digest", workload.check(tampered, output))

    def test_loop_stops_on_whole_passes_after_min_ops(self):
        ticks = itertools.count()
        cases = [workloads.Case(str(i), None, None) for i in range(3)]
        result = measure.run_loop(
            cases, lambda c: None, lambda c, o: None, 0, min_ops=7, clock=lambda: next(ticks)
        )
        self.assertEqual((result.passes, result.attempted, result.failed), (3, 9, 0))


if __name__ == "__main__":
    unittest.main()
