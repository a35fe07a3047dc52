"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bimodal import decide, kripke, syntax  # noqa: E402
from bimodal.decide import HOLDS_AT_BOUND, REFUTED  # noqa: E402
from bimodal.kripke import Frame, FrameClass, Model, PointedModel  # noqa: E402


def _report(verdict, witness):
    return decide.Report("planted", verdict, witness, decide.Statistics(1, 1, 1))


class KnownAnswerChecker(unittest.TestCase):
    def test_planted_wrong_verdict_is_flagged(self):
        f = syntax.parse("A p -> p")  # valid on every frame
        query = workloads.Query(
            "planted",
            lambda: decide.find_countermodel(f, FrameClass.K, 2),
            workloads.expect_scan(REFUTED, f, FrameClass.K, 2),
        )
        outcome = run.judge(query)
        self.assertEqual(outcome.status, "wrong")
        self.assertIn("expected REFUTED", outcome.reason)

    def test_true_verdict_passes(self):
        f = syntax.parse("A p -> []p")
        query = workloads.Query(
            "refutable",
            lambda: decide.find_countermodel(f, FrameClass.K, 2),
            workloads.expect_scan(REFUTED, f, FrameClass.K, 2),
        )
        self.assertEqual(run.judge(query).status, "ok")

    def test_witness_that_does_not_recheck_is_flagged(self):
        f = syntax.parse("A p -> []p")
        # p false everywhere: A p fails, so the implication holds here
        model = Model(Frame.from_pairs(("a", "b"), [("a", "b")]), {})
        check = workloads.expect_scan(REFUTED, f, FrameClass.K, 3)
        reason = check(_report(REFUTED, decide.ModelWitness(model, "a")))
        self.assertEqual(reason, "witness does not re-check with evaluate")

    def test_formula_witness_that_does_not_split_is_flagged(self):
        a = PointedModel(Model(Frame.from_pairs(("s",), []), {"p": 1}), "s")
        check = workloads.expect_search(REFUTED, a, a)
        reason = check(_report(REFUTED, decide.FormulaWitness(syntax.parse("p"))))
        self.assertIn("does not split", reason)

    def test_raising_call_is_a_failed_verdict(self):
        def boom():
            raise ValueError("cap")

        outcome = run.judge(workloads.Query("boom", boom, lambda r: None))
        self.assertEqual((outcome.status, outcome.reason), ("raised", "ValueError: cap"))


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            run.percentile([float(i) for i in range(99)], 90)

    def test_ten_beyond_is_enough(self):
        values = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(run.percentile(values, 90), 90.0)
        self.assertEqual(run.percentile(values, 50), 50.0)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0,100] has children a [10,40] and b [50,90]; a has child c [15,25]
        # and b made folded leaf calls taking 5 in all
        names = ["root", "a", "c", "b"]
        starts = [0, 10, 15, 50]
        ends = [100, 40, 25, 90]
        parents = [-1, 0, 1, 0]
        folded = [0, 0, 0, 5]
        self.assertEqual(
            tracing.self_times(names, starts, ends, parents, folded),
            {"root": 30, "a": 20, "c": 10, "b": 35},
        )

    def test_same_name_spans_add_up(self):
        totals = tracing.self_times(["x", "x"], [0, 5], [10, 8], [-1, 0], [0, 0])
        self.assertEqual(totals, {"x": 10})


class Tracer(unittest.TestCase):
    def test_wraps_the_callers_binding_and_restores_it(self):
        original = kripke.enumerate_frames
        self.assertIs(decide.enumerate_frames, original)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(decide.enumerate_frames, original)
            report = decide.find_countermodel(syntax.parse("A p -> p"), FrameClass.K, 2)
        finally:
            tracer.uninstall()
        self.assertIs(decide.enumerate_frames, original)
        self.assertIs(kripke.enumerate_frames, original)
        self.assertEqual(tracer.counts["kripke.frames_yielded"], report.statistics.frames_scanned)
        self.assertEqual(tracer.counts["kripke.indices_walked"], 2 + 16)
        self.assertGreater(tracer.counts["syntax.hash_calls"], 0)
        totals = tracer.self_times()
        self.assertIn("decide.find_countermodel", totals)
        self.assertIn("kripke.evaluator", totals)
        self.assertTrue(all(t >= 0 for t in totals.values()))


if __name__ == "__main__":
    unittest.main()
