"""Tests for bounded countermodel search, definability, expressivity, sweeps."""

import random

import pytest

from bimodal.decide import (
    HOLDS_AT_BOUND,
    REFUTED,
    FormulaWitness,
    FrameWitness,
    ModelWitness,
    Report,
    Statistics,
    conjecture_sweep,
    defines_property,
    distinguishing_formula,
    find_countermodel,
    sat_bounded,
    valid_bounded,
)
from bimodal import kripke
from bimodal.kripke import (
    Frame,
    FrameClass,
    Model,
    PointedModel,
    enumerate_frames,
    evaluate,
    frame_valid,
    model_from_json,
)
from bimodal.syntax import LanguageTag, desugar, metrics, parse, render

import genutil
from genutil import random_formula

ANN_UNARY = tuple(
    op for op in genutil.SUGAR_UNARY if op.__name__ not in ("Diamond", "Box")
)


# ---------------------------------------------------------------------------
# Report plumbing


class TestReportShapes:
    def test_model_witness_json(self):
        m = Model(Frame.from_pairs(("s", "t"), [("s", "t")]), {"p": 0b01})
        w = ModelWitness(m, "s")
        assert w.to_json() == {
            "kind": "model",
            "model": {
                "worlds": ["s", "t"],
                "relation": [["s", "t"]],
                "valuation": {"p": ["s"]},
            },
            "world": "s",
        }

    def test_frame_witness_json_without_valuation(self):
        w = FrameWitness(Frame.from_pairs(("s",), []), "valid_on_frame_without_property")
        assert w.to_json() == {
            "kind": "frame",
            "frame": {"worlds": ["s"], "relation": []},
            "direction": "valid_on_frame_without_property",
            "valuation": None,
            "world": None,
        }

    def test_formula_witness_json(self):
        assert FormulaWitness(parse("A ~C p")).to_json() == {
            "kind": "formula",
            "formula": "A ~C p",
        }

    def test_report_json(self):
        r = Report("valid? p", HOLDS_AT_BOUND, None, Statistics(1, 2, 3))
        assert r.to_json() == {
            "query": "valid? p",
            "verdict": "HOLDS_AT_BOUND",
            "witness": None,
            "statistics": {"frames_scanned": 1, "valuations_scanned": 2, "work_units": 3},
        }


# ---------------------------------------------------------------------------
# Countermodel search


class TestFindCountermodel:
    def test_tautology_holds_on_one_world(self):
        r = find_countermodel(parse("p -> p"), FrameClass.K, 1)
        assert r.verdict == HOLDS_AT_BOUND
        assert r.witness is None

    def test_bottom_is_refuted_immediately(self):
        r = find_countermodel(parse("false"), FrameClass.K, 1)
        assert r.verdict == REFUTED
        assert r.witness.model.frame.n == 1

    def test_contingent_implies_some_accident(self):
        # ∇p → •p ∨ •¬p is valid
        assert valid_bounded(parse("C p -> A p | A ~p"), FrameClass.K, 3)

    def test_two_accidents_imply_contingent(self):
        # •(p→q) ∧ •(¬p→r) → ∇p is valid
        assert valid_bounded(parse("A(p->q) & A(~p->r) -> C p"), FrameClass.K, 3)

    def test_necessity_from_accident_equivalence(self):
        # •q → (□p ↔ Δp ∧ ∘(¬q→p)) is valid
        assert valid_bounded(
            parse("A q -> ([] p <-> D p & O(~q -> p))"), FrameClass.K, 3
        )

    def test_strong_accident_transfer_is_refuted(self):
        # the stronger •(p→q) ∧ •(¬p→r) → •p fails; the exact least
        # witness and scan statistics are frozen.
        r = find_countermodel(parse("A(p->q) & A(~p->r) -> A p"), FrameClass.K, 3)
        assert r.to_json() == {
            "query": "valid? A(p -> q) & A(~p -> r) -> A p [class K, <= 3 worlds]",
            "verdict": "REFUTED",
            "witness": {
                "kind": "model",
                "model": {
                    "worlds": ["w0", "w1", "w2"],
                    "relation": [["w0", "w1"], ["w0", "w2"]],
                    "valuation": {"p": ["w1"], "r": ["w0"]},
                },
                "world": "w0",
            },
            "statistics": {
                "frames_scanned": 17,
                "valuations_scanned": 3216,
                "work_units": 323,
            },
        }

    def test_refuting_witness_rechecks_and_round_trips(self):
        f = parse("A(p->q) & A(~p->r) -> A p")
        r = find_countermodel(f, FrameClass.K, 3)
        assert not evaluate(r.witness.model, r.witness.world, f)
        reloaded = model_from_json(r.witness.to_json()["model"])
        assert reloaded == r.witness.model
        assert not evaluate(reloaded, r.witness.world, f)

    def test_noncontingency_does_not_iterate_on_k(self):
        # Δp → ΔΔp needs transitivity; on K the least countermodel is frozen.
        r = find_countermodel(parse("D p -> D D p"), FrameClass.K, 3)
        assert r.verdict == REFUTED
        assert r.witness.to_json() == {
            "kind": "model",
            "model": {
                "worlds": ["w0", "w1", "w2"],
                "relation": [["w0", "w0"], ["w0", "w2"], ["w1", "w0"], ["w1", "w1"]],
                "valuation": {"p": ["w0", "w1"]},
            },
            "world": "w1",
        }

    def test_announcements_are_reduced_before_the_scan(self):
        # the unsuccessful Moore announcement, checked against the original
        # announcement semantics at the witness
        f = parse("[! A p] A p")
        r = find_countermodel(f, FrameClass.K, 3)
        assert r.verdict == REFUTED
        assert r.witness.to_json() == {
            "kind": "model",
            "model": {
                "worlds": ["w0", "w1"],
                "relation": [["w0", "w1"]],
                "valuation": {"p": ["w0"]},
            },
            "world": "w0",
        }
        assert not evaluate(r.witness.model, r.witness.world, f)

    def test_witness_is_stable_under_a_larger_bound(self):
        f = parse("A(p->q) & A(~p->r) -> A p")
        small = find_countermodel(f, FrameClass.K, 3)
        large = find_countermodel(f, FrameClass.K, 4)
        assert small.verdict == large.verdict == REFUTED
        assert small.witness.to_json() == large.witness.to_json()
        assert small.statistics == large.statistics

    def test_class_restriction_changes_the_verdict(self):
        # Δp → ΔΔp is transitive-valid but K-refutable
        f = parse("D p -> D D p")
        assert valid_bounded(f, FrameClass.FOUR, 3)
        assert not valid_bounded(f, FrameClass.K, 3)

    def test_serial_only_validity(self):
        # ∘p → ◇p ∨ ¬p needs a successor to exist
        f = parse("O p -> <>p | ~p")
        assert valid_bounded(f, FrameClass.D, 3)
        assert not valid_bounded(f, FrameClass.K, 3)

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError, match="need at least one world"):
            find_countermodel(parse("p"), FrameClass.K, 0)

    def test_world_limit_is_checked_lazily(self, monkeypatch):
        f = parse("A p -> [] p")
        small = find_countermodel(f, FrameClass.K, 3)
        beyond = find_countermodel(f, FrameClass.K, 6)  # refuted at 2 worlds
        assert beyond.witness.to_json() == small.witness.to_json()
        assert beyond.statistics == small.statistics
        monkeypatch.setattr(kripke, "_MAX_ISO_WORLDS", 2)
        with pytest.raises(ValueError, match="stop at 2 worlds, not 3"):
            find_countermodel(parse("A p -> p"), FrameClass.K, 3)

    def test_monotone_bounds_and_witness_recheck_randomized(self):
        rng = random.Random(20260317)
        for _ in range(40):
            f = random_formula(rng, rng.randrange(2, 6), ("p", "q"))
            small = find_countermodel(f, FrameClass.K, 2)
            large = find_countermodel(f, FrameClass.K, 3)
            if small.verdict == REFUTED:
                assert large.verdict == REFUTED
                assert small.witness.to_json() == large.witness.to_json()
            if large.verdict == REFUTED:
                assert not evaluate(large.witness.model, large.witness.world, f)

    def test_announcement_witnesses_recheck_randomized(self):
        rng = random.Random(20260318)
        refuted = 0
        for _ in range(25):
            f = random_formula(
                rng, rng.randrange(3, 7), ("p", "q"), unary=ANN_UNARY, ann_depth=1
            )
            r = find_countermodel(f, FrameClass.K, 2)
            if r.verdict == REFUTED:
                refuted += 1
                assert not evaluate(r.witness.model, r.witness.world, f)
        assert refuted  # the draw always contains refutable formulas


class TestBoundedAgreement:
    def test_matches_frame_by_frame_conjunction(self):
        # validity at the bound coincides with frame validity on every
        # labeled frame up to the bound
        formulas = [
            parse("A p -> p"),
            parse("C p -> A p | A ~p"),
            parse("D p -> D D p"),
            parse("<>p -> p"),
            parse("p -> <>p"),
            parse("O(p -> q) & O(~p -> q) -> O q"),
        ]
        for f in formulas:
            core = desugar(f)
            expected = all(
                frame_valid(fr, core)[0]
                for n in (1, 2, 3)
                for fr in enumerate_frames(n, FrameClass.K)
            )
            assert valid_bounded(f, FrameClass.K, 3) == expected, render(f)


# ---------------------------------------------------------------------------
# Satisfiability


class TestSatBounded:
    def test_accident_witness_is_the_two_chain(self):
        # least model of •p: p at the root, one arrow to a ¬p world
        r = sat_bounded(parse("A p"), FrameClass.K, 2)
        assert r.to_json() == {
            "query": "satisfiable? A p [class K, <= 2 worlds]",
            "verdict": "REFUTED",
            "witness": {
                "kind": "model",
                "model": {
                    "worlds": ["w0", "w1"],
                    "relation": [["w0", "w1"]],
                    "valuation": {"p": ["w0"]},
                },
                "world": "w0",
            },
            "statistics": {"frames_scanned": 5, "valuations_scanned": 16, "work_units": 15},
        }
        assert evaluate(r.witness.model, r.witness.world, parse("A p"))

    def test_accident_needs_two_worlds(self):
        assert sat_bounded(parse("A p"), FrameClass.K, 1).verdict == HOLDS_AT_BOUND

    def test_contradiction_is_unsatisfiable(self):
        assert sat_bounded(parse("p & ~p"), FrameClass.K, 3).verdict == HOLDS_AT_BOUND

    def test_contingency_of_falsum_unsatisfiable_on_serial_frames(self):
        # ∇⊥ asks for a successor satisfying ⊥
        assert sat_bounded(parse("C false"), FrameClass.K, 3).verdict == HOLDS_AT_BOUND

    def test_sat_and_validity_are_dual(self):
        rng = random.Random(20260319)
        for _ in range(30):
            f = random_formula(rng, rng.randrange(2, 6), ("p", "q"))
            negated_valid = valid_bounded(parse(f"~({render(f)})"), FrameClass.K, 2)
            satisfiable = sat_bounded(f, FrameClass.K, 2).verdict == REFUTED
            assert satisfiable == (not negated_valid)


# ---------------------------------------------------------------------------
# Frame definability


class TestDefinesProperty:
    def test_transitivity_formula(self):
        # •q ∧ Δp ∧ ∘(¬q→p) → ∘(¬q→∘(¬r→p)) defines transitivity
        tr = parse("A q & D p & O(~q -> p) -> O(~q -> O(~r -> p))")
        r = defines_property(tr, FrameClass.FOUR, 3)
        assert r.verdict == HOLDS_AT_BOUND
        assert r.witness is None

    def test_symmetry_formula(self):
        # •(p→•p) → p defines symmetry
        r = defines_property(parse("A(p -> A p) -> p"), FrameClass.B, 3)
        assert r.verdict == HOLDS_AT_BOUND

    def test_top_does_not_define_reflexivity(self):
        r = defines_property(parse("true"), FrameClass.T, 2)
        assert r.to_json() == {
            "query": "defines? true <-> class T [<= 2 worlds]",
            "verdict": "REFUTED",
            "witness": {
                "kind": "frame",
                "frame": {"worlds": ["w0"], "relation": []},
                "direction": "valid_on_frame_without_property",
                "valuation": None,
                "world": None,
            },
            "statistics": {"frames_scanned": 1, "valuations_scanned": 1, "work_units": 1},
        }

    def test_bottom_fails_on_a_frame_with_the_property(self):
        r = defines_property(parse("false"), FrameClass.K, 2)
        assert r.verdict == REFUTED
        assert r.witness.to_json() == {
            "kind": "frame",
            "frame": {"worlds": ["w0"], "relation": []},
            "direction": "fails_on_frame_with_property",
            "valuation": {},
            "world": "w0",
        }

    def test_failing_direction_witness_rechecks(self):
        # Δp → ΔΔp does not define transitivity: it is valid on some
        # non-transitive frames, and the witness must actually be one
        from bimodal.kripke import frame_has_property

        r = defines_property(parse("D p -> D D p"), FrameClass.FOUR, 3)
        assert r.verdict == REFUTED
        w = r.witness
        assert w.direction == "valid_on_frame_without_property"
        assert not frame_has_property(w.frame, FrameClass.FOUR)
        ok, _ = frame_valid(w.frame, desugar(parse("D p -> D D p")))
        assert ok

    def test_rejects_announcements(self):
        with pytest.raises(ValueError, match="announcement-free"):
            defines_property(parse("[!p]q"), FrameClass.K, 2)


# ---------------------------------------------------------------------------
# Expressivity


REFLEXIVE_POINT = PointedModel(
    Model(Frame.from_pairs(("s",), [("s", "s")]), {"p": 0b1}), "s"
)
ARROWLESS_POINT = PointedModel(Model(Frame.from_pairs(("s",), []), {"p": 0b1}), "s")
# the serial two-world pair: both satisfy p at the root and alternate to a
# ¬p world; the left model's second world also sees itself
SERIAL_LOOPED = PointedModel(
    Model(
        Frame.from_pairs(("s", "t"), [("s", "t"), ("t", "t"), ("t", "s")]), {"p": 0b01}
    ),
    "s",
)
SERIAL_PLAIN = PointedModel(
    Model(Frame.from_pairs(("s", "t"), [("s", "t"), ("t", "s")]), {"p": 0b01}), "s"
)


class TestDistinguishingFormula:
    def test_possibility_of_top_splits_the_point_pair(self):
        # ◇⊤ distinguishes the reflexive point from the arrowless one
        r = distinguishing_formula(
            REFLEXIVE_POINT, ARROWLESS_POINT, LanguageTag.DIAMOND, {"p"}, 2
        )
        assert r.verdict == REFUTED
        assert render(r.witness.formula) == "<>true"
        assert r.statistics.work_units == 7  # candidates examined

    def test_point_pair_agrees_on_the_contingency_language(self):
        # no ∇/• formula separates the pair; 25779 candidates at
        # size 7 over one atom
        r = distinguishing_formula(
            REFLEXIVE_POINT, ARROWLESS_POINT, LanguageTag.NABLA_BULLET, {"p"}, 7
        )
        assert r.verdict == HOLDS_AT_BOUND
        assert r.witness is None
        assert r.statistics.work_units == 25779

    def test_double_possibility_splits_the_serial_pair(self):
        # ◇◇¬p holds at the looped model only; its negation is the □□p
        # distinguisher
        r = distinguishing_formula(
            SERIAL_LOOPED, SERIAL_PLAIN, LanguageTag.DIAMOND, {"p"}, 6
        )
        assert r.verdict == REFUTED
        assert render(r.witness.formula) == "<><>~p"
        assert r.statistics.work_units == 60

    def test_accidental_noncontingency_splits_the_serial_pair(self):
        # •¬∇p separates the serial pair inside the ∇/• language: at the
        # looped model the second world sees disagreeing successors, so ¬∇p
        # is true at the root yet false at its successor; in the plain cycle
        # every world has a sole successor and nothing is accidental.
        r = distinguishing_formula(
            SERIAL_LOOPED, SERIAL_PLAIN, LanguageTag.NABLA_BULLET, {"p"}, 7
        )
        assert r.verdict == REFUTED
        w = r.witness.formula
        assert render(w) == "A ~C p"
        assert r.statistics.work_units == 126
        assert evaluate(SERIAL_LOOPED.model, "s", w)
        assert not evaluate(SERIAL_PLAIN.model, "s", w)

    def test_witness_is_least_in_enumeration_order(self):
        # every earlier candidate in the stream agrees on the two points
        from bimodal.syntax import enumerate_formulas

        r = distinguishing_formula(
            SERIAL_LOOPED, SERIAL_PLAIN, LanguageTag.NABLA_BULLET, {"p"}, 7
        )
        for i, f in enumerate(
            enumerate_formulas(("p",), LanguageTag.NABLA_BULLET, 7), start=1
        ):
            if f == r.witness.formula:
                assert i == r.statistics.work_units
                break
            assert evaluate(SERIAL_LOOPED.model, "s", f) == evaluate(
                SERIAL_PLAIN.model, "s", f
            )

    def test_identical_points_never_distinguished(self):
        r = distinguishing_formula(
            REFLEXIVE_POINT, REFLEXIVE_POINT, LanguageTag.FULL, {"p"}, 4
        )
        assert r.verdict == HOLDS_AT_BOUND

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError, match="max_size must be at least 1"):
            distinguishing_formula(
                REFLEXIVE_POINT, ARROWLESS_POINT, LanguageTag.FULL, {"p"}, 0
            )


# ---------------------------------------------------------------------------
# Worker parallelism


FOUR_PATTERNS = "<>(p & q) & <>(p & ~q) & <>(~p & q) & <>(~p & ~q)"


class TestWorkers:
    def test_parallel_scan_matches_serial_on_a_valid_formula(self):
        f = parse("A q -> ([] p <-> D p & O(~q -> p))")
        serial = find_countermodel(f, FrameClass.K, 4, workers=1)
        parallel = find_countermodel(f, FrameClass.K, 4, workers=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.verdict == HOLDS_AT_BOUND

    def test_parallel_scan_matches_serial_on_a_four_world_witness(self):
        # the least countermodel needs four successors realizing all four
        # p/q sign patterns, so the hit happens inside the worker range
        f = parse("~(<>(p & q) & <>(p & ~q) & <>(~p & q) & <>(~p & ~q))")
        serial = find_countermodel(f, FrameClass.K, 4, workers=1)
        parallel = find_countermodel(f, FrameClass.K, 4, workers=2)
        assert serial.verdict == REFUTED
        assert serial.witness.model.frame.n == 4
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize(
        "search, text, c, verdict",
        [
            # the least model needs four successors, found inside a worker range
            (sat_bounded, FOUR_PATTERNS, FrameClass.K, REFUTED),
            (sat_bounded, "C p & ~<>p", FrameClass.K, HOLDS_AT_BOUND),
            (defines_property, "A(p -> A p) -> p", FrameClass.B, HOLDS_AT_BOUND),
            # fails on a four-world frame that has the (trivial) property
            (defines_property, f"~({FOUR_PATTERNS})", FrameClass.K, REFUTED),
        ],
    )
    def test_parallel_sat_and_definability_match_serial(self, search, text, c, verdict):
        f = parse(text)
        serial = search(f, c, 4, workers=1)
        parallel = search(f, c, 4, workers=2)
        assert serial.verdict == verdict
        assert serial.to_json() == parallel.to_json()


# ---------------------------------------------------------------------------
# The conjecture sweep


class TestConjectureSweep:
    def test_structure_and_verdicts_at_small_bounds(self):
        reports = conjecture_sweep(max_worlds=2, max_prefix=2)
        assert len(reports) == 74  # 2 + 10 tuples + 2 + 60 hearts
        assert reports[0].query.startswith("anchor: D p -> D D p & D O p")
        assert reports[1].query.startswith("conjecture 1 smoke (n,m,l,k)=(0,1,0,0)")
        assert reports[2].query.startswith("conjecture 1 (n,m,l,k)=(0,0,0,2)")
        assert all(r.verdict == HOLDS_AT_BOUND for r in reports)
        assert all("evidence at bound" in r.query for r in reports)

    def test_heart_series_labels(self):
        reports = conjecture_sweep(max_worlds=1, max_prefix=2)
        queries = [r.query for r in reports]
        assert any("heart=(empty)" in q for q in queries)
        assert any("heart=DC" in q for q in queries)
        # hearts appear for every combination over the five symbols
        assert sum("heart=" in q and "(empty)" not in q for q in queries) == 2 * 30

    def test_statistics_are_consistent(self):
        reports = conjecture_sweep(max_worlds=2, max_prefix=2)
        frames = sum(
            1 for n in (1, 2) for _ in enumerate_frames(n, FrameClass.FOUR, up_to_iso=True)
        )
        valuations = sum(
            1 << fr.n
            for n in (1, 2)
            for fr in enumerate_frames(n, FrameClass.FOUR, up_to_iso=True)
        )
        for r in reports:
            assert r.statistics.frames_scanned == frames
            assert r.statistics.valuations_scanned == valuations

    def test_sweep_is_deterministic(self):
        a = [r.to_json() for r in conjecture_sweep(max_worlds=2, max_prefix=2)]
        b = [r.to_json() for r in conjecture_sweep(max_worlds=2, max_prefix=2)]
        assert a == b

    def test_three_world_sweep_holds(self):
        reports = conjecture_sweep(max_worlds=3, max_prefix=3)
        assert len(reports) == 500
        assert all(r.verdict == HOLDS_AT_BOUND for r in reports)

    def test_rejects_zero_bounds(self):
        with pytest.raises(ValueError, match="bounds must be at least 1"):
            conjecture_sweep(max_worlds=0, max_prefix=2)
        with pytest.raises(ValueError, match="bounds must be at least 1"):
            conjecture_sweep(max_worlds=2, max_prefix=0)
