"""Tests for the diamond translation, announcement reduction, and equivalence."""

import random

import pytest

from bimodal.kripke import (
    FrameClass,
    Model,
    PointedModel,
    enumerate_frames,
    evaluate,
    frame_valid,
    valuation_masks,
)
from bimodal.syntax import (
    TOP,
    And,
    Ann,
    Atom,
    Con,
    Diamond,
    Not,
    atoms,
    desugar,
    parse,
    render,
)
from bimodal.translate import (
    REDUCTION_AXIOMS,
    ReductionStep,
    ReductionTrace,
    equivalent_bounded,
    reduce_announcements,
    to_diamond,
)

import genutil
from genutil import random_formula

# the operators of the announcement language: no diamond anywhere
ANN_UNARY = tuple(
    op for op in genutil.SUGAR_UNARY if op.__name__ not in ("Diamond", "Box")
)


def random_announcement_formula(rng, size, ann_depth=2):
    return random_formula(rng, size, ("p", "q"), unary=ANN_UNARY, ann_depth=ann_depth)


# ---------------------------------------------------------------------------
# Box-diamond translation


class TestToDiamond:
    def test_contingency(self):
        # contingency is possibility of both truth values
        assert to_diamond(parse("C p")) == parse("<>p & <>~p")

    def test_accident(self):
        # accident is truth plus possibility of falsity
        assert to_diamond(parse("A p")) == parse("p & <>~p")

    def test_sugar_is_translated_through(self):
        assert to_diamond(parse("[]p")) == parse("~<>~p")
        assert to_diamond(parse("D p")) == parse("~(<>p & <>~p)")
        assert to_diamond(parse("O p")) == parse("~(p & <>~p)")

    def test_nested(self):
        inner = parse("<>p & <>~p")
        assert to_diamond(parse("C C p")) == And(Diamond(inner), Diamond(Not(inner)))

    def test_announcements_rejected(self):
        with pytest.raises(ValueError, match="reduce announcements first"):
            to_diamond(parse("[!p]q"))
        with pytest.raises(ValueError, match="reduce announcements first"):
            to_diamond(parse("[?p]q"))

    def test_output_language(self):
        from bimodal.syntax import LanguageTag, in_language

        rng = random.Random(20260310)
        for _ in range(100):
            f = random_formula(rng, rng.randint(1, 9), ("p", "q"))
            assert in_language(to_diamond(f), LanguageTag.DIAMOND)

    def test_equivalent_to_the_original(self):
        rng = random.Random(20260311)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 8), ("p", "q"))
            ok, witness = equivalent_bounded(f, to_diamond(f), max_worlds=2)
            assert ok, (render(f), witness)

    def test_equivalence_spot_checks_at_three_worlds(self):
        for text in ("C(p -> A q)", "A A p", "D p & O(~q -> p)", "C p -> A p | A ~p"):
            f = parse(text)
            ok, _ = equivalent_bounded(f, to_diamond(f), max_worlds=3)
            assert ok


# ---------------------------------------------------------------------------
# Announcement reduction


class TestReduceAnnouncements:
    def test_moore_sentence_steps(self):
        reduced, trace = reduce_announcements(parse("[!A p]~A p"))
        assert [step.axiom for step in trace.steps] == ["AN", "AAcc", "AP"]
        assert "[" not in render(reduced)

    def test_desugar_step_recorded_only_when_needed(self):
        _, trace = reduce_announcements(parse("[!p][!q]r"))
        assert trace.steps[0].axiom == "AA"
        _, trace = reduce_announcements(parse("[?p]q"))
        assert trace.steps[0].axiom == "DESUGAR"

    def test_announcement_free_input_is_identity(self):
        f = desugar(parse("D p & O(~q -> p)"))
        reduced, trace = reduce_announcements(f)
        assert reduced == f
        assert trace.steps == ()

    def test_axiom_names_are_declared(self):
        rng = random.Random(20260312)
        seen = set()
        for _ in range(150):
            f = random_announcement_formula(rng, rng.randint(1, 9))
            _, trace = reduce_announcements(f)
            seen.update(step.axiom for step in trace.steps)
        assert seen <= set(REDUCTION_AXIOMS)
        # the corpus of random formulas exercises every live axiom
        assert {"AP", "AN", "AC", "AA", "ACon", "AAcc", "DESUGAR"} <= seen

    def test_nested_announcement_uses_composition(self):
        _, trace = reduce_announcements(Ann(Atom("p"), Ann(Atom("q"), Atom("r"))))
        assert trace.steps[0].axiom == "AA"

    def test_replay_reproduces_the_result(self):
        rng = random.Random(20260313)
        for _ in range(150):
            f = random_announcement_formula(rng, rng.randint(1, 9))
            reduced, trace = reduce_announcements(f)
            assert trace.replay(f) == reduced

    def test_replay_rejects_foreign_traces(self):
        _, trace = reduce_announcements(parse("[!p]q"))
        with pytest.raises(ValueError, match="does not apply"):
            trace.replay(parse("[!p]r"))

    def test_each_step_is_sound(self):
        # every recorded rewrite is an equivalence under the direct
        # announcement semantics
        rng = random.Random(20260314)
        for _ in range(40):
            f = random_announcement_formula(rng, rng.randint(2, 8))
            _, trace = reduce_announcements(f)
            for step in trace.steps:
                ok, witness = equivalent_bounded(step.before, step.after, max_worlds=2)
                assert ok, (step.axiom, render(step.before), witness)

    def test_reduction_preserves_meaning(self):
        rng = random.Random(20260315)
        for _ in range(200):
            f = random_announcement_formula(rng, rng.randint(1, 9))
            reduced, _ = reduce_announcements(f)
            ok, witness = equivalent_bounded(f, reduced, max_worlds=2)
            assert ok, (render(f), render(reduced), witness)

    def test_meaning_spot_checks_at_three_worlds(self):
        for text in (
            "[!A p]~A p",
            "[!~A p]~A p",
            "[!p][!q]C r",
            "[?C p]A q",
            "[!p & C q]A(q -> p)",
        ):
            f = parse(text)
            reduced, _ = reduce_announcements(f)
            ok, witness = equivalent_bounded(f, reduced, max_worlds=3)
            assert ok, (text, witness)

    def test_announced_formula_may_use_diamonds(self):
        reduced, trace = reduce_announcements(parse("[!<>p]q"))
        assert reduced == desugar(parse("<>p -> q"))
        assert [step.axiom for step in trace.steps] == ["AP"]

    def test_possibility_body_is_rejected(self):
        with pytest.raises(ValueError, match="possibility body"):
            reduce_announcements(parse("[!p]<>q"))
        with pytest.raises(ValueError, match="possibility body"):
            reduce_announcements(parse("[!p](q & []r)"))

    def test_vacuous_and_trivial_announcements(self):
        for text, expected in (
            ("[!true](C p -> A p | A ~p)", "C p -> A p | A ~p"),
            ("[!false]A p", "true"),
        ):
            reduced, _ = reduce_announcements(parse(text))
            ok, _ = equivalent_bounded(reduced, parse(expected), max_worlds=3)
            assert ok, text

    def test_unknown_axiom_name_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction axiom"):
            ReductionStep("AX", TOP, TOP)

    def test_trace_type_round_trip(self):
        reduced, trace = reduce_announcements(parse("[!p]~q"))
        rebuilt = ReductionTrace(tuple(trace.steps))
        assert rebuilt.replay(parse("[!p]~q")) == reduced


# ---------------------------------------------------------------------------
# Bounded equivalence


class TestEquivalentBounded:
    def test_duality(self):
        ok, witness = equivalent_bounded(parse("C p"), parse("C ~p"), max_worlds=3)
        assert ok and witness is None

    def test_accident_versus_box(self):
        ok, witness = equivalent_bounded(parse("A p"), parse("p & ~[]p"))
        assert ok and witness is None

    def test_disagreement_witness(self):
        ok, witness = equivalent_bounded(parse("[!A p]A p"), TOP, max_worlds=3)
        assert not ok
        # the least disagreement is the two-world arrow with p at its root
        assert witness.model.frame.pairs() == [("w0", "w1")]
        assert witness.model.atom_mask("p") == 1
        assert witness.point == "w0"

    def test_witness_actually_disagrees(self):
        from bimodal.kripke import evaluate

        rng = random.Random(20260316)
        found = 0
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 6), ("p",))
            g = random_formula(rng, rng.randint(1, 6), ("p",))
            ok, witness = equivalent_bounded(f, g, max_worlds=2)
            if not ok:
                found += 1
                left = evaluate(witness.model, witness.point, f)
                right = evaluate(witness.model, witness.point, g)
                assert left != right
        assert found > 50

    def test_witness_is_the_first_disagreement(self):
        # brute force over every labeled frame, valuation and world in
        # (worlds, relation index, valuation index, world index) order
        rng = random.Random(20261020)

        def sample():
            return random_formula(rng, rng.randint(1, 6), ("p", "q"), ann_depth=1)

        # random pairs nearly always first disagree at one world only; these
        # two first disagree at both worlds of a two-world model
        pairs = [
            (parse("A ~D p"), parse("D p <-> false")),
            (parse("[]D(p <-> D p)"), parse("[!~(p <-> p)]~p")),
        ] + [(sample(), sample()) for _ in range(60)]
        found = 0
        for f, g in pairs:
            order = sorted(atoms(f) | atoms(g))
            first = None
            for fr in (fr for n in (1, 2) for fr in enumerate_frames(n)):
                for v in range(1 << (len(order) * fr.n)):
                    model = Model(fr, valuation_masks(v, order, fr.n))
                    split = [
                        w for w in fr.worlds if evaluate(model, w, f) != evaluate(model, w, g)
                    ]
                    if split:
                        first = PointedModel(model, split[0])
                        break
                if first is not None:
                    break
            ok, witness = equivalent_bounded(f, g, max_worlds=2)
            assert ok == (first is None)
            assert witness == first
            found += not ok
        assert found > 20

    def test_respects_frame_class(self):
        # seriality separates these: with dead ends O p can hold vacuously
        f, g = parse("O p -> <>p | ~p"), parse("true")
        ok, _ = equivalent_bounded(f, g, FrameClass.D, max_worlds=3)
        assert ok
        ok, witness = equivalent_bounded(f, g, FrameClass.K, max_worlds=3)
        assert not ok and witness is not None

    def test_bound_is_respected(self):
        with pytest.raises(ValueError, match="at least one world"):
            equivalent_bounded(TOP, TOP, max_worlds=0)


def test_reduction_axioms_listing_is_stable():
    assert REDUCTION_AXIOMS == (
        "AP",
        "AN",
        "AC",
        "AA",
        "ACon",
        "AAcc",
        "ADelta",
        "ACirc",
        "DESUGAR",
    )
