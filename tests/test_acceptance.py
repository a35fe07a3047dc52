"""End-to-end acceptance battery: one test per headline capability.

Each test pins one coarse guarantee at desk scale — bounds and budgets
stated inline — that the rest of the test suite refines.  Timing asserts
are generous single-core budgets, not benchmarks.
"""

import subprocess
import sys
import time

from bimodal.corpus import builtin_corpus
from bimodal.decide import (
    HOLDS_AT_BOUND,
    REFUTED,
    conjecture_sweep,
    defines_property,
    distinguishing_formula,
    find_countermodel,
    valid_bounded,
)
from bimodal.fixtures import (
    ACCIDENT_COVER_STRONG,
    ACCIDENT_COVER_WEAK,
    ARROW_FRAME,
    ARROWLESS_POINT,
    COMPLETE_PAIR_FRAME,
    ESSENCE_OF_ATOM,
    MOORE_NEGATION_SUCCESSFUL,
    MOORE_SELF_REFUTING,
    MOORE_UNSUCCESSFUL,
    NONCON_SPREAD,
    NONCONTINGENCY_OF_ATOM,
    REFLEXIVE_POINT,
    SERIAL_LOOPED,
    SERIAL_PLAIN,
    STRIPPED_ARROW_FRAME,
    SYMMETRY_FORMULA,
    TRANSITIVITY_FORMULA,
    TWO_CYCLE_FRAME,
    validity_battery,
)
from bimodal.kripke import FrameClass, evaluate, frame_valid
from bimodal.proof import SYSTEMS, check_proof, single_line_mutations
from bimodal.suite import (
    announcement_reduction_random,
    mirror_pointwise_exhaustive,
    mirror_pointwise_random,
)
from bimodal.syntax import LanguageTag, Not, desugar, metrics, parse, render
from bimodal.translate import equivalent_bounded, reduce_announcements


def test_validity_suite_within_budget():
    battery = validity_battery()
    start = time.perf_counter()
    for slug, f, c in battery:
        assert valid_bounded(f, c, 3), f"{slug} refuted within 3 worlds"
    fast_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for slug, f, c in battery:
        assert valid_bounded(f, c, 4), f"{slug} refuted within 4 worlds"
    slow_elapsed = time.perf_counter() - start
    assert fast_elapsed <= 10, f"3-world battery took {fast_elapsed:.1f}s"
    assert slow_elapsed <= 300, f"4-world battery took {slow_elapsed:.1f}s"


def test_invalidity_witness_and_weaker_validity():
    r = find_countermodel(ACCIDENT_COVER_STRONG, FrameClass.K, 3)
    assert r.verdict == REFUTED
    assert r.witness.model.frame.n <= 3
    assert not evaluate(r.witness.model, r.witness.world, ACCIDENT_COVER_STRONG)
    assert valid_bounded(ACCIDENT_COVER_WEAK, FrameClass.K, 4)


def test_definability_exact_to_four_worlds():
    r = defines_property(TRANSITIVITY_FORMULA, FrameClass.FOUR, 4)
    assert r.verdict == HOLDS_AT_BOUND, r.witness
    r = defines_property(SYMMETRY_FORMULA, FrameClass.B, 4)
    assert r.verdict == HOLDS_AT_BOUND, r.witness


def test_mirror_invariance_and_rival_reductions():
    violations, frames, formulas = mirror_pointwise_exhaustive(3, ("p", "q"), 6)
    assert violations == 0
    assert frames == 177  # labeled frames on <= 3 worlds with a pure loop
    assert formulas == 8848  # ∇/•-formulas over {p,q} of size <= 6
    assert mirror_pointwise_random(500, 9, 3, seed=20260817) == (0, 177)

    # stripping the arrow to a sole successor changes frame validity
    f = desugar(ESSENCE_OF_ATOM)
    assert frame_valid(STRIPPED_ARROW_FRAME, f)[0]
    assert not frame_valid(ARROW_FRAME, f)[0]
    # stripping an accompanied loop changes frame validity as well
    g = desugar(NONCONTINGENCY_OF_ATOM)
    assert frame_valid(TWO_CYCLE_FRAME, g)[0]
    ok, witness = frame_valid(COMPLETE_PAIR_FRAME, g)
    assert not ok
    assert witness == ({"p": ("s",)}, "s")


def test_expressivity_searches():
    r = distinguishing_formula(
        REFLEXIVE_POINT, ARROWLESS_POINT, LanguageTag.DIAMOND, {"p"}, 2
    )
    assert r.verdict == REFUTED
    assert render(r.witness.formula) == "<>true"

    r = distinguishing_formula(
        SERIAL_LOOPED, SERIAL_PLAIN, LanguageTag.DIAMOND, {"p"}, 6
    )
    assert r.verdict == REFUTED
    found = r.witness.formula
    double_necessity = parse("[][]p")
    same, _ = equivalent_bounded(found, double_necessity)
    complement, _ = equivalent_bounded(found, Not(double_necessity))
    assert same or complement, f"{render(found)} is not a double-necessity split"

    r = distinguishing_formula(
        REFLEXIVE_POINT, ARROWLESS_POINT, LanguageTag.NABLA_BULLET, {"p"}, 7
    )
    assert r.verdict == HOLDS_AT_BOUND, (
        f"the ∇/• search split the singleton pair with {render(r.witness.formula)}"
    )

    # t sees a p-world (s) and a ¬p-world (t), so C p holds at t in the
    # looped model; s sees only t, so ~C p is an accident at s.  In the plain
    # model every world has one successor and C p is false everywhere.
    r = distinguishing_formula(
        SERIAL_LOOPED, SERIAL_PLAIN, LanguageTag.NABLA_BULLET, {"p"}, 7
    )
    assert r.verdict == REFUTED
    found = r.witness.formula
    assert found == parse("A ~C p")
    assert evaluate(SERIAL_LOOPED.model, SERIAL_LOOPED.point, found)
    assert not evaluate(SERIAL_PLAIN.model, SERIAL_PLAIN.point, found)


def test_announcement_reduction():
    assert announcement_reduction_random(500, seed=20260817) == (0, 500)
    for f in (MOORE_SELF_REFUTING, MOORE_NEGATION_SUCCESSFUL):
        reduced, _ = reduce_announcements(f)
        assert metrics(reduced)["announcement_depth"] == 0
        assert valid_bounded(reduced, FrameClass.K, 4), render(f)
    r = find_countermodel(MOORE_UNSUCCESSFUL, FrameClass.K, 3)
    assert r.verdict == REFUTED
    assert not evaluate(r.witness.model, r.witness.world, MOORE_UNSUCCESSFUL)


def test_proof_corpus():
    entries = builtin_corpus()
    assert len(entries) >= 10
    for entry in entries:
        assert check_proof(entry.proof).ok, entry.name
        c = SYSTEMS[entry.system].frame_class
        assert valid_bounded(entry.conclusion, c, 3), entry.name
        for line, mutant in single_line_mutations(entry.proof):
            assert not check_proof(mutant).ok, f"{entry.name}: line {line}"


def test_conjecture_sweep():
    reports = conjecture_sweep(4, 4)
    anchor = reports[0]
    assert anchor.query.startswith("anchor:")
    assert render(NONCON_SPREAD) in anchor.query
    assert anchor.verdict == HOLDS_AT_BOUND
    for r in reports:
        assert r.verdict in (HOLDS_AT_BOUND, REFUTED), r.query
        assert (r.witness is not None) == (r.verdict == REFUTED), r.query


def test_cli_suite_fast_profile():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bimodal.cli", "paper-suite", "--profile", "fast"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 failed" in proc.stdout
    assert elapsed <= 120, f"fast suite took {elapsed:.1f}s"
