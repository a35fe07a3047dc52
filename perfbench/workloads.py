"""The benchmark's workloads: seeded inputs, timed library calls, known answers.

Each workload is a list of :class:`Query` objects.  A query makes one library
call that returns a verdict, and a checker compares that verdict with an
answer known independently of the code path under test: a theorem of the
paper, a frozen count, or a re-check of the witness with the recursive
``evaluate`` oracle.  The seed only renames atoms, relabels worlds, shuffles
the query order and drives the random generators, so every seed asks the
same kind of question and gets a known answer.

All calls go through module attributes (``decide.find_countermodel``), so the
wrappers the traced run installs on those attributes see them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from bimodal import corpus, decide, fixtures, kripke, proof, suite, syntax, translate
from bimodal.decide import HOLDS_AT_BOUND, REFUTED
from bimodal.kripke import Frame, FrameClass, Model, PointedModel
from bimodal.syntax import LanguageTag

Check = Callable[[object], "str | None"]
Counts = dict[str, int]


def _no_counts(result: object) -> Counts:
    return {}


@dataclass(frozen=True)
class Query:
    """One timed library call and the check of its verdict.

    ``check`` returns None when the result is the known answer, otherwise a
    one-line reason.  ``count`` turns the result into deterministic work
    counters, which must repeat exactly on every pass and every run.
    """

    name: str
    call: Callable[[], object]
    check: Check
    count: Callable[[object], Counts] = _no_counts


@dataclass
class Workload:
    """The queries of one workload plus the problems found while setting up.

    ``problems`` names frozen counts that did not come out as expected; each
    one counts as a wrong verdict of the run.  ``counts`` holds the work
    counters of building the inputs.
    """

    queries: list[Query]
    problems: list[str] = field(default_factory=list)
    counts: Counts = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded renaming


def _tag(rng: random.Random) -> str:
    """A suffix that keeps atom names valid and their sorted order intact."""
    return "_" + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _renamed(f: syntax.Formula, tag: str) -> syntax.Formula:
    return syntax.substitute(f, {a: syntax.Atom(a + tag) for a in syntax.atoms(f)})


def _renamed_model(pm: PointedModel, tag: str) -> PointedModel:
    m = pm.model
    return PointedModel(
        Model(m.frame, {name + tag: mask for name, mask in m.valuation.items()}),
        pm.point,
    )


# ---------------------------------------------------------------------------
# Known-answer checks


def _scan_counts(report: decide.Report) -> Counts:
    s = report.statistics
    return {
        "decide.frames_scanned": s.frames_scanned,
        "decide.valuations_scanned": s.valuations_scanned,
        "decide.work_units": s.work_units,
    }


def _search_counts(report: decide.Report) -> Counts:
    return {"decide.candidates_examined": report.statistics.work_units}


def expect_scan(
    verdict: str,
    formula: syntax.Formula,
    c: FrameClass,
    max_worlds: int,
    *,
    satisfiable: bool = False,
    frames_scanned: int | None = None,
) -> Check:
    """The report must carry ``verdict``; a model witness must re-check.

    For a validity scan the witness must falsify ``formula``; for a
    satisfiability scan (``satisfiable``) it must satisfy it.  Either way it
    must lie in class ``c`` within the world bound.  ``frames_scanned``, when
    given, is a frozen count the report's statistics must match.
    """

    def check(report: object) -> str | None:
        if report.verdict != verdict:
            return f"verdict {report.verdict}, expected {verdict}"
        scanned = report.statistics.frames_scanned
        if frames_scanned is not None and scanned != frames_scanned:
            return f"{scanned} frames scanned, expected {frames_scanned}"
        witness = report.witness
        if verdict == HOLDS_AT_BOUND:
            return None if witness is None else "HOLDS_AT_BOUND carries a witness"
        if not isinstance(witness, decide.ModelWitness):
            return f"REFUTED without a model witness: {witness!r}"
        frame = witness.model.frame
        if frame.n > max_worlds or not kripke.frame_has_property(frame, c):
            return "witness frame is outside the scanned class or bound"
        if kripke.evaluate(witness.model, witness.world, formula) != satisfiable:
            return "witness does not re-check with evaluate"
        return None

    return check


def expect_search(verdict: str, a: PointedModel, b: PointedModel) -> Check:
    """A distinguishing search must give ``verdict``; a found formula must
    hold at exactly one of the two points under ``evaluate``."""

    def check(report: object) -> str | None:
        if report.verdict != verdict:
            return f"verdict {report.verdict}, expected {verdict}"
        if verdict == HOLDS_AT_BOUND:
            return None if report.witness is None else "HOLDS_AT_BOUND carries a witness"
        f = report.witness.formula
        if kripke.evaluate(a.model, a.point, f) == kripke.evaluate(b.model, b.point, f):
            return f"witness {syntax.render(f)} does not split the pair"
        return None

    return check


def expect_equal(expected: object) -> Check:
    def check(result: object) -> str | None:
        return None if result == expected else f"got {result!r}, expected {expected!r}"

    return check


def _scan_query(
    name: str,
    f: syntax.Formula,
    c: FrameClass,
    n: int,
    verdict: str = HOLDS_AT_BOUND,
    *,
    frames_scanned: int | None = None,
) -> Query:
    return Query(
        name,
        lambda: decide.find_countermodel(f, c, n),
        expect_scan(verdict, f, c, n, frames_scanned=frames_scanned),
        _scan_counts,
    )


# ---------------------------------------------------------------------------
# Lazy caches every workload warms before timing


def _warm_frames(classes_by_n: dict[int, tuple[FrameClass, ...]]) -> None:
    """Pull the first isomorphism-free frame of each scanned world count."""
    for n, classes in classes_by_n.items():
        for c in classes:
            next(kripke.enumerate_frames(n, c, up_to_iso=True), None)


# the ROADMAP's isomorphism-class counts at four worlds
ISO_CLASSES_AT_4 = {
    FrameClass.K: 3044,
    FrameClass.D: 2340,
    FrameClass.T: 218,
    FrameClass.B: 90,
    FrameClass.FOUR: 242,
    FrameClass.FIVE: 31,
    FrameClass.CONV: 1184,
}


# ---------------------------------------------------------------------------
# scan: the interactive validity user at up to four worlds


def scan(seed: int) -> Workload:
    rng = random.Random(seed)
    tag = _tag(rng)
    problems = []
    for c, expected in ISO_CLASSES_AT_4.items():
        got = sum(1 for _ in kripke.enumerate_frames(4, c, up_to_iso=True))
        if got != expected:
            problems.append(f"iso classes of {c.value} at 4 worlds: {got}, expected {expected}")
    entries = corpus.builtin_corpus()

    queries = []
    for slug, f, c in fixtures.validity_battery():
        g = _renamed(f, tag)
        for n in (3, 4):
            queries.append(_scan_query(f"valid {slug} @{n}", g, c, n))
    for entry in entries:
        c = proof.SYSTEMS[entry.system].frame_class
        queries.append(_scan_query(f"valid {entry.name} @3", _renamed(entry.conclusion, tag), c, 3))
    for label, f, c in (
        ("transitivity", fixtures.TRANSITIVITY_FORMULA, FrameClass.FOUR),
        ("symmetry", fixtures.SYMMETRY_FORMULA, FrameClass.B),
    ):
        g = _renamed(f, tag)
        for n in (3, 4):
            queries.append(
                Query(
                    f"defines {label} @{n}",
                    lambda g=g, c=c, n=n: decide.defines_property(g, c, n),
                    expect_scan(HOLDS_AT_BOUND, g, c, n),
                    _scan_counts,
                )
            )
    for label, f in (
        ("accident-cover-strong", fixtures.ACCIDENT_COVER_STRONG),
        ("moore-unsuccessful", fixtures.MOORE_UNSUCCESSFUL),
        ("accident-of-conjunction", syntax.parse("A(p & q) -> A p")),
        ("accident-to-necessity", syntax.parse("A p -> [] p")),
    ):
        queries.append(
            _scan_query(f"refute {label} @3", _renamed(f, tag), FrameClass.K, 3, REFUTED)
        )
    for label, f in (
        ("moore-self-refuting", fixtures.MOORE_SELF_REFUTING),
        ("moore-negation-successful", fixtures.MOORE_NEGATION_SUCCESSFUL),
    ):
        queries.append(_scan_query(f"valid {label} @4", _renamed(f, tag), FrameClass.K, 4))
    for label, text, verdict in (
        ("contingency", "C p", REFUTED),
        ("accident-of-falsehood", "A p & ~p", HOLDS_AT_BOUND),
    ):
        f = _renamed(syntax.parse(text), tag)
        queries.append(
            Query(
                f"sat {label} @3",
                lambda f=f: decide.sat_bounded(f, FrameClass.K, 3),
                expect_scan(verdict, f, FrameClass.K, 3, satisfiable=True),
                _scan_counts,
            )
        )
    rng.shuffle(queries)
    _warm_frames({n: tuple(FrameClass) for n in (1, 2, 3, 4)})
    return Workload(queries, problems)


# ---------------------------------------------------------------------------
# deep: five-world scans (run by hand; its set-up builds a 2^25-entry table)


DEEP_FRAMES_SCANNED = 295_128  # sum of OEIS A000595(1..5)


def deep(seed: int) -> Workload:
    rng = random.Random(seed)
    tag = _tag(rng)
    a_p = _renamed(syntax.parse("A p -> p"), tag)
    queries = [
        _scan_query(
            f"valid A p -> p on {c.value} @5",
            a_p,
            c,
            5,
            frames_scanned=DEEP_FRAMES_SCANNED if c is FrameClass.K else None,
        )
        for c in (FrameClass.K, FrameClass.B, FrameClass.FIVE)
    ]
    rows = {slug: (f, c) for slug, f, c in fixtures.validity_battery()}
    for slug in ("axiom-at", "axiom-a4-1", "axiom-a4-2"):
        f, c = rows[slug]
        queries.append(_scan_query(f"valid {slug} @5", _renamed(f, tag), c, 5))
    queries.append(
        _scan_query("valid noncon-spread @5", _renamed(fixtures.NONCON_SPREAD, tag), FrameClass.FOUR, 5)
    )
    rng.shuffle(queries)
    _warm_frames({5: (FrameClass.K,)})
    return Workload(queries)


# ---------------------------------------------------------------------------
# formulas: batteries of many formulas over a few small frames


MIRROR_FRAMES = 177  # labelled frames on <= 3 worlds with a pure loop
MIRROR_FORMULAS = 8848  # ∇/•-formulas over {p,q} of size <= 6
SWEEP_REPORTS = 3191  # conjecture_sweep(4, 4)
MIRROR_PAIR_SIZE = 5
NABLA_BULLET_TAGS = (LanguageTag.NABLA_BULLET, LanguageTag.NABLA, LanguageTag.BULLET)


def _mirrored(pm: PointedModel) -> PointedModel:
    """Drop each self-loop that is its world's only arrow (the paper's mirror
    reduction, written out here so the answer does not rest on the program)."""
    fr = pm.model.frame
    succ = tuple(0 if row == 1 << w else row for w, row in enumerate(fr.succ))
    return PointedModel(Model(Frame(fr.worlds, succ), pm.model.valuation), pm.point)


def _looped_models(rng: random.Random, atom: str) -> list[PointedModel]:
    """Every 3-world frame whose first world has a pure loop, with a valuation
    and a point cycling through all choices; the seed relabels the worlds."""
    perm = [0, 1, 2]
    rng.shuffle(perm)

    def relabel(mask: int) -> int:
        return sum(1 << perm[w] for w in range(3) if mask >> w & 1)

    worlds = ("w0", "w1", "w2")
    models = []
    for i, (row1, row2) in enumerate(product(range(8), repeat=2)):
        succ = [0, 0, 0]
        for w, row in enumerate((1, row1, row2)):
            succ[perm[w]] = relabel(row)
        model = Model(Frame(worlds, tuple(succ)), {atom: relabel(i % 8)})
        models.append(PointedModel(model, worlds[perm[i % 3]]))
    return models


def _fixture_searches(tag: str) -> list[Query]:
    singleton = (
        _renamed_model(fixtures.REFLEXIVE_POINT, tag),
        _renamed_model(fixtures.ARROWLESS_POINT, tag),
    )
    serial = (
        _renamed_model(fixtures.SERIAL_LOOPED, tag),
        _renamed_model(fixtures.SERIAL_PLAIN, tag),
    )
    # Singleton pair: the mirror reduction maps one point to the other, so no
    # ∇/•-formula splits them; <>true does.  Serial pair: A ~C p splits it
    # (ROADMAP item 4), while pure ∇ and pure • evaluate identically on both.
    answers = {
        ("singleton", LanguageTag.NABLA_BULLET): HOLDS_AT_BOUND,
        ("singleton", LanguageTag.NABLA): HOLDS_AT_BOUND,
        ("singleton", LanguageTag.BULLET): HOLDS_AT_BOUND,
        ("singleton", LanguageTag.DIAMOND): REFUTED,
        ("singleton", LanguageTag.FULL): REFUTED,
        ("serial", LanguageTag.NABLA_BULLET): REFUTED,
        ("serial", LanguageTag.NABLA): HOLDS_AT_BOUND,
        ("serial", LanguageTag.BULLET): HOLDS_AT_BOUND,
        ("serial", LanguageTag.DIAMOND): REFUTED,
        ("serial", LanguageTag.FULL): REFUTED,
    }
    queries = []
    for (pair, language), verdict in answers.items():
        a, b = singleton if pair == "singleton" else serial
        queries.append(
            Query(
                f"distinguish {pair} {language.value} @7",
                lambda a=a, b=b, language=language: decide.distinguishing_formula(
                    a, b, language, {"p" + tag}, 7
                ),
                expect_search(verdict, a, b),
                _search_counts,
            )
        )
    a, b = singleton
    queries.append(
        Query(
            "distinguish singleton nabla-bullet over p,q @7",
            lambda: decide.distinguishing_formula(
                a, b, LanguageTag.NABLA_BULLET, {"p" + tag, "q" + tag}, 7
            ),
            expect_search(HOLDS_AT_BOUND, a, b),
            _search_counts,
        )
    )
    return queries


def formulas(seed: int) -> Workload:
    rng = random.Random(seed)
    tag = _tag(rng)

    def sweep_check(reports: object) -> str | None:
        if len(reports) != SWEEP_REPORTS:
            return f"{len(reports)} reports, expected {SWEEP_REPORTS}"
        if not reports[0].query.startswith("anchor:"):
            return "the anchor report is not first"
        refuted = [r.query for r in reports if r.verdict != HOLDS_AT_BOUND]
        return f"{len(refuted)} refuted, first: {refuted[0]}" if refuted else None

    def sweep_counts(reports: object) -> Counts:
        total: Counts = {}
        for r in reports:
            for key, value in _scan_counts(r).items():
                total[key] = total.get(key, 0) + value
        return total

    batteries = [
        Query(
            "mirror exhaustive 3 worlds, size 6",
            lambda: suite.mirror_pointwise_exhaustive(3, ("p", "q"), 6),
            expect_equal((0, MIRROR_FRAMES, MIRROR_FORMULAS)),
            lambda r: {"suite.mirror_frames": r[1], "suite.battery_formulas": r[2]},
        ),
        Query(
            "mirror random 500, size 9",
            lambda: suite.mirror_pointwise_random(500, 9, 3, seed),
            expect_equal((0, MIRROR_FRAMES)),
            lambda r: {"suite.mirror_frames": r[1], "suite.battery_formulas": 500},
        ),
        Query(
            "conjecture sweep 4 worlds, prefix 4",
            lambda: decide.conjecture_sweep(4, 4),
            sweep_check,
            sweep_counts,
        ),
    ]
    searches = _fixture_searches(tag)
    for i, a in enumerate(_looped_models(rng, "p" + tag)):
        b = _mirrored(a)
        for language in NABLA_BULLET_TAGS:
            searches.append(
                Query(
                    f"distinguish mirror pair {i} {language.value} @{MIRROR_PAIR_SIZE}",
                    lambda a=a, b=b, language=language: decide.distinguishing_formula(
                        a, b, language, {"p" + tag}, MIRROR_PAIR_SIZE
                    ),
                    expect_search(HOLDS_AT_BOUND, a, b),
                    _search_counts,
                )
            )
    # A fixed order: the order of the big searches changes how much of the
    # heap the allocator keeps, and with it peak_rss_mb by up to 7%.  The
    # small searches sit in four slices between the batteries, so a burst
    # of load from outside slows a quarter of them rather than all.
    queries = searches[0::4]
    for battery, rest in zip(batteries, (searches[1::4], searches[2::4], searches[3::4])):
        queries += [battery, *rest]
    _warm_frames({n: (FrameClass.FOUR,) for n in (1, 2, 3, 4)})
    return Workload(queries)


# ---------------------------------------------------------------------------
# announce: announcement reduction checked against the direct semantics


ANNOUNCE_COUNT = 500
ACCEPTANCE_SEED = 20260817


def has_announcement(f: syntax.Formula) -> bool:
    """Whether an announcement node is left, by a walk of the benchmark's own."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (syntax.Ann, syntax.AnnWhether)):
            return True
        stack.extend(getattr(g, name) for name in g.__match_args__
                     if isinstance(getattr(g, name), syntax.Formula))
    return False


def _reduce_and_compare(f: syntax.Formula) -> tuple:
    reduced, trace = translate.reduce_announcements(f)
    agree, witness = translate.equivalent_bounded(f, reduced, FrameClass.K, 3)
    return reduced, trace, agree, witness


def _reduction_check(result: object) -> str | None:
    reduced, _, agree, _ = result
    if has_announcement(reduced):
        return "an announcement is left after reduction"
    return None if agree else "reduced formula disagrees with its source within 3 worlds"


def announce(seed: int) -> Workload:
    # The formulas are always the acceptance battery's draw (what
    # suite.announcement_reduction_random draws with seed 20260817); the seed
    # swaps and renames the atoms and shuffles the order.  Drawing a fresh
    # 500 per seed made pass_s and verdict_p90_ms spread by about 18% across
    # seeds, because a few deeply nested announcements dominate the cost.
    draw = random.Random(ACCEPTANCE_SEED)
    rng = random.Random(seed)
    tag = _tag(rng)
    names = ["p", "q"]
    rng.shuffle(names)
    mapping = {"p": syntax.Atom(names[0] + tag), "q": syntax.Atom(names[1] + tag)}
    queries = []
    for i in range(ANNOUNCE_COUNT):
        f = suite.random_formula(draw, draw.randint(3, 9), ("p", "q"), ann_budget=2)
        f = syntax.substitute(f, mapping)
        queries.append(
            Query(
                f"reduce #{i} {syntax.render(f)}",
                lambda f=f: _reduce_and_compare(f),
                _reduction_check,
                lambda r: {"translate.reduction_steps": len(r[1].steps)},
            )
        )
    rng.shuffle(queries)
    _warm_frames({n: (FrameClass.K,) for n in (1, 2, 3)})
    return Workload(queries)


# ---------------------------------------------------------------------------
# proofs: the checker on the corpus, its mutants and wide tautologies


CORPUS_PROOFS = 20
CORPUS_MUTANTS = 312
TAUT_WIDTHS = (16, 18, 20, 21)


def _taut_proof(k: int, tag: str) -> proof.Proof:
    conj: syntax.Formula = syntax.Atom("p0" + tag)
    for i in range(1, k):
        conj = syntax.And(conj, syntax.Atom(f"p{i}{tag}"))
    line = proof.ProofLine(syntax.Implies(conj, conj), proof.Taut())
    return proof.Proof("K", (), (line,))


def _proof_query(name: str, p: proof.Proof, valid: bool) -> Query:
    def check(result: object) -> str | None:
        if result.ok == valid:
            return None
        return "rejected a valid proof" if valid else "accepted a corrupted proof"

    def count(result: object) -> Counts:
        return {"proof.lines_checked": len(p.lines) if result.ok else result.line}

    return Query(name, lambda: proof.check_proof(p), check, count)


def proofs(seed: int) -> Workload:
    rng = random.Random(seed)
    tag = _tag(rng)
    entries = corpus.builtin_corpus()
    problems = []
    if len(entries) != CORPUS_PROOFS:
        problems.append(f"{len(entries)} corpus proofs, expected {CORPUS_PROOFS}")
    queries = []
    mutants = 0
    for entry in entries:
        atoms = set()
        for line in entry.proof.lines:
            atoms |= syntax.atoms(line.formula)
        renamed = proof.rename_atoms(entry.proof, {a: a + tag for a in atoms})
        queries.append(_proof_query(f"proof {entry.name}", renamed, True))
        for number, mutant in proof.single_line_mutations(renamed):
            mutants += 1
            queries.append(_proof_query(f"mutant {entry.name} line {number}", mutant, False))
    if mutants != CORPUS_MUTANTS:
        problems.append(f"{mutants} mutants, expected {CORPUS_MUTANTS}")
    # The 21-letter tautology is valid; the checker's 20-letter cap makes it
    # raise today (ROADMAP item 5), which the run reports as a failed verdict.
    for k in TAUT_WIDTHS:
        queries.append(_proof_query(f"taut width {k}", _taut_proof(k, tag), True))
    rng.shuffle(queries)
    return Workload(queries, problems, {"corpus.mutants": mutants})


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "scan": scan,
    "formulas": formulas,
    "announce": announce,
    "proofs": proofs,
    "deep": deep,
}

