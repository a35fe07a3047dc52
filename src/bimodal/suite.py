"""The bundled demonstration suite: one self-checking tour of the workbench.

Each check re-establishes one stock behavior — a validity, a refutation
with a re-checked witness, a definability result, an expressivity search,
a reduction property, or a corpus-wide proof audit — and reports pass or
fail under a named profile.  The ``fast`` profile keeps every bound small
enough for an interactive run; ``slow`` raises the world bounds and the
randomized batteries to the sizes the test batteries pin.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import fixtures
from .corpus import builtin_corpus
from .decide import (
    HOLDS_AT_BOUND,
    REFUTED,
    conjecture_sweep,
    defines_property,
    distinguishing_formula,
    find_countermodel,
    valid_bounded,
)
from .kripke import (
    ColumnEvaluator,
    FrameClass,
    enumerate_frames,
    evaluate,
    frame_has_property,
    frame_valid,
    mirror_reduction,
)
from .proof import SYSTEMS, check_proof, match_schema, single_line_mutations
from .syntax import (
    BOT,
    TOP,
    Acc,
    And,
    Ann,
    AnnWhether,
    Atom,
    Con,
    Formula,
    Iff,
    Implies,
    LanguageTag,
    Not,
    Or,
    atoms,
    desugar,
    enumerate_formulas,
    in_language,
    metrics,
    parse,
    render,
)
from .translate import equivalent_bounded, reduce_announcements, to_diamond

__all__ = [
    "Profile",
    "PROFILES",
    "SuiteCheck",
    "CheckResult",
    "suite_checks",
    "run_suite",
    "mirror_pointwise_exhaustive",
    "mirror_pointwise_random",
    "announcement_reduction_random",
    "random_formula",
]


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True, slots=True)
class Profile:
    """Bounds for one suite run."""

    name: str
    worlds: int  # world bound for validity scans
    frame_worlds: int  # world bound for definability scans
    battery_size: int  # exhaustive formula size in the mirror battery
    random_count: int  # formulas per randomized battery
    sweep_worlds: int
    sweep_prefix: int


PROFILES = {
    "fast": Profile(
        "fast",
        worlds=3,
        frame_worlds=3,
        battery_size=4,
        random_count=100,
        sweep_worlds=3,
        sweep_prefix=3,
    ),
    "slow": Profile(
        "slow",
        worlds=4,
        frame_worlds=4,
        battery_size=6,
        random_count=500,
        sweep_worlds=4,
        sweep_prefix=4,
    ),
}


class CheckFailure(Exception):
    """Raised inside a check body when the behavior does not hold."""


@dataclass(frozen=True, slots=True)
class SuiteCheck:
    slug: str
    description: str
    run: Callable[[Profile, int], str]


@dataclass(frozen=True, slots=True)
class CheckResult:
    slug: str
    description: str
    ok: bool
    detail: str
    elapsed: float

    def to_json(self) -> dict:
        return {
            "slug": self.slug,
            "description": self.description,
            "ok": self.ok,
            "detail": self.detail,
        }


_CHECKS: list[SuiteCheck] = []


def _check(slug: str, description: str):
    def wrap(fn: Callable[[Profile, int], str]) -> Callable[[Profile, int], str]:
        _CHECKS.append(SuiteCheck(slug, description, fn))
        return fn

    return wrap


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckFailure(detail)


# ---------------------------------------------------------------------------
# Random formulas for the sampled batteries


def random_formula(
    rng: random.Random,
    size: int,
    atom_names: Sequence[str],
    *,
    ann_budget: int = 0,
    sugar: bool = True,
) -> Formula:
    """A random formula using at most ``size`` connectives-plus-leaves.

    With ``sugar`` off the output stays in the core ∇/• fragment (¬, ∧, ∇,
    •), whose node count equals the desugared size; with it on the boolean
    sugar joins in, which desugars larger.  A positive announcement budget
    mixes in that many nested layers of announcement operators.
    """
    if size <= 1:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.choice(tuple(atom_names)))
        return TOP if roll < 0.9 else BOT
    roll = rng.random()
    if ann_budget > 0 and size >= 3 and roll < 0.3:
        split = rng.randint(1, size - 2)
        op = Ann if rng.random() < 0.7 else AnnWhether
        return op(
            random_formula(rng, split, atom_names, ann_budget=ann_budget - 1),
            random_formula(rng, size - 1 - split, atom_names, ann_budget=ann_budget - 1),
        )
    if size == 2 or roll < 0.55:
        op = rng.choice((Not, Con, Acc))
        return op(
            random_formula(rng, size - 1, atom_names, ann_budget=ann_budget, sugar=sugar)
        )
    op = rng.choice((And, Or, Implies, Iff) if sugar else (And,))
    split = rng.randint(1, size - 2)
    return op(
        random_formula(rng, split, atom_names, ann_budget=ann_budget, sugar=sugar),
        random_formula(
            rng, size - 1 - split, atom_names, ann_budget=ann_budget, sugar=sugar
        ),
    )


# ---------------------------------------------------------------------------
# Reusable batteries (the acceptance bounds live in the test suite)


def _mirror_violations(
    max_worlds: int, battery: Sequence[Formula], order: tuple
) -> tuple[int, int]:
    """(violations, frames) over the labeled frames the mirror reduction changes.

    A violation is one battery formula whose truth table on a frame differs
    from its truth table on the frame's mirror reduction.
    """
    violations = 0
    frames = 0
    for n in range(1, max_worlds + 1):
        for fr in enumerate_frames(n):
            reduced = mirror_reduction(fr)
            if reduced == fr:
                continue
            frames += 1
            left = ColumnEvaluator(fr, order)
            right = ColumnEvaluator(reduced, order)
            violations += sum(1 for f in battery if left.columns(f) != right.columns(f))
    return violations, frames


def mirror_pointwise_exhaustive(
    max_worlds: int, atom_names: tuple, max_size: int
) -> tuple[int, int, int]:
    """(violations, frames changed by the reduction, formulas per frame)."""
    order = tuple(sorted(atom_names))
    battery = list(enumerate_formulas(order, LanguageTag.NABLA_BULLET, max_size))
    return (*_mirror_violations(max_worlds, battery, order), len(battery))


def mirror_pointwise_random(
    count: int, max_size: int, max_worlds: int, seed: int
) -> tuple[int, int]:
    """(violations, frames changed) for ``count`` random sampled formulas."""
    rng = random.Random(seed)
    order = ("p", "q")
    battery = [
        random_formula(rng, rng.randint(2, max_size), order, sugar=False)
        for _ in range(count)
    ]
    return _mirror_violations(max_worlds, battery, order)


def announcement_reduction_random(
    count: int, seed: int, max_worlds: int = 3
) -> tuple[int, int]:
    """(violations, formulas) for random announcement formulas.

    Each sampled formula is reduced; a violation is a reduction that still
    contains an announcement or disagrees with its source on some pointed
    model within the bound.
    """
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        f = random_formula(rng, rng.randint(3, 9), ("p", "q"), ann_budget=2)
        reduced, trace = reduce_announcements(f)
        if metrics(reduced)["announcement_depth"]:
            violations += 1
            continue
        agree, _ = equivalent_bounded(f, reduced, FrameClass.K, max_worlds)
        if not agree:
            violations += 1
    return violations, count


# ---------------------------------------------------------------------------
# Syntax and schema plumbing


@_check(
    "formula-round-trips",
    "parsing the rendering of every stock formula reproduces it",
)
def _formula_round_trips(profile: Profile, workers: int) -> str:
    inventory = [f for _, f, _ in fixtures.validity_battery()] + [
        fixtures.TRANSITIVITY_FORMULA,
        fixtures.SYMMETRY_FORMULA,
        fixtures.NONCON_SPREAD,
        fixtures.ACCIDENT_COVER_STRONG,
        fixtures.MOORE_UNSUCCESSFUL,
        fixtures.MOORE_SELF_REFUTING,
        fixtures.MOORE_NEGATION_SUCCESSFUL,
        fixtures.MOORE_WHETHER,
    ]
    for f in inventory:
        _require(parse(render(f)) == f, f"round trip changed {render(f)}")
    return f"{len(inventory)} formulas"


@_check(
    "axiom-schemas-match-their-instances",
    "every registered axiom schema matches its own generic instance",
)
def _axiom_schemas_match(profile: Profile, workers: int) -> str:
    checked = 0
    for system_name, system in SYSTEMS.items():
        for axiom_name, schema in system.axioms.items():
            instance = fixtures.axiom_instance(system_name, axiom_name)
            _require(
                match_schema(schema, instance) is not None,
                f"{system_name}/{axiom_name} fails on {render(instance)}",
            )
            checked += 1
    return f"{checked} schema/instance pairs"


# ---------------------------------------------------------------------------
# The validity battery


def _validity_check(slug: str, f: Formula, c: FrameClass) -> None:
    description = f"{render(f)} is valid on {c.value} frames at the bound"

    @_check(slug, description)
    def run(profile: Profile, workers: int, f=f, c=c) -> str:
        _require(
            valid_bounded(f, c, profile.worlds, workers=workers),
            f"refuted within {profile.worlds} worlds",
        )
        return f"holds to {profile.worlds} worlds"


for _slug, _f, _c in fixtures.validity_battery():
    _validity_check(_slug, _f, _c)


@_check(
    "accident-cover-strong-refuted",
    "the cover of both branches does not force the accident itself",
)
def _accident_cover_strong_refuted(profile: Profile, workers: int) -> str:
    r = find_countermodel(
        fixtures.ACCIDENT_COVER_STRONG, FrameClass.K, 3, workers=workers
    )
    _require(r.verdict == REFUTED, "no countermodel within 3 worlds")
    witness = r.witness
    _require(
        not evaluate(witness.model, witness.world, fixtures.ACCIDENT_COVER_STRONG),
        "witness does not refute the formula",
    )
    return (
        f"countermodel on {witness.model.frame.n} worlds at {witness.world}"
    )


@_check(
    "contingency-ignores-negation",
    "a formula and its negation are contingent on exactly the same points",
)
def _contingency_ignores_negation(profile: Profile, workers: int) -> str:
    agree, _ = equivalent_bounded(
        parse("C p"), parse("C ~p"), FrameClass.K, profile.worlds
    )
    _require(agree, "C p and C ~p disagree somewhere")
    return f"equivalent to {profile.worlds} worlds"


# ---------------------------------------------------------------------------
# Announcements


@_check(
    "atomic-announcement-is-implication",
    "announcing into an atom reduces in one step to a guarded implication",
)
def _atomic_announcement(profile: Profile, workers: int) -> str:
    reduced, trace = reduce_announcements(parse("[!p]q"))
    _require(trace.steps[0].axiom == "AP", "first rewrite is not the atom step")
    _require(reduced == desugar(parse("p -> q")), f"reduced to {render(reduced)}")
    return "[!p]q becomes p -> q"


@_check(
    "announcing-accident-removes-it",
    "announcing an accident makes the accident false where it was true",
)
def _announcing_accident_removes_it(profile: Profile, workers: int) -> str:
    r = find_countermodel(
        fixtures.MOORE_UNSUCCESSFUL, FrameClass.K, profile.worlds, workers=workers
    )
    _require(r.verdict == REFUTED, "announcement survived everywhere")
    witness = r.witness
    _require(
        not evaluate(witness.model, witness.world, fixtures.MOORE_UNSUCCESSFUL),
        "witness does not refute the announcement",
    )
    return f"countermodel on {witness.model.frame.n} worlds"


@_check(
    "accident-announcement-self-refuting",
    "after announcing an accident, its absence always holds",
)
def _accident_announcement_self_refuting(profile: Profile, workers: int) -> str:
    _require(
        valid_bounded(
            fixtures.MOORE_SELF_REFUTING, FrameClass.K, profile.worlds, workers=workers
        ),
        "refuted at the bound",
    )
    return f"holds to {profile.worlds} worlds"


@_check(
    "absence-announcement-successful",
    "announcing the absence of an accident leaves the absence true",
)
def _absence_announcement_successful(profile: Profile, workers: int) -> str:
    _require(
        valid_bounded(
            fixtures.MOORE_NEGATION_SUCCESSFUL,
            FrameClass.K,
            profile.worlds,
            workers=workers,
        ),
        "refuted at the bound",
    )
    return f"holds to {profile.worlds} worlds"


@_check(
    "whether-announcement-settles-accident",
    "announcing whether an accident holds always removes the accident",
)
def _whether_announcement(profile: Profile, workers: int) -> str:
    _require(
        valid_bounded(
            fixtures.MOORE_WHETHER, FrameClass.K, profile.worlds, workers=workers
        ),
        "refuted at the bound",
    )
    return f"holds to {profile.worlds} worlds"


@_check(
    "announcement-reduction-sound-random",
    "random announcement formulas reduce to equivalent announcement-free ones",
)
def _announcement_reduction_random(profile: Profile, workers: int) -> str:
    violations, count = announcement_reduction_random(
        profile.random_count, seed=20260817
    )
    _require(violations == 0, f"{violations} of {count} reductions disagree")
    return f"{count} random formulas"


# ---------------------------------------------------------------------------
# Translation


@_check(
    "possibility-translation-agrees",
    "the possibility-language translation is equivalent to its source",
)
def _possibility_translation(profile: Profile, workers: int) -> str:
    checked = 0
    for _, f, _ in fixtures.validity_battery():
        g = to_diamond(f)
        _require(
            in_language(g, LanguageTag.DIAMOND), f"{render(g)} keeps a ∇/• operator"
        )
        agree, _ = equivalent_bounded(f, g, FrameClass.K, 3)
        _require(agree, f"translation of {render(f)} disagrees")
        checked += 1
    return f"{checked} formulas"


# ---------------------------------------------------------------------------
# The mirror reduction and its rivals


@_check(
    "mirror-invariance-exhaustive",
    "dropping pure loops never changes any ∇/•-formula anywhere",
)
def _mirror_exhaustive(profile: Profile, workers: int) -> str:
    violations, frames, formulas = mirror_pointwise_exhaustive(
        3, ("p", "q"), profile.battery_size
    )
    _require(violations == 0, f"{violations} pointwise disagreements")
    return f"{frames} frames x {formulas} formulas"


@_check(
    "mirror-invariance-random",
    "random larger ∇/•-formulas agree across the mirror reduction too",
)
def _mirror_random(profile: Profile, workers: int) -> str:
    violations, frames = mirror_pointwise_random(
        profile.random_count, 9, 3, seed=20260817
    )
    _require(violations == 0, f"{violations} pointwise disagreements")
    return f"{frames} frames x {profile.random_count} random formulas"


@_check(
    "mirror-strips-reflexivity-undetected",
    "the reduction removes reflexivity and seriality without a formula noticing",
)
def _mirror_strips_reflexivity(profile: Profile, workers: int) -> str:
    fr = fixtures.LOOP_FRAME
    reduced = mirror_reduction(fr)
    for c in (FrameClass.T, FrameClass.D):
        _require(frame_has_property(fr, c), f"loop frame lost {c.value}")
        _require(not frame_has_property(reduced, c), f"reduction kept {c.value}")
    battery = enumerate_formulas(("p",), LanguageTag.NABLA_BULLET, profile.battery_size)
    checked = 0
    for f in battery:
        ok_fr, _ = frame_valid(fr, f)
        ok_red, _ = frame_valid(reduced, f)
        _require(ok_fr == ok_red, f"frame validity of {render(f)} differs")
        checked += 1
    return f"properties differ, {checked} formulas agree"


@_check(
    "mirror-strips-euclideanity-undetected",
    "the reduction removes Euclideanity and convergency without a formula noticing",
)
def _mirror_strips_euclideanity(profile: Profile, workers: int) -> str:
    fr = fixtures.LASSO_FRAME
    reduced = mirror_reduction(fr)
    for c in (FrameClass.FIVE, FrameClass.CONV):
        _require(frame_has_property(fr, c), f"lasso frame lost {c.value}")
        _require(not frame_has_property(reduced, c), f"reduction kept {c.value}")
    battery = enumerate_formulas(("p",), LanguageTag.NABLA_BULLET, profile.battery_size)
    checked = 0
    for f in battery:
        ok_fr, _ = frame_valid(fr, f)
        ok_red, _ = frame_valid(reduced, f)
        _require(ok_fr == ok_red, f"frame validity of {render(f)} differs")
        checked += 1
    return f"properties differ, {checked} formulas agree"


@_check(
    "sole-successor-stripping-breaks-validity",
    "dropping the arrow to a sole successor changes what is frame-valid",
)
def _sole_successor_stripping(profile: Profile, workers: int) -> str:
    f = desugar(fixtures.ESSENCE_OF_ATOM)
    ok_stripped, _ = frame_valid(fixtures.STRIPPED_ARROW_FRAME, f)
    ok_arrow, refutation = frame_valid(fixtures.ARROW_FRAME, f)
    _require(ok_stripped, "stripped frame does not validate O p")
    _require(not ok_arrow, "arrow frame validates O p")
    valuation, world = refutation
    return f"O p fails on the arrow at {world} with p true at {valuation['p']}"


@_check(
    "accompanied-loop-stripping-breaks-validity",
    "dropping loops that have company changes what is frame-valid",
)
def _accompanied_loop_stripping(profile: Profile, workers: int) -> str:
    f = desugar(fixtures.NONCONTINGENCY_OF_ATOM)
    ok_cycle, _ = frame_valid(fixtures.TWO_CYCLE_FRAME, f)
    ok_complete, refutation = frame_valid(fixtures.COMPLETE_PAIR_FRAME, f)
    _require(ok_cycle, "two-cycle does not validate D p")
    _require(not ok_complete, "complete frame validates D p")
    valuation, world = refutation
    return f"D p fails on the complete frame at {world} with p true at {valuation['p']}"


# ---------------------------------------------------------------------------
# Definability


@_check(
    "transitivity-defined-exactly",
    "the guarded transfer formula is frame-valid exactly on transitive frames",
)
def _transitivity_defined(profile: Profile, workers: int) -> str:
    r = defines_property(
        fixtures.TRANSITIVITY_FORMULA,
        FrameClass.FOUR,
        profile.frame_worlds,
        workers=workers,
    )
    _require(r.verdict == HOLDS_AT_BOUND, "a frame disagrees with transitivity")
    return f"exact on all frames to {profile.frame_worlds} worlds"


@_check(
    "symmetry-defined-exactly",
    "the reflected-accident formula is frame-valid exactly on symmetric frames",
)
def _symmetry_defined(profile: Profile, workers: int) -> str:
    r = defines_property(
        fixtures.SYMMETRY_FORMULA,
        FrameClass.B,
        profile.frame_worlds,
        workers=workers,
    )
    _require(r.verdict == HOLDS_AT_BOUND, "a frame disagrees with symmetry")
    return f"exact on all frames to {profile.frame_worlds} worlds"


# ---------------------------------------------------------------------------
# Expressivity searches


@_check(
    "possibility-sees-the-loop",
    "possibility of truth distinguishes a looped point from a bare one",
)
def _possibility_sees_the_loop(profile: Profile, workers: int) -> str:
    left, right = fixtures.REFLEXIVE_POINT, fixtures.ARROWLESS_POINT
    f = parse("<>true")
    _require(evaluate(left.model, left.point, f), "looped point refutes <>true")
    _require(not evaluate(right.model, right.point, f), "bare point satisfies <>true")
    _require(
        not evaluate(left.model, left.point, parse("C p")),
        "looped point finds p contingent",
    )
    _require(
        not evaluate(left.model, left.point, parse("A p")),
        "looped point finds p accidental",
    )
    return "evaluations as expected"


@_check(
    "possibility-splits-the-singleton-pair",
    "the search finds a possibility formula splitting the singleton pair",
)
def _possibility_splits_singletons(profile: Profile, workers: int) -> str:
    r = distinguishing_formula(
        fixtures.REFLEXIVE_POINT,
        fixtures.ARROWLESS_POINT,
        LanguageTag.DIAMOND,
        {"p"},
        2,
    )
    _require(r.verdict == REFUTED, "no distinguisher within size 2")
    return f"found {render(r.witness.formula)}"


@_check(
    "contingency-blind-on-singleton-pair",
    "no ∇/•-formula up to size 7 splits the singleton pair",
)
def _contingency_blind_on_singletons(profile: Profile, workers: int) -> str:
    r = distinguishing_formula(
        fixtures.REFLEXIVE_POINT,
        fixtures.ARROWLESS_POINT,
        LanguageTag.NABLA_BULLET,
        {"p"},
        7,
    )
    if r.verdict != HOLDS_AT_BOUND:
        raise CheckFailure(f"split by {render(r.witness.formula)}")
    return f"{r.statistics.work_units} candidates agree"


@_check(
    "two-step-possibility-splits-the-serial-pair",
    "a nested possibility formula splits the stock serial pair",
)
def _two_step_possibility(profile: Profile, workers: int) -> str:
    r = distinguishing_formula(
        fixtures.SERIAL_LOOPED,
        fixtures.SERIAL_PLAIN,
        LanguageTag.DIAMOND,
        {"p"},
        6,
    )
    _require(r.verdict == REFUTED, "no distinguisher within size 6")
    return f"found {render(r.witness.formula)}"


@_check(
    "accident-of-noncontingency-splits-the-serial-pair",
    "inside the ∇/• language an accident of a noncontingency splits the serial pair",
)
def _accident_of_noncon_splits(profile: Profile, workers: int) -> str:
    r = distinguishing_formula(
        fixtures.SERIAL_LOOPED,
        fixtures.SERIAL_PLAIN,
        LanguageTag.NABLA_BULLET,
        {"p"},
        7,
    )
    _require(r.verdict == REFUTED, "pair agrees to size 7")
    w = r.witness.formula
    _require(
        evaluate(fixtures.SERIAL_LOOPED.model, "s", w)
        and not evaluate(fixtures.SERIAL_PLAIN.model, "s", w),
        "witness does not split the pair",
    )
    return f"found {render(w)}"


# ---------------------------------------------------------------------------
# The bundled proofs


@_check("bundled-proofs-check", "every bundled derivation passes the checker")
def _bundled_proofs_check(profile: Profile, workers: int) -> str:
    entries = builtin_corpus()
    for entry in entries:
        result = check_proof(entry.proof)
        _require(result.ok, f"{entry.name}: line {result.line}: {result.reason}")
    return f"{len(entries)} proofs"


@_check(
    "bundled-conclusions-hold",
    "every bundled conclusion is valid on its system's frame class",
)
def _bundled_conclusions_hold(profile: Profile, workers: int) -> str:
    entries = builtin_corpus()
    for entry in entries:
        c = SYSTEMS[entry.system].frame_class
        _require(
            valid_bounded(entry.conclusion, c, 3, workers=workers),
            f"{entry.name} refuted on {c.value}",
        )
    return f"{len(entries)} conclusions to 3 worlds"


@_check(
    "corrupted-proofs-rejected",
    "swapping any single line's justification breaks every bundled proof",
)
def _corrupted_proofs_rejected(profile: Profile, workers: int) -> str:
    total = 0
    for entry in builtin_corpus():
        for line, mutant in single_line_mutations(entry.proof):
            _require(
                not check_proof(mutant).ok,
                f"{entry.name}: line {line} mutation passes",
            )
            total += 1
    return f"{total} mutations rejected"


# ---------------------------------------------------------------------------
# The conjecture sweep


@_check(
    "noncontingency-spreads-on-transitive-frames",
    "noncontingency spreads through both operators on transitive frames",
)
def _spread_anchor(profile: Profile, workers: int) -> str:
    _require(
        valid_bounded(
            fixtures.NONCON_SPREAD, FrameClass.FOUR, profile.worlds, workers=workers
        ),
        "spread refuted at the bound",
    )
    return f"holds to {profile.worlds} worlds"


@_check(
    "conjecture-sweep-clean",
    "the bounded sweep of spreading conjectures finds no counterframe",
)
def _conjecture_sweep_clean(profile: Profile, workers: int) -> str:
    reports = conjecture_sweep(profile.sweep_worlds, profile.sweep_prefix)
    _require(reports[0].query.startswith("anchor:"), "anchor report missing")
    refuted = [r for r in reports if r.verdict == REFUTED]
    _require(
        not refuted,
        f"{len(refuted)} instances refuted, first: {refuted[0].query}"
        if refuted
        else "",
    )
    return f"{len(reports)} instances hold at the bound"


# ---------------------------------------------------------------------------
# Running


def suite_checks() -> tuple[SuiteCheck, ...]:
    """The bundled checks, in report order."""
    return tuple(_CHECKS)


def run_suite(
    profile: str | Profile = "fast",
    *,
    workers: int = 1,
    only: Sequence[str] | None = None,
) -> list[CheckResult]:
    """Run the demonstration suite and return one result per check.

    ``only`` restricts the run to the named slugs, keeping report order;
    unknown slugs raise ``KeyError`` before anything runs.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise KeyError(f"unknown profile: {profile!r}") from None
    selected = suite_checks()
    if only is not None:
        wanted = set(only)
        known = {check.slug for check in selected}
        missing = wanted - known
        if missing:
            raise KeyError(f"unknown checks: {sorted(missing)}")
        selected = tuple(check for check in selected if check.slug in wanted)
    results = []
    for check in selected:
        start = time.perf_counter()
        try:
            detail = check.run(profile, workers)
            ok = True
        except CheckFailure as failure:
            detail = str(failure)
            ok = False
        elapsed = time.perf_counter() - start
        results.append(CheckResult(check.slug, check.description, ok, detail, elapsed))
    return results
