"""Bounded searches: countermodels, frame definability, expressivity, sweeps.

Every search scans a deterministic stream — frames by relation index inside
ascending world counts, valuations by valuation index, candidate formulas by
enumeration order — so the first witness found is the least one and reruns
are bit-identical.  Frame scans walk one representative per isomorphism
class: the predicates involved are isomorphism-invariant, and the least
offending frame overall is always its own orbit representative, so even the
reported witness is unchanged by the pruning.

``work_units`` in :class:`Statistics` is a deterministic effort proxy —
frames scanned times the node count of the scanned formula, or candidate
formulas examined for expressivity searches — never wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from bimodal.kripke import (
    ColumnEvaluator,
    ExtensionEvaluator,
    Frame,
    FrameClass,
    Model,
    PointedModel,
    enumerate_frames,
    frame_has_property,
    frame_to_json,
    has_announcements,
    model_to_json,
    refuting_point,
    valuation_masks,
)
from bimodal.syntax import (
    Acc,
    Atom,
    Con,
    Ess,
    Formula,
    Implies,
    LanguageTag,
    NonCon,
    Not,
    atoms,
    desugar,
    enumerate_formulas,
    metrics,
    parse,
    render,
)
from bimodal.translate import reduce_announcements

__all__ = [
    "HOLDS_AT_BOUND",
    "REFUTED",
    "Statistics",
    "ModelWitness",
    "FrameWitness",
    "FormulaWitness",
    "Report",
    "find_countermodel",
    "valid_bounded",
    "sat_bounded",
    "defines_property",
    "distinguishing_formula",
    "conjecture_sweep",
]

HOLDS_AT_BOUND = "HOLDS_AT_BOUND"
REFUTED = "REFUTED"

_DIRECTION_FAILS = "fails_on_frame_with_property"
_DIRECTION_VALID = "valid_on_frame_without_property"


@dataclass(frozen=True, slots=True)
class Statistics:
    frames_scanned: int
    valuations_scanned: int
    work_units: int

    def to_json(self) -> dict:
        return {
            "frames_scanned": self.frames_scanned,
            "valuations_scanned": self.valuations_scanned,
            "work_units": self.work_units,
        }


@dataclass(frozen=True, slots=True)
class ModelWitness:
    """A pointed model refuting (or, for satisfiability, meeting) the query."""

    model: Model
    world: str

    def to_json(self) -> dict:
        return {"kind": "model", "model": model_to_json(self.model), "world": self.world}


@dataclass(frozen=True, slots=True, eq=False)
class FrameWitness:
    """A frame on which definability fails, with the failing direction.

    When the formula fails on a frame that has the property, the refuting
    valuation and world are included; when it is valid on a frame lacking
    the property, there is nothing further to show.
    """

    frame: Frame
    direction: str
    valuation: Mapping[str, tuple[str, ...]] | None = None
    world: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": "frame",
            "frame": frame_to_json(self.frame),
            "direction": self.direction,
            "valuation": None
            if self.valuation is None
            else {name: list(worlds) for name, worlds in sorted(self.valuation.items())},
            "world": self.world,
        }


@dataclass(frozen=True, slots=True)
class FormulaWitness:
    formula: Formula

    def to_json(self) -> dict:
        return {"kind": "formula", "formula": render(self.formula)}


@dataclass(frozen=True, slots=True)
class Report:
    """Outcome of one bounded experiment.

    ``REFUTED`` always carries a witness that re-checks against the
    evaluator; ``HOLDS_AT_BOUND`` asserts exhaustion of the bounded search
    space, nothing beyond it.
    """

    query: str
    verdict: str
    witness: ModelWitness | FrameWitness | FormulaWitness | None
    statistics: Statistics

    def to_json(self) -> dict:
        return {
            "query": self.query,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json(),
            "statistics": self.statistics.to_json(),
        }


# ---------------------------------------------------------------------------
# The frame scan


def _prepare(f: Formula) -> Formula:
    if has_announcements(f):
        reduced, _ = reduce_announcements(f)
        return reduced
    return desugar(f)


def _frame_at(n: int, relation_index: int) -> Frame:
    row = (1 << n) - 1
    return Frame(
        tuple(f"w{i}" for i in range(n)),
        tuple((relation_index >> (s * n)) & row for s in range(n)),
    )


def _scan_chunk(payload: tuple) -> tuple:
    """Worker body: scan one relation-index range of one world count.

    Formulas travel as text and frames as relation indices so that the
    payloads stay picklable and cheap.
    """
    mode, text, scan_class, property_class, n, lo, hi, order = payload
    core = parse(text)
    frames = 0
    valuations = 0
    per_frame = 1 << (len(order) * n)
    for fr in enumerate_frames(
        n, FrameClass(scan_class), up_to_iso=True, index_range=(lo, hi)
    ):
        frames += 1
        valuations += per_frame
        hit = refuting_point(fr, core, order)
        if mode == "refute":
            if hit is not None:
                return frames, valuations, (fr.relation_index(), hit[0], hit[1])
        else:
            has = frame_has_property(fr, FrameClass(property_class))
            if has and hit is not None:
                return frames, valuations, (fr.relation_index(), hit[0], hit[1])
            if not has and hit is None:
                return frames, valuations, (fr.relation_index(), None, None)
    return frames, valuations, None


def _scan_frames(
    core: Formula,
    scan_class: FrameClass,
    property_class: FrameClass | None,
    max_worlds: int,
    order: Sequence[str],
    workers: int,
) -> tuple[int, int, tuple[int, int, int | None, int | None] | None]:
    """Find the least offending frame, returning (frames, valuations, hit).

    ``hit`` is (n, relation index, valuation index, world index); the last
    two are None when the offense is plain validity on a property-free
    frame during a definability scan.
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    mode = "refute" if property_class is None else "defines"
    text = render(core)
    frames_scanned = 0
    valuations_scanned = 0
    for n in range(1, max_worlds + 1):
        total = 1 << (n * n)
        if workers > 1 and total >= 4096:
            chunk_count = workers * 4
            bounds = [
                (total * i // chunk_count, total * (i + 1) // chunk_count)
                for i in range(chunk_count)
            ]
            payloads = [
                (
                    mode,
                    text,
                    scan_class.value,
                    None if property_class is None else property_class.value,
                    n,
                    lo,
                    hi,
                    tuple(order),
                )
                for lo, hi in bounds
            ]
            from concurrent.futures import ProcessPoolExecutor

            from bimodal.kripke import _canonical_flags

            _canonical_flags(n)  # warmed before fork so workers inherit it
            executor = ProcessPoolExecutor(max_workers=workers)
            try:
                for frames, valuations, hit in executor.map(_scan_chunk, payloads):
                    frames_scanned += frames
                    valuations_scanned += valuations
                    if hit is not None:
                        rel, v, w = hit
                        return frames_scanned, valuations_scanned, (n, rel, v, w)
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
        else:
            frames, valuations, hit = _scan_chunk(
                (
                    mode,
                    text,
                    scan_class.value,
                    None if property_class is None else property_class.value,
                    n,
                    0,
                    total,
                    tuple(order),
                )
            )
            frames_scanned += frames
            valuations_scanned += valuations
            if hit is not None:
                rel, v, w = hit
                return frames_scanned, valuations_scanned, (n, rel, v, w)
    return frames_scanned, valuations_scanned, None


def _named_valuation(fr: Frame, v: int, order: Sequence[str]) -> dict[str, tuple[str, ...]]:
    masks = valuation_masks(v, order, fr.n)
    return {
        name: tuple(fr.worlds[w] for w in range(fr.n) if mask >> w & 1)
        for name, mask in masks.items()
    }


# ---------------------------------------------------------------------------
# Countermodel search and duals


def find_countermodel(
    f: Formula,
    c: FrameClass = FrameClass.K,
    max_worlds: int = 3,
    *,
    workers: int = 1,
) -> Report:
    """Search for a pointed model in class ``c`` refuting ``f``.

    Announcements are reduced away first, so the scan itself only ever
    evaluates announcement-free formulas.
    """
    query = f"valid? {render(f)} [class {c.value}, <= {max_worlds} worlds]"
    core = _prepare(f)
    order = tuple(sorted(atoms(f) | atoms(core)))
    size = metrics(core)["size"]
    frames, valuations, hit = _scan_frames(core, c, None, max_worlds, order, workers)
    stats = Statistics(frames, valuations, frames * size)
    if hit is None:
        return Report(query, HOLDS_AT_BOUND, None, stats)
    n, rel, v, w = hit
    fr = _frame_at(n, rel)
    witness = ModelWitness(Model(fr, valuation_masks(v, order, n)), fr.worlds[w])
    return Report(query, REFUTED, witness, stats)


def valid_bounded(
    f: Formula,
    c: FrameClass = FrameClass.K,
    max_worlds: int = 3,
    *,
    workers: int = 1,
) -> bool:
    return find_countermodel(f, c, max_worlds, workers=workers).verdict == HOLDS_AT_BOUND


def sat_bounded(
    f: Formula,
    c: FrameClass = FrameClass.K,
    max_worlds: int = 3,
    *,
    workers: int = 1,
) -> Report:
    """Search for a pointed model in class ``c`` satisfying ``f``.

    REFUTED here means the bounded *unsatisfiability* claim is refuted: the
    witness is the least pointed model where ``f`` holds.  HOLDS_AT_BOUND
    means no satisfying pointed model exists within the bound.
    """
    query = f"satisfiable? {render(f)} [class {c.value}, <= {max_worlds} worlds]"
    core = _prepare(f)
    order = tuple(sorted(atoms(f) | atoms(core)))
    negated = Not(core)
    size = metrics(negated)["size"]
    frames, valuations, hit = _scan_frames(negated, c, None, max_worlds, order, workers)
    stats = Statistics(frames, valuations, frames * size)
    if hit is None:
        return Report(query, HOLDS_AT_BOUND, None, stats)
    n, rel, v, w = hit
    fr = _frame_at(n, rel)
    witness = ModelWitness(Model(fr, valuation_masks(v, order, n)), fr.worlds[w])
    return Report(query, REFUTED, witness, stats)


# ---------------------------------------------------------------------------
# Frame definability


def defines_property(
    f: Formula,
    c: FrameClass,
    max_worlds: int = 3,
    *,
    workers: int = 1,
) -> Report:
    """Check frame validity of ``f`` against membership in class ``c``.

    HOLDS_AT_BOUND iff on every frame up to the bound the formula is
    frame-valid exactly when the frame has the property; otherwise the
    witness names the least offending frame and the failing direction.
    """
    if has_announcements(f):
        raise ValueError("frame definability needs an announcement-free formula")
    query = f"defines? {render(f)} <-> class {c.value} [<= {max_worlds} worlds]"
    core = desugar(f)
    order = tuple(sorted(atoms(core)))
    size = metrics(core)["size"]
    frames, valuations, hit = _scan_frames(
        core, FrameClass.K, c, max_worlds, order, workers
    )
    stats = Statistics(frames, valuations, frames * size)
    if hit is None:
        return Report(query, HOLDS_AT_BOUND, None, stats)
    n, rel, v, w = hit
    fr = _frame_at(n, rel)
    if v is None:
        witness = FrameWitness(fr, _DIRECTION_VALID)
    else:
        witness = FrameWitness(
            fr, _DIRECTION_FAILS, _named_valuation(fr, v, order), fr.worlds[w]
        )
    return Report(query, REFUTED, witness, stats)


# ---------------------------------------------------------------------------
# Expressivity


def distinguishing_formula(
    a: PointedModel,
    b: PointedModel,
    language: LanguageTag,
    atom_names: Iterable[str],
    max_size: int,
) -> Report:
    """Search for the least formula telling the two pointed models apart.

    REFUTED means a distinguisher was found (the witness formula holds at
    exactly one of the two points); HOLDS_AT_BOUND means the models agree
    on every formula of the language up to ``max_size``.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    order = tuple(sorted(atom_names))
    query = (
        f"distinguishable? [language {language.value}, "
        f"atoms {','.join(order) or '-'}, size <= {max_size}]"
    )
    left = ExtensionEvaluator(a.model)
    right = ExtensionEvaluator(b.model)
    point_a = a.model.frame.index(a.point)
    point_b = b.model.frame.index(b.point)
    examined = 0
    for f in enumerate_formulas(order, language, max_size):
        examined += 1
        if bool(left.extension(f) >> point_a & 1) != bool(
            right.extension(f) >> point_b & 1
        ):
            return Report(
                query, REFUTED, FormulaWitness(f), Statistics(0, 0, examined)
            )
    return Report(query, HOLDS_AT_BOUND, None, Statistics(0, 0, examined))


# ---------------------------------------------------------------------------
# The conjecture sweep


_SWEEP_SYMBOLS = ("D", "C", "A", "O", "~")
_SWEEP_OPS = {"D": NonCon, "C": Con, "A": Acc, "O": Ess, "~": Not}


def _chain(word: str) -> Formula:
    """The prefix chain ``word`` over ``p``; interning shares common tails."""
    f: Formula = Atom("p")
    for symbol in reversed(word):
        f = _SWEEP_OPS[symbol](f)
    return f


def _sweep_instances(max_prefix: int, max_worlds: int) -> list[tuple[str, Formula]]:
    delta_p = _chain("D")
    suffix = f"[transitive, <= {max_worlds} worlds] (evidence at bound)"

    instances: list[tuple[str, Formula]] = []
    anchor = parse("D p -> D D p & D O p & O D p & O O p")
    instances.append((f"anchor: {render(anchor)} {suffix}", anchor))

    smoke = Implies(delta_p, _chain("D"))
    instances.append(
        (f"conjecture 1 smoke (n,m,l,k)=(0,1,0,0): {render(smoke)} {suffix}", smoke)
    )

    tuples = sorted(
        (
            (n, m, l, k)
            for n in range(max_prefix + 1)
            for m in range(max_prefix + 1)
            for l in range(max_prefix + 1)
            for k in range(max_prefix + 1)
            if 2 <= n + m + l + k <= max_prefix
        ),
        key=lambda t: (sum(t), t),
    )
    for n, m, l, k in tuples:
        f = Implies(delta_p, _chain("O" * n + "D" * m + "O" * l + "D" * k))
        instances.append(
            (f"conjecture 1 (n,m,l,k)=({n},{m},{l},{k}): {render(f)} {suffix}", f)
        )

    for m in range(1, max_prefix + 1):
        f = Implies(delta_p, _chain("D" * m))
        instances.append(
            (f"conjecture 2 m={m} heart=(empty): {render(f)} {suffix}", f)
        )
    for m in range(1, max_prefix + 1):
        for length in range(1, max_prefix + 1):
            for symbols in product(_SWEEP_SYMBOLS, repeat=length):
                heart = "".join(symbols)
                f = Implies(delta_p, _chain("D" * m + heart))
                instances.append(
                    (f"conjecture 2 m={m} heart={heart}: {render(f)} {suffix}", f)
                )
    return instances


def conjecture_sweep(max_worlds: int = 4, max_prefix: int = 4) -> list[Report]:
    """Bounded evidence for the two open conjectures over transitive frames.

    Checks Δp → ∘ⁿΔᵐ∘ˡΔᵏp for every exponent tuple with 2 ≤ n+m+l+k ≤
    ``max_prefix`` (plus the identity tuple as a smoke test), Δp → Δᵐ♥p for
    every m ≤ ``max_prefix`` and every string ♥ over {Δ,∇,•,∘,¬} of length
    ≤ ``max_prefix`` (the empty string as its own labeled series), and the
    proved spreading law as an anchor.  A counterexample refutes the
    corresponding provability claim outright; a clean scan is evidence at
    the bound, nothing more, and every report says so.

    The scan walks frames once and evaluates all pending instances per
    frame, sharing subformula columns across instances.
    """
    if max_worlds < 1 or max_prefix < 1:
        raise ValueError("bounds must be at least 1")
    instances = _sweep_instances(max_prefix, max_worlds)
    sizes = [metrics(f)["size"] for _, f in instances]
    # Every instance is an implication; the per-frame evaluator computes
    # each half's columns once, since the antecedent and the chain tails are
    # the same interned nodes across all instances.
    split = [(f.left, f.right) for _, f in instances if isinstance(f, Implies)]
    if len(split) != len(instances):
        raise AssertionError("sweep instances must be implications")
    frames_scanned = [0] * len(instances)
    valuations_scanned = [0] * len(instances)
    witnesses: list[ModelWitness | None] = [None] * len(instances)
    for n in range(1, max_worlds + 1):
        for fr in enumerate_frames(n, FrameClass.FOUR, up_to_iso=True):
            evaluator = ColumnEvaluator(fr, ("p",))
            full = evaluator.full
            for i, (ant, cons) in enumerate(split):
                if witnesses[i] is not None:
                    continue
                frames_scanned[i] += 1
                valuations_scanned[i] += evaluator.valuation_count
                a_cols = evaluator.columns(ant)
                c_cols = evaluator.columns(cons)
                bad = 0
                for w in range(fr.n):
                    bad |= a_cols[w] & (c_cols[w] ^ full)
                if bad:
                    v = (bad & -bad).bit_length() - 1
                    w = next(
                        u
                        for u in range(fr.n)
                        if a_cols[u] >> v & 1 and not c_cols[u] >> v & 1
                    )
                    witnesses[i] = ModelWitness(
                        Model(fr, valuation_masks(v, ("p",), fr.n)), fr.worlds[w]
                    )
    return [
        Report(
            query,
            HOLDS_AT_BOUND if witnesses[i] is None else REFUTED,
            witnesses[i],
            Statistics(
                frames_scanned[i],
                valuations_scanned[i],
                frames_scanned[i] * sizes[i],
            ),
        )
        for i, (query, _) in enumerate(instances)
    ]
