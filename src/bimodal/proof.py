"""Hilbert-style proof objects and the line checker.

Systems: ``K`` (the base contingency/accident axioms), ``KD`` (same schemas;
the base system is also sound for serial frames), ``K4`` (four extra schemas
for transitive frames), ``T`` (one extra schema for reflexive frames), and
``PAL-K`` (the base plus the announcement reduction schemas).

Axiom schemas are formulas over the reserved metavariable atoms ``_phi``,
``_psi``, ``_chi``; instances are recognized by structural matching after
desugaring, so ``D``/``O``/``[]``/``->`` may appear freely on proof lines.
Propositional reasoning enters through the ``taut`` justification, decided
by a truth table after abstracting maximal non-boolean subformulas.

Proof interchange format::

    {"system": "K", "premises": [],
     "lines": [{"formula": "O p & p -> D p", "just": {"kind": "axiom", "name": "A3"}},
               {"formula": "...", "just": {"kind": "mp", "from": [1, 2]}}]}

Line numbers are 1-based.  Justification kinds: ``axiom`` (field ``name``),
``taut``, ``mp`` (field ``from``: [antecedent line, implication line]),
``r1``/``r2``/``r3``/``r4`` (field ``from``: [source line]), and ``premise``
(field ``index`` into the declared premise list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from bimodal.kripke import FrameClass, _atom_column
from bimodal.syntax import (
    Acc,
    And,
    Ann,
    Atom,
    Bot,
    Con,
    Diamond,
    Formula,
    Implies,
    Not,
    Top,
    atoms,
    desugar,
    parse,
    render,
    substitute,
)

__all__ = [
    "Schema",
    "System",
    "SYSTEMS",
    "Axiom",
    "Taut",
    "MP",
    "R1",
    "R2",
    "R3",
    "R4",
    "Premise",
    "Justification",
    "ProofLine",
    "Proof",
    "CheckResult",
    "match_schema",
    "taut_check",
    "check_proof",
    "rename_atoms",
    "single_line_mutations",
    "proof_to_json",
    "proof_from_json",
]

METAVARIABLES = ("_phi", "_psi", "_chi")


@dataclass(frozen=True, slots=True)
class Schema:
    """A named axiom pattern over the metavariable atoms.

    Metavariables listed in ``atomic`` only match atoms and constants; the
    announcement axiom for atoms needs that restriction.
    """

    name: str
    pattern: Formula
    atomic: frozenset = frozenset()

    def __post_init__(self) -> None:
        stray = atoms(self.pattern) - set(METAVARIABLES)
        if stray:
            raise ValueError(f"schema over non-metavariable atoms: {sorted(stray)}")


def match_schema(schema: Schema, f: Formula) -> dict[str, Formula] | None:
    """Match ``f`` against the schema, returning the substitution or None.

    Both sides are desugared first; bindings are forced by the leftmost
    occurrence of each metavariable and must stay consistent.
    """
    binding: dict[str, Formula] = {}
    if _match(desugar(schema.pattern), desugar(f), binding, schema.atomic):
        return binding
    return None


def _match(
    pattern: Formula, f: Formula, binding: dict[str, Formula], atomic: frozenset
) -> bool:
    match pattern:
        case Atom(name):
            if name in atomic and not isinstance(f, (Atom, Top, Bot)):
                return False
            bound = binding.get(name)
            if bound is None:
                binding[name] = f
                return True
            return bound == f
        case Top():
            return isinstance(f, Top)
        case Bot():
            return isinstance(f, Bot)
        case Not(child):
            return isinstance(f, Not) and _match(child, f.child, binding, atomic)
        case And(left, right):
            return (
                isinstance(f, And)
                and _match(left, f.left, binding, atomic)
                and _match(right, f.right, binding, atomic)
            )
        case Con(child):
            return isinstance(f, Con) and _match(child, f.child, binding, atomic)
        case Acc(child):
            return isinstance(f, Acc) and _match(child, f.child, binding, atomic)
        case Diamond(child):
            return isinstance(f, Diamond) and _match(child, f.child, binding, atomic)
        case Ann(announced, body):
            return (
                isinstance(f, Ann)
                and _match(announced, f.announced, binding, atomic)
                and _match(body, f.body, binding, atomic)
            )
    raise TypeError(f"not a core pattern node: {pattern!r}")


# ---------------------------------------------------------------------------
# Systems


def _schemas(*specs: tuple[str, str] | tuple[str, str, frozenset]) -> dict[str, Schema]:
    out: dict[str, Schema] = {}
    for name, text, *rest in specs:
        out[name] = Schema(name, parse(text), *rest)
    return out


_BASE_SCHEMAS = (
    ("A1", "A _phi -> _phi"),
    ("A2", "C _phi <-> C ~_phi"),
    ("A3", "A(_psi -> _phi) & _phi -> A _phi"),
    ("A4", "C(_phi & _psi) -> C _phi | C _psi"),
    ("A5", "A(_phi & _psi) -> A _phi | A _psi"),
    ("A6", "C _phi -> A _phi | A ~_phi"),
    ("A7", "A(_phi -> _psi) & A(~_phi -> _chi) -> C _phi"),
)

_TRANSITIVE_SCHEMAS = (
    ("A4-1", "D _phi -> D D _phi"),
    ("A4-2", "D _phi -> O(_psi -> D _phi)"),
    ("A4-3", "A _psi & D _phi & O(~_psi -> _phi) -> D O(~_chi -> _phi)"),
    ("A4-4", "A _psi & D _phi & O(~_psi -> _phi) -> O(~_psi -> O(~_chi -> _phi))"),
)

_REFLEXIVE_SCHEMAS = (("AT", "D _phi & _phi -> O(_psi -> _phi)"),)

_REDUCTION_SCHEMAS = (
    ("AP", "[!_psi]_phi <-> (_psi -> _phi)", frozenset({"_phi"})),
    ("AN", "[!_psi]~_phi <-> (_psi -> ~[!_psi]_phi)"),
    ("AC", "[!_psi](_phi & _chi) <-> ([!_psi]_phi & [!_psi]_chi)"),
    ("AA", "[!_psi][!_chi]_phi <-> [!(_psi & [!_psi]_chi)]_phi"),
    ("ACon", "[!_psi]C _phi <-> (_psi -> C [!_psi]_phi & C [!_psi]~_phi)"),
    ("AAcc", "[!_psi]A _phi <-> (_psi -> A [!_psi]_phi)"),
)

RULES = frozenset({"TAUT", "MP", "R1", "R2", "R3", "R4"})


@dataclass(frozen=True, slots=True)
class System:
    """A named axiom system with its intended frame class."""

    name: str
    axioms: Mapping[str, Schema]
    rules: frozenset
    frame_class: FrameClass


SYSTEMS: dict[str, System] = {
    "K": System("K", _schemas(*_BASE_SCHEMAS), RULES, FrameClass.K),
    "KD": System("KD", _schemas(*_BASE_SCHEMAS), RULES, FrameClass.D),
    "K4": System(
        "K4", _schemas(*_BASE_SCHEMAS, *_TRANSITIVE_SCHEMAS), RULES, FrameClass.FOUR
    ),
    "T": System(
        "T", _schemas(*_BASE_SCHEMAS, *_REFLEXIVE_SCHEMAS), RULES, FrameClass.T
    ),
    "PAL-K": System(
        "PAL-K", _schemas(*_BASE_SCHEMAS, *_REDUCTION_SCHEMAS), RULES, FrameClass.K
    ),
}


# ---------------------------------------------------------------------------
# Tautology oracle


_TAUT_CAP = 20


def taut_check(f: Formula) -> bool:
    """Truth-table check after abstracting maximal non-boolean subformulas."""
    table: dict[Formula, int] = {}
    core = desugar(f)
    _collect_letters(core, table)
    if len(table) > _TAUT_CAP:
        raise ValueError(
            f"tautology abstraction needs {len(table)} letters; the cap is {_TAUT_CAP}"
        )
    rows = 1 << len(table)
    columns = {g: _atom_column(i, rows) for i, (g, _) in enumerate(table.items())}
    return _boolean_column(core, columns, (1 << rows) - 1) == (1 << rows) - 1


def _collect_letters(f: Formula, table: dict[Formula, int]) -> None:
    match f:
        case Top() | Bot():
            return
        case Not(child):
            _collect_letters(child, table)
        case And(left, right):
            _collect_letters(left, table)
            _collect_letters(right, table)
        case _:
            table.setdefault(f, len(table))


def _boolean_column(f: Formula, columns: Mapping[Formula, int], full: int) -> int:
    match f:
        case Top():
            return full
        case Bot():
            return 0
        case Not(child):
            return full ^ _boolean_column(child, columns, full)
        case And(left, right):
            return _boolean_column(left, columns, full) & _boolean_column(
                right, columns, full
            )
        case _:
            return columns[f]


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True, slots=True)
class Axiom:
    name: str


@dataclass(frozen=True, slots=True)
class Taut:
    pass


@dataclass(frozen=True, slots=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True, slots=True)
class R1:
    source: int


@dataclass(frozen=True, slots=True)
class R2:
    source: int


@dataclass(frozen=True, slots=True)
class R3:
    source: int


@dataclass(frozen=True, slots=True)
class R4:
    source: int


@dataclass(frozen=True, slots=True)
class Premise:
    index: int


Justification = Axiom | Taut | MP | R1 | R2 | R3 | R4 | Premise


@dataclass(frozen=True, slots=True)
class ProofLine:
    formula: Formula
    just: Justification


@dataclass(frozen=True, slots=True)
class Proof:
    system: str
    premises: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof has no conclusion")
        return self.lines[-1].formula


@dataclass(frozen=True, slots=True)
class CheckResult:
    """OK, or the first failing line with the reason."""

    ok: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_proof(p: Proof, premises: Sequence[Formula] | None = None) -> CheckResult:
    """Check every line of ``p``; the first unjustified line fails.

    ``premises`` overrides the proof's own declared premise list when given.
    """
    system = SYSTEMS.get(p.system)
    if system is None:
        raise ValueError(f"unknown system: {p.system!r}")
    given = tuple(p.premises if premises is None else premises)
    given_cores = [desugar(g) for g in given]
    cores: list[Formula] = []

    def fail(number: int, reason: str) -> CheckResult:
        return CheckResult(False, number, reason)

    for number, line in enumerate(p.lines, start=1):
        core = desugar(line.formula)
        ok, reason = _justified(
            line.just, core, cores, given_cores, system, number
        )
        if not ok:
            return fail(number, reason)
        cores.append(core)
    return CheckResult(True)


def _earlier(cores: list[Formula], i: int, number: int) -> Formula | None:
    if 1 <= i < number:
        return cores[i - 1]
    return None


def _biconditional_halves(core: Formula) -> tuple[Formula, Formula] | None:
    # the desugared shape of alpha <-> beta
    match core:
        case And(Not(And(a, Not(b))), Not(And(b2, Not(a2)))) if a == a2 and b == b2:
            return a, b
        case _:
            return None


def _justified(
    just: Justification,
    core: Formula,
    cores: list[Formula],
    given: list[Formula],
    system: System,
    number: int,
) -> tuple[bool, str]:
    match just:
        case Axiom(name):
            schema = system.axioms.get(name)
            if schema is None:
                return False, f"unknown axiom name: {name}"
            if match_schema(schema, core) is None:
                return False, f"does not match schema {name}"
            return True, ""
        case Taut():
            if not taut_check(core):
                return False, "not a propositional tautology"
            return True, ""
        case MP(i, j):
            left = _earlier(cores, i, number)
            right = _earlier(cores, j, number)
            if left is None or right is None:
                return False, f"bad line index in MP({i},{j})"
            if right != desugar(Implies(left, core)):
                return False, f"line {j} is not line {i} -> this line"
            return True, ""
        case R1(i):
            source = _earlier(cores, i, number)
            if source is None:
                return False, f"bad line index in R1({i})"
            if core != Not(Con(source)):
                return False, f"not the noncontingency of line {i}"
            return True, ""
        case R2(i):
            source = _earlier(cores, i, number)
            if source is None:
                return False, f"bad line index in R2({i})"
            if core != Not(Acc(source)):
                return False, f"not the essence of line {i}"
            return True, ""
        case R3(i) | R4(i):
            rule = "R3" if isinstance(just, R3) else "R4"
            source = _earlier(cores, i, number)
            if source is None:
                return False, f"bad line index in {rule}({i})"
            halves = _biconditional_halves(source)
            if halves is None:
                return False, f"line {i} is not a biconditional"
            alpha, beta = halves
            wrap = (lambda g: Not(Con(g))) if rule == "R3" else (lambda g: Not(Acc(g)))
            expected = _biconditional(wrap(alpha), wrap(beta))
            if core != expected:
                return False, f"not the {rule} congruence of line {i}"
            return True, ""
        case Premise(k):
            if not 1 <= k <= len(given):
                return False, f"bad premise index {k}"
            if core != given[k - 1]:
                return False, f"does not restate premise {k}"
            return True, ""
    return False, f"unknown justification {just!r}"


def _biconditional(a: Formula, b: Formula) -> Formula:
    return And(Not(And(a, Not(b))), Not(And(b, Not(a))))


# ---------------------------------------------------------------------------
# Proof transformations


def rename_atoms(p: Proof, mapping: Mapping[str, str]) -> Proof:
    """Rename atoms throughout a proof (checkedness is preserved)."""
    table = {old: Atom(new) for old, new in mapping.items()}

    def sub(f: Formula) -> Formula:
        return substitute(f, table)

    return Proof(
        p.system,
        tuple(sub(g) for g in p.premises),
        tuple(ProofLine(sub(line.formula), line.just) for line in p.lines),
    )


def single_line_mutations(p: Proof) -> Iterator[tuple[int, Proof]]:
    """Yield (line number, proof) for each justification mutation.

    The fixed mutation set: an axiom name moves to the next name registered
    in the system (cyclically), ``taut`` becomes axiom A1, ``MP(i,j)``
    becomes ``MP(i,i)``, R1 and R2 swap, R3 and R4 swap, and a premise
    becomes ``taut``.
    """
    names = list(SYSTEMS[p.system].axioms)
    for number, line in enumerate(p.lines, start=1):
        match line.just:
            case Axiom(name):
                if name in names:
                    replacement = Axiom(names[(names.index(name) + 1) % len(names)])
                else:
                    replacement = Axiom(names[0])
            case Taut():
                replacement = Axiom("A1")
            case MP(i, _):
                replacement = MP(i, i)
            case R1(i):
                replacement = R2(i)
            case R2(i):
                replacement = R1(i)
            case R3(i):
                replacement = R4(i)
            case R4(i):
                replacement = R3(i)
            case Premise(_):
                replacement = Taut()
            case _:
                continue
        mutated = list(p.lines)
        mutated[number - 1] = ProofLine(line.formula, replacement)
        yield number, Proof(p.system, p.premises, tuple(mutated))


# ---------------------------------------------------------------------------
# Interchange


def _just_to_json(just: Justification) -> dict:
    match just:
        case Axiom(name):
            return {"kind": "axiom", "name": name}
        case Taut():
            return {"kind": "taut"}
        case MP(i, j):
            return {"kind": "mp", "from": [i, j]}
        case R1(i):
            return {"kind": "r1", "from": [i]}
        case R2(i):
            return {"kind": "r2", "from": [i]}
        case R3(i):
            return {"kind": "r3", "from": [i]}
        case R4(i):
            return {"kind": "r4", "from": [i]}
        case Premise(k):
            return {"kind": "premise", "index": k}
    raise TypeError(f"not a justification: {just!r}")


def proof_to_json(p: Proof) -> dict:
    return {
        "system": p.system,
        "premises": [render(g) for g in p.premises],
        "lines": [
            {"formula": render(line.formula), "just": _just_to_json(line.just)}
            for line in p.lines
        ],
    }


def _expect_keys(obj: object, keys: set[str], what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise ValueError(f"missing keys in {what}: {sorted(missing)}")
    if extra:
        raise ValueError(f"unknown keys in {what}: {sorted(extra)}")
    return obj


def _just_from_json(data: object, where: str) -> Justification:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"{where}: justification must be an object with a kind")
    kind = data["kind"]
    if kind == "axiom":
        body = _expect_keys(data, {"kind", "name"}, where)
        if not isinstance(body["name"], str):
            raise ValueError(f"{where}: axiom name must be a string")
        return Axiom(body["name"])
    if kind == "taut":
        _expect_keys(data, {"kind"}, where)
        return Taut()
    if kind in ("mp", "r1", "r2", "r3", "r4"):
        body = _expect_keys(data, {"kind", "from"}, where)
        refs = body["from"]
        arity = 2 if kind == "mp" else 1
        if (
            not isinstance(refs, list)
            or len(refs) != arity
            or not all(isinstance(i, int) for i in refs)
        ):
            raise ValueError(f"{where}: 'from' must list {arity} line number(s)")
        if kind == "mp":
            return MP(refs[0], refs[1])
        return {"r1": R1, "r2": R2, "r3": R3, "r4": R4}[kind](refs[0])
    if kind == "premise":
        body = _expect_keys(data, {"kind", "index"}, where)
        if not isinstance(body["index"], int):
            raise ValueError(f"{where}: premise index must be an integer")
        return Premise(body["index"])
    raise ValueError(f"{where}: unknown justification kind {kind!r}")


def proof_from_json(data: object) -> Proof:
    body = _expect_keys(data, {"system", "premises", "lines"}, "proof")
    if not isinstance(body["system"], str):
        raise ValueError("'system' must be a string")
    if not isinstance(body["premises"], list):
        raise ValueError("'premises' must be a list of formulas")
    premises = tuple(parse(text) for text in body["premises"])
    if not isinstance(body["lines"], list):
        raise ValueError("'lines' must be a list")
    lines = []
    for i, entry in enumerate(body["lines"], start=1):
        where = f"line {i}"
        line = _expect_keys(entry, {"formula", "just"}, where)
        lines.append(ProofLine(parse(line["formula"]), _just_from_json(line["just"], where)))
    return Proof(body["system"], premises, tuple(lines))
