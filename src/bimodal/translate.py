"""Box-diamond translation, announcement reduction, and bounded equivalence.

The reducer rewrites announcements away one redex at a time, recording each
applied axiom in a trace that can be replayed step by step; soundness of
every step is checkable against the direct announcement semantics with
:func:`equivalent_bounded`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import xor

from bimodal.kripke import (
    ColumnEvaluator,
    FrameClass,
    Model,
    PointedModel,
    _least_point,
    enumerate_frames,
    valuation_masks,
)
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
    render,
)

__all__ = [
    "REDUCTION_AXIOMS",
    "ReductionStep",
    "ReductionTrace",
    "to_diamond",
    "reduce_announcements",
    "equivalent_bounded",
]

# Names a reduction step may carry.  ADelta and ACirc are the derived
# reductions for the defined operators; because the reducer desugars its
# input up front they never fire, but replay accepts them.
REDUCTION_AXIOMS = (
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

_FUEL = 10_000


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One rewrite: the named axiom applied to the first matching subterm."""

    axiom: str
    before: Formula
    after: Formula

    def __post_init__(self) -> None:
        if self.axiom not in REDUCTION_AXIOMS:
            raise ValueError(f"unknown reduction axiom: {self.axiom!r}")


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]

    def replay(self, f: Formula) -> Formula:
        """Re-apply the recorded rewrites to ``f``, first match first."""
        current = f
        for step in self.steps:
            current, changed = _rewrite_first(current, step.before, step.after)
            if not changed:
                raise ValueError(
                    f"trace does not apply: {render(step.before)} not found"
                )
        return current


def _rewrite_first(f: Formula, target: Formula, replacement: Formula) -> tuple[Formula, bool]:
    if f == target:
        return replacement, True
    if isinstance(f, (Atom, Top, Bot)):
        return f, False
    values = [getattr(f, field.name) for field in dataclasses.fields(f)]
    for i, value in enumerate(values):
        if isinstance(value, Formula):
            rewritten, changed = _rewrite_first(value, target, replacement)
            if changed:
                values[i] = rewritten
                return type(f)(*values), True
    return f, False


# ---------------------------------------------------------------------------
# Box-diamond translation


def to_diamond(f: Formula) -> Formula:
    """The equivalent formula using only boolean operators and the diamond.

    Contingency becomes a conjunction of two possibilities and accident a
    truth-plus-possibility conjunction.  Announcements are not translatable
    and are rejected.
    """
    return _to_diamond(desugar(f))


def _to_diamond(f: Formula) -> Formula:
    match f:
        case Atom() | Top() | Bot():
            return f
        case Not(child):
            return Not(_to_diamond(child))
        case And(left, right):
            return And(_to_diamond(left), _to_diamond(right))
        case Diamond(child):
            return Diamond(_to_diamond(child))
        case Con(child):
            inner = _to_diamond(child)
            return And(Diamond(inner), Diamond(Not(inner)))
        case Acc(child):
            inner = _to_diamond(child)
            return And(inner, Diamond(Not(inner)))
        case Ann():
            raise ValueError(
                f"cannot translate {render(f)}: reduce announcements first"
            )
    raise TypeError(f"not a core formula: {f!r}")


# ---------------------------------------------------------------------------
# Announcement reduction


def _first_announcement(f: Formula) -> Ann | None:
    stack = [f]
    while stack:
        g = stack.pop()
        match g:
            case Ann():
                return g
            case Not(child) | Con(child) | Acc(child) | Diamond(child):
                stack.append(child)
            case And(left, right):
                stack.append(right)
                stack.append(left)
    return None


def _reduce_redex(redex: Ann) -> tuple[str, Formula]:
    announced, body = redex.announced, redex.body
    match body:
        case Atom() | Top() | Bot():
            return "AP", desugar(Implies(announced, body))
        case Not(child):
            return "AN", desugar(Implies(announced, Not(Ann(announced, child))))
        case And(left, right):
            return "AC", And(Ann(announced, left), Ann(announced, right))
        case Ann(inner_announced, inner_body):
            return "AA", Ann(
                And(announced, Ann(announced, inner_announced)), inner_body
            )
        case Con(child):
            return "ACon", desugar(
                Implies(
                    announced,
                    And(
                        Con(Ann(announced, child)),
                        Con(Ann(announced, Not(child))),
                    ),
                )
            )
        case Acc(child):
            return "AAcc", desugar(Implies(announced, Acc(Ann(announced, child))))
        case Diamond():
            raise ValueError(
                f"cannot reduce {render(redex)}: no reduction axiom covers a "
                "possibility body"
            )
    raise TypeError(f"not a core formula: {body!r}")


def reduce_announcements(f: Formula) -> tuple[Formula, ReductionTrace]:
    """Rewrite every announcement away; returns the result and the trace.

    The input is desugared first (recorded as a DESUGAR step when it changes
    anything); afterwards the first announcement redex in preorder is
    rewritten by the reduction axiom matching its body until none is left.
    """
    steps: list[ReductionStep] = []
    current = desugar(f)
    if current != f:
        steps.append(ReductionStep("DESUGAR", f, current))
    for _ in range(_FUEL):
        redex = _first_announcement(current)
        if redex is None:
            return current, ReductionTrace(tuple(steps))
        axiom, replacement = _reduce_redex(redex)
        current, changed = _rewrite_first(current, redex, replacement)
        assert changed
        steps.append(ReductionStep(axiom, redex, replacement))
    raise RuntimeError("announcement reduction exceeded its step budget")


# ---------------------------------------------------------------------------
# Bounded equivalence


def equivalent_bounded(
    f: Formula,
    g: Formula,
    c: FrameClass = FrameClass.K,
    max_worlds: int = 3,
) -> tuple[bool, PointedModel | None]:
    """Whether ``f`` and ``g`` agree on every pointed model up to the bound.

    Scans one representative per frame isomorphism class — agreement is
    isomorphism-invariant — and evaluates announcements directly, so this is
    an independent check on the reducer.  On disagreement the witness is a
    pointed model where exactly one of the two holds.
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    order = sorted(atoms(f) | atoms(g))
    for n in range(1, max_worlds + 1):
        for fr in enumerate_frames(n, c, up_to_iso=True):
            evaluator = ColumnEvaluator(fr, order)
            point = _least_point(map(xor, evaluator.columns(f), evaluator.columns(g)))
            if point is not None:
                v, w = point
                model = Model(fr, valuation_masks(v, order, n))
                return False, PointedModel(model, fr.worlds[w])
    return True, None
