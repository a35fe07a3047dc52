"""Tests for parsing, printing, desugaring, metrics, and enumeration."""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from bimodal.syntax import (
    Acc,
    And,
    Ann,
    AnnWhether,
    Atom,
    BOT,
    Bot,
    Box,
    Con,
    Diamond,
    Ess,
    Formula,
    Iff,
    Implies,
    LanguageTag,
    NonCon,
    Not,
    Or,
    ParseError,
    TOP,
    Top,
    atoms,
    desugar,
    enumerate_formulas,
    in_language,
    metrics,
    parse,
    render,
    substitute,
)
from genutil import count_core_formulas, random_formula

P = Atom("p")
Q = Atom("q")


# ---------------------------------------------------------------------------
# Parsing


def test_parse_atom() -> None:
    assert parse("p") == P


def test_parse_accident_axiom_shape() -> None:
    assert parse("A p -> p") == Implies(Acc(P), P)


def test_parse_announcement() -> None:
    assert parse("[! A p] ~ A p") == Ann(Acc(P), Not(Acc(P)))


def test_parse_announcement_whether() -> None:
    assert parse("[? A p] ~ A p") == AnnWhether(Acc(P), Not(Acc(P)))


def test_parse_is_whitespace_insensitive() -> None:
    assert parse("Op&p->Dp") == parse("O p & p -> D p")
    assert parse("[!Ap]~Ap") == parse("[! A p] ~ A p")


def test_parse_precedence_and_tighter_than_or() -> None:
    assert parse("p & q | r") == Or(And(P, Q), Atom("r"))
    assert parse("p | q & r") == Or(P, And(Q, Atom("r")))


def test_parse_implies_right_associative() -> None:
    assert parse("p -> q -> r") == Implies(P, Implies(Q, Atom("r")))
    assert parse("p <-> q <-> r") == Iff(P, Iff(Q, Atom("r")))


def test_parse_left_associative_conjunction() -> None:
    assert parse("p & q & r") == And(And(P, Q), Atom("r"))


def test_parse_iff_loosest() -> None:
    assert parse("p -> q <-> r") == Iff(Implies(P, Q), Atom("r"))


def test_parse_unary_binds_tightest() -> None:
    assert parse("~p & q") == And(Not(P), Q)
    assert parse("C p -> A p | A ~p") == Implies(Con(P), Or(Acc(P), Acc(Not(P))))
    assert parse("~ C p") == Not(Con(P))
    assert parse("[]p & <>q") == And(Box(P), Diamond(Q))


def test_parse_announcement_body_is_unary_strength() -> None:
    assert parse("[!p]q & r") == And(Ann(P, Q), Atom("r"))
    assert parse("[!p](q & r)") == Ann(P, And(Q, Atom("r")))


def test_parse_nested_announcements() -> None:
    assert parse("[![!p]q]r") == Ann(Ann(P, Q), Atom("r"))


def test_parse_keywords_and_identifiers() -> None:
    assert parse("true") == TOP
    assert parse("false") == BOT
    assert parse("pQ_3") == Atom("pQ_3")
    assert parse("trueish") == Atom("trueish")


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("p &", 3),
        ("(p", 2),
        ("p q", 2),
        ("<- p", 0),
        ("[x]p", 0),
        ("P", 0),
        ("p # q", 2),
        ("[!p q", 4),
    ],
)
def test_parse_errors_carry_position(text: str, position: int) -> None:
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.position == position


def test_atom_names_are_validated() -> None:
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("Paris")
    with pytest.raises(ValueError):
        Atom("true")


# ---------------------------------------------------------------------------
# Interning


@given(st.integers(0, 2**32 - 1), st.integers(1, 14))
def test_parse_render_returns_the_interned_node(seed: int, size: int) -> None:
    f = random_formula(random.Random(seed), size, ("p", "q"), ann_depth=2)
    assert parse(render(f)) is f


@pytest.mark.parametrize(
    "clone",
    [
        *(
            lambda f, protocol=protocol: pickle.loads(pickle.dumps(f, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
        copy.copy,
        copy.deepcopy,
    ],
)
def test_copies_are_the_interned_node(clone) -> None:
    f = parse("[?A p](C q -> O(p | ~q)) <-> [](true & ~false) & <>D p")
    assert clone(f) is f


def test_unpickling_reinterns_a_collected_node() -> None:
    data = pickle.dumps(parse("A unpickled_q & C unpickled_q"))
    gc.collect()
    assert pickle.loads(data) is parse("A unpickled_q & C unpickled_q")


def test_keyword_construction_returns_the_interned_node() -> None:
    assert Atom(name="p") is P
    assert Ann(announced=P, body=Q) is Ann(P, Q)
    assert Ann(P, body=Q) is Ann(P, Q)
    assert dataclasses.replace(And(P, Q), right=P) is And(P, P)
    assert dataclasses.replace(TOP) is TOP


def test_operators_of_the_same_shape_are_distinct() -> None:
    assert And(P, Q) is not Or(P, Q)
    assert And(P, Q) != Or(P, Q)
    assert Con(P) != Acc(P)
    assert len({And(P, Q), Or(P, Q), Implies(P, Q), Iff(P, Q)}) == 4


def test_rejected_atom_leaves_no_node_behind() -> None:
    with pytest.raises(ValueError):
        Atom("Rejected")
    assert ("Rejected",) not in Atom._nodes


def test_unreferenced_nodes_are_collected() -> None:
    f = Not(Con(Atom("collected_p")))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert ("collected_p",) not in Atom._nodes


# ---------------------------------------------------------------------------
# Printing


def test_render_simple() -> None:
    assert render(Acc(P)) == "A p"
    assert render(Implies(Con(P), Or(Acc(P), Acc(Not(P))))) == "C p -> A p | A ~p"


def test_render_parenthesizes_by_need() -> None:
    assert render(parse("A q & D p & O(~q -> p)")) == "A q & D p & O(~q -> p)"
    assert render(And(P, Or(Q, Atom("r")))) == "p & (q | r)"
    assert render(Implies(Implies(P, Q), Atom("r"))) == "(p -> q) -> r"
    assert render(Iff(Implies(P, Q), Atom("r"))) == "p -> q <-> r"
    assert render(Ann(Acc(P), Not(Acc(P)))) == "[!A p]~A p"


def test_render_full_parens() -> None:
    assert render(parse("A p -> p"), full_parens=True) == "((A p) -> p)"
    assert parse(render(parse("[?p]q & ~r"), full_parens=True)) == parse("[?p]q & ~r")


def test_render_unicode_output() -> None:
    assert render(parse("C p -> A p | A ~p"), unicode_ops=True) == "∇p → •p ∨ •¬p"
    assert render(parse("O(~q -> p)"), unicode_ops=True) == "∘(¬q → p)"
    assert render(parse("[! A p] ~[]p"), unicode_ops=True) == "[•p]¬□p"


def test_round_trip_exhaustive_small() -> None:
    for f in enumerate_formulas({"p", "q"}, LanguageTag.NABLA_BULLET, 4):
        assert parse(render(f)) == f
    for f in enumerate_formulas({"p"}, LanguageTag.FULL, 4):
        assert parse(render(f)) == f


def test_round_trip_random_sugared() -> None:
    rng = random.Random(2026)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(1, 12), ("p", "q"), ann_depth=2)
        assert parse(render(f)) == f


_formula_strategy = st.recursive(
    st.sampled_from([TOP, BOT, P, Q]),
    lambda children: st.one_of(
        st.sampled_from([Not, Con, NonCon, Acc, Ess, Diamond, Box]).flatmap(
            lambda op: st.builds(op, children)
        ),
        st.sampled_from([And, Or, Implies, Iff, Ann, AnnWhether]).flatmap(
            lambda op: st.builds(op, children, children)
        ),
    ),
    max_leaves=12,
)


@given(_formula_strategy)
def test_round_trip_property(f: Formula) -> None:
    assert parse(render(f)) == f
    assert parse(render(f, full_parens=True)) == f


# ---------------------------------------------------------------------------
# Desugaring


def test_desugar_definitions() -> None:
    assert desugar(NonCon(P)) == Not(Con(P))
    assert desugar(Ess(P)) == Not(Acc(P))
    assert desugar(Box(P)) == Not(Diamond(Not(P)))
    assert desugar(Or(P, Q)) == Not(And(Not(P), Not(Q)))
    assert desugar(Implies(P, Q)) == Not(And(P, Not(Q)))
    assert desugar(Iff(P, Q)) == And(Not(And(P, Not(Q))), Not(And(Q, Not(P))))


def test_desugar_announcement_whether() -> None:
    assert desugar(AnnWhether(Acc(P), Not(Acc(P)))) == And(
        Ann(Acc(P), Not(Acc(P))), Ann(Not(Acc(P)), Not(Acc(P)))
    )


def test_desugar_output_is_core_and_idempotent() -> None:
    rng = random.Random(7)
    core_types = (Atom, Top, Bot, Not, And, Con, Acc, Diamond, Ann)

    def all_core(f: Formula) -> bool:
        if not isinstance(f, core_types):
            return False
        match f:
            case Not(c) | Con(c) | Acc(c) | Diamond(c):
                return all_core(c)
            case And(a, b) | Ann(a, b):
                return all_core(a) and all_core(b)
        return True

    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 10), ("p", "q"), ann_depth=2)
        core = desugar(f)
        assert all_core(core)
        assert desugar(core) == core


# ---------------------------------------------------------------------------
# Atoms, metrics, language membership


def test_atoms() -> None:
    assert atoms(parse("C p -> A p | A ~p")) == {"p"}
    assert atoms(parse("A q & D p & O(~q -> p)")) == {"p", "q"}
    assert atoms(TOP) == frozenset()


def test_metrics() -> None:
    assert metrics(P) == {"size": 1, "modal_depth": 0, "announcement_depth": 0}
    assert metrics(parse("[][]p"))["modal_depth"] == 2
    assert metrics(Ann(P, Ann(Q, Atom("r"))))["announcement_depth"] == 2
    assert metrics(parse("<> <> ~p")) == {
        "size": 4,
        "modal_depth": 2,
        "announcement_depth": 0,
    }
    # Size counts nodes of the desugared formula.
    assert metrics(parse("D p"))["size"] == 3
    assert metrics(parse("p | q"))["size"] == 6


def test_in_language() -> None:
    assert in_language(parse("D p & C q"), LanguageTag.NABLA)
    assert not in_language(parse("A p"), LanguageTag.NABLA)
    assert in_language(parse("O(~q -> p)"), LanguageTag.BULLET)
    assert in_language(parse("[] [] p"), LanguageTag.DIAMOND)
    assert not in_language(parse("<>p"), LanguageTag.NABLA_BULLET)
    assert in_language(parse("[!A p]C p & <>q"), LanguageTag.FULL)
    assert not in_language(parse("[!p]p"), LanguageTag.NABLA_BULLET)


def test_substitute() -> None:
    f = parse("A(q -> p) & p -> A p")
    expected = parse("A((r & r) -> ~s) & ~s -> A ~s")
    assert substitute(f, {"p": parse("~s"), "q": parse("r & r")}) == expected


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_smallest_layer_is_constants_then_atoms() -> None:
    assert list(enumerate_formulas(set(), LanguageTag.NABLA_BULLET, 1)) == [TOP, BOT]
    assert list(enumerate_formulas({"q", "p"}, LanguageTag.DIAMOND, 1)) == [
        TOP,
        BOT,
        P,
        Q,
    ]


def test_enumerate_membership() -> None:
    two = list(enumerate_formulas({"p"}, LanguageTag.NABLA_BULLET, 2))
    assert Con(P) in two
    assert Acc(P) in two
    assert Not(P) in two
    assert not any(isinstance(f, Diamond) for f in two)
    assert all(in_language(f, LanguageTag.NABLA_BULLET) for f in two)


def test_enumerate_sizes_nondecreasing_and_exact() -> None:
    sizes = [metrics(f)["size"] for f in enumerate_formulas({"p"}, LanguageTag.FULL, 5)]
    assert sizes == sorted(sizes)
    assert max(sizes) == 5


@pytest.mark.parametrize(
    "names,language,max_size,frozen_count",
    [
        (("p",), LanguageTag.BULLET, 3, 30),
        (("p",), LanguageTag.NABLA_BULLET, 7, 25779),
        (("p", "q"), LanguageTag.NABLA_BULLET, 6, 8848),
        (("p", "q"), LanguageTag.DIAMOND, 5, 748),
        (("p",), LanguageTag.FULL, 4, 489),
    ],
)
def test_enumerate_counts_match_recurrence(
    names: tuple[str, ...], language: LanguageTag, max_size: int, frozen_count: int
) -> None:
    modalities = {
        LanguageTag.NABLA: 1,
        LanguageTag.BULLET: 1,
        LanguageTag.NABLA_BULLET: 2,
        LanguageTag.DIAMOND: 1,
        LanguageTag.FULL: 3,
    }[language]
    expected = count_core_formulas(
        len(names), modalities, max_size, with_announcements=language is LanguageTag.FULL
    )
    assert expected == frozen_count
    emitted = list(enumerate_formulas(set(names), language, max_size))
    assert len(emitted) == frozen_count
    assert len(set(emitted)) == frozen_count


def test_enumerate_order_is_reproducible() -> None:
    first = list(enumerate_formulas({"p", "q"}, LanguageTag.FULL, 4))
    second = list(enumerate_formulas({"p", "q"}, LanguageTag.FULL, 4))
    assert first == second


def test_enumerate_rejects_nonpositive_bound() -> None:
    with pytest.raises(ValueError):
        list(enumerate_formulas({"p"}, LanguageTag.NABLA, 0))
