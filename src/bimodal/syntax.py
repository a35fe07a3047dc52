"""Formula ASTs, concrete grammar, printing, desugaring, and enumeration.

The primitive language has atoms, ``true``/``false``, negation, conjunction,
the contingency modality ``C``, the accident modality ``A``, possibility
``<>``, and public announcements ``[!psi]phi``.  Disjunction, implication,
biconditional, non-contingency ``D``, essence ``O``, necessity ``[]``, and
announcement-whether ``[?psi]phi`` are abbreviations; :func:`desugar` expands
them.

Concrete grammar (whitespace-insensitive)::

    phi ::= "true" | "false" | atom | "~" phi | "C" phi | "D" phi | "A" phi
          | "O" phi | "<>" phi | "[]" phi | "[!" phi "]" phi | "[?" phi "]" phi
          | phi "&" phi | phi "|" phi | phi "->" phi | phi "<->" phi
          | "(" phi ")"
    atom ::= lowercase letter or underscore, then letters/digits/underscores

Precedence, tightest first: unary, ``&``, ``|``, ``->``, ``<->``.  The
connectives ``&`` and ``|`` associate to the left, ``->`` and ``<->`` to the
right; unary operators bind the smallest formula to their right, so
``A p -> p`` reads ``(A p) -> p``.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Formula",
    "Atom",
    "Top",
    "Bot",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Con",
    "NonCon",
    "Acc",
    "Ess",
    "Diamond",
    "Box",
    "Ann",
    "AnnWhether",
    "TOP",
    "BOT",
    "LanguageTag",
    "ParseError",
    "parse",
    "render",
    "desugar",
    "atoms",
    "metrics",
    "in_language",
    "enumerate_formulas",
    "substitute",
]


class _Interned(type):
    """Metaclass that hash-conses formula nodes.

    Each node class keeps a weak table from field values to the one live
    node with those values.  The children of a node are themselves interned,
    so the key hashes and compares in O(1), and constructing a node that
    already exists returns the existing one.  Structural equality is then
    identity.  An entry leaves the table when its node is collected.
    """

    def __init__(cls, name: str, bases: tuple, namespace: dict) -> None:
        super().__init__(name, bases, namespace)
        cls._nodes = weakref.WeakValueDictionary()
        # Identity semantics.  Set on every class, not inherited, so that
        # per-class instrumentation (perfbench's tracer) can wrap them.
        cls.__eq__ = object.__eq__
        cls.__hash__ = object.__hash__

    def __call__(cls, *args, **kwargs):
        if kwargs:  # keyword construction, e.g. dataclasses.replace
            node = type.__call__(cls, *args, **kwargs)
            args = tuple(getattr(node, name) for name in cls.__match_args__)
            return cls._nodes.setdefault(args, node)
        node = cls._nodes.get(args)
        if node is None:
            node = cls._nodes[args] = type.__call__(cls, *args)
        return node


class Formula(metaclass=_Interned):
    """Base class of all formula nodes.

    Instances are immutable and interned: two formulas are equal exactly
    when they are the same object.
    """

    # ``_core`` is the memo of desugar; not a field, so equality, pickling
    # and dataclasses.fields ignore it.  ``__weakref__`` lets the intern
    # tables hold nodes weakly; every node class inherits both slots.
    __slots__ = ("_core", "__weakref__")

    def __repr__(self) -> str:
        return f"parse({render(self)!r})"

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor, so unpickled and copied formulas
        # are the interned nodes of the receiving process.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


_node = dataclass(frozen=True, slots=True, eq=False, repr=False)


_ATOM_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"true", "false"})


@_node
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"bad atom name: {self.name!r}")


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Con(Formula):
    """Contingency: some successor satisfies the child, some falsifies it."""

    child: Formula


@_node
class NonCon(Formula):
    """Non-contingency ``D``; abbreviates ``~C``."""

    child: Formula


@_node
class Acc(Formula):
    """Accident: the child is true here but false at some successor."""

    child: Formula


@_node
class Ess(Formula):
    """Essence ``O``; abbreviates ``~A``."""

    child: Formula


@_node
class Diamond(Formula):
    child: Formula


@_node
class Box(Formula):
    """Necessity ``[]``; abbreviates ``~<>~``."""

    child: Formula


@_node
class Ann(Formula):
    """Public announcement ``[!announced]body``."""

    announced: Formula
    body: Formula


@_node
class AnnWhether(Formula):
    """Announcement-whether ``[?announced]body``; abbreviates the
    conjunction of announcing the formula and announcing its negation."""

    announced: Formula
    body: Formula


TOP = Top()
BOT = Bot()


class LanguageTag(Enum):
    """Fragments of the full language, keyed by their modal primitives."""

    NABLA_BULLET = "nabla-bullet"
    NABLA = "nabla"
    BULLET = "bullet"
    DIAMOND = "diamond"
    FULL = "full"


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Malformed formula text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_MODALITY_TOKENS = {"C": "CON", "D": "NONCON", "A": "ACC", "O": "ESS"}
_SINGLE_CHAR_TOKENS = {
    "~": "NOT",
    "&": "AND",
    "|": "OR",
    "(": "LPAREN",
    ")": "RPAREN",
    "]": "RBRACK",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _SINGLE_CHAR_TOKENS:
            tokens.append(_Token(_SINGLE_CHAR_TOKENS[ch], ch, i))
            i += 1
        elif ch == "-":
            if text[i : i + 2] != "->":
                raise ParseError("expected '->'", i)
            tokens.append(_Token("IMPLIES", "->", i))
            i += 2
        elif ch == "<":
            if text[i : i + 3] == "<->":
                tokens.append(_Token("IFF", "<->", i))
                i += 3
            elif text[i : i + 2] == "<>":
                tokens.append(_Token("DIAMOND", "<>", i))
                i += 2
            else:
                raise ParseError("expected '<->' or '<>'", i)
        elif ch == "[":
            two = text[i : i + 2]
            if two == "[]":
                tokens.append(_Token("BOX", "[]", i))
            elif two == "[!":
                tokens.append(_Token("LANN", "[!", i))
            elif two == "[?":
                tokens.append(_Token("LWHETHER", "[?", i))
            else:
                raise ParseError("expected '[]', '[!' or '[?'", i)
            i += 2
        elif ch in _MODALITY_TOKENS:
            tokens.append(_Token(_MODALITY_TOKENS[ch], ch, i))
            i += 1
        elif (ch.isalpha() and ch.islower()) or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "true":
                tokens.append(_Token("TRUE", word, i))
            elif word == "false":
                tokens.append(_Token("FALSE", word, i))
            else:
                tokens.append(_Token("ATOM", word, i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


_UNARY_CONSTRUCTORS: dict[str, Callable[[Formula], Formula]] = {
    "NOT": Not,
    "CON": Con,
    "NONCON": NonCon,
    "ACC": Acc,
    "ESS": Ess,
    "DIAMOND": Diamond,
    "BOX": Box,
}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            found = repr(token.text) if token.kind != "END" else "end of input"
            raise ParseError(f"expected {what}, found {found}", token.pos)
        return self.advance()

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek().kind == "IFF":
            self.advance()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "IMPLIES":
            self.advance()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "OR":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        token = self.peek()
        if token.kind in _UNARY_CONSTRUCTORS:
            self.advance()
            return _UNARY_CONSTRUCTORS[token.kind](self.unary())
        if token.kind in ("LANN", "LWHETHER"):
            self.advance()
            announced = self.formula()
            self.expect("RBRACK", "']'")
            body = self.unary()
            constructor = Ann if token.kind == "LANN" else AnnWhether
            return constructor(announced, body)
        if token.kind == "TRUE":
            self.advance()
            return TOP
        if token.kind == "FALSE":
            self.advance()
            return BOT
        if token.kind == "ATOM":
            self.advance()
            return Atom(token.text)
        if token.kind == "LPAREN":
            self.advance()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        found = repr(token.text) if token.kind != "END" else "end of input"
        raise ParseError(f"expected a formula, found {found}", token.pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula; raises :class:`ParseError`."""
    parser = _Parser(_tokenize(text))
    result = parser.formula()
    parser.expect("END", "end of input")
    return result


# ---------------------------------------------------------------------------
# Printing

_ASCII_OPS = {
    Not: "~",
    Con: "C",
    NonCon: "D",
    Acc: "A",
    Ess: "O",
    Diamond: "<>",
    Box: "[]",
    And: "&",
    Or: "|",
    Implies: "->",
    Iff: "<->",
}
_UNICODE_OPS = {
    Not: "¬",
    Con: "∇",
    NonCon: "Δ",
    Acc: "•",
    Ess: "∘",
    Diamond: "◇",
    Box: "□",
    And: "∧",
    Or: "∨",
    Implies: "→",
    Iff: "↔",
}
# Binary precedence; unary operators bind tighter than all of these.
_BINARY_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}
_RIGHT_ASSOC = (Implies, Iff)
_UNARY_PREC = 5
# A one-letter modality needs a space before an operand that does not start
# with a parenthesis, so that e.g. Acc(Atom("p")) prints as "A p".
_LETTER_OPS = (Con, NonCon, Acc, Ess)


def render(f: Formula, *, unicode_ops: bool = False, full_parens: bool = False) -> str:
    """Print a formula.

    The default output re-parses to a structurally equal formula.  With
    ``unicode_ops`` the modalities print as their usual symbols (output
    only; not accepted by :func:`parse`).  With ``full_parens`` every
    composite subformula is parenthesized, for debugging.
    """
    ops = _UNICODE_OPS if unicode_ops else _ASCII_OPS

    def go(g: Formula, min_prec: int) -> str:
        match g:
            case Atom(name):
                return name
            case Top():
                return "⊤" if unicode_ops else "true"
            case Bot():
                return "⊥" if unicode_ops else "false"
            case Ann(announced, body) | AnnWhether(announced, body):
                opener = "[!" if isinstance(g, Ann) else "[?"
                if unicode_ops and isinstance(g, Ann):
                    opener = "["
                text = f"{opener}{go(announced, 0)}]{go(body, _UNARY_PREC)}"
                return f"({text})" if full_parens else text
            case Not(child) | Con(child) | NonCon(child) | Acc(child) | Ess(child) | Diamond(child) | Box(child):
                op = ops[type(g)]
                operand = go(child, _UNARY_PREC)
                if not unicode_ops and isinstance(g, _LETTER_OPS) and not operand.startswith("("):
                    op += " "
                text = op + operand
                return f"({text})" if full_parens else text
            case And(left, right) | Or(left, right) | Implies(left, right) | Iff(left, right):
                prec = _BINARY_PREC[type(g)]
                if isinstance(g, _RIGHT_ASSOC):
                    left_prec, right_prec = prec + 1, prec
                else:
                    left_prec, right_prec = prec, prec + 1
                text = f"{go(left, left_prec)} {ops[type(g)]} {go(right, right_prec)}"
                if full_parens or prec < min_prec:
                    return f"({text})"
                return text
        raise TypeError(f"not a formula: {g!r}")

    return go(f, 0)


# ---------------------------------------------------------------------------
# Desugaring and simple structural queries


def desugar(f: Formula) -> Formula:
    """Expand all abbreviations.

    The result uses only atoms, ``true``/``false``, ``~``, ``&``, ``C``,
    ``A``, ``<>``, and announcements, and is semantically equivalent to the
    input at every pointed model.  The result is memoized on the node, for
    as long as the node lives.
    """
    try:
        core = f._core
    except AttributeError:
        core = _expand(f)
        # None marks a node that is its own expansion, without the
        # reference cycle that storing the node itself would make.
        object.__setattr__(core, "_core", None)
        if core is not f:
            object.__setattr__(f, "_core", core)
        return core
    return f if core is None else core


def _expand(f: Formula) -> Formula:
    match f:
        case Atom() | Top() | Bot():
            return f
        case Not(child):
            return Not(desugar(child))
        case And(left, right):
            return And(desugar(left), desugar(right))
        case Or(left, right):
            return Not(And(Not(desugar(left)), Not(desugar(right))))
        case Implies(left, right):
            return Not(And(desugar(left), Not(desugar(right))))
        case Iff(left, right):
            a, b = desugar(left), desugar(right)
            return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
        case Con(child):
            return Con(desugar(child))
        case NonCon(child):
            return Not(Con(desugar(child)))
        case Acc(child):
            return Acc(desugar(child))
        case Ess(child):
            return Not(Acc(desugar(child)))
        case Diamond(child):
            return Diamond(desugar(child))
        case Box(child):
            return Not(Diamond(Not(desugar(child))))
        case Ann(announced, body):
            return Ann(desugar(announced), desugar(body))
        case AnnWhether(announced, body):
            a, b = desugar(announced), desugar(body)
            return And(Ann(a, b), Ann(Not(a), b))
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``f``."""
    found: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        match g:
            case Atom(name):
                found.add(name)
            case Top() | Bot():
                pass
            case Not(child) | Con(child) | NonCon(child) | Acc(child) | Ess(child) | Diamond(child) | Box(child):
                stack.append(child)
            case And(left, right) | Or(left, right) | Implies(left, right) | Iff(left, right):
                stack.append(left)
                stack.append(right)
            case Ann(announced, body) | AnnWhether(announced, body):
                stack.append(announced)
                stack.append(body)
    return frozenset(found)


def _size(f: Formula) -> int:
    match f:
        case Atom() | Top() | Bot():
            return 1
        case Not(child) | Con(child) | Acc(child) | Diamond(child):
            return 1 + _size(child)
        case And(left, right):
            return 1 + _size(left) + _size(right)
        case Ann(announced, body):
            return 1 + _size(announced) + _size(body)
    raise TypeError(f"not desugared: {f!r}")


def _modal_depth(f: Formula) -> int:
    match f:
        case Atom() | Top() | Bot():
            return 0
        case Not(child):
            return _modal_depth(child)
        case Con(child) | Acc(child) | Diamond(child):
            return 1 + _modal_depth(child)
        case And(left, right):
            return max(_modal_depth(left), _modal_depth(right))
        case Ann(announced, body):
            return max(_modal_depth(announced), _modal_depth(body))
    raise TypeError(f"not desugared: {f!r}")


def _announcement_depth(f: Formula) -> int:
    match f:
        case Atom() | Top() | Bot():
            return 0
        case Not(child) | Con(child) | Acc(child) | Diamond(child):
            return _announcement_depth(child)
        case And(left, right):
            return max(_announcement_depth(left), _announcement_depth(right))
        case Ann(announced, body):
            return 1 + max(_announcement_depth(announced), _announcement_depth(body))
    raise TypeError(f"not desugared: {f!r}")


def metrics(f: Formula) -> dict[str, int]:
    """Size (node count after desugaring), modal depth, announcement depth."""
    core = desugar(f)
    return {
        "size": _size(core),
        "modal_depth": _modal_depth(core),
        "announcement_depth": _announcement_depth(core),
    }


_LANGUAGE_MODALITIES: dict[LanguageTag, tuple[type, ...]] = {
    LanguageTag.NABLA_BULLET: (Con, Acc),
    LanguageTag.NABLA: (Con,),
    LanguageTag.BULLET: (Acc,),
    LanguageTag.DIAMOND: (Diamond,),
    LanguageTag.FULL: (Con, Acc, Diamond, Ann),
}


def in_language(f: Formula, language: LanguageTag) -> bool:
    """Whether ``f`` desugars into the fragment named by ``language``."""
    allowed = _LANGUAGE_MODALITIES[language]
    stack = [desugar(f)]
    while stack:
        g = stack.pop()
        match g:
            case Atom() | Top() | Bot():
                pass
            case Not(child):
                stack.append(child)
            case And(left, right):
                stack.append(left)
                stack.append(right)
            case Con(child) | Acc(child) | Diamond(child):
                if not isinstance(g, allowed):
                    return False
                stack.append(child)
            case Ann(announced, body):
                if Ann not in allowed:
                    return False
                stack.append(announced)
                stack.append(body)
    return True


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas, simultaneously."""
    match f:
        case Atom(name):
            return mapping.get(name, f)
        case Top() | Bot():
            return f
        case Not(child):
            return Not(substitute(child, mapping))
        case Con(child):
            return Con(substitute(child, mapping))
        case NonCon(child):
            return NonCon(substitute(child, mapping))
        case Acc(child):
            return Acc(substitute(child, mapping))
        case Ess(child):
            return Ess(substitute(child, mapping))
        case Diamond(child):
            return Diamond(substitute(child, mapping))
        case Box(child):
            return Box(substitute(child, mapping))
        case And(left, right):
            return And(substitute(left, mapping), substitute(right, mapping))
        case Or(left, right):
            return Or(substitute(left, mapping), substitute(right, mapping))
        case Implies(left, right):
            return Implies(substitute(left, mapping), substitute(right, mapping))
        case Iff(left, right):
            return Iff(substitute(left, mapping), substitute(right, mapping))
        case Ann(announced, body):
            return Ann(substitute(announced, mapping), substitute(body, mapping))
        case AnnWhether(announced, body):
            return AnnWhether(substitute(announced, mapping), substitute(body, mapping))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_formulas(
    names: Iterable[str], language: LanguageTag, max_size: int
) -> Iterator[Formula]:
    """Every core formula of the language over the given atoms, by size.

    The core keeps ``true``/``false`` and the atoms as leaves and builds with
    ``~``, the language's modalities, and ``&`` (announcements too, in the
    full language); the derived connectives are omitted since they are
    expressible.  Formulas stream in nondecreasing size with a fixed,
    reproducible order, each exactly once.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    leaves: list[Formula] = [TOP, BOT]
    leaves.extend(Atom(name) for name in sorted(names))
    modalities = _LANGUAGE_MODALITIES[language]
    unary: list[Callable[[Formula], Formula]] = [Not]
    unary.extend(m for m in modalities if m is not Ann)
    with_announcements = Ann in modalities
    by_size: list[list[Formula]] = [[], leaves]
    yield from leaves
    for size in range(2, max_size + 1):
        bucket: list[Formula] = []
        for op in unary:
            bucket.extend(op(g) for g in by_size[size - 1])
        for split in range(1, size - 1):
            lefts, rights = by_size[split], by_size[size - 1 - split]
            bucket.extend(And(a, b) for a in lefts for b in rights)
        if with_announcements:
            for split in range(1, size - 1):
                lefts, rights = by_size[split], by_size[size - 1 - split]
                bucket.extend(Ann(a, b) for a in lefts for b in rights)
        by_size.append(bucket)
        yield from bucket
