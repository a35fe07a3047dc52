"""Frames, models, the satisfaction relation, frame classes, and frame surgery.

Worlds are identified by strings in interchange files and by dense indices
internally; relations are stored as per-world successor bitsets, and world
subsets generally travel as bitmasks.  :func:`evaluate` is the reference
implementation of the satisfaction clauses, one world at a time.  The bounded
search layers use two vectorized evaluators instead: :class:`ColumnEvaluator`
(every valuation of a frame at once) and :class:`ExtensionEvaluator` (every
world of one model at once).  Both dispatch on the node class through a rule
table, take the modal operators from one shared table of clauses, and memoize
per live world set; they are property-tested against :func:`evaluate` and
against each other.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial, reduce
from itertools import permutations
from operator import and_, or_, xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from bimodal.syntax import (
    Acc,
    And,
    Ann,
    AnnWhether,
    Atom,
    Bot,
    Box,
    Con,
    Diamond,
    Ess,
    Formula,
    Iff,
    Implies,
    NonCon,
    Not,
    Or,
    Top,
    atoms,
    render,
)

__all__ = [
    "Frame",
    "Model",
    "PointedModel",
    "FrameClass",
    "evaluate",
    "restrict",
    "has_announcements",
    "frame_has_property",
    "enumerate_frames",
    "frame_valid",
    "mirror_reduction",
    "reflexive_closure",
    "reflexivize_dead_ends",
    "ColumnEvaluator",
    "ExtensionEvaluator",
    "refuting_point",
    "valuation_masks",
    "named_valuation",
    "frame_to_json",
    "frame_from_json",
    "model_to_json",
    "model_from_json",
]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class Frame:
    """A finite frame: ordered worlds plus per-world successor bitsets.

    Bit ``t`` of ``succ[s]`` is set iff world ``s`` sees world ``t``.
    """

    worlds: tuple[str, ...]
    succ: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ValueError("a frame needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("world identifiers must be unique")
        if len(self.succ) != len(self.worlds):
            raise ValueError("one successor row per world required")
        limit = 1 << len(self.worlds)
        if any(row < 0 or row >= limit for row in self.succ):
            raise ValueError("successor bits out of range")

    @classmethod
    def from_pairs(cls, worlds: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Frame:
        world_tuple = tuple(worlds)
        index = {w: i for i, w in enumerate(world_tuple)}
        succ = [0] * len(world_tuple)
        for s, t in pairs:
            if s not in index or t not in index:
                raise ValueError(f"relation pair ({s!r}, {t!r}) mentions an unknown world")
            succ[index[s]] |= 1 << index[t]
        return cls(world_tuple, tuple(succ))

    @property
    def n(self) -> int:
        return len(self.worlds)

    def index(self, world: str) -> int:
        try:
            return self.worlds.index(world)
        except ValueError:
            raise ValueError(f"unknown world: {world!r}") from None

    def pairs(self) -> list[tuple[str, str]]:
        return [
            (self.worlds[s], self.worlds[t])
            for s in range(self.n)
            for t in _bits(self.succ[s])
        ]

    def relation_index(self) -> int:
        """The relation as one integer, bit ``s*n + t`` for each arrow."""
        n = self.n
        rel = 0
        for s in range(n):
            rel |= self.succ[s] << (s * n)
        return rel


@dataclass(frozen=True, slots=True, eq=False)
class Model:
    """A frame plus a valuation mapping atom names to world bitmasks."""

    frame: Frame
    valuation: Mapping[str, int]

    def __post_init__(self) -> None:
        limit = 1 << self.frame.n
        cleaned: dict[str, int] = {}
        for name, mask in self.valuation.items():
            Atom(name)  # validates the atom name
            if mask < 0 or mask >= limit:
                raise ValueError(f"valuation of {name!r} is out of range")
            if mask:
                cleaned[name] = mask
        object.__setattr__(self, "valuation", cleaned)

    @classmethod
    def from_sets(cls, frame: Frame, valuation: Mapping[str, Iterable[str]]) -> Model:
        masks: dict[str, int] = {}
        for name, worlds in valuation.items():
            mask = 0
            for world in worlds:
                mask |= 1 << frame.index(world)
            masks[name] = mask
        return cls(frame, masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.frame == other.frame and dict(self.valuation) == dict(other.valuation)

    def atom_mask(self, name: str) -> int:
        return self.valuation.get(name, 0)


@dataclass(frozen=True, slots=True, eq=False)
class PointedModel:
    model: Model
    point: str

    def __post_init__(self) -> None:
        self.model.frame.index(self.point)  # validates

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointedModel):
            return NotImplemented
        return self.model == other.model and self.point == other.point


class FrameClass(Enum):
    """Frame classes selectable in bounded searches."""

    K = "K"
    D = "D"
    T = "T"
    B = "B"
    FOUR = "4"
    FIVE = "5"
    CONV = "conv"


# ---------------------------------------------------------------------------
# Satisfaction


def has_announcements(f: Formula) -> bool:
    """Whether the formula contains an announcement operator."""
    stack = [f]
    while stack:
        g = stack.pop()
        match g:
            case Ann() | AnnWhether():
                return True
            case Not(c) | Con(c) | NonCon(c) | Acc(c) | Ess(c) | Diamond(c) | Box(c):
                stack.append(c)
            case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
                stack.append(a)
                stack.append(b)
    return False


def evaluate(m: Model, world: str, f: Formula) -> bool:
    """Truth of ``f`` at a world of ``m``, by the satisfaction clauses.

    Every operator, defined ones included, is evaluated by its own direct
    clause; announcements restrict the live worlds on the fly.
    """
    w = m.frame.index(world)
    return _sat(m, w, f, (1 << m.frame.n) - 1)


def _sat(m: Model, w: int, f: Formula, alive: int) -> bool:
    match f:
        case Atom(name):
            return bool(m.valuation.get(name, 0) >> w & 1)
        case Top():
            return True
        case Bot():
            return False
        case Not(child):
            return not _sat(m, w, child, alive)
        case And(left, right):
            return _sat(m, w, left, alive) and _sat(m, w, right, alive)
        case Or(left, right):
            return _sat(m, w, left, alive) or _sat(m, w, right, alive)
        case Implies(left, right):
            return not _sat(m, w, left, alive) or _sat(m, w, right, alive)
        case Iff(left, right):
            return _sat(m, w, left, alive) == _sat(m, w, right, alive)
        case Con(child):
            seen = [_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive)]
            return any(seen) and not all(seen)
        case NonCon(child):
            seen = [_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive)]
            return all(seen) or not any(seen)
        case Acc(child):
            if not _sat(m, w, child, alive):
                return False
            return not all(_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive))
        case Ess(child):
            if not _sat(m, w, child, alive):
                return True
            return all(_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive))
        case Diamond(child):
            return any(_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive))
        case Box(child):
            return all(_sat(m, u, child, alive) for u in _bits(m.frame.succ[w] & alive))
        case Ann(announced, body):
            return _sat_announced(m, w, announced, body, alive)
        case AnnWhether(announced, body):
            return _sat_announced(m, w, announced, body, alive) and _sat_announced(
                m, w, Not(announced), body, alive
            )
    raise TypeError(f"not a formula: {f!r}")


def _sat_announced(m: Model, w: int, announced: Formula, body: Formula, alive: int) -> bool:
    if not _sat(m, w, announced, alive):
        return True
    remaining = 0
    for u in _bits(alive):
        if _sat(m, u, announced, alive):
            remaining |= 1 << u
    return _sat(m, w, body, remaining)


def restrict(m: Model, psi: Formula) -> Model:
    """The submodel over the worlds satisfying ``psi``; errors if empty."""
    full = (1 << m.frame.n) - 1
    keep = [w for w in range(m.frame.n) if _sat(m, w, psi, full)]
    if not keep:
        raise ValueError(f"restriction by {render(psi)} keeps no world")
    keep_mask = 0
    for w in keep:
        keep_mask |= 1 << w
    new_index = {w: i for i, w in enumerate(keep)}
    worlds = tuple(m.frame.worlds[w] for w in keep)
    succ = []
    for w in keep:
        row = 0
        for u in _bits(m.frame.succ[w] & keep_mask):
            row |= 1 << new_index[u]
        succ.append(row)
    valuation = {}
    for name, mask in m.valuation.items():
        row = 0
        for u in _bits(mask & keep_mask):
            row |= 1 << new_index[u]
        valuation[name] = row
    return Model(Frame(worlds, tuple(succ)), valuation)


# ---------------------------------------------------------------------------
# Frame classes and enumeration


def _property_holds(succ: Sequence[int], n: int, c: FrameClass) -> bool:
    match c:
        case FrameClass.K:
            return True
        case FrameClass.D:
            return all(row != 0 for row in succ)
        case FrameClass.T:
            return all(succ[s] >> s & 1 for s in range(n))
        case FrameClass.B:
            return all(
                (succ[s] >> t & 1) == (succ[t] >> s & 1)
                for s in range(n)
                for t in range(s + 1, n)
            )
        case FrameClass.FOUR:
            for s in range(n):
                reachable = 0
                for t in _bits(succ[s]):
                    reachable |= succ[t]
                if reachable & ~succ[s]:
                    return False
            return True
        case FrameClass.FIVE:
            return all(not (succ[s] & ~succ[t]) for s in range(n) for t in _bits(succ[s]))
        case FrameClass.CONV:
            for s in range(n):
                followers = list(_bits(succ[s]))
                for i, t in enumerate(followers):
                    for u in followers[i:]:
                        if not (succ[t] & succ[u]):
                            return False
            return True
    raise ValueError(f"unknown frame class: {c!r}")


def frame_has_property(fr: Frame, c: FrameClass) -> bool:
    """Whether the frame satisfies the class's relational property."""
    return _property_holds(fr.succ, fr.n, c)


def _apply_world_permutation(rel: int, perm: Sequence[int], n: int) -> int:
    image = 0
    while rel:
        low = rel & -rel
        bit = low.bit_length() - 1
        s, t = divmod(bit, n)
        image |= 1 << (perm[s] * n + perm[t])
        rel ^= low
    return image


# The orbit table has 2^(n*n) entries: 32 MiB at 5 worlds, 64 GiB at 6.
_MAX_ISO_WORLDS = 5


def _canonical_flags(n: int) -> bytes:
    """Flag per relation index: 1 iff it is the least of its isomorphism orbit."""
    if n > _MAX_ISO_WORLDS:
        raise ValueError(
            f"isomorphism-pruned frame scans stop at {_MAX_ISO_WORLDS} worlds, not {n}"
        )
    return _orbit_flags(n)


@lru_cache(maxsize=None)
def _orbit_flags(n: int) -> bytes:
    total = 1 << (n * n)
    seen = bytearray(total)
    flags = bytearray(total)
    perms = list(permutations(range(n)))[1:]
    for rel in range(total):
        if seen[rel]:
            continue
        flags[rel] = 1
        for perm in perms:
            seen[_apply_world_permutation(rel, perm, n)] = 1
    return bytes(flags)


def enumerate_frames(
    n: int,
    c: FrameClass = FrameClass.K,
    *,
    up_to_iso: bool = False,
    index_range: tuple[int, int] | None = None,
) -> Iterator[Frame]:
    """All frames on ``n`` labeled worlds in class ``c``, by relation index.

    Worlds are named ``w0..w{n-1}``; the relation index has bit ``s*n + t``
    for each arrow, so the order is reproducible.  With ``up_to_iso`` only
    the least representative of each isomorphism orbit is emitted — sound
    for any isomorphism-invariant scan and a large saving at ``n = 4``.
    ``index_range`` bounds the half-open relation-index interval scanned, so
    workers can split the stream.
    """
    if n < 1:
        raise ValueError("need at least one world")
    total = 1 << (n * n)
    lo, hi = index_range if index_range is not None else (0, total)
    lo, hi = max(lo, 0), min(hi, total)
    flags = _canonical_flags(n) if up_to_iso else None
    worlds = tuple(f"w{i}" for i in range(n))
    row_mask = (1 << n) - 1
    for rel in range(lo, hi):
        if flags is not None and not flags[rel]:
            continue
        succ = tuple((rel >> (s * n)) & row_mask for s in range(n))
        if _property_holds(succ, n, c):
            yield Frame(worlds, succ)


# ---------------------------------------------------------------------------
# Vectorized evaluation


def _atom_column(position: int, valuation_count: int) -> int:
    # Bit v of the result is bit `position` of the valuation index v.  The
    # pattern is 2^position zeros then 2^position ones, repeated.
    half = 1 << position
    block = ((1 << half) - 1) << half
    repeat = ((1 << valuation_count) - 1) // ((1 << (2 * half)) - 1)
    return block * repeat


# One table of the modal clauses serves both evaluators.  An evaluator packs
# many truth values of a formula into one integer, one bit per *lane*; a
# clause maps the lanes where some live successor satisfies the child
# (``some``), where every live successor does (``every``; all lanes when there
# is none), where the world itself does (``here``), and the mask of all lanes
# (``full``) to the lanes where the modal formula holds.
_MODAL_CLAUSES: dict[type, Callable[[int, int, int, int], int]] = {
    Con: lambda some, every, here, full: some & (every ^ full),
    NonCon: lambda some, every, here, full: (some & (every ^ full)) ^ full,
    Acc: lambda some, every, here, full: here & (every ^ full),
    Ess: lambda some, every, here, full: (here ^ full) | every,
    Diamond: lambda some, every, here, full: some,
    Box: lambda some, every, here, full: every,
}


class _PerLiveSet(dict):
    """A table keyed by live-world bitmask, filling each entry on first use."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[int], object]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, alive: int) -> object:
        value = self[alive] = self._build(alive)
        return value


def _live_lanes(full: int, n: int, alive: int) -> tuple[int, ...]:
    return tuple(full if alive >> w & 1 else 0 for w in range(n))


def _successor_lists(
    succ: Sequence[int], alive: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple((w, tuple(_bits(succ[w] & alive))) for w in _bits(alive))


def _successor_masks(succ: Sequence[int], alive: int) -> tuple[tuple[int, int], ...]:
    return tuple((1 << w, succ[w] & alive) for w in _bits(alive))


class ColumnEvaluator:
    """Truth of formulas at every world under every valuation at once.

    Valuations over ``atom_order`` are indexed ``0 .. 2^(k*n)-1`` with bit
    ``a*n + w`` of the index giving atom ``a``'s truth at world ``w``.  For
    each world the evaluator produces one integer whose bit ``v`` is the
    formula's truth under valuation ``v`` — the whole truth table of the
    frame in ``n`` integers, zero at worlds outside the live set.  A node is
    computed by the rule for its class in ``_COLUMN_RULES``; modal nodes
    apply ``_MODAL_CLAUSES`` world by world, with valuations as lanes.
    Results are memoized in one table per live world set, keyed by the
    interned node, so batches of formulas sharing subterms evaluate each
    shared node once; each live set's successor lists are built once.
    """

    def __init__(self, frame: Frame, atom_order: Sequence[str]) -> None:
        self.frame = frame
        self.atom_order = tuple(atom_order)
        n = frame.n
        self.valuation_count = 1 << (len(self.atom_order) * n)
        self.full = full = (1 << self.valuation_count) - 1
        self._atom_columns = {
            name: tuple(_atom_column(a * n + w, self.valuation_count) for w in range(n))
            for a, name in enumerate(self.atom_order)
        }
        self._alive_all = (1 << n) - 1
        self._zeros = (0,) * n
        self._memo: dict[int, dict[Formula, tuple[int, ...]]] = defaultdict(dict)
        self._lanes = _PerLiveSet(partial(_live_lanes, full, n))
        self._links = _PerLiveSet(partial(_successor_lists, frame.succ))

    def columns(self, f: Formula, alive: int | None = None) -> tuple[int, ...]:
        if alive is None:
            alive = self._alive_all
        memo = self._memo[alive]
        cached = memo.get(f)
        if cached is None:
            try:
                rule = _COLUMN_RULES[type(f)]
            except KeyError:
                raise TypeError(f"not a formula: {f!r}") from None
            cached = memo[f] = rule(self, f, alive)
        return cached


def _column_atom(ev: ColumnEvaluator, f: Atom, alive: int) -> tuple[int, ...]:
    try:
        base = ev._atom_columns[f.name]
    except KeyError:
        raise ValueError(f"atom {f.name!r} is not in the atom order") from None
    return tuple(map(and_, base, ev._lanes[alive]))


def _column_modal(ev: ColumnEvaluator, f: Formula, alive: int) -> tuple[int, ...]:
    cols = ev.columns(f.child, alive)
    clause = _MODAL_CLAUSES[type(f)]
    full = ev.full
    out = list(ev._zeros)
    for w, successors in ev._links[alive]:
        some = 0
        every = full
        for u in successors:
            some |= cols[u]
            every &= cols[u]
        out[w] = clause(some, every, cols[w], full)
    return tuple(out)


def _column_ann_whether(ev: ColumnEvaluator, f: AnnWhether, alive: int) -> tuple[int, ...]:
    psi = ev.columns(f.announced, alive)
    positive = _column_announcement(ev, psi, f.body, alive)
    inverted = tuple(map(xor, psi, ev._lanes[alive]))
    return tuple(map(and_, positive, _column_announcement(ev, inverted, f.body, alive)))


def _column_announcement(
    ev: ColumnEvaluator, psi: tuple[int, ...], body: Formula, alive: int
) -> tuple[int, ...]:
    # Partition the valuations by the exact extension of the announced
    # formula among live worlds; within one block the restriction is a
    # fixed world set, so the body evaluates with that block as `alive`.
    # The blocks are refined world by world, dropping empty ones early.
    full = ev.full
    live = list(_bits(alive))
    blocks = [(0, full)]
    for w in live:
        bit, holds = 1 << w, psi[w]
        refined = []
        for subset, selector in blocks:
            if selector & holds:
                refined.append((subset | bit, selector & holds))
            if selector & ~holds:
                refined.append((subset, selector & ~holds))
        blocks = refined
    out = list(ev._zeros)
    for subset, selector in blocks:
        body_cols = ev.columns(body, subset) if subset else ev._zeros
        for w in live:
            out[w] |= selector & body_cols[w] if subset >> w & 1 else selector
    return tuple(out)


_COLUMN_RULES: dict[type, Callable[[ColumnEvaluator, Formula, int], tuple[int, ...]]] = {
    Atom: _column_atom,
    Top: lambda ev, f, alive: ev._lanes[alive],
    Bot: lambda ev, f, alive: ev._zeros,
    Not: lambda ev, f, alive: tuple(map(xor, ev.columns(f.child, alive), ev._lanes[alive])),
    And: lambda ev, f, alive: tuple(
        map(and_, ev.columns(f.left, alive), ev.columns(f.right, alive))
    ),
    Or: lambda ev, f, alive: tuple(
        map(or_, ev.columns(f.left, alive), ev.columns(f.right, alive))
    ),
    Implies: lambda ev, f, alive: tuple(
        map(or_, map(xor, ev.columns(f.left, alive), ev._lanes[alive]), ev.columns(f.right, alive))
    ),
    Iff: lambda ev, f, alive: tuple(
        map(xor, map(xor, ev.columns(f.left, alive), ev.columns(f.right, alive)), ev._lanes[alive])
    ),
    **dict.fromkeys(_MODAL_CLAUSES, _column_modal),
    Ann: lambda ev, f, alive: _column_announcement(
        ev, ev.columns(f.announced, alive), f.body, alive
    ),
    AnnWhether: _column_ann_whether,
}


class ExtensionEvaluator:
    """Satisfying world sets (as bitmasks) over one model.

    The single-valuation counterpart of :class:`ColumnEvaluator`, with the
    same shape: a rule per node class in ``_EXTENSION_RULES``, a memo table
    per live world set keyed by the interned node, and successor masks built
    once per live set.  Here the lanes are worlds, so a modal node applies
    its ``_MODAL_CLAUSES`` entry once, with the live set as ``full``.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self._alive_all = (1 << model.frame.n) - 1
        self._memo: dict[int, dict[Formula, int]] = defaultdict(dict)
        self._links = _PerLiveSet(partial(_successor_masks, model.frame.succ))

    def extension(self, f: Formula, alive: int | None = None) -> int:
        if alive is None:
            alive = self._alive_all
        memo = self._memo[alive]
        cached = memo.get(f)
        if cached is None:
            try:
                rule = _EXTENSION_RULES[type(f)]
            except KeyError:
                raise TypeError(f"not a formula: {f!r}") from None
            cached = memo[f] = rule(self, f, alive)
        return cached

    def holds(self, f: Formula, world: str) -> bool:
        return bool(self.extension(f) >> self.model.frame.index(world) & 1)


def _extension_modal(ev: ExtensionEvaluator, f: Formula, alive: int) -> int:
    ext = ev.extension(f.child, alive)
    some = every = 0
    for bit, reach in ev._links[alive]:
        if reach & ext:
            some |= bit
        if not reach & ~ext:
            every |= bit
    return _MODAL_CLAUSES[type(f)](some, every, ext, alive)


def _extension_announcement(
    ev: ExtensionEvaluator, psi: int, body: Formula, alive: int
) -> int:
    vacuous = alive & ~psi
    if not psi:
        return vacuous
    return vacuous | (psi & ev.extension(body, psi))


def _extension_ann_whether(ev: ExtensionEvaluator, f: AnnWhether, alive: int) -> int:
    psi = ev.extension(f.announced, alive)
    positive = _extension_announcement(ev, psi, f.body, alive)
    return positive & _extension_announcement(ev, alive & ~psi, f.body, alive)


_EXTENSION_RULES: dict[type, Callable[[ExtensionEvaluator, Formula, int], int]] = {
    Atom: lambda ev, f, alive: ev.model.valuation.get(f.name, 0) & alive,
    Top: lambda ev, f, alive: alive,
    Bot: lambda ev, f, alive: 0,
    Not: lambda ev, f, alive: ev.extension(f.child, alive) ^ alive,
    And: lambda ev, f, alive: ev.extension(f.left, alive) & ev.extension(f.right, alive),
    Or: lambda ev, f, alive: ev.extension(f.left, alive) | ev.extension(f.right, alive),
    Implies: lambda ev, f, alive: (
        (ev.extension(f.left, alive) ^ alive) | ev.extension(f.right, alive)
    ),
    Iff: lambda ev, f, alive: (
        ev.extension(f.left, alive) ^ ev.extension(f.right, alive) ^ alive
    ),
    **dict.fromkeys(_MODAL_CLAUSES, _extension_modal),
    Ann: lambda ev, f, alive: _extension_announcement(
        ev, ev.extension(f.announced, alive), f.body, alive
    ),
    AnnWhether: _extension_ann_whether,
}


# ---------------------------------------------------------------------------
# Frame validity


def valuation_masks(index: int, atom_order: Sequence[str], n: int) -> dict[str, int]:
    """Decode a valuation index into per-atom world bitmasks."""
    row = (1 << n) - 1
    return {name: (index >> (a * n)) & row for a, name in enumerate(atom_order)}


def named_valuation(
    fr: Frame, index: int, atom_order: Sequence[str]
) -> dict[str, tuple[str, ...]]:
    """Decode a valuation index into the worlds, by name, where each atom holds."""
    return {
        name: tuple(fr.worlds[w] for w in _bits(mask))
        for name, mask in valuation_masks(index, atom_order, fr.n).items()
    }


def _least_point(bad_columns: Iterable[int]) -> tuple[int, int] | None:
    """The least (valuation index, world index) set in per-world columns.

    Every scan reports its witness by this one rule: the least valuation
    index with a set bit at any world, then the least world where it is set.
    """
    cols = tuple(bad_columns)
    bad = reduce(or_, cols, 0)
    if not bad:
        return None
    v = (bad & -bad).bit_length() - 1
    return v, next(w for w, col in enumerate(cols) if col >> v & 1)


def refuting_point(
    fr: Frame, f: Formula, atom_order: Sequence[str]
) -> tuple[int, int] | None:
    """Least (valuation index, world index) where ``f`` fails, if any."""
    evaluator = ColumnEvaluator(fr, atom_order)
    full = evaluator.full
    return _least_point(col ^ full for col in evaluator.columns(f))


def frame_valid(
    fr: Frame, f: Formula
) -> tuple[bool, tuple[dict[str, tuple[str, ...]], str] | None]:
    """Whether ``f`` holds at every world under every valuation of its atoms.

    On failure the second component is a falsifying (valuation, world) pair,
    least in (valuation index, world index) order.  Announcement operators
    are rejected; reduce them first.
    """
    if has_announcements(f):
        raise ValueError("announcement operators are not allowed in frame validity")
    atom_order = sorted(atoms(f))
    refutation = refuting_point(fr, f, atom_order)
    if refutation is None:
        return True, None
    v, w = refutation
    return False, (named_valuation(fr, v, atom_order), fr.worlds[w])


# ---------------------------------------------------------------------------
# Frame transformations


def mirror_reduction(fr: Frame) -> Frame:
    """Drop each self-loop at a world whose only successor is itself."""
    succ = tuple(0 if row == 1 << w else row for w, row in enumerate(fr.succ))
    return Frame(fr.worlds, succ)


def reflexive_closure(fr: Frame) -> Frame:
    """Add a self-loop at every world."""
    succ = tuple(row | (1 << w) for w, row in enumerate(fr.succ))
    return Frame(fr.worlds, succ)


def reflexivize_dead_ends(fr: Frame) -> Frame:
    """Add a self-loop at each successor-less world; the result is serial."""
    succ = tuple(row if row else 1 << w for w, row in enumerate(fr.succ))
    return Frame(fr.worlds, succ)


# ---------------------------------------------------------------------------
# Interchange format


def frame_to_json(fr: Frame) -> dict:
    return {
        "worlds": list(fr.worlds),
        "relation": [[s, t] for s, t in fr.pairs()],
    }


def model_to_json(m: Model) -> dict:
    data = frame_to_json(m.frame)
    data["valuation"] = {
        name: [m.frame.worlds[w] for w in _bits(mask)]
        for name, mask in sorted(m.valuation.items())
    }
    return data


def _check_keys(data: Mapping, required: frozenset[str], kind: str) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"a {kind} must be an object")
    keys = set(data.keys())
    if keys != required:
        unknown = keys - required
        missing = required - keys
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise ValueError(f"bad {kind}: " + ", ".join(parts))


def _frame_from_parts(worlds: object, relation: object) -> Frame:
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ValueError("'worlds' must be a list of strings")
    if not isinstance(relation, list):
        raise ValueError("'relation' must be a list of world pairs")
    pairs = []
    for entry in relation:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"bad relation entry: {entry!r}")
        pairs.append((entry[0], entry[1]))
    return Frame.from_pairs(worlds, pairs)


def frame_from_json(data: Mapping) -> Frame:
    _check_keys(data, frozenset({"worlds", "relation"}), "frame")
    return _frame_from_parts(data["worlds"], data["relation"])


def model_from_json(data: Mapping) -> Model:
    _check_keys(data, frozenset({"worlds", "relation", "valuation"}), "model")
    frame = _frame_from_parts(data["worlds"], data["relation"])
    valuation = data["valuation"]
    if not isinstance(valuation, Mapping):
        raise ValueError("'valuation' must map atoms to world lists")
    sets: dict[str, list[str]] = {}
    for name, worlds in valuation.items():
        if not isinstance(worlds, list):
            raise ValueError(f"valuation of {name!r} must be a list of worlds")
        sets[name] = worlds
    return Model.from_sets(frame, sets)
