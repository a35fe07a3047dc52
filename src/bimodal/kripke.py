"""Frames, models, the satisfaction relation, frame classes, and frame surgery.

Worlds are identified by strings in interchange files and by dense indices
internally; relations are stored as per-world successor bitsets, and world
subsets generally travel as bitmasks.  :func:`evaluate` is the reference
implementation of the satisfaction clauses; :class:`ColumnEvaluator` and
:class:`ExtensionEvaluator` are vectorized equivalents used by the bounded
search layers and are property-tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Mapping, Sequence

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


@lru_cache(maxsize=None)
def _canonical_flags(n: int) -> bytes:
    """Flag per relation index: 1 iff it is the least of its isomorphism orbit."""
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


class ColumnEvaluator:
    """Truth of formulas at every world under every valuation at once.

    Valuations over ``atom_order`` are indexed ``0 .. 2^(k*n)-1`` with bit
    ``a*n + w`` of the index giving atom ``a``'s truth at world ``w``.  For
    each world the evaluator produces one integer whose bit ``v`` is the
    formula's truth under valuation ``v`` — the whole truth table of the
    frame in ``n`` integers.  Results are memoized per (subformula, live
    world set).  Formulas are interned, so a memo lookup costs O(1) whatever
    the formula's size, and batches of formulas sharing subterms evaluate
    each shared node once.
    """

    def __init__(self, frame: Frame, atom_order: Sequence[str]) -> None:
        self.frame = frame
        self.atom_order = tuple(atom_order)
        n = frame.n
        self.valuation_count = 1 << (len(self.atom_order) * n)
        self.full = (1 << self.valuation_count) - 1
        self._atom_columns = {
            name: tuple(_atom_column(a * n + w, self.valuation_count) for w in range(n))
            for a, name in enumerate(self.atom_order)
        }
        self._alive_all = (1 << n) - 1
        self._memo: dict[tuple[Formula, int], tuple[int, ...]] = {}

    def columns(self, f: Formula, alive: int | None = None) -> tuple[int, ...]:
        if alive is None:
            alive = self._alive_all
        key = (f, alive)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._compute(f, alive)
        return cached

    def _compute(self, f: Formula, alive: int) -> tuple[int, ...]:
        n = self.frame.n
        full = self.full
        zeros = [0] * n
        match f:
            case Atom(name):
                try:
                    base = self._atom_columns[name]
                except KeyError:
                    raise ValueError(f"atom {name!r} is not in the atom order") from None
                return tuple(base[w] if alive >> w & 1 else 0 for w in range(n))
            case Top():
                return tuple(full if alive >> w & 1 else 0 for w in range(n))
            case Bot():
                return tuple(zeros)
            case Not(child):
                cols = self.columns(child, alive)
                return tuple(cols[w] ^ full if alive >> w & 1 else 0 for w in range(n))
            case And(left, right):
                a, b = self.columns(left, alive), self.columns(right, alive)
                return tuple(a[w] & b[w] for w in range(n))
            case Or(left, right):
                a, b = self.columns(left, alive), self.columns(right, alive)
                return tuple(a[w] | b[w] for w in range(n))
            case Implies(left, right):
                a, b = self.columns(left, alive), self.columns(right, alive)
                return tuple((a[w] ^ full) | b[w] if alive >> w & 1 else 0 for w in range(n))
            case Iff(left, right):
                a, b = self.columns(left, alive), self.columns(right, alive)
                return tuple((a[w] ^ b[w]) ^ full if alive >> w & 1 else 0 for w in range(n))
            case Con(child) | NonCon(child) | Acc(child) | Ess(child) | Diamond(child) | Box(child):
                cols = self.columns(child, alive)
                out = list(zeros)
                for w in _bits(alive):
                    some_true = 0
                    some_false = 0
                    all_true = full
                    for u in _bits(self.frame.succ[w] & alive):
                        some_true |= cols[u]
                        some_false |= cols[u] ^ full
                        all_true &= cols[u]
                    match f:
                        case Con():
                            out[w] = some_true & some_false
                        case NonCon():
                            out[w] = (some_true & some_false) ^ full
                        case Acc():
                            out[w] = cols[w] & some_false
                        case Ess():
                            out[w] = (cols[w] ^ full) | all_true
                        case Diamond():
                            out[w] = some_true
                        case Box():
                            out[w] = all_true
                return tuple(out)
            case Ann(announced, body):
                return self._announcement(self.columns(announced, alive), body, alive)
            case AnnWhether(announced, body):
                psi = self.columns(announced, alive)
                positive = self._announcement(psi, body, alive)
                inverted = tuple(
                    psi[w] ^ full if alive >> w & 1 else 0 for w in range(self.frame.n)
                )
                negative = self._announcement(inverted, body, alive)
                return tuple(a & b for a, b in zip(positive, negative))
        raise TypeError(f"not a formula: {f!r}")

    def _announcement(
        self, psi_cols: tuple[int, ...], body: Formula, alive: int
    ) -> tuple[int, ...]:
        # Partition the valuations by the exact extension of the announced
        # formula among live worlds; within one block the restriction is a
        # fixed world set, so the body evaluates with that block as `alive`.
        n = self.frame.n
        full = self.full
        out = [0] * n
        subset = alive
        while True:
            selector = full
            for w in _bits(alive):
                selector &= psi_cols[w] if subset >> w & 1 else psi_cols[w] ^ full
                if not selector:
                    break
            if selector:
                if subset:
                    body_cols = self.columns(body, subset)
                    for w in _bits(alive):
                        if subset >> w & 1:
                            out[w] |= selector & body_cols[w]
                        else:
                            out[w] |= selector
                else:
                    for w in _bits(alive):
                        out[w] |= selector
            if subset == 0:
                break
            subset = (subset - 1) & alive
        return tuple(out)


class ExtensionEvaluator:
    """Satisfying world sets (as bitmasks) over one model.

    The single-valuation counterpart of :class:`ColumnEvaluator`, memoized
    the same way per (subformula, live world set).
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self._alive_all = (1 << model.frame.n) - 1
        self._memo: dict[tuple[Formula, int], int] = {}

    def extension(self, f: Formula, alive: int | None = None) -> int:
        if alive is None:
            alive = self._alive_all
        key = (f, alive)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._compute(f, alive)
        return cached

    def holds(self, f: Formula, world: str) -> bool:
        return bool(self.extension(f) >> self.model.frame.index(world) & 1)

    def _compute(self, f: Formula, alive: int) -> int:
        model = self.model
        frame = model.frame
        match f:
            case Atom(name):
                return model.valuation.get(name, 0) & alive
            case Top():
                return alive
            case Bot():
                return 0
            case Not(child):
                return alive & ~self.extension(child, alive)
            case And(left, right):
                return self.extension(left, alive) & self.extension(right, alive)
            case Or(left, right):
                return self.extension(left, alive) | self.extension(right, alive)
            case Implies(left, right):
                return (alive & ~self.extension(left, alive)) | self.extension(right, alive)
            case Iff(left, right):
                return alive & ~(self.extension(left, alive) ^ self.extension(right, alive))
            case Con(child) | NonCon(child) | Acc(child) | Ess(child) | Diamond(child) | Box(child):
                ext = self.extension(child, alive)
                out = 0
                for w in _bits(alive):
                    reach = frame.succ[w] & alive
                    some_true = bool(reach & ext)
                    some_false = bool(reach & ~ext)
                    match f:
                        case Con():
                            hit = some_true and some_false
                        case NonCon():
                            hit = not (some_true and some_false)
                        case Acc():
                            hit = bool(ext >> w & 1) and some_false
                        case Ess():
                            hit = not (ext >> w & 1) or not some_false
                        case Diamond():
                            hit = some_true
                        case Box():
                            hit = not some_false
                    if hit:
                        out |= 1 << w
                return out
            case Ann(announced, body):
                return self._announcement(self.extension(announced, alive), body, alive)
            case AnnWhether(announced, body):
                psi = self.extension(announced, alive)
                positive = self._announcement(psi, body, alive)
                negative = self._announcement(alive & ~psi, body, alive)
                return positive & negative
        raise TypeError(f"not a formula: {f!r}")

    def _announcement(self, psi_ext: int, body: Formula, alive: int) -> int:
        vacuous = alive & ~psi_ext
        if not psi_ext:
            return vacuous
        return vacuous | (psi_ext & self.extension(body, psi_ext))


# ---------------------------------------------------------------------------
# Frame validity


def valuation_masks(index: int, atom_order: Sequence[str], n: int) -> dict[str, int]:
    """Decode a valuation index into per-atom world bitmasks."""
    row = (1 << n) - 1
    return {name: (index >> (a * n)) & row for a, name in enumerate(atom_order)}


def refuting_point(
    fr: Frame, f: Formula, atom_order: Sequence[str]
) -> tuple[int, int] | None:
    """Least (valuation index, world index) where ``f`` fails, if any."""
    evaluator = ColumnEvaluator(fr, atom_order)
    cols = evaluator.columns(f)
    full = evaluator.full
    bad = 0
    for w in range(fr.n):
        bad |= cols[w] ^ full
    if not bad:
        return None
    v = (bad & -bad).bit_length() - 1
    for w in range(fr.n):
        if not cols[w] >> v & 1:
            return v, w
    raise AssertionError("unreachable")


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
    masks = valuation_masks(v, atom_order, fr.n)
    named = {
        name: tuple(fr.worlds[u] for u in _bits(mask)) for name, mask in masks.items()
    }
    return False, (named, fr.worlds[w])


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
