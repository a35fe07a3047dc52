"""Spans and counters around the calls into each layer of ``bimodal``.

The wrappers live here, in the benchmark, and are installed on every name a
caller binds: ``decide`` does ``from bimodal.kripke import enumerate_frames``,
so the wrapper replaces ``bimodal.decide.enumerate_frames`` as well as
``bimodal.kripke.enumerate_frames``.  A span records its name, start, end and
parent.  Spans stay in memory until :meth:`Tracer.write`; self time is a
span's duration minus that of its direct children.

Generators are spanned once per ``next()``.  Per-node ``__hash__`` and
``__eq__`` calls and the recursive calls of the evaluators are counted, not
spanned: a recursive call of a wrapped function runs unwrapped inside the
outermost span.  Outermost evaluator calls are leaves of the tree and so many
(5.6 million in one ``formulas`` pass) that each is folded into the span that
made it: that span records the time its evaluator calls took, and
``kripke.evaluator`` sums them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Iterator

from bimodal import corpus, decide, kripke, proof, suite, syntax, translate

# (module, attribute, span name); the span name's prefix is the layer
SPANNED = (
    (syntax, "parse", "syntax.parse"),
    (syntax, "render", "syntax.render"),
    (syntax, "desugar", "syntax.desugar"),
    (syntax, "metrics", "syntax.metrics"),
    (translate, "reduce_announcements", "translate.reduce"),
    (translate, "equivalent_bounded", "translate.equivalent_bounded"),
    (decide, "find_countermodel", "decide.find_countermodel"),
    (decide, "sat_bounded", "decide.sat_bounded"),
    (decide, "defines_property", "decide.defines_property"),
    (decide, "distinguishing_formula", "decide.distinguishing_formula"),
    (decide, "conjecture_sweep", "decide.conjecture_sweep"),
    (proof, "check_proof", "proof.check_proof"),
    (proof, "match_schema", "proof.match_schema"),
    (proof, "taut_check", "proof.taut_check"),
    (corpus, "builtin_corpus", "corpus.builtin_corpus"),
    (suite, "mirror_pointwise_exhaustive", "suite.mirror_exhaustive"),
    (suite, "mirror_pointwise_random", "suite.mirror_random"),
)

EVALUATOR_METHODS = (
    (kripke.ColumnEvaluator, "columns"),
    (kripke.ExtensionEvaluator, "extension"),
)

NODE_CLASSES = tuple(
    cls for cls in vars(syntax).values()
    if isinstance(cls, type) and issubclass(cls, syntax.Formula) and cls is not syntax.Formula
)


def self_times(
    names: list[str],
    starts: list[int],
    ends: list[int],
    parents: list[int],
    folded: list[int],
) -> dict[str, int]:
    """Total self time per span name: duration minus direct children's.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 at the root.
    ``folded[i]`` is the time of folded leaf calls made directly inside span
    ``i``.  Children nest inside their parent and do not overlap each other.
    """
    own = [end - start - leaf for start, end, leaf in zip(starts, ends, folded)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    totals: dict[str, int] = {}
    for name, value in zip(names, own):
        totals[name] = totals.get(name, 0) + value
    return totals


def _formula_size(f: syntax.Formula) -> int:
    size = 0
    stack = [f]
    while stack:
        g = stack.pop()
        size += 1
        stack.extend(
            child for child in (getattr(g, a) for a in g.__match_args__)
            if isinstance(child, syntax.Formula)
        )
    return size


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.folded: list[int] = []
        self.folded_totals: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._iso_worlds: set[int] = set()
        self._evaluator_depth = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.folded.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def _fold(self, name: str, start: int) -> None:
        elapsed = perf_counter_ns() - start
        self.folded_totals[name] += elapsed
        if self._stack:
            self.folded[self._stack[-1]] += elapsed

    def self_times(self) -> dict[str, int]:
        totals = self_times(self.names, self.starts, self.ends, self.parents, self.folded)
        for name, elapsed in self.folded_totals.items():
            totals[name] = totals.get(name, 0) + elapsed
        return totals

    def write(self, path: str) -> None:
        """Write every span as ``index parent name start_ns end_ns folded_ns``."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(
                    f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t{self.folded[i]}\n"
                )

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:  # a recursive call stays inside the outer span
                return fn(*args, **kwargs)
            active = True
            self.counts[name + "_calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                active = False
            self._after(name, args, result)
            return result

        return wrapper

    def _after(self, name: str, args: tuple, result: object) -> None:
        if name == "translate.reduce":
            self.counts["translate.reduction_steps"] += len(result[1].steps)
            self.counts["translate.source_size"] += _formula_size(args[0])
            self.counts["translate.reduced_size"] += _formula_size(result[0])

    def _evaluator(self, fn: Callable, node: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if node:
                self.counts["kripke.evaluator_nodes"] += 1
            if self._evaluator_depth:
                return fn(*args, **kwargs)
            self._evaluator_depth = 1
            self.counts["kripke.evaluator_top_calls"] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold("kripke.evaluator", start)
                self._evaluator_depth = 0

        return wrapper

    def _frames(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = bound.arguments["n"]
            lo, hi = bound.arguments["index_range"] or (0, 1 << (n * n))
            lo, hi = max(lo, 0), min(hi, 1 << (n * n))
            first_iso = bound.arguments["up_to_iso"] and n not in self._iso_worlds
            walked_to = lo
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self._open("kripke.iso_table" if first_iso else "kripke.enumerate_frames")
                    try:
                        frame = next(inner, None)
                    finally:
                        self._close(index)
                    if first_iso:
                        self._iso_worlds.add(n)
                        first_iso = False
                    if frame is None:
                        walked_to = hi
                        return
                    self.counts["kripke.frames_yielded"] += 1
                    walked_to = frame.relation_index() + 1
                    yield frame
            finally:
                self.counts["kripke.indices_walked"] += walked_to - lo

        return wrapper

    def _formulas(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                index = self._open("syntax.enumerate_formulas")
                try:
                    f = next(inner, None)
                finally:
                    self._close(index)
                if f is None:
                    return
                self.counts["syntax.formulas_enumerated"] += 1
                yield f

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _bind_everywhere(self, original: object, replacement: object) -> None:
        """Replace ``original`` under every name a bimodal module binds it to."""
        for module_name, module in list(sys.modules.items()):
            if not (module_name == "bimodal" or module_name.startswith("bimodal.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _set_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPANNED:
            original = getattr(module, attr)
            self._bind_everywhere(original, self._spanned(name, original))
        self._bind_everywhere(kripke.enumerate_frames, self._frames(kripke.enumerate_frames))
        self._bind_everywhere(
            syntax.enumerate_formulas, self._formulas(syntax.enumerate_formulas)
        )
        self._bind_everywhere(kripke.refuting_point, self._evaluator(kripke.refuting_point, node=False))
        for cls, method in EVALUATOR_METHODS:
            self._set_attr(cls, method, self._evaluator(cls.__dict__[method], node=True))
            self._set_attr(
                cls, "__init__", self._counted("kripke.evaluators_built", cls.__dict__["__init__"])
            )
        for cls in NODE_CLASSES:
            self._set_attr(cls, "__hash__", self._counted("syntax.hash_calls", cls.__dict__["__hash__"]))
            self._set_attr(cls, "__eq__", self._counted("syntax.eq_calls", cls.__dict__["__eq__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
