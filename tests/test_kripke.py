"""Tests for frames, models, satisfaction, frame classes, and frame surgery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodal.kripke import (
    ColumnEvaluator,
    ExtensionEvaluator,
    Frame,
    FrameClass,
    Model,
    PointedModel,
    enumerate_frames,
    evaluate,
    frame_from_json,
    frame_has_property,
    frame_to_json,
    frame_valid,
    has_announcements,
    mirror_reduction,
    model_from_json,
    model_to_json,
    reflexive_closure,
    reflexivize_dead_ends,
    refuting_point,
    restrict,
    valuation_masks,
)
from bimodal.syntax import Atom, Bot, desugar, parse

from genutil import random_formula

# Recurring example structures: a reflexive point, its mirror image, and the
# two-world chain whose second world loops.
POINT_LOOP = Frame.from_pairs(("s",), [("s", "s")])
POINT_BARE = Frame.from_pairs(("s",), [])
CHAIN_LOOP = Frame.from_pairs(("s", "t"), [("s", "t"), ("t", "t")])

# s:p -> t:~p, the smallest model separating accident from necessity.
ARROW = Model.from_sets(Frame.from_pairs(("s", "t"), [("s", "t")]), {"p": ["s"]})


def all_models(frame, atom_names):
    """Every valuation of the given atoms over the frame, by valuation index."""
    count = 1 << (len(atom_names) * frame.n)
    for v in range(count):
        yield Model(frame, valuation_masks(v, atom_names, frame.n))


# ---------------------------------------------------------------------------
# Frames and models


class TestFrame:
    def test_from_pairs(self):
        assert CHAIN_LOOP.worlds == ("s", "t")
        assert CHAIN_LOOP.succ == (0b10, 0b10)
        assert CHAIN_LOOP.pairs() == [("s", "t"), ("t", "t")]

    def test_relation_index(self):
        # bit s*n + t per arrow: (0,1) -> bit 1, (1,1) -> bit 3
        assert CHAIN_LOOP.relation_index() == 0b1010
        assert POINT_LOOP.relation_index() == 1
        assert POINT_BARE.relation_index() == 0

    def test_index(self):
        assert CHAIN_LOOP.index("t") == 1
        with pytest.raises(ValueError, match="unknown world"):
            CHAIN_LOOP.index("u")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one world"):
            Frame((), ())
        with pytest.raises(ValueError, match="unique"):
            Frame(("s", "s"), (0, 0))
        with pytest.raises(ValueError, match="successor row"):
            Frame(("s", "t"), (0,))
        with pytest.raises(ValueError, match="out of range"):
            Frame(("s",), (2,))
        with pytest.raises(ValueError, match="unknown world"):
            Frame.from_pairs(("s",), [("s", "t")])

    def test_frames_hash_and_compare(self):
        assert CHAIN_LOOP == Frame.from_pairs(("s", "t"), [("t", "t"), ("s", "t")])
        assert len({POINT_LOOP, POINT_BARE, mirror_reduction(POINT_LOOP)}) == 2


class TestModel:
    def test_from_sets(self):
        assert ARROW.atom_mask("p") == 0b01
        assert ARROW.atom_mask("q") == 0

    def test_empty_masks_are_dropped(self):
        assert Model(POINT_BARE, {"p": 0}) == Model(POINT_BARE, {})

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Model(POINT_BARE, {"p": 2})
        with pytest.raises(ValueError, match="bad atom name"):
            Model(POINT_BARE, {"P": 1})
        with pytest.raises(ValueError, match="unknown world"):
            Model.from_sets(POINT_BARE, {"p": ["t"]})

    def test_pointed_model_checks_point(self):
        PointedModel(ARROW, "t")
        with pytest.raises(ValueError, match="unknown world"):
            PointedModel(ARROW, "u")


class TestInterchange:
    def test_model_round_trip(self):
        data = {
            "worlds": ["s", "t"],
            "relation": [["s", "t"]],
            "valuation": {"p": ["s"]},
        }
        model = model_from_json(data)
        assert model == ARROW
        assert model_to_json(model) == data

    def test_frame_round_trip(self):
        data = {"worlds": ["s", "t"], "relation": [["s", "t"], ["t", "t"]]}
        assert frame_from_json(data) == CHAIN_LOOP
        assert frame_to_json(CHAIN_LOOP) == data

    def test_world_order_is_preserved(self):
        flipped = frame_from_json({"worlds": ["t", "s"], "relation": [["s", "t"]]})
        assert flipped.worlds == ("t", "s")
        assert flipped.succ == (0, 0b01)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            frame_from_json({"worlds": ["s"], "relation": [], "valuation": {}})
        with pytest.raises(ValueError, match="missing keys"):
            model_from_json({"worlds": ["s"], "relation": []})

    def test_malformed_pieces_rejected(self):
        with pytest.raises(ValueError, match="list of strings"):
            frame_from_json({"worlds": "st", "relation": []})
        with pytest.raises(ValueError, match="bad relation entry"):
            frame_from_json({"worlds": ["s"], "relation": [["s"]]})
        with pytest.raises(ValueError, match="unknown world"):
            frame_from_json({"worlds": ["s"], "relation": [["s", "t"]]})
        with pytest.raises(ValueError, match="must be a list"):
            model_from_json(
                {"worlds": ["s"], "relation": [], "valuation": {"p": "s"}}
            )


# ---------------------------------------------------------------------------
# Satisfaction


class TestEvaluate:
    @pytest.mark.parametrize(
        "text, world, expected",
        [
            # accident versus necessity on s:p -> t:~p
            ("A p", "s", True),
            ("C p", "s", False),
            ("D p", "s", True),
            ("O p", "s", False),
            ("[] ~p", "s", True),
            ("<> p", "s", False),
            ("p & <>~p", "s", True),
            # the arrowless endpoint satisfies every noncontingency claim
            ("D p", "t", True),
            ("D false", "t", True),
            ("A p", "t", False),
            ("O p", "t", True),
        ],
    )
    def test_bullet_point_examples(self, text, world, expected):
        assert evaluate(ARROW, world, parse(text)) is expected

    def test_contingency_needs_both_kinds_of_successor(self):
        fork = Model.from_sets(
            Frame.from_pairs(("s", "t", "u"), [("s", "t"), ("s", "u")]),
            {"p": ["t"]},
        )
        assert evaluate(fork, "s", parse("C p"))
        assert not evaluate(fork, "s", parse("D p"))
        assert not evaluate(fork, "s", parse("A p"))  # p fails at s itself

    def test_unknown_world(self):
        with pytest.raises(ValueError, match="unknown world"):
            evaluate(ARROW, "u", parse("p"))

    def test_announcement_restricts_successors(self):
        # after announcing p only s remains, where p is no longer
        # falsifiable, so the accident evaporates.
        assert evaluate(ARROW, "s", parse("[!p]~A p"))
        assert not evaluate(ARROW, "s", parse("[!p]A p"))
        # announcing something false here is vacuous
        assert evaluate(ARROW, "s", parse("[!q]A p"))
        assert evaluate(ARROW, "t", parse("[!p]A p"))

    def test_announce_whether(self):
        f = parse("[?p]D p")
        g = parse("[!p]D p & [!~p]D p")
        for world in ARROW.frame.worlds:
            assert evaluate(ARROW, world, f) == evaluate(ARROW, world, g)

    def test_nested_announcements(self):
        assert evaluate(ARROW, "s", parse("[!p][!p]~A p"))

    def test_defined_operators_match_their_definitions(self):
        rng = random.Random(20260301)
        frames = [
            POINT_LOOP,
            CHAIN_LOOP,
            Frame.from_pairs(
                ("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "a"), ("c", "c")]
            ),
        ]
        for _ in range(200):
            frame = rng.choice(frames)
            model = Model(
                frame,
                {
                    "p": rng.randrange(1 << frame.n),
                    "q": rng.randrange(1 << frame.n),
                },
            )
            f = random_formula(rng, rng.randint(1, 7), ("p", "q"), ann_depth=1)
            for world in frame.worlds:
                assert evaluate(model, world, f) == evaluate(model, world, desugar(f))

    def test_truth_is_local_to_the_reachable_part(self):
        # Adding a disconnected world never changes truth at the old worlds.
        rng = random.Random(20260302)
        for _ in range(100):
            frame = Frame.from_pairs(
                ("a", "b"), [p for p in [("a", "b"), ("b", "a"), ("b", "b")] if rng.random() < 0.6]
            )
            model = Model(frame, {"p": rng.randrange(4), "q": rng.randrange(4)})
            extended = Model(
                Frame(frame.worlds + ("z",), frame.succ + (rng.randrange(8),)),
                {
                    "p": model.atom_mask("p") | (rng.randrange(2) << 2),
                    "q": model.atom_mask("q") | (rng.randrange(2) << 2),
                },
            )
            f = random_formula(rng, rng.randint(1, 6), ("p", "q"), ann_depth=1)
            for world in frame.worlds:
                assert evaluate(model, world, f) == evaluate(extended, world, f)


class TestRestrict:
    def test_restrict_drops_refuting_worlds(self):
        sub = restrict(ARROW, parse("p"))
        assert sub.frame.worlds == ("s",)
        assert sub.frame.succ == (0,)
        assert sub.atom_mask("p") == 1

    def test_restrict_reindexes(self):
        model = Model.from_sets(
            Frame.from_pairs(("a", "b", "c"), [("a", "c"), ("c", "a"), ("c", "b")]),
            {"p": ["a", "c"]},
        )
        sub = restrict(model, parse("p"))
        assert sub.frame.worlds == ("a", "c")
        assert sub.frame.pairs() == [("a", "c"), ("c", "a")]
        assert sub.atom_mask("p") == 0b11

    def test_empty_restriction_is_an_error(self):
        with pytest.raises(ValueError, match="keeps no world"):
            restrict(ARROW, Bot())

    def test_restrict_agrees_with_announcement(self):
        psi, body = parse("p | A q"), parse("C q -> A p")
        model = Model.from_sets(
            Frame.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")]),
            {"p": ["a", "b"], "q": ["b", "c"]},
        )
        sub = restrict(model, psi)
        for world in sub.frame.worlds:
            assert evaluate(model, world, parse("[!p | A q](C q -> A p)")) == evaluate(
                sub, world, body
            )


def test_has_announcements():
    assert has_announcements(parse("[!p]q"))
    assert has_announcements(parse("D(p & [?q]p)"))
    assert not has_announcements(parse("D p & O(~q -> p)"))


# ---------------------------------------------------------------------------
# Frame classes


def naive_properties(fr):
    """Independent definitions of the frame properties, by pair quantifiers."""
    worlds = fr.worlds
    rel = set(fr.pairs())
    return {
        FrameClass.K: True,
        FrameClass.D: all(any((s, t) in rel for t in worlds) for s in worlds),
        FrameClass.T: all((s, s) in rel for s in worlds),
        FrameClass.B: all((t, s) in rel for (s, t) in rel),
        FrameClass.FOUR: all(
            (s, u) in rel for (s, t) in rel for (t2, u) in rel if t2 == t
        ),
        FrameClass.FIVE: all(
            (t, u) in rel for (s, t) in rel for (s2, u) in rel if s2 == s
        ),
        FrameClass.CONV: all(
            any((t, v) in rel and (u, v) in rel for v in worlds)
            for (s, t) in rel
            for (s2, u) in rel
            if s2 == s
        ),
    }


class TestFrameClasses:
    def test_reflexive_point(self):
        for c in FrameClass:
            assert frame_has_property(POINT_LOOP, c)

    def test_bare_point(self):
        expected = {FrameClass.D: False, FrameClass.T: False}
        for c in FrameClass:
            assert frame_has_property(POINT_BARE, c) is expected.get(c, True)

    def test_chain_with_loop(self):
        # serial, transitive, euclidean, and convergent — but not reflexive
        # or symmetric.
        expected = {FrameClass.T: False, FrameClass.B: False}
        for c in FrameClass:
            assert frame_has_property(CHAIN_LOOP, c) is expected.get(c, True)

    def test_against_naive_definitions(self):
        for n in (1, 2, 3):
            for fr in enumerate_frames(n):
                expected = naive_properties(fr)
                for c in FrameClass:
                    assert frame_has_property(fr, c) is expected[c], (fr, c)


class TestEnumerateFrames:
    def test_counts_two_worlds(self):
        # 16 frames on two labeled worlds, 9 serial, 13 transitive
        assert sum(1 for _ in enumerate_frames(2, FrameClass.K)) == 16
        assert sum(1 for _ in enumerate_frames(2, FrameClass.D)) == 9
        assert sum(1 for _ in enumerate_frames(2, FrameClass.FOUR)) == 13

    def test_counts_three_worlds(self):
        # cross-checked against the naive pair-quantifier
        # definitions by test_against_naive_definitions
        counts = {
            FrameClass.K: 512,
            FrameClass.D: 343,
            FrameClass.T: 64,
            FrameClass.B: 64,
            FrameClass.FOUR: 171,
            FrameClass.FIVE: 39,
            FrameClass.CONV: 272,
        }
        for c, want in counts.items():
            assert sum(1 for _ in enumerate_frames(3, c)) == want

    def test_order_and_determinism(self):
        frames = list(enumerate_frames(2))
        assert [fr.relation_index() for fr in frames] == list(range(16))
        assert frames[0].succ == (0, 0)
        assert frames[2].pairs() == [("w0", "w1")]
        assert frames == list(enumerate_frames(2))

    def test_index_range_partitions_the_stream(self):
        whole = list(enumerate_frames(2, FrameClass.D))
        split = list(enumerate_frames(2, FrameClass.D, index_range=(0, 7))) + list(
            enumerate_frames(2, FrameClass.D, index_range=(7, 16))
        )
        assert split == whole

    def test_canonical_counts(self):
        # unlabeled relation counts; each labeled frame must be a
        # permutation image of exactly one listed representative
        assert sum(1 for _ in enumerate_frames(2, up_to_iso=True)) == 10
        assert sum(1 for _ in enumerate_frames(3, up_to_iso=True)) == 104

    def test_canonical_representatives_cover_everything(self):
        from itertools import permutations

        canonical = {fr.relation_index() for fr in enumerate_frames(2, up_to_iso=True)}
        for fr in enumerate_frames(2):
            images = set()
            for perm in permutations(range(2)):
                image = 0
                for s, t in ((fr.index(a), fr.index(b)) for a, b in fr.pairs()):
                    image |= 1 << (perm[s] * 2 + perm[t])
                images.add(image)
            hits = images & canonical
            assert len(hits) == 1
            assert min(images) in hits

    def test_canonical_filter_respects_class(self):
        for c in FrameClass:
            raw = {fr.relation_index() for fr in enumerate_frames(3, c)}
            filtered = [fr.relation_index() for fr in enumerate_frames(3, c, up_to_iso=True)]
            assert set(filtered) <= raw

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one world"):
            next(enumerate_frames(0))

    def test_isomorphism_pruning_stops_at_five_worlds(self):
        # the orbit table at six worlds would need 2^36 bytes
        with pytest.raises(ValueError, match="stop at 5 worlds, not 6"):
            next(enumerate_frames(6, up_to_iso=True))


# ---------------------------------------------------------------------------
# Frame validity


class TestFrameValid:
    def test_scheme_valid_on_a_frame(self):
        ok, witness = frame_valid(CHAIN_LOOP, parse("A p -> p"))
        assert ok and witness is None

    def test_witness_is_least(self):
        # valuation indices order p's extension ∅, {w0}, {w1}, {w0,w1}; the
        # first refutation of ~p is therefore p = {w0} at w0 itself.
        fr = next(enumerate_frames(2))
        ok, witness = frame_valid(fr, parse("~p"))
        assert not ok
        assert witness == ({"p": ("w0",)}, "w0")
        ok, witness = frame_valid(fr, parse("p"))
        assert witness == ({"p": ()}, "w0")

    def test_accident_is_not_frame_valid(self):
        ok, witness = frame_valid(CHAIN_LOOP, parse("A p"))
        assert not ok
        valuation, world = witness
        model = Model.from_sets(CHAIN_LOOP, valuation)
        assert not evaluate(model, world, parse("A p"))

    def test_contingency_duality_everywhere(self):
        f = parse("C p <-> C ~p")
        for fr in enumerate_frames(2):
            ok, _ = frame_valid(fr, f)
            assert ok

    def test_announcements_rejected(self):
        with pytest.raises(ValueError, match="announcement"):
            frame_valid(CHAIN_LOOP, parse("[!p]p"))

    def test_refuting_point_matches_brute_force(self):
        f = parse("D p -> D D p")
        for fr in enumerate_frames(2):
            hit = refuting_point(fr, f, ("p",))
            expected = None
            for v in range(1 << (1 * fr.n)):
                model = Model(fr, valuation_masks(v, ("p",), fr.n))
                bad = [w for w in range(fr.n) if not evaluate(model, fr.worlds[w], f)]
                if bad:
                    expected = (v, bad[0])
                    break
            assert hit == expected


def test_valuation_masks_round_trip():
    masks = valuation_masks(0b011_001, ("p", "q"), 3)
    assert masks == {"p": 0b001, "q": 0b011}


# ---------------------------------------------------------------------------
# Vectorized evaluators agree with the satisfaction clauses


def column_bit(frame, atom_order, f, v, world):
    cols = ColumnEvaluator(frame, atom_order).columns(f)
    return bool(cols[frame.index(world)] >> v & 1)


class TestColumnEvaluator:
    def test_atom_columns(self):
        ev = ColumnEvaluator(CHAIN_LOOP, ("p", "q"))
        cols = ev.columns(Atom("q"))
        for v in range(16):
            assert bool(cols[0] >> v & 1) == bool(v >> 2 & 1)
            assert bool(cols[1] >> v & 1) == bool(v >> 3 & 1)

    @pytest.mark.parametrize("text", [
        "A p",
        "C p -> A p | A ~p",
        "[!p]~A p",
        "[?q](p -> [] p)",
        "D(p & q) -> D p | D q",
        "O(q -> p) <-> ~A(q -> p)",
    ])
    def test_matches_evaluate_exhaustively(self, text):
        f = parse(text)
        for fr in enumerate_frames(2):
            ev = ColumnEvaluator(fr, ("p", "q"))
            cols = ev.columns(f)
            for model, v in zip(all_models(fr, ("p", "q")), range(ev.valuation_count)):
                for w, world in enumerate(fr.worlds):
                    assert bool(cols[w] >> v & 1) == evaluate(model, world, f)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8))
    def test_matches_evaluate_on_random_formulas(self, seed, size):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        fr = Frame(
            tuple(f"w{i}" for i in range(n)),
            tuple(rng.randrange(1 << n) for _ in range(n)),
        )
        f = random_formula(rng, size, ("p", "q"), ann_depth=1)
        ev = ColumnEvaluator(fr, ("p", "q"))
        cols = ev.columns(f)
        v = rng.randrange(ev.valuation_count)
        model = Model(fr, valuation_masks(v, ("p", "q"), n))
        for w, world in enumerate(fr.worlds):
            assert bool(cols[w] >> v & 1) == evaluate(model, world, f)

    def test_memo_is_shared_across_formulas(self):
        ev = ColumnEvaluator(CHAIN_LOOP, ("p",))
        first = ev.columns(parse("A p"))
        again = ev.columns(parse("A p | A ~p"))
        assert ev.columns(parse("A p")) is first
        assert again is ev.columns(parse("A p | A ~p"))

    def test_unknown_atom(self):
        with pytest.raises(ValueError, match="atom order"):
            ColumnEvaluator(CHAIN_LOOP, ("p",)).columns(Atom("q"))


class TestExtensionEvaluator:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8))
    def test_matches_evaluate(self, seed, size):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        fr = Frame(
            tuple(f"w{i}" for i in range(n)),
            tuple(rng.randrange(1 << n) for _ in range(n)),
        )
        model = Model(
            fr, {"p": rng.randrange(1 << n), "q": rng.randrange(1 << n)}
        )
        f = random_formula(rng, size, ("p", "q"), ann_depth=1)
        ev = ExtensionEvaluator(model)
        ext = ev.extension(f)
        for w, world in enumerate(fr.worlds):
            assert bool(ext >> w & 1) == evaluate(model, world, f)
            assert ev.holds(f, world) == evaluate(model, world, f)


class TestEvaluatorKernels:
    """The two vectorized evaluators against each other, and their shape."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 10))
    def test_columns_agree_with_extensions_on_every_valuation(self, seed, size):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        fr = Frame(
            tuple(f"w{i}" for i in range(n)),
            tuple(rng.randrange(1 << n) for _ in range(n)),
        )
        order = ("p", "q")
        f = random_formula(rng, size, order, ann_depth=2)
        alive = rng.randrange(1, 1 << n)
        ev = ColumnEvaluator(fr, order)
        cols = ev.columns(f, alive)
        for v in range(ev.valuation_count):
            model = Model(fr, valuation_masks(v, order, n))
            ext = ExtensionEvaluator(model).extension(f, alive)
            for w in range(n):
                assert cols[w] >> v & 1 == ext >> w & 1
        for w in range(n):
            if not alive >> w & 1:
                assert cols[w] == 0

    @pytest.mark.parametrize("junk", [None, 3, "p", ("p",)])
    def test_non_formulas_are_rejected(self, junk):
        with pytest.raises(TypeError):
            ColumnEvaluator(CHAIN_LOOP, ("p",)).columns(junk)
        with pytest.raises(TypeError):
            ExtensionEvaluator(ARROW).extension(junk)

    @pytest.mark.parametrize("cls, method", [
        (ColumnEvaluator, "columns"),
        (ExtensionEvaluator, "extension"),
    ])
    def test_instrumented_methods_are_own_attributes(self, cls, method):
        # perfbench/tracing.py wraps these through the class __dict__ to
        # count evaluator nodes and evaluators built; recursion must go
        # through the public method for the node count to see it.
        assert method in cls.__dict__
        assert "__init__" in cls.__dict__


# ---------------------------------------------------------------------------
# Frame surgery


class TestTransformations:
    def test_mirror_reduction_drops_pure_loops(self):
        assert mirror_reduction(POINT_LOOP) == POINT_BARE
        assert mirror_reduction(CHAIN_LOOP) == Frame.from_pairs(
            ("s", "t"), [("s", "t")]
        )

    def test_mirror_reduction_keeps_accompanied_loops(self):
        fr = Frame.from_pairs(("s", "t"), [("s", "s"), ("s", "t")])
        assert mirror_reduction(fr) == fr

    def test_mirror_reduction_is_idempotent(self):
        for fr in enumerate_frames(2):
            assert mirror_reduction(mirror_reduction(fr)) == mirror_reduction(fr)

    def test_reflexive_closure(self):
        assert reflexive_closure(POINT_BARE) == POINT_LOOP
        closed = reflexive_closure(CHAIN_LOOP)
        assert frame_has_property(closed, FrameClass.T)
        assert reflexive_closure(closed) == closed

    def test_reflexivize_dead_ends(self):
        arrow = Frame.from_pairs(("s", "t"), [("s", "t")])
        patched = reflexivize_dead_ends(arrow)
        assert patched == Frame.from_pairs(("s", "t"), [("s", "t"), ("t", "t")])
        assert frame_has_property(patched, FrameClass.D)
        # serial frames are untouched; the closure differs on them
        assert reflexivize_dead_ends(patched) == patched
        assert reflexive_closure(patched) != patched

    def test_mirror_invariance_smoke(self):
        # contingency and accident cannot see a world's own pure loop
        from bimodal.syntax import LanguageTag, enumerate_formulas

        battery = list(enumerate_formulas(("p",), LanguageTag.NABLA_BULLET, 4))
        for fr in enumerate_frames(2):
            reduced = mirror_reduction(fr)
            if reduced == fr:
                continue
            for f in battery:
                left = ColumnEvaluator(fr, ("p",)).columns(f)
                right = ColumnEvaluator(reduced, ("p",)).columns(f)
                assert left == right, (fr, f)
