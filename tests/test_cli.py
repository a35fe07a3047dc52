"""Tests for the command-line front end."""

import json

import pytest

from bimodal import kripke
from bimodal.cli import main
from bimodal.kripke import model_from_json
from bimodal.proof import check_proof, proof_from_json, proof_to_json
from bimodal.corpus import corpus_entry


LOOPED_MODEL = {
    "worlds": ["s", "t"],
    "relation": [["s", "t"], ["t", "t"], ["t", "s"]],
    "valuation": {"p": ["s"]},
}
PLAIN_MODEL = {
    "worlds": ["s", "t"],
    "relation": [["s", "t"], ["t", "s"]],
    "valuation": {"p": ["s"]},
}
LOOP_FRAME = {"worlds": ["s"], "relation": [["s", "s"]]}


@pytest.fixture
def looped_model(tmp_path):
    path = tmp_path / "looped.json"
    path.write_text(json.dumps(LOOPED_MODEL))
    return str(path)


@pytest.fixture
def plain_model(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(PLAIN_MODEL))
    return str(path)


@pytest.fixture
def loop_frame(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP_FRAME))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    lines = [json.loads(line) for line in out.splitlines()]
    return code, lines, err


class TestParse:
    def test_round_trip_output(self, capsys):
        code, out, _ = run(capsys, "parse", "[! A p] ~ A p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[!A p]~A p"
        assert lines[1] == "[•p]¬•p"
        assert lines[2] == "atoms: p"
        assert "announcement depth: 1" in lines[3]

    def test_machine_output(self, capsys):
        code, lines, _ = run_machine(capsys, "parse", "D p -> D D p")
        assert code == 0
        (data,) = lines
        assert data["formula"] == "D p -> D D p"
        assert data["atoms"] == ["p"]
        assert data["metrics"]["modal_depth"] == 2

    def test_formula_from_file(self, capsys, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("O p & p -> D p\n")
        code, out, _ = run(capsys, "parse", "--file", str(path))
        assert code == 0
        assert out.splitlines()[0] == "O p & p -> D p"

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "p & (")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_formula(self, capsys):
        code, _, err = run(capsys, "parse")
        assert code == 2
        assert "no formula" in err

    def test_inline_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("p")
        code, _, err = run(capsys, "parse", "p", "--file", str(path))
        assert code == 2
        assert "not both" in err


class TestCheck:
    def test_true_at_world(self, capsys, looped_model):
        code, out, _ = run(
            capsys, "check", "--model", looped_model, "--world", "s", "A p"
        )
        assert code == 0
        assert out.strip() == "true at s"

    def test_false_at_world(self, capsys, looped_model):
        code, out, _ = run(
            capsys, "check", "--model", looped_model, "--world", "t", "p"
        )
        assert code == 1
        assert out.strip() == "false at t"

    def test_machine_output(self, capsys, looped_model):
        code, lines, _ = run_machine(
            capsys, "check", "--model", looped_model, "--world", "s", "[!p]A p"
        )
        assert code == 1
        assert lines == [{"formula": "[!p]A p", "world": "s", "holds": False}]

    def test_unknown_world(self, capsys, looped_model):
        code, _, err = run(
            capsys, "check", "--model", looped_model, "--world", "zz", "p"
        )
        assert code == 2
        assert "unknown world" in err

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check", "--model", str(tmp_path / "no.json"), "--world", "s", "p"
        )
        assert code == 2
        assert "cannot read" in err

    def test_model_not_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, _, err = run(capsys, "check", "--model", str(path), "--world", "s", "p")
        assert code == 2
        assert "not JSON" in err


class TestValid:
    def test_valid_formula(self, capsys):
        code, out, _ = run(
            capsys, "valid", "--class", "4", "--max-worlds", "3", "D p -> D D p"
        )
        assert code == 0
        assert out.splitlines()[0] == "HOLDS_AT_BOUND"

    def test_refuted_formula_prints_witness(self, capsys):
        code, out, _ = run(
            capsys, "valid", "--max-worlds", "3", "A(p->q) & A(~p->r) -> A p"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "REFUTED"
        assert lines[1] == "worlds: w0, w1, w2"
        assert lines[2] == "arrows: w0->w1, w0->w2"
        assert "p: w1" in lines
        assert "at: w0" in lines

    def test_machine_report(self, capsys):
        code, lines, _ = run_machine(
            capsys, "valid", "--max-worlds", "3", "A(p->q) & A(~p->r) -> A p"
        )
        assert code == 1
        (data,) = lines
        assert data["verdict"] == "REFUTED"
        assert data["statistics"] == {
            "frames_scanned": 17,
            "valuations_scanned": 3216,
            "work_units": 323,
        }  # frozen scan statistics
        assert data["witness"]["model"]["valuation"] == {"p": ["w1"], "r": ["w0"]}

    def test_machine_output_is_reproducible(self, capsys):
        _, first, _ = run(
            capsys, "valid", "A(p->q) & A(~p->r) -> A p", "--format", "machine"
        )
        _, second, _ = run(
            capsys, "valid", "A(p->q) & A(~p->r) -> A p", "--format", "machine"
        )
        assert first == second

    def test_bad_max_worlds(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["valid", "p", "--max-worlds", "0"])
        assert excinfo.value.code == 2

    def test_unknown_class(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["valid", "p", "--class", "S5"])
        assert excinfo.value.code == 2


class TestSat:
    def test_satisfiable(self, capsys):
        code, out, _ = run(capsys, "sat", "A p", "--max-worlds", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SATISFIABLE"
        assert lines[1] == "worlds: w0, w1"

    def test_unsatisfiable(self, capsys):
        code, out, _ = run(capsys, "sat", "p & ~p")
        assert code == 1
        assert out.splitlines()[0] == "NO_MODEL_AT_BOUND"

    def test_machine_keeps_report_vocabulary(self, capsys):
        code, lines, _ = run_machine(capsys, "sat", "A p", "--max-worlds", "2")
        assert code == 0
        (data,) = lines
        assert data["query"].startswith("satisfiable?")
        assert data["verdict"] == "REFUTED"


class TestReduce:
    def test_moore_reduction_is_announcement_free(self, capsys):
        code, out, _ = run(capsys, "reduce", "[! A p] ~ A p")
        assert code == 0
        assert "[" not in out

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "reduce", "[!p]q", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "~(p & ~q)"
        assert lines[1] == "step 1 [AP]: [!p]q"

    def test_machine_steps(self, capsys):
        code, lines, _ = run_machine(capsys, "reduce", "[!p]q")
        assert code == 0
        (data,) = lines
        assert data["input"] == "[!p]q"
        assert data["output"] == "~(p & ~q)"
        assert [step["axiom"] for step in data["steps"]] == ["AP"]

    def test_core_input_is_a_fixed_point(self, capsys):
        code, lines, _ = run_machine(capsys, "reduce", "p")
        assert code == 0
        assert lines == [{"input": "p", "output": "p", "steps": []}]

    def test_sugar_reduces_by_desugaring(self, capsys):
        code, lines, _ = run_machine(capsys, "reduce", "p -> q")
        assert code == 0
        assert [step["axiom"] for step in lines[0]["steps"]] == ["DESUGAR"]
        assert lines[0]["output"] == "~(p & ~q)"


class TestTranslate:
    def test_contingency(self, capsys):
        code, out, _ = run(capsys, "translate", "C p")
        assert code == 0
        assert out.strip() == "<>p & <>~p"

    def test_announcements_rejected(self, capsys):
        code, _, err = run(capsys, "translate", "[!p]q")
        assert code == 2
        assert "reduce announcements first" in err

    def test_machine(self, capsys):
        code, lines, _ = run_machine(capsys, "translate", "A p")
        assert code == 0
        assert lines == [{"input": "A p", "output": "p & <>~p"}]


class TestFrame:
    def test_mirror(self, capsys, loop_frame):
        code, out, _ = run(capsys, "frame", "mirror", loop_frame)
        assert code == 0
        assert out.splitlines() == ["worlds: s", "arrows: (none)"]

    def test_refl_closure_machine(self, capsys, loop_frame):
        code, lines, _ = run_machine(capsys, "frame", "refl-closure", loop_frame)
        assert code == 0
        assert lines == [{"worlds": ["s"], "relation": [["s", "s"]]}]

    def test_serialize(self, capsys, tmp_path):
        path = tmp_path / "arrow.json"
        path.write_text(json.dumps({"worlds": ["s", "t"], "relation": [["s", "t"]]}))
        code, lines, _ = run_machine(capsys, "frame", "serialize", str(path))
        assert code == 0
        assert lines == [
            {"worlds": ["s", "t"], "relation": [["s", "t"], ["t", "t"]]}
        ]

    def test_model_file_rejected(self, capsys, looped_model):
        code, _, err = run(capsys, "frame", "mirror", looped_model)
        assert code == 2
        assert "unknown keys" in err

    def test_unknown_operation(self, capsys, loop_frame):
        with pytest.raises(SystemExit) as excinfo:
            main(["frame", "shrink", loop_frame])
        assert excinfo.value.code == 2


class TestDefines:
    def test_transitivity(self, capsys):
        code, out, _ = run(
            capsys,
            "defines",
            "--class",
            "4",
            "--max-worlds",
            "3",
            "A q & D p & O(~q -> p) -> O(~q -> O(~r -> p))",
        )
        assert code == 0
        assert out.splitlines()[0] == "HOLDS_AT_BOUND"

    def test_failed_definability_names_the_direction(self, capsys):
        # a tautology is frame-valid everywhere, so it cannot pin reflexivity
        code, out, _ = run(
            capsys, "defines", "--class", "T", "--max-worlds", "2", "true"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "REFUTED"
        assert lines[1] == "direction: valid_on_frame_without_property"

    def test_announcements_rejected(self, capsys):
        code, _, err = run(capsys, "defines", "--class", "K", "[!p]q")
        assert code == 2
        assert "announcement-free" in err


class TestDistinguish:
    def test_finds_the_splitting_formula(self, capsys, looped_model, plain_model):
        code, out, _ = run(
            capsys,
            "distinguish",
            looped_model,
            plain_model,
            "--world-a",
            "s",
            "--world-b",
            "s",
            "--max-size",
            "7",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A ~C p"
        assert lines[1] == "candidates examined: 126"  # frozen count

    def test_bounded_agreement(self, capsys, looped_model, plain_model):
        # the splitting formula has size 4, so the pair agrees below that
        code, out, _ = run(
            capsys,
            "distinguish",
            looped_model,
            plain_model,
            "--world-a",
            "s",
            "--world-b",
            "s",
            "--max-size",
            "3",
        )
        assert code == 1
        assert out.splitlines()[0] == "HOLDS_AT_BOUND"

    def test_diamond_language(self, capsys, looped_model, plain_model):
        code, lines, _ = run_machine(
            capsys,
            "distinguish",
            looped_model,
            plain_model,
            "--world-a",
            "s",
            "--world-b",
            "s",
            "--language",
            "diamond",
            "--max-size",
            "6",
        )
        assert code == 0
        (data,) = lines
        assert data["verdict"] == "REFUTED"
        assert data["witness"] == {"kind": "formula", "formula": "<><>~p"}

    def test_unknown_point(self, capsys, looped_model, plain_model):
        code, _, err = run(
            capsys,
            "distinguish",
            looped_model,
            plain_model,
            "--world-a",
            "zz",
            "--world-b",
            "s",
        )
        assert code == 2
        assert "unknown world" in err

    def test_empty_atoms(self, capsys, looped_model, plain_model):
        code, _, err = run(
            capsys,
            "distinguish",
            looped_model,
            plain_model,
            "--world-a",
            "s",
            "--world-b",
            "s",
            "--atoms",
            "",
        )
        assert code == 2
        assert "at least one atom" in err


class TestProofCheck:
    def test_bundled_proof_passes(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        path.write_text(
            json.dumps(proof_to_json(corpus_entry("fact-circ-to-delta").proof))
        )
        code, out, _ = run(capsys, "proof-check", str(path))
        assert code == 0
        assert out.strip() == "OK: 5 lines, concludes O p & p -> D p"

    def test_broken_proof_reports_the_line(self, capsys, tmp_path):
        data = proof_to_json(corpus_entry("fact-circ-to-delta").proof)
        data["lines"][0]["just"] = {"kind": "axiom", "name": "A1"}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "proof-check", str(path))
        assert code == 1
        assert out.startswith("FAILED at line 1:")

    def test_machine_output(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        path.write_text(
            json.dumps(proof_to_json(corpus_entry("ess-diluted").proof))
        )
        code, lines, _ = run_machine(capsys, "proof-check", str(path))
        assert code == 0
        (data,) = lines
        assert data["ok"] is True
        assert data["conclusion"] == "O p & p -> O(q -> p)"

    def test_malformed_proof_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"system": "K"}))
        code, _, err = run(capsys, "proof-check", str(path))
        assert code == 2
        assert "missing keys" in err


class TestCorpus:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines[0].startswith("fact-circ-to-delta")

    def test_machine_listing(self, capsys):
        code, lines, _ = run_machine(capsys, "corpus")
        assert code == 0
        assert len(lines) == 20
        assert lines[0]["name"] == "fact-circ-to-delta"
        assert lines[0]["system"] == "K"
        assert lines[0]["lines"] == 5

    def test_print_one_proof_round_trips(self, capsys):
        code, out, _ = run(capsys, "corpus", "moore-self-refuting")
        assert code == 0
        proof = proof_from_json(json.loads(out))
        assert check_proof(proof).ok

    def test_check_all(self, capsys):
        code, out, _ = run(capsys, "corpus", "--check")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert all(line.endswith(": ok") for line in lines)

    def test_check_one_machine(self, capsys):
        code, lines, _ = run_machine(
            capsys, "corpus", "noncon-spread-transitive", "--check"
        )
        assert code == 0
        assert lines == [
            {
                "name": "noncon-spread-transitive",
                "ok": True,
                "line": None,
                "reason": None,
            }
        ]

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "corpus", "no-such-proof")
        assert code == 2
        assert "no bundled proof named" in err


class TestConjectures:
    def test_small_sweep(self, capsys):
        code, out, _ = run(
            capsys, "conjectures", "--max-worlds", "2", "--max-prefix", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("HOLDS_AT_BOUND anchor:")
        assert lines[-1] == "74 instances, 0 refuted"

    def test_machine_rows(self, capsys):
        code, lines, _ = run_machine(
            capsys, "conjectures", "--max-worlds", "2", "--max-prefix", "2"
        )
        assert code == 0
        assert len(lines) == 74
        assert all(line["verdict"] == "HOLDS_AT_BOUND" for line in lines)

    def test_bad_bounds(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["conjectures", "--max-worlds", "0"])
        assert excinfo.value.code == 2


class TestPaperSuite:
    def test_selected_checks(self, capsys):
        code, out, _ = run(
            capsys,
            "paper-suite",
            "--only",
            "formula-round-trips,bundled-proofs-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ok    formula-round-trips")
        assert lines[1].startswith("ok    bundled-proofs-check")
        assert lines[2].startswith("2 checks, 2 passed, 0 failed")

    def test_machine_rows(self, capsys):
        code, lines, _ = run_machine(
            capsys, "paper-suite", "--only", "axiom-a1,axiom-a2"
        )
        assert code == 0
        assert [line["slug"] for line in lines] == ["axiom-a1", "axiom-a2"]
        assert all(line["ok"] for line in lines)

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "paper-suite", "--only", "no-such-check")
        assert code == 2
        assert "unknown checks" in err

    def test_unknown_profile_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["paper-suite", "--profile", "glacial"])
        assert excinfo.value.code == 2


class TestGrammar:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestUnreadableFormulas:
    """Inputs the library rejects are usage errors (2), never refutations (1)."""

    @pytest.mark.parametrize("command", ["valid", "sat", "reduce"])
    def test_irreducible_announcement(self, capsys, command):
        code, out, err = run(capsys, command, "[!q]<>p")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot reduce [!q]<>p")
        assert "Traceback" not in err

    # a valid formula and an unsatisfiable one, so both scans reach 4 worlds
    @pytest.mark.parametrize("command, text", [("valid", "A p -> p"), ("sat", "p & ~p")])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_world_count_beyond_the_scan_limit(
        self, capsys, monkeypatch, command, text, workers
    ):
        monkeypatch.setattr(kripke, "_MAX_ISO_WORLDS", 3)
        code, out, err = run(
            capsys, command, text, "--max-worlds", "4", "--workers", workers
        )
        assert code == 2
        assert out == ""
        assert err == "error: isomorphism-pruned frame scans stop at 3 worlds, not 4\n"

    @pytest.mark.parametrize("command", ["valid", "sat", "reduce", "parse"])
    def test_deep_nesting(self, capsys, command):
        code, _, err = run(capsys, command, "~" * 900 + "p")
        assert code == 2
        assert err == "error: formula nested too deeply\n"
        assert "Traceback" not in err
