"""Fingerprint the ``--format machine`` output of a fixed set of CLI commands.

Each command runs in a fresh interpreter with the given source tree on
``PYTHONPATH``.  One line is printed per command: the sha256 of its standard
output, its exit code, and its label.  Two trees whose lines are identical
produce byte-identical machine output on the whole set::

    python3 scripts/capture_machine.py                      # this checkout
    python3 scripts/capture_machine.py --src ../other/src   # another one

The set covers every subcommand, and one transitive scan runs with
``--workers 1`` and ``--workers 2``; the script exits 1 if those two outputs
(verdict, witness and work counters) differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
LOOP_FRAME = {"worlds": ["s", "t"], "relation": [["s", "s"], ["s", "t"], ["t", "t"]]}

# (label, argv); "{dir}" is replaced by the directory of the fixture files
COMMANDS = (
    ("parse-sugared", ["parse", "A(p -> q) & A(~p -> r) -> C p"]),
    ("parse-announcements", ["parse", "[?A p][!q]~[]p <-> D O p"]),
    ("check", ["check", "A p", "--model", "{dir}/looped.json", "--world", "s"]),
    ("valid-accident", ["valid", "A p -> p", "--workers", "1"]),
    ("valid-refuted", ["valid", "A p -> [] p", "--workers", "1"]),
    ("valid-announcement", ["valid", "[!p]A q -> (p -> A [!p]q)", "--workers", "1"]),
    ("valid-4-w1", ["valid", "D p -> D D p", "--class", "4", "--max-worlds", "4", "--workers", "1"]),
    ("valid-4-w2", ["valid", "D p -> D D p", "--class", "4", "--max-worlds", "4", "--workers", "2"]),
    ("valid-T-refuted", ["valid", "D p & p -> D C p", "--class", "T", "--max-worlds", "4", "--workers", "1"]),
    ("sat-model", ["sat", "A p & ~p", "--workers", "1"]),
    ("sat-contingent", ["sat", "C p & A q", "--class", "D", "--workers", "1"]),
    ("reduce-acc", ["reduce", "[!A p]A p"]),
    ("reduce-whether", ["reduce", "[?p][!C q](p & A q)"]),
    ("translate", ["translate", "C p -> A ~p | O q"]),
    ("frame-mirror", ["frame", "mirror", "{dir}/frame.json"]),
    ("frame-serialize", ["frame", "serialize", "{dir}/frame.json"]),
    ("defines-4", ["defines", "D p -> D D p", "--class", "4", "--workers", "1"]),
    ("defines-T-refuted", ["defines", "A p -> p", "--class", "T", "--workers", "1"]),
    ("distinguish-nabla-bullet", [
        "distinguish", "{dir}/looped.json", "{dir}/plain.json",
        "--world-a", "s", "--world-b", "s", "--max-size", "7",
    ]),
    ("distinguish-diamond", [
        "distinguish", "{dir}/looped.json", "{dir}/plain.json",
        "--world-a", "s", "--world-b", "s", "--language", "diamond",
    ]),
    ("corpus-list", ["corpus"]),
    ("corpus-check", ["corpus", "--check"]),
    ("corpus-entry", ["corpus", "fact-circ-to-delta"]),
    ("proof-check", ["proof-check", "{dir}/proof.json"]),
    ("conjectures", ["conjectures", "--max-worlds", "3", "--max-prefix", "3"]),
    ("paper-suite-fast", ["paper-suite", "--profile", "fast", "--workers", "1"]),
)

_RUN_CLI = "import sys; from bimodal.cli import main; sys.exit(main())"


def run_cli(src: Path, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *argv, "--format", "machine"],
        env=env,
        stdout=subprocess.PIPE,
        check=False,
    )
    return done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="source tree holding the bimodal package (default: this checkout's)",
    )
    args = parser.parse_args()
    src = args.src.resolve()
    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (
            ("looped.json", LOOPED_MODEL),
            ("plain.json", PLAIN_MODEL),
            ("frame.json", LOOP_FRAME),
        ):
            Path(tmp, name).write_text(json.dumps(data), encoding="utf-8")
        code, proof = run_cli(src, ["corpus", "fact-circ-to-delta"])
        if code != 0:
            print("could not export the corpus proof", file=sys.stderr)
            return 2
        Path(tmp, "proof.json").write_bytes(proof)
        for label, argv in COMMANDS:
            code, out = run_cli(src, [arg.replace("{dir}", tmp) for arg in argv])
            outputs[label] = out
            print(f"{hashlib.sha256(out).hexdigest()}  {code}  {label}", flush=True)
    if outputs["valid-4-w1"] != outputs["valid-4-w2"]:
        print("--workers 1 and --workers 2 disagree on valid-4", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
