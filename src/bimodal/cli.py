"""Command-line front end: every workbench capability, scriptable.

One subcommand per library operation family.  Exit codes are uniform:
0 for an affirmative verdict (valid, satisfiable, proof checks, property
defined, distinguisher found, suite green), 1 for a refuted query with a
witness, and 2 for usage or input errors.  ``--format machine`` emits one
JSON object per line with sorted keys, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .corpus import builtin_corpus, corpus_entry
from .decide import (
    HOLDS_AT_BOUND,
    REFUTED,
    Report,
    conjecture_sweep,
    defines_property,
    distinguishing_formula,
    find_countermodel,
    sat_bounded,
)
from .kripke import (
    Frame,
    FrameClass,
    Model,
    PointedModel,
    evaluate,
    frame_from_json,
    frame_to_json,
    mirror_reduction,
    model_from_json,
    model_to_json,
    reflexive_closure,
    reflexivize_dead_ends,
)
from .proof import check_proof, proof_from_json, proof_to_json
from .suite import PROFILES, run_suite
from .syntax import (
    Formula,
    LanguageTag,
    ParseError,
    atoms,
    metrics,
    parse,
    render,
)
from .translate import reduce_announcements, to_diamond

__all__ = ["main"]


class _InputError(Exception):
    """Bad user input outside argparse's reach; reported with exit code 2."""


_FRAME_OPS = {
    "mirror": mirror_reduction,
    "refl-closure": reflexive_closure,
    "serialize": reflexivize_dead_ends,
}


# ---------------------------------------------------------------------------
# Shared plumbing


def _machine(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _read_formula(args: argparse.Namespace) -> Formula:
    if args.formula is not None and args.file is not None:
        raise _InputError("give the formula inline or with --file, not both")
    if args.formula is not None:
        text = args.formula
    elif args.file is not None:
        text = _read_text(args.file)
    else:
        raise _InputError("no formula given (inline or --file)")
    try:
        return parse(text)
    except ParseError as err:
        raise _InputError(str(err)) from None


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err.strerror}") from None


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise _InputError(f"{path}: not JSON: {err}") from None
    if not isinstance(data, dict):
        raise _InputError(f"{path}: expected a JSON object")
    return data


def _read_model(path: str) -> Model:
    try:
        return model_from_json(_read_json(path))
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from None


def _read_frame(path: str) -> Frame:
    try:
        return frame_from_json(_read_json(path))
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from None


def _frame_lines(data: dict) -> list[str]:
    arrows = ", ".join(f"{s}->{t}" for s, t in data["relation"]) or "(none)"
    lines = [f"worlds: {', '.join(data['worlds'])}", f"arrows: {arrows}"]
    for name, worlds in sorted(data.get("valuation", {}).items()):
        lines.append(f"{name}: {', '.join(worlds) or '(nowhere)'}")
    return lines


def _print_report(report: Report, fmt: str, verdict_line: str | None = None) -> None:
    if fmt == "machine":
        _machine(report.to_json())
        return
    print(verdict_line if verdict_line is not None else report.verdict)
    witness = report.witness
    if witness is not None:
        data = witness.to_json()
        if data["kind"] == "model":
            for line in _frame_lines(data["model"]):
                print(line)
            print(f"at: {data['world']}")
        elif data["kind"] == "frame":
            print(f"direction: {data['direction']}")
            for line in _frame_lines(data["frame"]):
                print(line)
            if data["valuation"] is not None:
                for name, worlds in sorted(data["valuation"].items()):
                    print(f"{name}: {', '.join(worlds) or '(nowhere)'}")
                print(f"at: {data['world']}")
        else:
            print(f"formula: {data['formula']}")
    stats = report.statistics
    print(
        f"frames: {stats.frames_scanned}  valuations: {stats.valuations_scanned}"
        f"  work: {stats.work_units}"
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    m = metrics(f)
    if args.format == "machine":
        _machine(
            {
                "formula": render(f),
                "unicode": render(f, unicode_ops=True),
                "atoms": sorted(atoms(f)),
                "metrics": m,
            }
        )
        return 0
    print(render(f))
    print(render(f, unicode_ops=True))
    print(f"atoms: {', '.join(sorted(atoms(f))) or '(none)'}")
    print(
        f"size: {m['size']}  modal depth: {m['modal_depth']}"
        f"  announcement depth: {m['announcement_depth']}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    model = _read_model(args.model)
    try:
        holds = evaluate(model, args.world, f)
    except (KeyError, ValueError) as err:
        raise _InputError(str(err)) from None
    if args.format == "machine":
        _machine({"formula": render(f), "world": args.world, "holds": holds})
    else:
        print(f"{'true' if holds else 'false'} at {args.world}")
    return 0 if holds else 1


def _cmd_valid(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    try:
        report = find_countermodel(
            f, FrameClass(args.frame_class), args.max_worlds, workers=args.workers
        )
    except ValueError as err:  # an irreducible announcement or too many worlds
        raise _InputError(str(err)) from None
    _print_report(report, args.format)
    return 0 if report.verdict == HOLDS_AT_BOUND else 1


def _cmd_sat(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    try:
        report = sat_bounded(
            f, FrameClass(args.frame_class), args.max_worlds, workers=args.workers
        )
    except ValueError as err:  # an irreducible announcement or too many worlds
        raise _InputError(str(err)) from None
    # the report's REFUTED refutes the unsatisfiability claim: a model exists
    satisfiable = report.verdict == REFUTED
    _print_report(
        report, args.format, "SATISFIABLE" if satisfiable else "NO_MODEL_AT_BOUND"
    )
    return 0 if satisfiable else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    try:
        reduced, trace = reduce_announcements(f)
    except ValueError as err:  # an announcement no reduction axiom covers
        raise _InputError(str(err)) from None
    if args.format == "machine":
        _machine(
            {
                "input": render(f),
                "output": render(reduced),
                "steps": [
                    {
                        "axiom": step.axiom,
                        "before": render(step.before),
                        "after": render(step.after),
                    }
                    for step in trace.steps
                ],
            }
        )
        return 0
    print(render(reduced))
    if args.trace:
        for i, step in enumerate(trace.steps, start=1):
            print(f"step {i} [{step.axiom}]: {render(step.before)}")
            print(f"  => {render(step.after)}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    try:
        g = to_diamond(f)
    except ValueError as err:
        raise _InputError(str(err)) from None
    if args.format == "machine":
        _machine({"input": render(f), "output": render(g)})
    else:
        print(render(g))
    return 0


def _cmd_frame(args: argparse.Namespace) -> int:
    fr = _read_frame(args.path)
    out = _FRAME_OPS[args.operation](fr)
    data = frame_to_json(out)
    if args.format == "machine":
        _machine(data)
    else:
        for line in _frame_lines(data):
            print(line)
    return 0


def _cmd_defines(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    try:
        report = defines_property(
            f, FrameClass(args.frame_class), args.max_worlds, workers=args.workers
        )
    except ValueError as err:
        raise _InputError(str(err)) from None
    _print_report(report, args.format)
    return 0 if report.verdict == HOLDS_AT_BOUND else 1


def _cmd_distinguish(args: argparse.Namespace) -> int:
    model_a = _read_model(args.model_a)
    model_b = _read_model(args.model_b)
    try:
        a = PointedModel(model_a, args.world_a)
        b = PointedModel(model_b, args.world_b)
    except (KeyError, ValueError) as err:
        raise _InputError(str(err)) from None
    atom_names = [name for name in args.atoms.split(",") if name]
    if not atom_names:
        raise _InputError("--atoms needs at least one atom name")
    report = distinguishing_formula(
        a, b, LanguageTag(args.language), atom_names, args.max_size
    )
    if args.format == "machine":
        _machine(report.to_json())
    elif report.verdict == REFUTED:
        print(render(report.witness.formula))
        print(f"candidates examined: {report.statistics.work_units}")
    else:
        print(HOLDS_AT_BOUND)
        print(f"candidates examined: {report.statistics.work_units}")
    # finding a distinguisher is the affirmative outcome here
    return 0 if report.verdict == REFUTED else 1


def _cmd_proof_check(args: argparse.Namespace) -> int:
    try:
        proof = proof_from_json(_read_json(args.path))
    except ValueError as err:
        raise _InputError(f"{args.path}: {err}") from None
    result = check_proof(proof)
    if args.format == "machine":
        _machine(
            {
                "ok": result.ok,
                "line": result.line,
                "reason": result.reason,
                "system": proof.system,
                "conclusion": render(proof.conclusion),
            }
        )
        return 0 if result.ok else 1
    if result.ok:
        print(f"OK: {len(proof.lines)} lines, concludes {render(proof.conclusion)}")
        return 0
    print(f"FAILED at line {result.line}: {result.reason}")
    return 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.name is not None:
        try:
            entry = corpus_entry(args.name)
        except KeyError as err:
            raise _InputError(err.args[0]) from None
        entries = (entry,)
    else:
        entries = builtin_corpus()

    if args.check:
        failures = 0
        for entry in entries:
            result = check_proof(entry.proof)
            if args.format == "machine":
                _machine(
                    {
                        "name": entry.name,
                        "ok": result.ok,
                        "line": result.line,
                        "reason": result.reason,
                    }
                )
            else:
                mark = "ok" if result.ok else f"FAILED at line {result.line}"
                print(f"{entry.name}: {mark}")
            failures += not result.ok
        return 0 if failures == 0 else 1

    if args.name is not None:
        data = proof_to_json(entries[0].proof)
        if args.format == "machine":
            _machine(data)
        else:
            print(json.dumps(data, indent=2, sort_keys=True))
        return 0

    for entry in entries:
        if args.format == "machine":
            _machine(
                {
                    "name": entry.name,
                    "system": entry.system,
                    "lines": len(entry.proof.lines),
                    "conclusion": render(entry.conclusion),
                    "note": entry.note,
                }
            )
        else:
            print(
                f"{entry.name:40s} {entry.system:6s} {len(entry.proof.lines):3d}"
                f"  {render(entry.conclusion)}"
            )
    return 0


def _cmd_conjectures(args: argparse.Namespace) -> int:
    try:
        reports = conjecture_sweep(args.max_worlds, args.max_prefix)
    except ValueError as err:
        raise _InputError(str(err)) from None
    refuted = 0
    for report in reports:
        if args.format == "machine":
            _machine(report.to_json())
        else:
            print(f"{report.verdict:14s} {report.query}")
        refuted += report.verdict == REFUTED
    if args.format == "human":
        print(f"{len(reports)} instances, {refuted} refuted")
    return 0 if refuted == 0 else 1


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = [slug for slug in args.only.split(",") if slug]
    try:
        results = run_suite(args.profile, workers=args.workers, only=only)
    except KeyError as err:
        raise _InputError(err.args[0]) from None
    failures = 0
    for result in results:
        if args.format == "machine":
            _machine(result.to_json())
        else:
            mark = "ok  " if result.ok else "FAIL"
            print(f"{mark}  {result.slug:50s} {result.detail}")
        failures += not result.ok
    if args.format == "human":
        elapsed = sum(result.elapsed for result in results)
        print(
            f"{len(results)} checks, {len(results) - failures} passed,"
            f" {failures} failed  [profile {args.profile}, {elapsed:.1f}s]"
        )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Argument grammar


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output style: lines for reading or one JSON object per line",
    )


def _add_formula_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("formula", nargs="?", help="formula text")
    parser.add_argument("--file", help="read the formula from this file instead")


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--class",
        dest="frame_class",
        choices=[c.value for c in FrameClass],
        default="K",
        help="frame class to scan (default K)",
    )
    parser.add_argument(
        "--max-worlds",
        type=int,
        default=3,
        help="largest frame size scanned (default 3)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel scan partitions (default: all cores)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimodal",
        description="workbench for the logic of contingency and accident",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and report its shape")
    _add_formula_source(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula at a world of a model")
    _add_formula_source(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--world", required=True, help="world to evaluate at")
    _add_format(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("valid", help="search for a countermodel within a bound")
    _add_formula_source(p)
    _add_scan_flags(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("sat", help="search for a satisfying model within a bound")
    _add_formula_source(p)
    _add_scan_flags(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("reduce", help="rewrite announcements away")
    _add_formula_source(p)
    p.add_argument(
        "--trace", action="store_true", help="show each rewrite step"
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser(
        "translate", help="rewrite into the pure possibility language"
    )
    _add_formula_source(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("frame", help="apply a frame transformation")
    p.add_argument("operation", choices=sorted(_FRAME_OPS))
    p.add_argument("path", help="frame JSON file")
    _add_format(p)
    p.set_defaults(fn=_cmd_frame)

    p = sub.add_parser(
        "defines", help="test whether a formula pins down a frame class"
    )
    _add_formula_source(p)
    _add_scan_flags(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_defines)

    p = sub.add_parser(
        "distinguish", help="search for a formula telling two pointed models apart"
    )
    p.add_argument("model_a", help="first model JSON file")
    p.add_argument("model_b", help="second model JSON file")
    p.add_argument("--world-a", required=True, help="point of the first model")
    p.add_argument("--world-b", required=True, help="point of the second model")
    p.add_argument(
        "--language",
        choices=[tag.value for tag in LanguageTag],
        default=LanguageTag.NABLA_BULLET.value,
        help="language fragment searched (default nabla-bullet)",
    )
    p.add_argument(
        "--atoms", default="p", help="comma-separated atom names (default p)"
    )
    p.add_argument(
        "--max-size", type=int, default=5, help="largest formula size tried"
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_distinguish)

    p = sub.add_parser("proof-check", help="check a proof file line by line")
    p.add_argument("path", help="proof JSON file")
    _add_format(p)
    p.set_defaults(fn=_cmd_proof_check)

    p = sub.add_parser("corpus", help="list, print, or re-check the bundled proofs")
    p.add_argument("name", nargs="?", help="print this bundled proof as JSON")
    p.add_argument(
        "--check", action="store_true", help="run the checker over the selection"
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser(
        "conjectures", help="sweep the spreading conjectures over transitive frames"
    )
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--max-prefix", type=int, default=4)
    _add_format(p)
    p.set_defaults(fn=_cmd_conjectures)

    p = sub.add_parser(
        "paper-suite", help="run the bundled demonstration suite"
    )
    p.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="fast",
        help="bound profile (default fast)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel scan partitions (default: all cores)",
    )
    p.add_argument(
        "--only", help="comma-separated check slugs to run instead of all"
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_paper_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_worlds", 1) < 1:
        parser.exit(2, "error: --max-worlds must be at least 1\n")
    if getattr(args, "max_size", 1) < 1:
        parser.exit(2, "error: --max-size must be at least 1\n")
    if getattr(args, "workers", 1) < 1:
        parser.exit(2, "error: --workers must be at least 1\n")
    try:
        return args.fn(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
