#!/usr/bin/env python3
"""Run one workload of the bimodal benchmark and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every workload is a closed loop with one client: the next query is issued
only after the previous verdict returned, with ``workers=1`` and no process
pool.  The run repeats passes over the workload's queries until at least 100
verdicts were timed and either ``--seconds`` have passed over three or more
passes or twice ``--seconds`` have passed, checking every verdict against its
known answer.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced set-up and pass, and the span tree is written under ``.perfbench/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

MIN_VERDICTS = 100
MIN_PASSES = 3
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 150
# deep's set-up builds the 5-world isomorphism table (about 48 s) and a pass
# takes about 15 s, so it is set up once and makes one pass; with 7 verdicts
# it has no latency percentiles
BY_HAND = {"deep"}


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile that keeps at least ten samples beyond it.

    Raises ValueError when fewer than ten of ``values`` lie above the rank,
    since such a tail percentile would rest on a handful of samples.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it; need 10"
        )
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Judging verdicts


@dataclass
class Outcome:
    """One timed verdict: ``status`` is ok, wrong (differs from the known
    answer or its witness does not re-check) or raised."""

    name: str
    seconds: float
    status: str
    reason: str = ""
    counts: dict[str, int] = field(default_factory=dict)


def judge(query) -> Outcome:
    """Time one query's call, then check its result outside the timing."""
    start = time.perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # a raising call is a failed verdict, not a crash
        return Outcome(query.name, time.perf_counter() - start, "raised",
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        reason = query.check(result)
        counts = query.count(result)
    except Exception as exc:  # a malformed result fails its check
        return Outcome(query.name, seconds, "wrong", f"check raised {type(exc).__name__}: {exc}")
    return Outcome(query.name, seconds, "wrong" if reason else "ok", reason or "", counts)


def pass_counts(outcomes: list[Outcome]) -> dict[str, int]:
    total: dict[str, int] = {}
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            total[key] = total.get(key, 0) + value
    return dict(sorted(total.items()))


def run_passes(queries, seconds: float, min_verdicts: int) -> list[list[Outcome]]:
    """Whole passes until ``seconds`` have passed, ``min_verdicts`` were timed
    and there were three passes, or until twice ``seconds`` have passed."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        passes.append([judge(q) for q in queries])
        elapsed = time.perf_counter() - start
        timed = sum(len(p) for p in passes)
        if timed >= min_verdicts and (
            elapsed >= 2 * seconds or (elapsed >= seconds and len(passes) >= MIN_PASSES)
        ):
            return passes


def query_medians(passes: list[list[Outcome]]) -> list[float]:
    """Each query's median time across passes.  Their sum is the time of one
    pass, which a burst of load from outside then moves only if the burst
    hits most passes of a query."""
    return [statistics.median(o.seconds for o in same) for same in zip(*passes)]


# ---------------------------------------------------------------------------
# Set-up


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first timed query:
    import, input generation and the workload's lazy caches."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child for {workload} failed with exit code {code}")
    return elapsed


def cli_startup() -> tuple[float, str]:
    """Time one ``python -m bimodal.cli corpus`` child; returns (seconds, problem)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bimodal.cli", "corpus"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 20:
        return elapsed, f"bimodal corpus exited {proc.returncode} with {len(lines)} lines"
    return elapsed, ""


# ---------------------------------------------------------------------------
# Reporting


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _digest(counts: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:12]


def _report_outcomes(outcomes: list[Outcome]) -> tuple[int, int, bool]:
    """Print every failed verdict by name; returns (attempted, failed, correct)."""
    failed = [o for o in outcomes if o.status != "ok"]
    for o in failed:
        print(f"FAILED {o.status}: {o.name}: {o.reason}")
    wrong = any(o.status == "wrong" for o in failed)
    return len(outcomes), len(failed), not wrong


def _check_counts(passes: list[list[Outcome]], problems: list[str]) -> dict[str, int]:
    per_pass = [pass_counts(p) for p in passes]
    if any(c != per_pass[0] for c in per_pass[1:]):
        problems.append(f"work counters differ between passes: {per_pass}")
    return per_pass[0]


def end_to_end(args, mod) -> dict:
    by_hand = args.workload in BY_HAND
    setups = [timed_setup(args.workload, args.seed) for _ in range(1 if by_hand else SETUP_REPEATS)]
    workload = mod.WORKLOADS[args.workload](args.seed)
    problems = list(workload.problems)
    passes = run_passes(workload.queries, args.seconds, 0 if by_hand else MIN_VERDICTS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = [o for p in passes for o in p]
    latencies_ms = [o.seconds * 1000 for o in outcomes]
    medians = query_medians(passes)
    counts = {**workload.counts, **_check_counts(passes, problems)}
    attempted, failed, correct = _report_outcomes(outcomes)
    for problem in problems:
        print(f"FAILED check: {problem}")
    beyond_p90 = len(outcomes) - math.ceil(0.9 * len(outcomes))
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(sum(medians), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    if not by_hand:
        metrics["verdict_p50_ms"] = _metric(percentile(latencies_ms, 50), "ms")
        metrics["verdict_p90_ms"] = _metric(percentile(latencies_ms, 90), "ms")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"verdicts {attempted}  failed {failed}")
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "pass_s": f"{len(workload.queries)} queries, each the median of {len(passes)} passes",
        "verdict_p50_ms": f"of {attempted} verdicts",
        "verdict_p90_ms": f"of {attempted} verdicts, {beyond_p90} beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:>12.4f} {m['unit']:<3} {notes[name]}")
    print(f"  {'fail_ratio':<16} {failed / attempted:>12.4f} {'':<3} "
          f"{failed} of {attempted} verdicts")
    slowest = sorted(zip(medians, (q.name for q in workload.queries)), reverse=True)[:3]
    print("  slowest queries: " + "; ".join(f"{name} {t:.3f} s" for t, name in slowest))
    print(f"  counters (every pass) digest {_digest(counts)}: "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    return {"correct": correct and not problems, "attempted": attempted,
            "failed": failed + len(problems), "metrics": metrics}


# per-layer self times: the metric is the span name plus "_s"
LAYER_SPANS = (
    "syntax.desugar", "syntax.parse", "syntax.render", "syntax.metrics",
    "syntax.enumerate_formulas", "kripke.iso_table", "kripke.enumerate_frames",
    "kripke.evaluator", "translate.reduce", "translate.equivalent_bounded",
    "decide.find_countermodel", "decide.sat_bounded", "decide.defines_property",
    "decide.distinguishing_formula", "decide.conjecture_sweep", "proof.check_proof",
    "proof.match_schema", "proof.taut_check", "corpus.builtin_corpus",
    "suite.mirror_exhaustive", "suite.mirror_random",
)
LAYER_COUNTS = (
    "syntax.hash_calls", "syntax.eq_calls", "syntax.desugar_calls",
    "syntax.formulas_enumerated", "kripke.frames_yielded", "kripke.indices_walked",
    "kripke.evaluator_top_calls", "kripke.evaluator_nodes", "kripke.evaluators_built",
    "translate.reduce_calls", "translate.reduction_steps", "decide.frames_scanned",
    "decide.valuations_scanned", "decide.work_units", "decide.candidates_examined",
    "proof.lines_checked", "proof.match_schema_calls", "proof.taut_calls",
    "corpus.mutants", "suite.mirror_frames", "suite.battery_formulas",
)


def per_layer(args, mod, tracing) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = mod.WORKLOADS[args.workload](args.seed)
        cli_seconds, cli_problem = cli_startup()
    finally:
        tracer.uninstall()
    problems = list(workload.problems) + ([cli_problem] if cli_problem else [])
    plain = run_passes(workload.queries, 0, 0)
    tracer.install()
    try:
        traced = run_passes(workload.queries, 0, 0)
    finally:
        tracer.uninstall()
    counts = _check_counts(plain + traced, problems)
    attempted, failed, correct = _report_outcomes(plain[0] + traced[0])
    for problem in problems:
        print(f"FAILED check: {problem}")
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.tsv"
    tracer.write(str(trace_path))

    self_s = {name: ns / 1e9 for name, ns in tracer.self_times().items()}
    c = Counter({**tracer.counts, **workload.counts, **counts})
    plain_s = sum(o.seconds for o in plain[0])
    traced_s = sum(o.seconds for o in traced[0])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c["proof.taut_calls"] = c["proof.taut_check_calls"]
    metrics = {span + "_s": _metric(self_s.get(span, 0.0), "s") for span in LAYER_SPANS}
    metrics.update({name: _metric(c[name], "count") for name in LAYER_COUNTS})
    metrics["kripke.frame_yield_ratio"] = _metric(
        ratio(c["kripke.frames_yielded"], c["kripke.indices_walked"]), "ratio")
    metrics["translate.size_growth"] = _metric(
        ratio(c["translate.reduced_size"], c["translate.source_size"]), "ratio")
    metrics["cli.startup_s"] = _metric(cli_seconds, "s")
    metrics["trace.overhead_ratio"] = _metric(ratio(traced_s, plain_s), "ratio")

    print(f"workload {args.workload}  seed {args.seed}  traced set-up and one pass "
          f"({len(tracer.names)} spans in {trace_path.relative_to(ROOT)}), "
          f"untraced pass {plain_s:.4f} s, traced pass {traced_s:.4f} s")
    for name, m in sorted(metrics.items()):
        print(f"  {name:<32} {m['value']:>16.6f} {m['unit']}")
    return {"correct": correct and not problems, "attempted": attempted,
            "failed": failed + len(problems), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if not (SRC / "bimodal" / "__init__.py").is_file():
        print(f"run.py: no bimodal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        import tracing

        result = per_layer(args, workloads, tracing)
    else:
        result = end_to_end(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
