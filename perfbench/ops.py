"""Executing one operation, and checking its output from outside the package.

``execute`` is the timed part: the public calls of one operation and nothing
else. ``check`` runs after the clock stops. It returns the problems found
(an empty list means the output is correct), the deterministic counters of
the operation, and the payload that goes into the pinned digests of
``expected/``. ``Runner`` times, checks and counts operations of a batch.

An operation fails on a resource cap, an exception, exit code 2, a skipped
structural trial, a certificate the reference replay rejects, an
``infeasible`` verdict on a snapshot a run produced, a disagreement between
two routes that must agree, or a mismatch with its pinned digest.
"""

from __future__ import annotations

import itertools
import json
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from snapshot_lab import check_equivalence, check_lemma, clique_analysis, solve
from snapshot_lab import cli

from checks import PIN_CHUNK, ChunkDigests, certificate_problems

RULE_DECIDED = ("infeasible", "reduced_to_target_set")
MAX_SHOWN_FAILURES = 5


def _cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def execute(op, tracer):
    if op.kind == "solve":
        with tracer.span("solvers.solve"):
            return solve(op.instance)
    if op.kind == "lemma":
        with tracer.span("verification.check"):
            return check_lemma(op.arg, [op.instance], 1)
    if op.kind == "clique":
        with tracer.span("cliques.analysis"):
            analysis = clique_analysis(op.instance)
        with tracer.span("solvers.solve"):
            return analysis, solve(op.instance)
    if op.kind == "reduce":
        with tracer.span("reductions.check"):
            return check_equivalence(op.arg, op.instance, mode=op.mode)
    if op.kind == "cli":
        cert, trace = _outputs(op)
        with tracer.span("cli.solve"):
            solved = _cli(["solve", "--instance", op.arg, "--out", cert])
        if solved != 0:
            return solved, None, cert, trace
        with tracer.span("cli.replay"):
            return solved, _cli(["simulate", "--instance", op.arg, "--replay", cert, "--out", trace]), cert, trace
    raise ValueError(f"unknown operation kind {op.kind!r}")


_OUTPUT_IDS = itertools.count()


def _outputs(op) -> tuple[str, str]:
    """New output files for one run of a ``cli`` operation. Each run writes
    files of its own, which the check deletes: rewriting the same file on
    every pass makes ext4 flush its previous contents first, so the
    operation would wait on the disk of a shared host."""
    stem = f"{op.arg[: -len('.json')]}.{next(_OUTPUT_IDS)}"
    return stem + ".cert.json", stem + ".trace.jsonl"


def _verdict_problems(op, verdict: str, cert: dict) -> list[str]:
    if verdict == "feasible":
        return certificate_problems(op.instance, cert)
    if verdict != "infeasible":
        return [f"verdict {verdict!r}"]
    if op.reachable:
        return ["infeasible verdict on a snapshot a run produced"]
    return []


def _solver_counts(counts: Counter, wire: dict) -> None:
    counts["solvers.seeds_tried"] += wire["stats"]["seeds_tried"]
    counts["solvers.states_expanded"] += wire["stats"]["states_expanded"]
    verdict = wire["verdict"]
    key = {"feasible": "solvers.verdict_feasible", "infeasible": "solvers.verdict_infeasible"}.get(verdict, "solvers.cap_hits")
    counts[key] += 1


def _pinned(wire: dict) -> dict:
    return {key: wire.get(key) for key in ("verdict", "seed", "witness")}


def check(op, result) -> tuple[list[str], Counter, object]:
    counts: Counter = Counter()
    if op.kind == "solve":
        wire = result.to_dict()
        _solver_counts(counts, wire)
        return _verdict_problems(op, wire["verdict"], wire), counts, _pinned(wire)
    if op.kind == "lemma":
        counts["verification.trials"] += result.trials
        counts["verification.skipped"] += result.skipped
        counts["verification.violations"] += len(result.violations)
        problems = []
        if result.trials != 1 or result.skipped:
            problems.append(f"{op.arg}: {result.trials} trials, {result.skipped} skipped")
        if result.violations:
            problems.append(f"{op.arg}: violation {result.violations[0]['witness']}")
        return problems, counts, [op.arg, result.trials, result.skipped, len(result.violations)]
    if op.kind == "clique":
        analysis, outcome = result
        rules = analysis.outcome.to_dict()
        wire = outcome.to_dict()
        _solver_counts(counts, wire)
        counts["cliques.seeds_tried"] += rules["stats"]["seeds_tried"]
        counts["cliques.rule_decided"] += any(r.action in RULE_DECIDED for r in analysis.reports)
        problems = _verdict_problems(op, rules["verdict"], rules) + _verdict_problems(op, wire["verdict"], wire)
        if rules["verdict"] != wire["verdict"]:
            counts["cliques.disagreements"] += 1
            problems.append(f"clique rules say {rules['verdict']}, generic solver says {wire['verdict']}")
        return problems, counts, [_pinned(rules), _pinned(wire)]
    if op.kind == "reduce":
        counts["reductions.agree" if result.agree else "reductions.disagree"] += 1
        problems = [] if result.agree else [f"{op.arg} gadget disagrees: {result.to_dict()}"]
        return problems, counts, [op.arg, result.left_feasible, result.right_feasible]
    if op.kind == "cli":
        return _check_cli(op, *result, counts)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_cli(op, solved: int, replayed, cert: str, trace: str, counts: Counter):
    cert_path, trace_path = Path(cert), Path(trace)
    try:
        return _cli_problems(op, solved, replayed, cert_path, trace_path, counts)
    finally:
        cert_path.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)


def _cli_problems(op, solved: int, replayed, cert_path: Path, trace_path: Path, counts: Counter):
    counts["cli.invocations"] += 1 if replayed is None else 2
    if solved == 2:
        return ["solve exited with code 2"], counts, None
    text = cert_path.read_text(encoding="utf-8")
    wire = json.loads(text)
    counts["serialize.emit_bytes"] += len(text)
    _solver_counts(counts, wire)
    problems = _verdict_problems(op, wire["verdict"], wire)
    if (solved == 0) != (wire["verdict"] == "feasible"):
        problems.append(f"solve exited {solved} with verdict {wire['verdict']!r}")
    if replayed is not None:
        lines = trace_path.read_text(encoding="utf-8")
        counts["serialize.emit_bytes"] += len(lines)
        counts["dynamics.replay_steps"] += lines.count("\n") - 2
        if replayed != 0:
            counts["dynamics.replay_failures"] += 1
            problems.append(f"simulate --replay exited {replayed}")
    return problems, counts, [_pinned(wire), replayed]


class Runner:
    """Runs and judges operations of one batch, counting failures."""

    def __init__(self, batch, pins, tracer):
        self.batch = batch
        self.pins = pins
        self.digests = ChunkDigests(len(batch))
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()

    def run(self, index: int, traced: bool = False) -> float:
        """Run operation ``index`` once and judge it; its seconds."""
        op = self.batch[index]
        tracer = self.tracer
        tracer.enabled, tracer.op = traced, index
        wrap = tracer.cli_calls() if traced and op.kind == "cli" else nullcontext()
        error = result = None
        with wrap:
            start = perf_counter()
            try:
                result = execute(op, tracer)
            except Exception:  # a crashing operation is a counted failure, not the end of the run
                error = traceback.format_exc(limit=4)
            elapsed = perf_counter() - start
        tracer.enabled = False
        self.attempted += 1
        problems, counts, payload = ([error], Counter(), None) if error else self._judge(op, result)
        if traced:
            self.counts += counts
        else:
            problems += self._pin_problems(index, payload)
        if problems:
            self.failed += 1
            if self.failed <= MAX_SHOWN_FAILURES:
                print(f"operation {index} ({op.kind}) failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def _judge(self, op, result):
        try:
            return check(op, result)
        except Exception:  # malformed output: the check itself is the failure report
            return [traceback.format_exc(limit=4)], Counter(), None

    def _pin_problems(self, index: int, payload) -> list[str]:
        """A pinned chunk that ends at ``index`` and differs counts as one
        failed operation."""
        digest = self.digests.feed(index, payload)
        chunk = index // PIN_CHUNK
        if digest is None or self.pins is None or chunk >= len(self.pins) or digest == self.pins[chunk]:
            return []
        return [f"outputs of operations {chunk * PIN_CHUNK}..{index} differ from their pinned digest"]
