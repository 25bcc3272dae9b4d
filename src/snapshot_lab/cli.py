"""Command-line interface: simulate / solve / enumerate / reduce / verify /
clique / bench over instance files.

Machine-readable outputs are canonical (sorted keys and id lists) so repeated
runs with identical flags produce byte-identical files; wall-clock timings
are only included behind --timings. Exit codes: 0 feasible/pass, 1
infeasible/fail/cap, 2 usage or input error. ``SNAPSHOT_LAB_LOG`` sets the
logging level; at INFO every command logs one line with its exit code, and
``solve`` adds its verdict and search counters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

from .cliques import clique_analysis
from .generator import GeneratorParams, instance_stream
from .model import DynamicsMode, InvalidInstanceError, SnapshotInstance
from .reductions import (
    GADGET_IDS,
    check_equivalence,
    embed_target_set,
    gadget_deactivation_robust,
    gadget_sequential_k1,
    target_set_from_dict,
)
from .serialize import (
    canonical_json,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance_file,
    seed_ids,
    trace_jsonl,
)
from .solvers import SearchCapExceeded, SearchLimits, solve
from .dynamics import apply_ordering, run_simultaneous
from .verification import (
    CHECK_IDS,
    CorpusError,
    check_certificate,
    check_lemma,
    feasible_snapshots,
    replay_corpus,
)

log = logging.getLogger("snapshot_lab")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_ids(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise InvalidInstanceError([f"expected comma-separated node ids, got {raw!r}"]) from None


def _mode_override(args) -> DynamicsMode | None:
    if args.order is None and args.monotone is None:
        return None
    if args.order is None or args.monotone is None:
        raise InvalidInstanceError(["--order and --monotone must be given together"])
    return DynamicsMode(order=args.order, monotone=args.monotone == "true")


def _limits(args) -> SearchLimits:
    return SearchLimits() if args.max_states is None else SearchLimits(max_states=args.max_states)


def instance_dot(instance: SnapshotInstance, seed: frozenset[int] = frozenset()) -> str:
    """DOT rendering with snapshot/seed coloring (output only, never parsed)."""
    lines = ["graph snapshot_instance {", "  node [style=filled];"]
    for v in range(instance.n):
        color = "white"
        if v in instance.snapshot:
            color = "lightblue"
        if v in seed:
            color = "orange" if v in instance.snapshot else "salmon"
        label = f"{instance.graph.labels[v]}\\nt={instance.thresholds[v]}"
        lines.append(f'  n{v} [label="{label}", fillcolor="{color}"];')
    for u, v in sorted(instance.graph.edges()):
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    instance = load_instance_file(args.instance, mode_override=_mode_override(args))
    if args.max_steps is not None and not instance.mode.simultaneous:
        raise InvalidInstanceError(["--max-steps applies only to simultaneous dynamics"])
    if args.replay and (args.seed is not None or args.ordering is not None):
        raise InvalidInstanceError(["--replay takes its seed and ordering from the certificate"])
    if args.ordering is not None and not instance.mode.sequential:
        raise InvalidInstanceError(["--ordering applies only to sequential dynamics"])
    if args.replay:
        document = json.loads(Path(args.replay).read_text(encoding="utf-8"))
        result, problems = check_certificate(instance, document, args.max_steps)
        seed = result.trace.seed
    else:
        if args.seed is None:
            raise InvalidInstanceError(["simulate needs --seed (or --replay CERT)"])
        seed = seed_ids(_parse_ids(args.seed), instance.n)
        if instance.mode.simultaneous:
            result = run_simultaneous(
                instance.graph, instance.thresholds, seed, instance.mode,
                target=instance.snapshot, max_steps=args.max_steps,
            )
        else:
            if args.ordering is None:
                raise InvalidInstanceError(["sequential simulate needs --ordering LIST"])
            result = apply_ordering(
                instance.graph, instance.thresholds, seed,
                _parse_ids(args.ordering), instance.mode, target=instance.snapshot,
            )
    if args.dot:
        Path(args.dot).write_text(instance_dot(instance, seed), encoding="utf-8")
    _emit(trace_jsonl(result), args.out)
    if not args.replay:
        return EXIT_OK if result.matched else EXIT_FAIL
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return EXIT_FAIL if problems else EXIT_OK


def _cmd_solve(args) -> int:
    instance = load_instance_file(args.instance, mode_override=_mode_override(args))
    outcome = solve(instance, _limits(args))
    payload = outcome.to_dict(include_timings=args.timings)
    args.log_fields.update(verdict=payload["verdict"], **payload["stats"])
    if args.dot:
        seed = frozenset(outcome.certificate.seed) if outcome.certificate else frozenset()
        Path(args.dot).write_text(instance_dot(instance, seed), encoding="utf-8")
    if args.format == "text":
        lines = [f"verdict: {payload['verdict']}"]
        if "seed" in payload:
            lines.append(f"seed: {payload['seed']}")
            lines.append(f"witness: {payload['witness']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(canonical_json(payload), args.out)
    return EXIT_OK if outcome.feasible else EXIT_FAIL


def _cmd_enumerate(args) -> int:
    instance = load_instance_file(args.instance, mode_override=_mode_override(args))
    budget = args.budget if args.budget is not None else instance.budget
    snapshots = feasible_snapshots(
        instance.graph, instance.thresholds, budget, instance.mode, _limits(args)
    )
    payload = {
        "budget": budget,
        "dynamics": {"order": instance.mode.order, "monotone": instance.mode.monotone},
        "count": len(snapshots),
        "snapshots": sorted(sorted(s) for s in snapshots),
    }
    _emit(canonical_json(payload), args.out)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    data = json.loads(Path(args.instance).read_text(encoding="utf-8"))
    if args.gadget == "dummy":
        source = instance_from_dict(data)
        reduced = gadget_deactivation_robust(source)
    else:
        source = target_set_from_dict(data)
        if args.gadget == "embed":
            mode = DynamicsMode(order=args.order or "simultaneous", monotone=True)
            reduced = embed_target_set(source, mode)
        else:
            reduced = gadget_sequential_k1(source)
    if args.out:
        _emit(canonical_json(instance_to_dict(reduced)), args.out)
    if args.check:
        mode = None
        if args.gadget == "embed":
            mode = DynamicsMode(order=args.order or "simultaneous", monotone=True)
        verdict = check_equivalence(args.gadget, source, _limits(args), mode=mode)
        sys.stdout.write(canonical_json(verdict.to_dict()))
        return EXIT_OK if verdict.agree else EXIT_FAIL
    if not args.out:
        _emit(canonical_json(instance_to_dict(reduced)), None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.corpus:
        report = replay_corpus()
        if args.format == "json":
            _emit(canonical_json(report.to_dict()), args.out)
        else:
            _emit(report.format_table() + "\n", args.out)
        return EXIT_OK if report.all_passed else EXIT_FAIL
    if not args.lemma:
        raise InvalidInstanceError(["verify needs --lemma ID or --corpus"])
    params = GeneratorParams(
        n_min=args.min_n,
        n_max=args.max_n,
        edge_prob=args.edge_prob,
        threshold_law=args.law,
        budget_min=args.budget_min,
        budget_max=args.budget_max,
        rng_seed=args.rng_seed,
    )
    verdict = check_lemma(args.lemma, instance_stream(params), args.trials, _limits(args))
    root = Path(args.violations_dir) / args.lemma
    grouped: dict[str, dict] = {}
    for violation in verdict.violations:
        digest = instance_digest(instance_from_dict(violation["instance"]))
        doc = grouped.setdefault(digest, dict(violation["instance"], witnesses=[]))
        doc["witnesses"].append(violation["witness"])
    paths = [root / f"{digest}.json" for digest in sorted(grouped)]
    payload = verdict.to_dict(include_timings=args.timings)
    payload["violation_files"] = list(map(str, paths))
    # the document goes out first, so a bad --out path leaves no violation file
    _emit(canonical_json(payload), args.out)
    if paths:
        root.mkdir(parents=True, exist_ok=True)
    for path in paths:
        path.write_text(canonical_json(grouped[path.stem]), encoding="utf-8")
    return EXIT_OK if verdict.ok else EXIT_FAIL


def _cmd_clique(args) -> int:
    instance = load_instance_file(args.instance, mode_override=_mode_override(args))
    analysis = clique_analysis(instance, strict_property2=args.strict_p2)
    outcome = analysis.outcome
    if args.format == "json":
        payload = outcome.to_dict(include_timings=args.timings)
        payload["rules"] = [r.to_dict() for r in analysis.reports]
        _emit(canonical_json(payload), args.out)
    else:
        lines = []
        for r in analysis.reports:
            line = f"{r.rule}: {r.action}"
            if r.nodes:
                line += f" {list(r.nodes)}"
            if args.explain:
                line += f"  -- {r.justification}"
            lines.append(line)
        lines.append(f"verdict: {outcome.verdict}")
        if outcome.certificate:
            lines.append(f"seed: {sorted(outcome.certificate.seed)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if outcome.feasible else EXIT_FAIL


def _cmd_bench(args) -> int:
    if not Path(args.dir).is_dir():
        raise InvalidInstanceError([f"bench --dir {args.dir!r} is not a directory"])
    rows = []
    for path in sorted(Path(args.dir).glob("*.json")):
        instance = load_instance_file(path)
        outcome = solve(instance, _limits(args))
        row = {
            "digest": instance_digest(instance),
            "mode": instance.mode.describe(),
            "n": instance.n,
            "k": instance.budget,
            "verdict": outcome.verdict,
            "states_expanded": outcome.stats.states_expanded,
        }
        if args.timings:
            row["wall_time"] = f"{outcome.stats.wall_time:.6f}"
        rows.append(row)
    buf = io.StringIO()
    fields = ["digest", "mode", "n", "k", "verdict", "states_expanded"]
    if args.timings:
        fields.append("wall_time")
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", choices=["simultaneous", "sequential"],
                   help="dynamics order override (only when the file omits dynamics)")
    p.add_argument("--monotone", choices=["true", "false"],
                   help="seed-commitment override (only when the file omits dynamics)")


def _add_simulate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", help="comma-separated node ids (empty string for the empty seed)")
    p.add_argument("--ordering", help="sequential selection order, comma-separated node ids")
    p.add_argument("--replay", help="certificate JSON produced by `solve`")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--out")
    p.add_argument("--dot", help="write a DOT rendering with snapshot/seed coloring")
    _add_mode_flags(p)


def _add_solve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--max-states", type=int)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    p.add_argument("--dot")
    _add_mode_flags(p)


def _add_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--max-states", type=int)
    p.add_argument("--out")
    _add_mode_flags(p)


def _add_reduce(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gadget", choices=list(GADGET_IDS), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--order", choices=["simultaneous", "sequential"],
                   help="target order dynamics for the identity embedding")
    p.add_argument("--check", action="store_true")
    p.add_argument("--max-states", type=int)
    p.add_argument("--out")


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lemma", choices=list(CHECK_IDS))
    p.add_argument("--corpus", action="store_true")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--min-n", type=int, default=3)
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--law", choices=["uniform0", "uniform1", "le2", "mixed"], default="mixed")
    p.add_argument("--budget-min", type=int, default=1)
    p.add_argument("--budget-max", type=int, default=2)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--violations-dir", default="violations")
    p.add_argument("--max-states", type=int)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")


def _add_clique(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--strict-p2", action="store_true",
                   help="apply the all-sizes reading of the low-threshold-outside rule (comparison only)")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")
    _add_mode_flags(p)


def _add_bench(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.add_argument("--max-states", type=int)
    p.add_argument("--timings", action="store_true")


# name -> (help, argument adder, handler), in the order the help lists them
COMMANDS = {
    "simulate": ("run dynamics from a given seed, or replay a certificate", _add_simulate, _cmd_simulate),
    "solve": ("decide snapshot feasibility and emit a certificate", _add_solve, _cmd_solve),
    "enumerate": ("list every feasible snapshot for a budget", _add_enumerate, _cmd_enumerate),
    "reduce": ("build a reduction gadget instance, optionally checking equivalence",
               _add_reduce, _cmd_reduce),
    "verify": ("run structural checks on random instances, or replay the corpus",
               _add_verify, _cmd_verify),
    "clique": ("apply the clique preprocessing rules and solve", _add_clique, _cmd_clique),
    "bench": ("solve every instance in a directory, emit CSV", _add_bench, _cmd_bench),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with a known ``command``, only that subcommand's.

    Building all seven subparsers costs about five times as much as building
    one, and more than a small solve, so ``main`` builds only the one it
    needs, afresh on each call. Its usage line still lists every command, so
    an "unrecognized arguments" error reads as the full parser's; the full
    parser keeps argparse's own metavar, which "invalid choice" and
    "required: command" errors print.
    """
    parser = argparse.ArgumentParser(
        prog="snapshot-lab",
        description="Feasibility of diffusion snapshots under threshold best-response dynamics.",
    )
    if command in COMMANDS:
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SNAPSHOT_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    args.log_fields = {}
    try:
        code = args.func(args)
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_FAIL
    log.info("%s exit %d%s", args.command, code,
             "".join(f" {key}={value}" for key, value in args.log_fields.items()))
    return code


if __name__ == "__main__":
    sys.exit(main())
