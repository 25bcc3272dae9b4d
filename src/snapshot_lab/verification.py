"""Exhaustive feasibility oracles, structural-property checks, the one
certificate checker, the bundled worked-example corpus, and the
seed-to-snapshot distance probe.

``check_certificate`` is the only replay of a certificate document:
``simulate --replay``, the corpus (for every feasible entry) and the tests
all call it.

Each structural check compares solver-level verdicts computed by independent
routes (full search on one side, a pruned or restricted search on the other).
Zero violations is the expected outcome for every check; any violation is a
release-blocking bug in either a solver or the engine, and is recorded with a
replayable instance.

Check ids:

* ``serial``: snapshots feasible under monotone simultaneous dynamics stay
  feasible under monotone sequential dynamics.
* ``serial2``: the full vertex set is feasible under monotone sequential
  dynamics iff it is feasible under monotone simultaneous dynamics.
* ``feasible_sim_2``: snapshots feasible under monotone sequential dynamics
  stay feasible when deactivations are allowed.
* ``neighbor``: budget 1, non-monotone sequential: every feasible snapshot
  has a seed among the closed-neighborhood singletons or the empty seed.
* ``clearing``: budget 1, non-monotone sequential: per (snapshot, seed node),
  unrestricted reachability of the exact snapshot coincides with the
  restricted search in which only snapshot nodes activate and only the seed
  node may deactivate.

The simultaneous analogue of ``neighbor`` is false (a seed can sit at
distance 2 from the snapshot it produces), which is why only the sequential
form is checked.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from typing import Iterable, Optional, Sequence

from .cliques import clique_analysis
from .dynamics import RunResult, _node_table, apply_ordering, run_simultaneous
from .model import (
    DynamicsMode,
    Graph,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    SimultaneousWitness,
    SnapshotInstance,
    _closed_neighborhood_mask,
    iter_bits,
    mask_of,
    nodes_of,
)
from .serialize import certificate_from_dict, instance_from_dict, instance_to_dict
from .solvers import (
    DEFAULT_LIMITS,
    SearchCapExceeded,
    SearchLimits,
    _bfs,
    _reachable_mask_set,
    canonical_seed_sets,
    seed_feasible,
    solve,
)

CHECK_IDS = ("serial", "serial2", "feasible_sim_2", "neighbor", "clearing")

ORACLE_MAX_N = 14  # exhaustive feasible-set oracles are for desk-scale graphs


def _feasible_masks(
    graph: Graph,
    thresholds: Sequence[int],
    k: int,
    mode: DynamicsMode,
    limits: SearchLimits,
) -> set[int]:
    out: set[int] = set()
    table = _node_table(graph.adj_masks, thresholds)
    responses: dict[int, int] = {}
    for seed in canonical_seed_sets(range(graph.n), k):
        out |= _reachable_mask_set(table, mask_of(seed), mode, limits, responses)
    return out


def feasible_snapshots(
    graph: Graph,
    thresholds: Sequence[int],
    k: int,
    mode: DynamicsMode,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> set[frozenset[int]]:
    """The complete set of valid snapshots for budget k under the mode: the
    union over all seeds of size 0..k of the configurations their runs can
    visit."""
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    if graph.n > ORACLE_MAX_N:
        raise ValueError(f"feasible_snapshots is an exhaustive oracle; n={graph.n} is too large")
    return {nodes_of(m) for m in _feasible_masks(graph, thresholds, k, mode, limits)}


@dataclass
class LemmaVerdict:
    """Aggregate of one structural check over an instance stream."""

    lemma: str
    trials: int = 0
    violations: list = field(default_factory=list)
    skipped: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "lemma": self.lemma,
            "trials": self.trials,
            "skipped": self.skipped,
            "violations": self.violations,
            "ok": self.ok,
        }
        if include_timings:
            out["elapsed"] = self.elapsed
        return out


def _check_serial(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g, t, k = instance.graph, instance.thresholds, instance.budget
    mono_sim = _feasible_masks(g, t, k, MONOTONE_SIMULTANEOUS, limits)
    mono_seq = _feasible_masks(g, t, k, MONOTONE_SEQUENTIAL, limits)
    return [
        {"snapshot": sorted(nodes_of(m)), "budget": k}
        for m in sorted(mono_sim - mono_seq)
    ]


def _check_serial2(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g, t, k = instance.graph, instance.thresholds, instance.budget
    full = g.full_mask()
    in_seq = full in _feasible_masks(g, t, k, MONOTONE_SEQUENTIAL, limits)
    in_sim = full in _feasible_masks(g, t, k, MONOTONE_SIMULTANEOUS, limits)
    if in_seq != in_sim:
        return [{"budget": k, "monotone_sequential": in_seq, "monotone_simultaneous": in_sim}]
    return []


def _check_feasible_sim_2(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g, t, k = instance.graph, instance.thresholds, instance.budget
    mono_seq = _feasible_masks(g, t, k, MONOTONE_SEQUENTIAL, limits)
    plain_seq = _feasible_masks(g, t, k, PLAIN_SEQUENTIAL, limits)
    return [
        {"snapshot": sorted(nodes_of(m)), "budget": k}
        for m in sorted(mono_seq - plain_seq)
    ]


def _check_neighbor(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g = instance.graph
    table = _node_table(g.adj_masks, instance.thresholds)
    responses: dict[int, int] = {}
    reach_empty = _reachable_mask_set(table, 0, PLAIN_SEQUENTIAL, limits, responses)
    reach = [
        _reachable_mask_set(table, 1 << u, PLAIN_SEQUENTIAL, limits, responses)
        for u in range(g.n)
    ]
    feasible = set(reach_empty)
    for r in reach:
        feasible |= r
    violations = []
    for s_mask in sorted(feasible):
        if s_mask in reach_empty:
            continue
        if any(s_mask in reach[u] for u in iter_bits(_closed_neighborhood_mask(g, s_mask))):
            continue
        violations.append({"snapshot": sorted(nodes_of(s_mask)), "budget": 1})
    return violations


def _check_clearing(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    n = instance.n
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    violations = []
    responses: dict[int, int] = {}
    for u0 in range(n):
        u0_bit = 1 << u0
        reach_full = _reachable_mask_set(table, u0_bit, PLAIN_SEQUENTIAL, limits, responses)
        for s_mask in range(1 << n):
            restricted = s_mask in _bfs(
                table, u0_bit, s_mask, s_mask | u0_bit, u0_bit, limits.max_states, responses
            )
            full = s_mask in reach_full
            if restricted != full:
                violations.append(
                    {
                        "snapshot": sorted(nodes_of(s_mask)),
                        "u0": u0,
                        "unrestricted": full,
                        "restricted": restricted,
                    }
                )
    return violations


_CHECKS = {
    "serial": _check_serial,
    "serial2": _check_serial2,
    "feasible_sim_2": _check_feasible_sim_2,
    "neighbor": _check_neighbor,
    "clearing": _check_clearing,
}


def check_lemma(
    lemma: str,
    instances: Iterable[SnapshotInstance],
    trials: int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> LemmaVerdict:
    """Run one structural check over ``trials`` instances from the stream.

    Cap hits skip the trial and are counted; violations carry the replayable
    instance document plus a witness of the failed quantifier.
    """
    if lemma not in _CHECKS:
        raise ValueError(f"unknown check {lemma!r}; expected one of {CHECK_IDS}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    check = _CHECKS[lemma]
    verdict = LemmaVerdict(lemma=lemma)
    start = time.perf_counter()
    for instance in islice(instances, trials):
        if instance.graph.n > ORACLE_MAX_N:
            raise ValueError(f"instance with n={instance.graph.n} is outside oracle range")
        verdict.trials += 1
        try:
            found = check(instance, limits)
        except SearchCapExceeded:
            verdict.skipped += 1
            continue
        for witness in found:
            verdict.violations.append(
                {"instance": instance_to_dict(instance), "witness": witness}
            )
    verdict.elapsed = time.perf_counter() - start
    return verdict


def check_certificate(
    instance: SnapshotInstance, document, max_steps: Optional[int] = None
) -> tuple[RunResult, list[str]]:
    """Replay a certificate document on the instance: the run its witness
    replays, and every way the certificate fails to prove the snapshot
    feasible (empty when it proves it).

    The document is read by ``serialize.certificate_from_dict``, which
    raises on a malformed one. The seed must fit the budget, and the replay
    must first match the snapshot at the certified time (simultaneous, run
    with at most ``max_steps`` sweeps) or prefix (sequential). Every recorded
    move must change its node's state, in the recorded direction. A witness
    of the other order than the instance's raises ValueError, as the engine
    does.
    """
    cert = certificate_from_dict(document, instance.n)
    witness = cert.witness
    problems = []
    if len(cert.seed) > instance.budget:
        problems.append(
            f"certificate seed of size {len(cert.seed)} is over budget {instance.budget}"
        )
    if isinstance(witness, SimultaneousWitness):
        result = run_simultaneous(
            instance.graph, instance.thresholds, cert.seed, instance.mode,
            target=instance.snapshot, max_steps=max_steps,
        )
        if result.trace.match_time != witness.match_time:
            problems.append("replay does not first match the snapshot at the certified time")
        return result, problems
    result = apply_ordering(
        instance.graph, instance.thresholds, cert.seed,
        [m.node for m in witness.ordering], instance.mode, target=instance.snapshot,
    )
    if result.trace.match_time != witness.match_prefix:
        problems.append("replay does not first match the snapshot at the certified prefix")
    before = cert.seed
    for move, step in zip(witness.ordering, result.trace.steps):
        if move != step.move:
            problems.append(
                f"step {step.time} records {move.to_wire()}, replay gives {step.move.to_wire()}"
            )
            break
        if move.activate == (move.node in before):
            problems.append(f"step {step.time} records {move.to_wire()}, which changes nothing")
            break
        before = step.active
    return result, problems


def seed_distance(
    graph: Graph,
    seed: Iterable[int],
    snapshot: Iterable[int],
    aggregate: str = "max",
) -> float:
    """Aggregate over seed nodes of the shortest-path distance to the nearest
    snapshot node: 0 for an empty seed or a seed inside the snapshot,
    infinity when some (max) or every (min) seed node cannot reach the
    snapshot at all."""
    if aggregate not in ("max", "min"):
        raise ValueError("aggregate must be 'max' or 'min'")
    seed_set = sorted(set(seed))
    sources = sorted(set(snapshot))
    if not seed_set:
        return 0
    if not sources:
        return math.inf
    # breadth-first by levels of masks: ``frontier`` holds the nodes at
    # distance ``d`` from the snapshot
    dist: dict[int, int] = {}
    seen = frontier = mask_of(sources)
    d = 0
    while frontier:
        reached = 0
        for u in iter_bits(frontier):
            dist[u] = d
            reached |= graph.adj_masks[u]
        frontier = reached & ~seen
        seen |= frontier
        d += 1
    per_seed = [dist.get(v, math.inf) for v in seed_set]
    return max(per_seed) if aggregate == "max" else min(per_seed)


class CorpusError(RuntimeError):
    """The bundled worked-example corpus is missing or unreadable."""


@dataclass(frozen=True)
class CorpusRow:
    name: str
    passed: bool
    details: str
    note: str = ""


@dataclass(frozen=True)
class CorpusReport:
    rows: tuple[CorpusRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "entries": [
                {"name": r.name, "passed": r.passed, "details": r.details, "note": r.note}
                for r in self.rows
            ],
        }

    def format_table(self) -> str:
        width = max((len(r.name) for r in self.rows), default=4)
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            line = f"{r.name:<{width}}  {status}  {r.details}"
            if r.note:
                line += f"  [{r.note}]"
            lines.append(line)
        lines.append(f"{self.rows and sum(r.passed for r in self.rows) or 0}/{len(self.rows)} entries passed")
        return "\n".join(lines)


def _load_corpus_dir(corpus_dir) -> dict:
    """Read expectations.json and the instance documents it references."""
    if corpus_dir is None:
        root = resources.files("snapshot_lab").joinpath("corpus")
    else:
        from pathlib import Path

        root = Path(corpus_dir)
    try:
        manifest = json.loads(root.joinpath("expectations.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, OSError) as exc:
        raise CorpusError(f"corpus missing: {exc}") from None
    entries = manifest.get("entries", [])
    if not entries:
        raise CorpusError("corpus missing: no entries in expectations.json")
    documents = {}
    for entry in entries:
        fname = entry["file"]
        if fname not in documents:
            try:
                documents[fname] = json.loads(root.joinpath(fname).read_text(encoding="utf-8"))
            except (FileNotFoundError, OSError) as exc:
                raise CorpusError(f"corpus missing: {exc}") from None
    return {"entries": entries, "documents": documents}


def corpus_entry_instance(entry: dict, documents: dict) -> SnapshotInstance:
    doc = dict(documents[entry["file"]])
    doc.update(entry.get("overrides", {}))
    return instance_from_dict(doc)


def _run_corpus_entry(entry: dict, documents: dict, limits: SearchLimits) -> CorpusRow:
    instance = corpus_entry_instance(entry, documents)
    expect = entry["expect"]
    diffs: list[str] = []
    outcome = solve(instance, limits)
    if outcome.verdict != expect["verdict"]:
        diffs.append(f"verdict: expected {expect['verdict']}, computed {outcome.verdict}")
    if "seed" in expect:
        computed = sorted(outcome.certificate.seed) if outcome.certificate else None
        if computed != expect["seed"]:
            diffs.append(f"seed: expected {expect['seed']}, computed {computed}")
    if "match_time" in expect:
        witness = outcome.certificate.witness if outcome.certificate else None
        computed_mt = getattr(witness, "match_time", None)
        if computed_mt != expect["match_time"]:
            diffs.append(f"match_time: expected {expect['match_time']}, computed {computed_mt}")
    for seed in expect.get("accepted_seeds", []):
        if seed_feasible(instance, seed, limits) is None:
            diffs.append(f"seed {seed} expected to produce the snapshot, does not")
    for seed in expect.get("rejected_seeds", []):
        if seed_feasible(instance, seed, limits) is not None:
            diffs.append(f"seed {seed} expected to fail, produces the snapshot")
    if "seed_distance" in expect:
        spec = expect["seed_distance"]
        computed_d = seed_distance(instance.graph, spec["seed"], instance.snapshot)
        if computed_d != spec["value"]:
            diffs.append(f"seed_distance: expected {spec['value']}, computed {computed_d}")
    if outcome.feasible:
        _, problems = check_certificate(instance, outcome.to_dict())
        diffs.extend(f"certificate: {problem}" for problem in problems)
    if expect.get("clique_agrees"):
        clique_verdict = clique_analysis(instance, limits).outcome.verdict
        if clique_verdict != outcome.verdict:
            diffs.append(
                f"clique solver verdict {clique_verdict} != generic verdict {outcome.verdict}"
            )
    details = "; ".join(diffs) if diffs else f"verdict {outcome.verdict}"
    return CorpusRow(
        name=entry["name"],
        passed=not diffs,
        details=details,
        note=entry.get("note", ""),
    )


def replay_corpus(
    corpus_dir=None, limits: SearchLimits = DEFAULT_LIMITS
) -> CorpusReport:
    """Run every bundled worked example and compare against its expected
    verdicts. Any mismatch fails the entry with a diff of expected vs
    computed."""
    loaded = _load_corpus_dir(corpus_dir)
    rows = [
        _run_corpus_entry(entry, loaded["documents"], limits)
        for entry in loaded["entries"]
    ]
    return CorpusReport(tuple(rows))
