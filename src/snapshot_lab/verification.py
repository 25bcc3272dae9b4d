"""Exhaustive feasibility oracles, structural-property checks, the one
certificate checker, the bundled worked-example corpus, and the
seed-to-snapshot distance probe.

``check_certificate`` is the only replay of a certificate document:
``simulate --replay``, the corpus (for every feasible entry) and the tests
all call it. As a certifying algorithm's checker should, it answers from
the instance and the certificate alone (McConnell, Mehlhorn, Naher and
Schweitzer, *Certifying algorithms*, 2011): it takes no step cap, so no
caller can fail a valid certificate by capping its replay.

``replay_corpus`` reads the corpus manifest and every document it names
through ``serialize.read_document``, the one loader of every JSON file the
CLI reads, so every corpus file error names its file; an entry's
``overrides`` are applied, and the node ids its expectations name checked
against the instance, inside that read.

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
  unrestricted reachability of the exact snapshot coincides with
  reachability under the restricted move rule (on = S | u0, off = u0), in
  which only snapshot nodes activate and only the seed node may deactivate:
  an unrestricted enumeration from the seed node against the closure
  decider ``solvers._direct_path``, which caps once its closures visit
  ``max_states`` configurations. Restricted reach is a subset of
  unrestricted reach, so the decider runs only for snapshots the
  enumeration reached: elsewhere both answers are "no".

``clearing`` and ``neighbor`` are proved, by the clearing lemma in the
``solvers`` docstring on which ``solve`` decides every plain sequential seed
of at most one node; their checks stay as regression tests of the closure
decider against enumeration. ``serial`` and ``feasible_sim_2`` are one
containment check, bound to two pairs of modes.

The simultaneous analogue of ``neighbor`` is false (a seed can sit at
distance 2 from the snapshot it produces), which is why only the sequential
form is checked.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .cliques import clique_analysis
from .dynamics import RunResult, _node_table, apply_ordering, run_simultaneous
from .model import (
    SEQUENTIAL,
    SIMULTANEOUS,
    DynamicsMode,
    Graph,
    InvalidInstanceError,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    SimultaneousWitness,
    SnapshotInstance,
    _closed_neighborhood_mask,
    is_int,
    iter_bits,
    mask_of,
    nodes_of,
)
from .serialize import certificate_from_dict, instance_from_dict, instance_to_dict, read_document, seed_ids
from .solvers import (
    DEFAULT_LIMITS,
    SearchCapExceeded,
    SearchLimits,
    _reachable_mask_set,
    _direct_path,
    _seed_masks,
    seed_feasible,
    solve,
)

ORACLE_MAX_N = 14  # exhaustive feasible-set oracles are for desk-scale graphs


def _feasible_masks(
    graph: Graph,
    thresholds: Sequence[int],
    k: int,
    mode: DynamicsMode,
    limits: SearchLimits,
) -> set[int]:
    """The union of the seeds' reachable sets: as each next seed's ``known``
    set, it leaves that seed to store only what no earlier seed reached."""
    out: set[int] = set()
    table = _node_table(graph.adj_masks, thresholds)
    for seed_mask in _seed_masks(range(graph.n), 0, k):
        out |= _reachable_mask_set(table, seed_mask, mode, limits, out)
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
    if not is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
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
        """True only when every trial was checked and none found a violation:
        a skipped (capped) trial proves nothing."""
        return not self.violations and not self.skipped

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


def _check_contained(
    wider: DynamicsMode, narrower: DynamicsMode, instance: SnapshotInstance, limits: SearchLimits
) -> list[dict]:
    """The snapshots feasible under ``wider`` and not under ``narrower``."""
    g, t, k = instance.graph, instance.thresholds, instance.budget
    outside = _feasible_masks(g, t, k, wider, limits) - _feasible_masks(g, t, k, narrower, limits)
    return [{"snapshot": sorted(nodes_of(m)), "budget": k} for m in sorted(outside)]


def _check_serial2(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g, t, k = instance.graph, instance.thresholds, instance.budget
    full = g.full_mask()
    in_seq = full in _feasible_masks(g, t, k, MONOTONE_SEQUENTIAL, limits)
    in_sim = full in _feasible_masks(g, t, k, MONOTONE_SIMULTANEOUS, limits)
    if in_seq != in_sim:
        return [{"budget": k, "monotone_sequential": in_seq, "monotone_simultaneous": in_sim}]
    return []


def _check_neighbor(instance: SnapshotInstance, limits: SearchLimits) -> list[dict]:
    g = instance.graph
    table = _node_table(g.adj_masks, instance.thresholds)
    reach_empty = _reachable_mask_set(table, 0, PLAIN_SEQUENTIAL, limits)
    # a snapshot the empty seed reaches passes, so the singletons skip those
    reach = [
        _reachable_mask_set(table, 1 << u, PLAIN_SEQUENTIAL, limits, reach_empty)
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
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    violations = []
    for u0 in range(instance.n):
        u0_bit = 1 << u0
        # restricted reach is a subset of unrestricted reach (see the module
        # docstring), so only a reached snapshot can tell them apart
        for s_mask in sorted(_reachable_mask_set(table, u0_bit, PLAIN_SEQUENTIAL, limits)):
            if _direct_path(table, s_mask, u0_bit, u0_bit & ~s_mask, limits.max_states)[0] is None:
                violations.append(
                    {
                        "snapshot": sorted(nodes_of(s_mask)),
                        "u0": u0,
                        "unrestricted": True,
                        "restricted": False,
                    }
                )
    return violations


_CHECKS = {
    "serial": partial(_check_contained, MONOTONE_SIMULTANEOUS, MONOTONE_SEQUENTIAL),
    "serial2": _check_serial2,
    "feasible_sim_2": partial(_check_contained, MONOTONE_SEQUENTIAL, PLAIN_SEQUENTIAL),
    "neighbor": _check_neighbor,
    "clearing": _check_clearing,
}
CHECK_IDS = tuple(_CHECKS)


def check_lemma(
    lemma: str,
    instances: Iterable[SnapshotInstance],
    trials: int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> LemmaVerdict:
    """Run one structural check over ``trials`` instances from the stream.

    Cap hits skip the trial and are counted, and a verdict with a skipped
    trial is not ``ok``; violations carry the replayable instance document
    plus a witness of the failed quantifier.
    """
    if lemma not in _CHECKS:
        raise ValueError(f"unknown check {lemma!r}; expected one of {CHECK_IDS}")
    if not is_int(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
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


def check_certificate(instance: SnapshotInstance, document) -> tuple[RunResult, list[str]]:
    """Replay a certificate document on the instance: the run its witness
    replays, and every way the certificate fails to prove the snapshot
    feasible (empty when it proves it).

    The document is read by ``serialize.certificate_from_dict``, which
    raises on a malformed one. The seed must fit the budget, and the replay
    must first match the snapshot at the certified time (simultaneous, run
    to its first match or repeat) or prefix (sequential). Every recorded
    move must change its node's state, in the recorded direction. A witness
    of the other order than the instance's raises ``InvalidInstanceError``
    before any replay. The answer depends on the instance and the document
    alone: no caller's cap can fail a valid certificate.
    """
    cert = certificate_from_dict(document, instance.n)
    witness = cert.witness
    kind = SIMULTANEOUS if isinstance(witness, SimultaneousWitness) else SEQUENTIAL
    if kind != instance.mode.order:
        raise InvalidInstanceError(
            [f"witness type {kind!r} does not fit {instance.mode.order} dynamics"]
        )
    problems = []
    if len(cert.seed) > instance.budget:
        problems.append(
            f"certificate seed of size {len(cert.seed)} is over budget {instance.budget}"
        )
    if isinstance(witness, SimultaneousWitness):
        result = run_simultaneous(
            instance.graph, instance.thresholds, cert.seed, instance.mode,
            target=instance.snapshot,
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
    snapshot at all. Raises ``InvalidInstanceError`` on a node id outside
    the graph."""
    if aggregate not in ("max", "min"):
        raise ValueError("aggregate must be 'max' or 'min'")
    seed_set = sorted(seed_ids(list(seed), graph.n))
    sources = sorted(seed_ids(list(snapshot), graph.n, "snapshot"))
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


def _is_ids(value) -> bool:
    return isinstance(value, list) and all(map(is_int, value))


def _is_id_lists(value) -> bool:
    return isinstance(value, list) and all(map(_is_ids, value))


def _is_distance(value) -> bool:
    return isinstance(value, dict) and _is_ids(value.get("seed")) and type(value.get("value")) in (int, float)


# the optional 'expect' keys of a corpus entry: the shape each needs, and its check
_EXPECT_SHAPES = {
    "seed": ("a list of node ids", _is_ids),
    "match_time": ("an int", is_int),
    "accepted_seeds": ("a list of node id lists", _is_id_lists),
    "rejected_seeds": ("a list of node id lists", _is_id_lists),
    "seed_distance": ("an object with a 'seed' id list and a numeric 'value'", _is_distance),
    "clique_agrees": ("a bool", lambda value: isinstance(value, bool)),
}


def _manifest_entries(manifest) -> list:
    """The entries of ``expectations.json``: each needs a 'name', a 'file'
    and an 'expect' object with a 'verdict', and each optional key its
    shape (``_EXPECT_SHAPES``, and a 'note' is a string). Every malformed
    entry is listed at once."""
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise InvalidInstanceError(["manifest must be an object with a non-empty 'entries' list"])
    violations = []
    for i, entry in enumerate(entries):
        entry = entry if isinstance(entry, dict) else {}
        expect = entry.get("expect")
        needs = {
            "a 'name'": isinstance(entry.get("name"), str),
            "a 'file' name": isinstance(entry.get("file"), str),
            "an 'expect' object with a 'verdict'": isinstance(expect, dict) and "verdict" in expect,
            "its 'overrides', if any, as an object": isinstance(entry.get("overrides", {}), dict),
            "its 'note', if any, as a string": isinstance(entry.get("note", ""), str),
        }
        if isinstance(expect, dict):
            needs.update(
                (f"its 'expect.{key}', if any, as {shape}", key not in expect or ok(expect[key]))
                for key, (shape, ok) in _EXPECT_SHAPES.items()
            )
        violations += [f"entry {i} needs {what}" for what, ok in needs.items() if not ok]
    if violations:
        raise InvalidInstanceError(violations)
    return entries


def _expected_ids(expect: dict) -> Iterator[tuple[str, list]]:
    """Each node id list an entry's expectations name, with its key."""
    if "seed" in expect:
        yield "seed", expect["seed"]
    for key in ("accepted_seeds", "rejected_seeds"):
        for ids in expect.get(key, []):
            yield key, ids
    if "seed_distance" in expect:
        yield "seed_distance.seed", expect["seed_distance"]["seed"]


def _entry_instance(document, entry: dict) -> SnapshotInstance:
    """A corpus document with its entry's overrides applied. A node id of
    the entry's expectations outside the instance is rejected here, so the
    error names the document's file."""
    overrides = entry.get("overrides", {})
    instance = instance_from_dict(dict(document, **overrides) if isinstance(document, dict) else document)
    n, violations = instance.n, []
    for key, ids in _expected_ids(entry["expect"]):
        outside = [v for v in ids if not 0 <= v < n]
        if outside:
            violations.append(f"entry {entry['name']!r}: expect.{key} ids {outside} outside 0..{n - 1}")
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def _run_corpus_entry(entry: dict, instance: SnapshotInstance) -> CorpusRow:
    expect = entry["expect"]
    diffs: list[str] = []
    outcome = solve(instance)
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
        if seed_feasible(instance, seed) is None:
            diffs.append(f"seed {seed} expected to produce the snapshot, does not")
    for seed in expect.get("rejected_seeds", []):
        if seed_feasible(instance, seed) is not None:
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
        clique_verdict = clique_analysis(instance).outcome.verdict
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


def replay_corpus(corpus_dir=None) -> CorpusReport:
    """Run every worked example of the corpus (the bundled one by default)
    and compare against its expected verdicts. Any mismatch fails the entry
    with a diff of expected vs computed. The manifest and every document
    are read by ``serialize.read_document``, so a file that is missing
    raises ``FileNotFoundError`` and every other file error names its
    file."""
    root = Path(__file__).with_name("corpus") if corpus_dir is None else Path(corpus_dir)
    rows = []
    for entry in read_document(root / "expectations.json", _manifest_entries):
        instance = read_document(root / entry["file"], _entry_instance, entry)
        rows.append(_run_corpus_entry(entry, instance))
    return CorpusReport(tuple(rows))
