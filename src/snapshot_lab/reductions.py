"""Constructive reductions from seed-the-whole-graph instances to snapshot
feasibility, with differential checking against exhaustive oracles.

Three builders:

* ``embed_target_set``: the identity embedding S=V(G) for either monotone
  mode (activating everything exactly is the same question as activating
  everything).
* ``gadget_deactivation_robust``: per-node dummy fans with threshold 1 that
  re-feed a node after a one-round deactivation, mapping a monotone
  simultaneous instance to non-monotone simultaneous dynamics. The forward
  direction of this construction does not survive the exact-match semantics
  (the dummies themselves over-activate one step behind their anchors), so
  the checker reports empirical verdicts instead of asserting agreement; the
  two-node edge instance is the canonical disagreement witness.
* ``gadget_sequential_k1``: relay fans plus a budget-counting hub that map a
  budget-k whole-graph instance to a budget-1 non-monotone sequential
  snapshot instance.

``check_equivalence`` computes both sides with exhaustive oracles and, on
disagreement, greedily shrinks the source instance by single-node deletion
(a debugging aid, with no minimality guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .dynamics import _node_table
from .model import (
    DynamicsMode,
    Graph,
    InvalidInstanceError,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SnapshotInstance,
    induced_subgraph,
    mask_of,
    validate_instance,
    value_violations,
)
from .serialize import document_digest, edge_pairs, instance_to_dict, label_list
from .solvers import (
    DEFAULT_LIMITS,
    VERDICT_CAP,
    SearchCapExceeded,
    SearchLimits,
    SolveOutcome,
    _closure,
    canonical_seed_sets,
    solve,
    solve_sequential_k1,
)


@dataclass(frozen=True)
class TargetSetInstance:
    """Seed-the-whole-graph question: is there a seed of size <= budget whose
    monotone closure is all of V?"""

    graph: Graph
    thresholds: tuple[int, ...]
    budget: int


def target_set_to_dict(ts: TargetSetInstance) -> dict:
    return {
        "labels": list(ts.graph.labels),
        "edges": [list(e) for e in sorted(ts.graph.edges())],
        "thresholds": list(ts.thresholds),
        "budget": ts.budget,
    }


def target_set_from_dict(data: dict) -> TargetSetInstance:
    if not isinstance(data, dict):
        raise InvalidInstanceError(["target-set document must be a JSON object"])
    missing = [key for key in ("labels", "edges", "thresholds", "budget") if key not in data]
    if missing:
        raise InvalidInstanceError([f"missing field {key!r}" for key in missing])
    labels, budget = label_list(data["labels"]), data["budget"]
    edges = edge_pairs(data["edges"])
    try:
        thresholds = tuple(data["thresholds"])
    except TypeError:
        raise InvalidInstanceError(["'thresholds' must be a list"]) from None
    graph, violations = None, []
    try:
        graph = Graph.from_edges(len(labels), edges, labels)
    except InvalidInstanceError as exc:
        violations = list(exc.violations)
    violations += value_violations(len(labels), thresholds, (), budget)
    if violations:
        raise InvalidInstanceError(violations)
    return TargetSetInstance(graph, thresholds, budget)


def has_target_set(ts: TargetSetInstance) -> bool:
    """Exhaustive oracle: some seed of size <= budget closes over all of V."""
    full = ts.graph.full_mask()
    table = _node_table(ts.graph.adj_masks, ts.thresholds)
    for seed in canonical_seed_sets(range(ts.graph.n), ts.budget):
        if _closure(table, mask_of(seed), full)[0] == full:
            return True
    return False


def embed_target_set(ts: TargetSetInstance, mode: DynamicsMode) -> SnapshotInstance:
    """S=V(G) embedding; graph, thresholds and budget carry over unchanged."""
    if not mode.monotone:
        raise ValueError("the identity embedding is meaningful for monotone modes only")
    return validate_instance(
        graph=ts.graph,
        thresholds=ts.thresholds,
        snapshot=frozenset(range(ts.graph.n)),
        budget=ts.budget,
        mode=mode,
    )


def gadget_deactivation_robust(inst: SnapshotInstance) -> SnapshotInstance:
    """Attach to every node v: thresholds[v] dummies adjacent only to v, plus
    one extra dummy adjacent to v and to those dummies; all new thresholds 1.
    Snapshot and budget are unchanged; the output runs non-monotone
    simultaneous dynamics. Labels are namespaced d:<v>:<i> / e:<v> so outputs
    are diffable."""
    if not (inst.mode.simultaneous and inst.mode.monotone):
        raise ValueError("source instance must use monotone simultaneous dynamics")
    n = inst.graph.n
    labels = list(inst.graph.labels)
    edges = list(inst.graph.edges())
    thresholds = list(inst.thresholds)
    next_id = n
    for v in range(n):
        plain = []
        for i in range(inst.thresholds[v]):
            labels.append(f"d:{inst.graph.labels[v]}:{i}")
            thresholds.append(1)
            edges.append((v, next_id))
            plain.append(next_id)
            next_id += 1
        labels.append(f"e:{inst.graph.labels[v]}")
        thresholds.append(1)
        edges.append((v, next_id))
        edges.extend((d, next_id) for d in plain)
        next_id += 1
    return validate_instance(
        graph=Graph.from_edges(next_id, edges, labels),
        thresholds=thresholds,
        snapshot=inst.snapshot,
        budget=inst.budget,
        mode=PLAIN_SIMULTANEOUS,
    )


def gadget_sequential_k1(ts: TargetSetInstance) -> SnapshotInstance:
    """Map a budget-k whole-graph instance to a budget-1 non-monotone
    sequential snapshot instance.

    Every original node u_i gets thresholds[i] relay nodes v:<u_i>:<j>
    adjacent to u_i, one collector u':<u_i> adjacent to those relays, and a
    hub v0 with threshold budget+1 adjacent to every collector; all other new
    thresholds are 1. The snapshot is everything except the hub.
    """
    for v, t in enumerate(ts.thresholds):
        if t == 0:
            raise ValueError(f"t_i = 0 unsupported by gadget: node {v}")
    n = ts.graph.n
    labels = list(ts.graph.labels)
    edges = list(ts.graph.edges())
    thresholds = list(ts.thresholds)
    next_id = n
    collectors = []
    for i in range(n):
        relays = []
        for j in range(ts.thresholds[i]):
            labels.append(f"v:{ts.graph.labels[i]}:{j}")
            thresholds.append(1)
            edges.append((i, next_id))
            relays.append(next_id)
            next_id += 1
        labels.append(f"u':{ts.graph.labels[i]}")
        thresholds.append(1)
        edges.extend((r, next_id) for r in relays)
        collectors.append(next_id)
        next_id += 1
    labels.append("v0")
    thresholds.append(ts.budget + 1)
    hub = next_id
    edges.extend((c, hub) for c in collectors)
    next_id += 1
    return validate_instance(
        graph=Graph.from_edges(next_id, edges, labels),
        thresholds=thresholds,
        snapshot=frozenset(range(next_id)) - {hub},
        budget=1,
        mode=PLAIN_SEQUENTIAL,
    )


GADGET_IDS = ("embed", "dummy", "seqk1")

Source = Union[TargetSetInstance, SnapshotInstance]


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Differential-check record: the source-side and reduced-side verdicts,
    whether they agree, and a shrunken counterexample when they do not."""

    gadget: str
    instance_digest: str
    left_feasible: bool
    right_feasible: bool
    agree: bool
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "gadget": self.gadget,
            "instance_digest": self.instance_digest,
            "left": "feasible" if self.left_feasible else "infeasible",
            "right": "feasible" if self.right_feasible else "infeasible",
            "agree": self.agree,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _source_to_dict(source: Source) -> dict:
    if isinstance(source, TargetSetInstance):
        return target_set_to_dict(source)
    return instance_to_dict(source)


def _delete_node(source: Source, v: int) -> Source:
    """Drop node v, its incident edges and threshold; reindex densely."""
    kept = [u for u in range(source.graph.n) if u != v]
    graph, thresholds, ids = induced_subgraph(source.graph, source.thresholds, kept)
    if isinstance(source, TargetSetInstance):
        return replace(source, graph=graph, thresholds=thresholds)
    snapshot = frozenset(ids.sub(u) for u in source.snapshot if u != v)
    return replace(source, graph=graph, thresholds=thresholds, snapshot=snapshot)


def _feasible(outcome: SolveOutcome) -> bool:
    """The verdict as a bool; a capped search raises instead of reading as
    infeasible."""
    if outcome.verdict == VERDICT_CAP:
        raise SearchCapExceeded("a search hit a resource cap before deciding its side")
    return outcome.feasible


def _sides(gadget: str, source: Source, limits: SearchLimits, mode: Optional[DynamicsMode]):
    if gadget == "embed":
        assert isinstance(source, TargetSetInstance)
        embedded = embed_target_set(source, mode or MONOTONE_SIMULTANEOUS)
        return has_target_set(source), _feasible(solve(embedded, limits))
    if gadget == "seqk1":
        assert isinstance(source, TargetSetInstance)
        reduced = gadget_sequential_k1(source)
        return has_target_set(source), _feasible(solve_sequential_k1(reduced, limits))
    if gadget == "dummy":
        assert isinstance(source, SnapshotInstance)
        reduced = gadget_deactivation_robust(source)
        return _feasible(solve(source, limits)), _feasible(solve(reduced, limits))
    raise ValueError(f"unknown gadget {gadget!r}; expected one of {GADGET_IDS}")


def check_equivalence(
    gadget: str,
    source: Source,
    limits: SearchLimits = DEFAULT_LIMITS,
    mode: Optional[DynamicsMode] = None,
) -> EquivalenceVerdict:
    """Compute source-side and reduced-side verdicts with exhaustive solvers;
    on disagreement, shrink the source greedily by node deletion for the
    record. Caps inside the solvers raise SearchCapExceeded."""
    left, right = _sides(gadget, source, limits, mode)
    agree = left == right
    counterexample = None
    if not agree:
        counterexample = _source_to_dict(_shrink(gadget, source, limits, mode))
    return EquivalenceVerdict(
        gadget=gadget,
        instance_digest=document_digest(_source_to_dict(source)),
        left_feasible=left,
        right_feasible=right,
        agree=agree,
        counterexample=counterexample,
    )


def _shrink(
    gadget: str, source: Source, limits: SearchLimits, mode: Optional[DynamicsMode]
) -> Source:
    """Greedy single-node deletion while the disagreement persists; a
    candidate that hits a resource cap does not count as disagreeing."""

    def disagrees(candidate: Source) -> bool:
        try:
            left, right = _sides(gadget, candidate, limits, mode)
        except (ValueError, InvalidInstanceError, SearchCapExceeded):
            return False
        return left != right

    current = source
    progress = True
    while progress and current.graph.n > 1:
        progress = False
        for v in range(current.graph.n):
            candidate = _delete_node(current, v)
            if disagrees(candidate):
                current = candidate
                progress = True
                break
    return current
