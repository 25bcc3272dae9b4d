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
  budget-k whole-graph instance, k >= 1, to a budget-1 non-monotone
  sequential snapshot instance.

Both gadgets fan out from thresholds clamped to deg(v) + 1: above its degree
a node can only be active by seeding, at either value, so the source's
verdict holds, and a gadget stays linear in the source's size.

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
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SnapshotInstance,
    induced_subgraph,
    _checked_values,
    _Slotted,
)
from .serialize import (
    TARGET_SET_FIELDS,
    document_digest,
    graph_fields_from_dict,
    graph_fields_to_dict,
    instance_to_dict,
)
from .solvers import (
    VERDICT_CAP,
    SearchCapExceeded,
    SolveOutcome,
    _closure,
    _seed_masks,
    solve,
)


@dataclass(frozen=True)
class TargetSetInstance(_Slotted):
    """Seed-the-whole-graph question: is there a seed of size <= budget whose
    monotone closure is all of V? Checked once, at construction, as a
    ``SnapshotInstance`` is; the thresholds are stored as a tuple."""

    __slots__ = ("graph", "thresholds", "budget")
    graph: Graph
    thresholds: tuple[int, ...]
    budget: int

    def __post_init__(self):
        thresholds, _ = _checked_values(self.graph, self.thresholds, (), self.budget)
        object.__setattr__(self, "thresholds", thresholds)


def target_set_to_dict(ts: TargetSetInstance) -> dict:
    return graph_fields_to_dict(ts)


def target_set_from_dict(data: dict) -> TargetSetInstance:
    """Read a target-set document: the instance fields without 'snapshot'
    and 'dynamics', and no other key."""
    return graph_fields_from_dict(data, "target-set", TARGET_SET_FIELDS, TargetSetInstance)


def has_target_set(ts: TargetSetInstance) -> bool:
    """Exhaustive oracle: some seed of size <= budget closes over all of V."""
    full = ts.graph.full_mask()
    table = _node_table(ts.graph.adj_masks, ts.thresholds)
    return any(
        _closure(table, seed_mask, full)[0] == full
        for seed_mask in _seed_masks(range(ts.graph.n), 0, ts.budget)
    )


def embed_target_set(ts: TargetSetInstance, mode: DynamicsMode) -> SnapshotInstance:
    """S=V(G) embedding; graph, thresholds and budget carry over unchanged."""
    # built first, so its own check rejects a mode that is not a DynamicsMode
    embedded = SnapshotInstance(ts.graph, ts.thresholds, frozenset(range(ts.graph.n)), ts.budget, mode)
    if not mode.monotone:
        raise ValueError("the identity embedding is meaningful for monotone modes only")
    return embedded


def _clamped_thresholds(source) -> list[int]:
    """Each threshold of ``source``, capped at its node's degree + 1."""
    return [min(t, source.graph.degree(v) + 1) for v, t in enumerate(source.thresholds)]


def _add_fan(labels: list, thresholds: list, edges: list, v: int, prefix: str, tip: str) -> int:
    """Join t(v) new nodes <prefix>:<i> to node v and one new node ``tip``
    to those, all of threshold 1, and return the tip's id. New ids run on
    from ``len(labels)``."""
    first = len(labels)
    for i in range(thresholds[v]):
        edges.append((v, len(labels)))
        labels.append(f"{prefix}:{i}")
        thresholds.append(1)
    tip_id = len(labels)
    edges.extend((u, tip_id) for u in range(first, tip_id))
    labels.append(tip)
    thresholds.append(1)
    return tip_id


def gadget_deactivation_robust(inst: SnapshotInstance) -> SnapshotInstance:
    """Attach to every node v: t(v) dummies adjacent only to v, plus
    one extra dummy adjacent to v and to those dummies; all new thresholds 1.
    Snapshot and budget are unchanged; the output runs non-monotone
    simultaneous dynamics. Labels are namespaced d:<v>:<i> / e:<v> so outputs
    are diffable. Here and in ``gadget_sequential_k1``, t(v) is v's
    threshold clamped to deg(v) + 1, which v keeps in the gadget."""
    if not (inst.mode.simultaneous and inst.mode.monotone):
        raise ValueError("source instance must use monotone simultaneous dynamics")
    labels = list(inst.graph.labels)
    edges = list(inst.graph.edges())
    thresholds = _clamped_thresholds(inst)
    for v, label in enumerate(inst.graph.labels):
        edges.append((v, _add_fan(labels, thresholds, edges, v, f"d:{label}", f"e:{label}")))
    graph = Graph.from_edges(len(labels), edges, labels)
    return SnapshotInstance(graph, thresholds, inst.snapshot, inst.budget, PLAIN_SIMULTANEOUS)


def gadget_sequential_k1(ts: TargetSetInstance) -> SnapshotInstance:
    """Map a budget-k whole-graph instance to a budget-1 non-monotone
    sequential snapshot instance.

    Every original node u_i gets t(u_i) relay nodes v:<u_i>:<j>
    adjacent to u_i, one collector u':<u_i> adjacent to those relays, and a
    hub v0 with threshold budget+1 adjacent to every collector; all other new
    thresholds are 1. The snapshot is everything except the hub. The
    gadget's own budget is 1, so a source of budget 0 has no gadget.
    """
    if ts.budget == 0:
        raise ValueError("budget = 0 unsupported by gadget: its own budget is 1")
    for v, t in enumerate(ts.thresholds):
        if t == 0:
            raise ValueError(f"t_i = 0 unsupported by gadget: node {v}")
    labels = list(ts.graph.labels)
    edges = list(ts.graph.edges())
    thresholds = _clamped_thresholds(ts)
    collectors = [
        _add_fan(labels, thresholds, edges, i, f"v:{label}", f"u':{label}")
        for i, label in enumerate(ts.graph.labels)
    ]
    hub = len(labels)
    labels.append("v0")
    thresholds.append(ts.budget + 1)
    edges.extend((c, hub) for c in collectors)
    graph = Graph.from_edges(hub + 1, edges, labels)
    return SnapshotInstance(graph, thresholds, frozenset(range(hub)), 1, PLAIN_SEQUENTIAL)


# gadget id -> the source type it takes
_GADGET_SOURCES = {"embed": TargetSetInstance, "dummy": SnapshotInstance, "seqk1": TargetSetInstance}
GADGET_IDS = tuple(_GADGET_SOURCES)

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
    graph, thresholds = induced_subgraph(source.graph, source.thresholds, kept)
    if isinstance(source, TargetSetInstance):
        return replace(source, graph=graph, thresholds=thresholds)
    snapshot = frozenset(u - (u > v) for u in source.snapshot if u != v)
    return replace(source, graph=graph, thresholds=thresholds, snapshot=snapshot)


def _feasible(outcome: SolveOutcome) -> bool:
    """The verdict as a bool; a capped verdict raises rather than read as
    infeasible. The embedded and dummy sides are monotone or simultaneous
    and never cap; the seqk1 side, a budget-1 sequential solve, caps where a
    seed node of high threshold and degree leaves too many neighbour sets to
    try and the searches from that seed on outgrow the cap too."""
    if outcome.verdict == VERDICT_CAP:
        raise SearchCapExceeded("a search hit a resource cap before deciding its side")
    return outcome.feasible


def _sides(gadget: str, source: Source, mode: Optional[DynamicsMode]):
    if gadget not in _GADGET_SOURCES:
        raise ValueError(f"unknown gadget {gadget!r}; expected one of {GADGET_IDS}")
    takes = _GADGET_SOURCES[gadget]
    if not isinstance(source, takes):
        raise ValueError(f"gadget {gadget!r} takes a {takes.__name__}, not a {type(source).__name__}")
    if gadget == "embed":
        embedded = embed_target_set(source, mode or MONOTONE_SIMULTANEOUS)
        return has_target_set(source), _feasible(solve(embedded))
    if gadget == "seqk1":
        return has_target_set(source), _feasible(solve(gadget_sequential_k1(source)))
    return _feasible(solve(source)), _feasible(solve(gadget_deactivation_robust(source)))


def check_equivalence(
    gadget: str, source: Source, mode: Optional[DynamicsMode] = None
) -> EquivalenceVerdict:
    """Compute source-side and reduced-side verdicts with exhaustive solvers;
    on disagreement, shrink the source greedily by node deletion for the
    record."""
    left, right = _sides(gadget, source, mode)
    agree = left == right
    counterexample = None
    if not agree:
        counterexample = _source_to_dict(_shrink(gadget, source, mode))
    return EquivalenceVerdict(
        gadget=gadget,
        instance_digest=document_digest(_source_to_dict(source)),
        left_feasible=left,
        right_feasible=right,
        agree=agree,
        counterexample=counterexample,
    )


def _shrink(gadget: str, source: Source, mode: Optional[DynamicsMode]) -> Source:
    """Greedy single-node deletion while the disagreement persists; a
    candidate that hits a resource cap does not count as disagreeing."""

    def disagrees(candidate: Source) -> bool:
        try:
            left, right = _sides(gadget, candidate, mode)
        except (ValueError, SearchCapExceeded):  # InvalidInstanceError included
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
