"""Clique preprocessing rules in front of ``solve`` for monotone
simultaneous dynamics.

On a clique an inactive node sees exactly |active| active neighbors, so the
whole cascade is driven by active-set counts and threshold values. The five
rules report what holds of every matching seed, and the first that settles
the instance ends the chain: it hands ``solvers._solve``, the one decision
front ``solve`` runs through too, a pool of zero or one seed. P1 or P3 over
budget hand it none, and P5 its one seed if that closes over S, none if
not. Everything else is ``solve``, and no rule filters its pool:

P1  snapshot nodes whose threshold is at least |S| can never activate by best
    response, so every matching seed contains them;
P2  an outside node with threshold <= budget activates in the first round of
    any budget-sized seed, so no seed of size exactly k matches (seeds
    smaller than k stay in play);
P3  a snapshot node sharing its threshold with an outside node would activate
    together with it, so every matching seed contains it;
P4  outside nodes with thresholds above the outside minimum activate weakly
    later than an outside node of minimum threshold, so they never decide a
    run;
P5  when |S| is below every outside threshold no over-activation is possible
    and feasibility reduces to whether the k highest-threshold snapshot nodes
    close over S.

Every rule runs on the instance as given, so every node id in a report or
certificate is an id of that instance. P4 needs no reduced copy: every
inactive node sees the same active count, so a pruned node never activates
before a minimum-threshold outside node, and a monotone run is over in the
sweep its first outside node activates.

Rule soundness is validated against the unrestricted brute-force solver in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .dynamics import _node_table
from .model import SnapshotInstance, mask_of
from .solvers import DEFAULT_LIMITS, SolveOutcome, _closure, _solve, solve

ACTION_FORCED = "forced_seed"
ACTION_INFEASIBLE = "infeasible"
ACTION_PRUNED = "pruned_nodes"
ACTION_EXCLUDED_SIZE = "excluded_seed_size"
ACTION_REDUCED = "reduced_to_target_set"
ACTION_INAPPLICABLE = "inapplicable"


class NotACliqueError(ValueError):
    def __init__(self, u: int, v: int):
        super().__init__(f"not a clique: missing edge ({u},{v})")
        self.missing_edge = (u, v)


def assert_clique(instance: SnapshotInstance) -> None:
    """Verify every pair of distinct nodes is adjacent; names a missing edge."""
    full = instance.graph.full_mask()
    for u, adj in enumerate(instance.graph.adj_masks):
        missing = full & ~adj & ~(1 << u)
        if missing:
            raise NotACliqueError(u, (missing & -missing).bit_length() - 1)


@dataclass(frozen=True)
class RuleReport:
    """Outcome of one preprocessing rule.

    ``nodes`` carries forced or pruned node ids, ``size`` an excluded seed
    size, ``feasible`` the verdict when the rule decides the instance.
    """

    rule: str
    action: str
    justification: str
    nodes: tuple[int, ...] = ()
    size: Optional[int] = None
    feasible: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {"rule": self.rule, "action": self.action, "justification": self.justification}
        if self.nodes:
            out["nodes"] = list(self.nodes)
        if self.size is not None:
            out["size"] = self.size
        if self.feasible is not None:
            out["feasible"] = self.feasible
        return out


def _outside_thresholds(instance: SnapshotInstance) -> list[int]:
    return [instance.thresholds[v] for v in range(instance.n) if v not in instance.snapshot]


def rule_forced_seed(instance: SnapshotInstance) -> RuleReport:
    """P1: snapshot nodes with threshold >= |S| must be seeded."""
    s = instance.snapshot
    forced = tuple(sorted(u for u in s if instance.thresholds[u] >= len(s)))
    if not forced:
        return RuleReport("P1", ACTION_INAPPLICABLE, f"no snapshot threshold reaches |S|={len(s)}")
    names = ",".join(instance.graph.labels[u] for u in forced)
    if len(forced) > instance.budget:
        return RuleReport(
            "P1", ACTION_INFEASIBLE,
            f"{len(forced)} nodes ({names}) can only be seeded but budget is {instance.budget}",
            nodes=forced, feasible=False,
        )
    return RuleReport(
        "P1", ACTION_FORCED,
        f"threshold >= |S|={len(s)}: {names} cannot activate by best response",
        nodes=forced,
    )


def rule_low_threshold_outside(instance: SnapshotInstance) -> RuleReport:
    """P2: an outside node with threshold <= k rules out seeds of size exactly
    k whenever |S| > k (they trigger the outside node in round one while a
    time-0 match is impossible). Smaller seeds stay in play."""
    k, s = instance.budget, instance.snapshot
    low = [v for v in range(instance.n) if v not in s and instance.thresholds[v] <= k]
    if not low or len(s) <= k:
        why = "no outside threshold <= budget" if not low else f"|S|={len(s)} <= k={k}"
        return RuleReport("P2", ACTION_INAPPLICABLE, why)
    names = ",".join(instance.graph.labels[v] for v in low)
    return RuleReport(
        "P2", ACTION_EXCLUDED_SIZE,
        f"outside nodes {names} activate in round one of any size-{k} seed",
        nodes=tuple(low), size=k,
    )


def rule_threshold_collision(
    instance: SnapshotInstance, already_forced: frozenset[int] = frozenset()
) -> RuleReport:
    """P3: snapshot nodes sharing a threshold with an outside node must be
    seeded (equal-threshold non-seed nodes activate at the same instant)."""
    outside = set(_outside_thresholds(instance))
    forced = tuple(sorted(u for u in instance.snapshot if instance.thresholds[u] in outside))
    if not forced:
        return RuleReport("P3", ACTION_INAPPLICABLE, "snapshot and outside threshold values are disjoint")
    names = ",".join(instance.graph.labels[u] for u in forced)
    union = set(forced) | already_forced
    if len(union) > instance.budget:
        return RuleReport(
            "P3", ACTION_INFEASIBLE,
            f"forcing {names} exceeds budget {instance.budget} together with earlier forced nodes",
            nodes=forced, feasible=False,
        )
    return RuleReport(
        "P3", ACTION_FORCED,
        f"{names} share threshold values with outside nodes",
        nodes=forced,
    )


def rule_prune_outside(instance: SnapshotInstance) -> RuleReport:
    """P4: outside nodes whose threshold exceeds the outside minimum activate
    weakly later than a minimum-threshold outside node, whose activation
    already ends a monotone run outside S; they never decide feasibility."""
    outside = _outside_thresholds(instance)
    if not outside:
        return RuleReport("P4", ACTION_INAPPLICABLE, "snapshot covers the whole clique")
    tmin = min(outside)
    pruned = tuple([
        v for v in range(instance.n) if v not in instance.snapshot and instance.thresholds[v] > tmin
    ])
    if not pruned:
        return RuleReport("P4", ACTION_INAPPLICABLE, f"no outside threshold exceeds the minimum {tmin}")
    names = ",".join(instance.graph.labels[v] for v in pruned)
    return RuleReport(
        "P4", ACTION_PRUNED,
        f"outside nodes {names} have threshold > {tmin} and activate weakly later",
        nodes=pruned,
    )


def _k_highest_snapshot_seed(instance: SnapshotInstance) -> tuple[int, ...]:
    # ties among equal thresholds broken by ascending id
    ranked = sorted(instance.snapshot, key=lambda v: (-instance.thresholds[v], v))
    return tuple(sorted(ranked[: min(instance.budget, len(ranked))]))


def rule_isolated_snapshot(instance: SnapshotInstance) -> RuleReport:
    """P5: when |S| is below every outside threshold, over-activation is
    impossible and S is feasible iff the k highest-threshold snapshot nodes
    close over S."""
    outside = _outside_thresholds(instance)
    tmin = min(outside) if outside else math.inf
    if len(instance.snapshot) >= tmin:
        return RuleReport("P5", ACTION_INAPPLICABLE, f"|S|={len(instance.snapshot)} >= outside minimum {tmin}")
    seed = _k_highest_snapshot_seed(instance)
    s_mask = instance.snapshot_mask()
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    closes = _closure(table, mask_of(seed), s_mask)[0] == s_mask
    names = ",".join(instance.graph.labels[v] for v in seed) or "(empty)"
    return RuleReport(
        "P5", ACTION_REDUCED,
        f"|S| < outside minimum: no over-activation risk; highest-threshold seed {names} "
        + ("closes over S" if closes else "does not close over S"),
        nodes=seed, feasible=closes,
    )


@dataclass(frozen=True)
class CliqueAnalysis:
    """Rule chain plus the final verdict for one clique instance."""

    outcome: SolveOutcome
    reports: tuple[RuleReport, ...]


def _rule_chain(instance: SnapshotInstance) -> Iterator[RuleReport]:
    """The reports of P1 to P5 in order; P3 counts P1's forced nodes (P1
    over budget settles the instance, so the chain never gets to P3)."""
    r1 = rule_forced_seed(instance)
    yield r1
    yield rule_low_threshold_outside(instance)
    yield rule_threshold_collision(instance, already_forced=frozenset(r1.nodes))
    yield rule_prune_outside(instance)
    yield rule_isolated_snapshot(instance)


def clique_analysis(instance: SnapshotInstance) -> CliqueAnalysis:
    """Run the rule chain up to the first report that settles the instance:
    P1 or P3 over budget hands the seed search an empty pool, P5 the pool of
    its one seed or an empty one. An instance no rule settles is decided by
    ``solve``. The reports explain the instance either way."""
    assert_clique(instance)
    if not (instance.mode.simultaneous and instance.mode.monotone):
        raise ValueError("clique rules cover monotone simultaneous dynamics only")
    reports: list[RuleReport] = []
    for report in _rule_chain(instance):
        reports.append(report)
        if report.feasible is not None:
            seeds = [mask_of(report.nodes)] if report.feasible else []
            outcome = _solve(
                instance, instance.snapshot_mask(), DEFAULT_LIMITS, f"clique {report.rule}", seeds
            )
            return CliqueAnalysis(outcome, tuple(reports))
    return CliqueAnalysis(solve(instance), tuple(reports))
