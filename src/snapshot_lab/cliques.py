"""Clique preprocessing rules in front of the exact seed search for
monotone simultaneous dynamics.

On a clique an inactive node sees exactly |active| active neighbors, so the
whole cascade is driven by active-set counts and threshold values. The five
rules narrow the seed search, which then runs the generic monotone
simultaneous check on the surviving candidates, deduplicated by threshold
multiset:

P1  snapshot nodes whose threshold is at least |S| can never activate by best
    response, so they are forced into the seed;
P2  an outside node with threshold <= budget activates in the first round of
    any budget-sized seed, so seeds of size exactly k are excluded (the
    all-sizes reading is unsound for smaller seeds and is only available
    behind ``strict`` for comparison runs);
P3  a snapshot node sharing its threshold with an outside node would activate
    together with it, so it is forced into the seed;
P4  outside nodes with thresholds above the outside minimum activate weakly
    later than the kept minimum, so they can be removed;
P5  when |S| is below every outside threshold no over-activation is possible
    and feasibility reduces to whether the k highest-threshold snapshot nodes
    close over S.

Rule soundness is validated against the unrestricted brute-force solver in
the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .dynamics import _node_table
from .model import (
    Certificate,
    SnapshotInstance,
    IdMap,
    induced_subgraph,
    iter_bits,
    mask_of,
)
from .solvers import (
    DEFAULT_LIMITS,
    SearchLimits,
    SolveOutcome,
    SolveStats,
    VERDICT_INFEASIBLE,
    _closure,
    _search,
    _seed_check,
    _seed_masks,
)

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


def rule_low_threshold_outside(instance: SnapshotInstance, strict: bool = False) -> RuleReport:
    """P2: an outside node with threshold <= k rules out seeds of size exactly
    k whenever |S| > k (they trigger the outside node in round one while a
    time-0 match is impossible). ``strict`` applies the all-sizes reading,
    declaring the instance infeasible outright; it exists for comparison runs
    and is not sound for seeds smaller than k."""
    k, s = instance.budget, instance.snapshot
    low = [v for v in range(instance.n) if v not in s and instance.thresholds[v] <= k]
    if not low or len(s) <= k:
        why = "no outside threshold <= budget" if not low else f"|S|={len(s)} <= k={k}"
        return RuleReport("P2", ACTION_INAPPLICABLE, why)
    names = ",".join(instance.graph.labels[v] for v in low)
    if strict:
        return RuleReport(
            "P2", ACTION_INFEASIBLE,
            f"strict reading: outside nodes {names} have threshold <= k={k}",
            nodes=tuple(low), feasible=False,
        )
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


def rule_prune_outside(instance: SnapshotInstance) -> tuple[RuleReport, SnapshotInstance, Optional[IdMap]]:
    """P4: drop outside nodes whose threshold exceeds the outside minimum;
    they activate weakly later than the kept minimum, so feasibility is
    unchanged. Returns the reduced (reindexed) instance and the id map."""
    outside = _outside_thresholds(instance)
    if not outside:
        return RuleReport("P4", ACTION_INAPPLICABLE, "snapshot covers the whole clique"), instance, None
    tmin = min(outside)
    removed = tuple(
        sorted(v for v in range(instance.n) if v not in instance.snapshot and instance.thresholds[v] > tmin)
    )
    if not removed:
        return RuleReport("P4", ACTION_INAPPLICABLE, f"no outside threshold exceeds the minimum {tmin}"), instance, None
    kept = [v for v in range(instance.n) if v not in removed]
    sub, sub_t, idmap = induced_subgraph(instance.graph, instance.thresholds, kept)
    reduced = SnapshotInstance(
        graph=sub,
        thresholds=sub_t,
        snapshot=frozenset(idmap.sub(v) for v in instance.snapshot),
        budget=instance.budget,
        mode=instance.mode,
    )
    names = ",".join(instance.graph.labels[v] for v in removed)
    report = RuleReport(
        "P4", ACTION_PRUNED,
        f"outside nodes {names} have threshold > {tmin} and activate weakly later",
        nodes=removed,
    )
    return report, reduced, idmap


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


def clique_analysis(
    instance: SnapshotInstance,
    limits: SearchLimits = DEFAULT_LIMITS,
    strict_property2: bool = False,
) -> CliqueAnalysis:
    """Run the rule chain, then search the surviving seed candidates with the
    generic monotone simultaneous check. Agrees with the generic monotone
    simultaneous solver on the verdict."""
    assert_clique(instance)
    if not (instance.mode.simultaneous and instance.mode.monotone):
        raise ValueError("clique rules cover monotone simultaneous dynamics only")
    t0 = time.perf_counter()
    reports: list[RuleReport] = []

    def done(outcome: SolveOutcome) -> CliqueAnalysis:
        outcome.stats.wall_time = time.perf_counter() - t0
        return CliqueAnalysis(outcome, tuple(reports))

    infeasible = SolveOutcome(VERDICT_INFEASIBLE, None, SolveStats())

    r1 = rule_forced_seed(instance)
    reports.append(r1)
    if r1.action == ACTION_INFEASIBLE:
        return done(infeasible)
    forced = frozenset(r1.nodes) if r1.action == ACTION_FORCED else frozenset()

    r2 = rule_low_threshold_outside(instance, strict=strict_property2)
    reports.append(r2)
    if r2.action == ACTION_INFEASIBLE:
        return done(infeasible)
    excluded_size = r2.size if r2.action == ACTION_EXCLUDED_SIZE else None

    r3 = rule_threshold_collision(instance, already_forced=forced)
    reports.append(r3)
    if r3.action == ACTION_INFEASIBLE:
        return done(infeasible)
    if r3.action == ACTION_FORCED:
        forced |= frozenset(r3.nodes)

    r4, work, idmap = rule_prune_outside(instance)
    reports.append(r4)

    r5 = rule_isolated_snapshot(work)
    reports.append(r5)
    if r5.action == ACTION_REDUCED:
        if not r5.feasible:
            return done(infeasible)
        seeds: Iterable[int] = [mask_of(r5.nodes)]
    else:
        seen_multisets: set[tuple[int, ...]] = set()

        def admissible(seed_mask: int) -> bool:
            if seed_mask.bit_count() == excluded_size:
                return False
            key = tuple(sorted(work.thresholds[v] for v in iter_bits(seed_mask)))
            if key in seen_multisets:
                return False
            seen_multisets.add(key)
            return True

        forced_w = mask_of(forced if idmap is None else map(idmap.sub, forced))
        seeds = filter(admissible, _seed_masks(work.snapshot, forced_w, instance.budget))
    outcome = _search(seeds, _seed_check(work, limits))
    if outcome.certificate is not None and idmap is not None:
        seed = frozenset(map(idmap.original, outcome.certificate.seed))
        cert = Certificate(seed, outcome.certificate.witness)
        outcome = SolveOutcome(outcome.verdict, cert, outcome.stats)
    return done(outcome)

