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

The rules hold only on a clique under monotone simultaneous dynamics, so
``clique_analysis`` is their one entry: it checks both, and only then runs
``_rule_chain``, the one code that runs a rule. Its reports are
``clique_analysis(...).reports``.

The rules read counts, never a node table. One pass over the nodes gives
the profile every rule reads: the (id, threshold) pairs inside S and outside
it, and the outside thresholds; ``_rule_chain`` builds it once. P5's
closure inside S is a count too: the nodes of S outside the seed switch on
in ascending threshold order while their threshold is at most the active
count. P5's seed and every seed ``solve`` tries go through ``solve``'s
per-seed check, which runs a monotone clique by counts as well.

Rule soundness is validated against the unrestricted brute-force solver in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .model import SnapshotInstance, mask_of
from .solvers import DEFAULT_LIMITS, SolveOutcome, _missing_edge, _solve, solve

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
    """Verify every pair of distinct nodes is adjacent; names the first
    missing edge."""
    missing = _missing_edge(instance.graph.adj_masks)
    if missing is not None:
        raise NotACliqueError(*missing)


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


class _Profile(NamedTuple):
    """One pass over the nodes of a clique instance: the (id, threshold)
    pairs inside S and outside it, each in ascending id, and the outside
    thresholds. Every rule reads one."""

    inside: list[tuple[int, int]]
    outside: list[tuple[int, int]]
    outside_thresholds: list[int]


def _profile(instance: SnapshotInstance) -> _Profile:
    s = instance.snapshot
    inside: list[tuple[int, int]] = []
    outside: list[tuple[int, int]] = []
    for pair in enumerate(instance.thresholds):
        (inside if pair[0] in s else outside).append(pair)
    return _Profile(inside, outside, [t for _, t in outside])


def _names(instance: SnapshotInstance, nodes: Iterable[int]) -> str:
    return ",".join([instance.graph.labels[v] for v in nodes])


def _forced_seed(instance: SnapshotInstance, p: _Profile) -> RuleReport:
    size = len(p.inside)
    forced = tuple([v for v, t in p.inside if t >= size])
    if not forced:
        return RuleReport("P1", ACTION_INAPPLICABLE, f"no snapshot threshold reaches |S|={size}")
    names = _names(instance, forced)
    if len(forced) > instance.budget:
        return RuleReport(
            "P1", ACTION_INFEASIBLE,
            f"{len(forced)} nodes ({names}) can only be seeded but budget is {instance.budget}",
            nodes=forced, feasible=False,
        )
    return RuleReport(
        "P1", ACTION_FORCED,
        f"threshold >= |S|={size}: {names} cannot activate by best response",
        nodes=forced,
    )


def _low_threshold_outside(instance: SnapshotInstance, p: _Profile) -> RuleReport:
    k = instance.budget
    low = tuple([v for v, t in p.outside if t <= k])
    if not low or len(p.inside) <= k:
        why = "no outside threshold <= budget" if not low else f"|S|={len(p.inside)} <= k={k}"
        return RuleReport("P2", ACTION_INAPPLICABLE, why)
    return RuleReport(
        "P2", ACTION_EXCLUDED_SIZE,
        f"outside nodes {_names(instance, low)} activate in round one of any size-{k} seed",
        nodes=low, size=k,
    )


def _threshold_collision(
    instance: SnapshotInstance, p: _Profile, already_forced: frozenset[int]
) -> RuleReport:
    outside = set(p.outside_thresholds)
    forced = tuple([v for v, t in p.inside if t in outside])
    if not forced:
        return RuleReport("P3", ACTION_INAPPLICABLE, "snapshot and outside threshold values are disjoint")
    names = _names(instance, forced)
    if len(already_forced.union(forced)) > instance.budget:
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


def _prune_outside(instance: SnapshotInstance, p: _Profile) -> RuleReport:
    if not p.outside:
        return RuleReport("P4", ACTION_INAPPLICABLE, "snapshot covers the whole clique")
    tmin = min(p.outside_thresholds)
    pruned = tuple([v for v, t in p.outside if t > tmin])
    if not pruned:
        return RuleReport("P4", ACTION_INAPPLICABLE, f"no outside threshold exceeds the minimum {tmin}")
    return RuleReport(
        "P4", ACTION_PRUNED,
        f"outside nodes {_names(instance, pruned)} have threshold > {tmin} and activate weakly later",
        nodes=pruned,
    )


def _isolated_snapshot(instance: SnapshotInstance, p: _Profile) -> RuleReport:
    size = len(p.inside)
    tmin = min(p.outside_thresholds, default=math.inf)
    if size >= tmin:
        return RuleReport("P5", ACTION_INAPPLICABLE, f"|S|={size} >= outside minimum {tmin}")
    # the k highest thresholds of S, ties broken by ascending id; inside S a
    # node sees every active node, so the rest switch on in ascending
    # threshold order while the active count reaches their threshold
    ranked = sorted(p.inside, key=lambda pair: (-pair[1], pair[0]))
    k = instance.budget
    seed = tuple(sorted([v for v, _ in ranked[:k]]))
    active = len(seed)
    for _, t in reversed(ranked[k:]):
        if t > active:
            break
        active += 1
    closes = active == size
    names = _names(instance, seed) or "(empty)"
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
    p = _profile(instance)
    r1 = _forced_seed(instance, p)
    yield r1
    yield _low_threshold_outside(instance, p)
    yield _threshold_collision(instance, p, frozenset(r1.nodes))
    yield _prune_outside(instance, p)
    yield _isolated_snapshot(instance, p)


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
