"""Feasibility deciders for the four dynamics, with replayable certificates.

Every solver enumerates candidate seed sets in one canonical order (by size,
then lexicographically over sorted ids) and returns the first feasible seed in
that order, so outputs are fully deterministic. Witnesses are shortest under
the solver's own search, ties broken by ascending node id.

Seed candidate spaces differ by mode and are the load-bearing prunes:

* monotone simultaneous: seeds are subsets of the snapshot (a committed seed
  node is still active at match time, so any feasible seed lies inside S),
  and only supersets of the forced set F = {v in S : |N(v) & S| < t(v)}:
  before a match every configuration lies inside S, so a node of F can never
  activate and must be seeded (|F| > k is infeasible without any search);
* non-monotone simultaneous: seeds range over all of V (a seed can sit at
  distance >= 2 from the snapshot it produces, so no neighborhood prune is
  sound);
* monotone sequential: subsets of S, decided by monotone closure inside S
  (never selecting outside nodes is always safe and always sufficient);
* non-monotone sequential: seeds range over all of V, decided by
  breadth-first search over the configuration space;
* non-monotone sequential with budget 1: candidates shrink to the closed
  neighborhood N[S] plus the empty seed, and the per-candidate search runs in
  the restricted space where only snapshot nodes activate and only the seed
  node may ever deactivate. Must agree with the unrestricted solver.

Both simultaneous solvers search on bitmasks of one seed-independent step
map, ``c -> R(c)`` (monotone: ``c -> c | R(c)``), where R(c) is the set of
nodes whose best response to c is active; the seed drops out because every
configuration of a monotone run contains its seed. Runs from different seeds
therefore walk one functional graph, and one memo per solve maps each mask to
its fate: the first match with S after d steps, or no match with the repeat
the reference ``run_simultaneous`` detects at step d. Keeping d for both keeps
verdicts under an explicit step cap equal to the per-seed reference loop's,
except that a cap becomes "infeasible" where a forced node or an overshoot
proves no match: a monotone run stops as soon as it leaves S, because it only
grows and so can never match after that. A ``Trace`` is built only when a
certificate is replayed.

"infeasible" is only ever reported after the complete candidate space was
exhausted (or a forced node or an overshoot proves it for every seed left);
if any search hit a resource cap first, the verdict degrades to
"resource_cap_hit" instead of risking a silent false negative.

Everything here is pure over immutable inputs; seed candidates are
independent work units, and the canonical ordering (not completion order)
decides the reported certificate.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .dynamics import (
    _move_targets,
    _response_mask,
    _step_mask,
    default_max_steps,
    run_simultaneous,
)
from .model import (
    Certificate,
    DynamicsMode,
    Graph,
    Move,
    SequentialWitness,
    SimultaneousWitness,
    SnapshotInstance,
    closed_neighborhood,
    iter_bits,
    mask_of,
    nodes_of,
)

VERDICT_FEASIBLE = "feasible"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_CAP = "resource_cap_hit"


class SearchCapExceeded(RuntimeError):
    """A state-space enumeration outgrew its limits before finishing."""


@dataclass(frozen=True)
class SearchLimits:
    """Resource caps: max distinct states stored per seed search, and max
    simultaneous steps per run (default 2^n per run when None)."""

    max_states: int = 1 << 20
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.max_states < 1 or (self.max_steps is not None and self.max_steps < 1):
            raise ValueError("search limits must be positive")

    def steps_for(self, n: int) -> int:
        return self.max_steps if self.max_steps is not None else default_max_steps(n)


DEFAULT_LIMITS = SearchLimits()


@dataclass
class SolveStats:
    seeds_tried: int = 0
    states_expanded: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class SolveOutcome:
    verdict: str
    certificate: Optional[Certificate]
    stats: SolveStats

    @property
    def feasible(self) -> bool:
        return self.verdict == VERDICT_FEASIBLE

    def to_dict(self, include_timings: bool = False) -> dict:
        """Certificate wire format (canonical; timings off by default so files
        from identical runs are byte-identical)."""
        out: dict = {"verdict": {VERDICT_CAP: "cap"}.get(self.verdict, self.verdict)}
        if self.certificate is not None:
            out["seed"] = sorted(self.certificate.seed)
            w = self.certificate.witness
            if isinstance(w, SimultaneousWitness):
                out["witness"] = {"type": "simultaneous", "match_time": w.match_time}
            else:
                out["witness"] = {
                    "type": "sequential",
                    "ordering": [m.to_wire() for m in w.ordering],
                    "match_prefix": w.match_prefix,
                }
        stats = {
            "seeds_tried": self.stats.seeds_tried,
            "states_expanded": self.stats.states_expanded,
        }
        if include_timings:
            stats["wall_time"] = self.stats.wall_time
        out["stats"] = stats
        return out


def canonical_seed_sets(candidates: Iterable[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Seed sets by increasing size, lexicographic within a size."""
    pool = sorted(candidates)
    for size in range(0, min(max_size, len(pool)) + 1):
        yield from combinations(pool, size)


def monotone_closure(
    graph: Graph,
    thresholds: Sequence[int],
    seed: Iterable[int],
    restrict_to: Optional[Iterable[int]] = None,
) -> frozenset[int]:
    """Least fixed point of threshold activation from the seed.

    Only nodes inside ``restrict_to`` (default: all of V) may activate; the
    result is independent of activation order.
    """
    restrict = graph.full_mask() if restrict_to is None else mask_of(restrict_to)
    seed_mask = mask_of(seed)
    if seed_mask & ~restrict:
        raise ValueError("seed must lie inside restrict_to")
    return nodes_of(_closure_mask(graph.adj_masks, thresholds, seed_mask, restrict))


def _closure_mask(
    adj_masks: Sequence[int], thresholds: Sequence[int], seed_mask: int, restrict: int
) -> int:
    active = seed_mask
    frontier = True
    while frontier:
        frontier = False
        pending = restrict & ~active
        for v in iter_bits(pending):
            if (adj_masks[v] & active).bit_count() >= thresholds[v]:
                active |= 1 << v
                frontier = True
    return active


def _closure_order(
    adj_masks: Sequence[int], thresholds: Sequence[int], seed_mask: int, restrict: int
) -> list[int]:
    """A canonical activation order realizing the closure: repeatedly activate
    the lowest-id eligible node."""
    active = seed_mask
    order: list[int] = []
    while True:
        for v in iter_bits(restrict & ~active):
            if (adj_masks[v] & active).bit_count() >= thresholds[v]:
                active |= 1 << v
                order.append(v)
                break
        else:
            return order


def _bfs_to_target(
    adj_masks: Sequence[int],
    thresholds: Sequence[int],
    seed_mask: int,
    target_mask: int,
    monotone: bool,
    max_states: int,
) -> tuple[Optional[list[Move]], int, bool]:
    """Shortest move sequence from the seed configuration to the target, by
    breadth-first search over reachable configurations.

    Returns (moves or None, states visited, cap hit). Move expansion order is
    ascending node id, so the first shortest witness found is canonical.
    """
    if seed_mask == target_mask:
        return [], 1, False
    parents: dict[int, tuple[int, Move]] = {seed_mask: (-1, Move(0, True))}
    queue = deque([seed_mask])
    while queue:
        cur = queue.popleft()
        for move, nxt in _move_targets(adj_masks, thresholds, cur, monotone):
            if nxt in parents:
                continue
            parents[nxt] = (cur, move)
            if nxt == target_mask:
                moves: list[Move] = []
                node = nxt
                while node != seed_mask:
                    prev, mv = parents[node]
                    moves.append(mv)
                    node = prev
                moves.reverse()
                return moves, len(parents), False
            if len(parents) >= max_states:
                return None, len(parents), True
            queue.append(nxt)
    return None, len(parents), False


def _reachable_mask_set(
    graph: Graph,
    thresholds: Sequence[int],
    seed_mask: int,
    mode: DynamicsMode,
    limits: SearchLimits,
) -> set[int]:
    """All configuration masks a run from the seed can visit. Raises
    SearchCapExceeded when the enumeration outgrows the limits."""
    adj_masks = graph.adj_masks
    if mode.simultaneous:
        seen = {seed_mask}
        cur = seed_mask
        for _ in range(limits.steps_for(graph.n)):
            cur = _step_mask(adj_masks, thresholds, cur, seed_mask, mode.monotone)
            if cur in seen:
                return seen
            seen.add(cur)
        raise SearchCapExceeded("simultaneous trajectory exceeded the step cap")
    seen = {seed_mask}
    queue = deque([seed_mask])
    while queue:
        cur = queue.popleft()
        for _, nxt in _move_targets(adj_masks, thresholds, cur, mode.monotone):
            if nxt not in seen:
                if len(seen) >= limits.max_states:
                    raise SearchCapExceeded("sequential reachability exceeded max_states")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reachable_configs(
    graph: Graph,
    thresholds: Sequence[int],
    seed: Iterable[int],
    mode: DynamicsMode,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> set[frozenset[int]]:
    """Every configuration reachable from the seed under the mode: the whole
    move-reachable space for sequential dynamics, the trajectory up to cycle
    closure for simultaneous dynamics."""
    masks = _reachable_mask_set(graph, thresholds, mask_of(seed), mode, limits)
    return {nodes_of(m) for m in masks}


def _require_mode(instance: SnapshotInstance, order: str, monotone: bool, who: str) -> None:
    if instance.mode.order != order or instance.mode.monotone != monotone:
        raise ValueError(
            f"{who} handles {('monotone ' if monotone else '')}{order} dynamics, "
            f"instance mode is {instance.mode.describe()}"
        )


def _outcome(verdict: str, cert: Optional[Certificate], stats: SolveStats, t0: float) -> SolveOutcome:
    stats.wall_time = time.perf_counter() - t0
    return SolveOutcome(verdict, cert, stats)


def _forced_seed_mask(adj_masks: Sequence[int], thresholds: Sequence[int], s_mask: int) -> int:
    """Snapshot nodes with fewer than their threshold of neighbors inside S.

    Under monotone simultaneous dynamics every configuration before a match
    lies inside S, so such a node can never activate before the match and
    must already be in the seed.
    """
    return mask_of(
        v for v in iter_bits(s_mask)
        if (adj_masks[v] & s_mask).bit_count() < thresholds[v]
    )


def _simultaneous_fate(
    adj_masks: Sequence[int],
    thresholds: Sequence[int],
    s_mask: int,
    monotone: bool,
    max_steps: int,
    fates: dict[int, Optional[int]],
    start: int,
) -> tuple[Optional[int], int]:
    """Fate of the run from ``start`` under the seed-independent step map
    (``c -> R(c)``, monotone ``c -> c | R(c)``), and the number of masks
    whose successor this call computed.

    A fate ``d >= 0`` is a first match with S after d steps; ``-d`` is no
    match, with the repeat that ``run_simultaneous`` detects at step d; None
    is a monotone run that left S and so can never match. Every mask a walk
    settles goes into ``fates`` with its fate as a start of its own, so a
    later seed whose run reaches it stops there; ``fates`` must start as
    ``{s_mask: 0}``. A walk that has not settled after ``max_steps`` steps
    stores nothing and reports ``-(max_steps + 1)``, the step cap of the
    reference run.
    """
    path: dict[int, int] = {}
    cur = start
    while True:
        if cur in fates:
            tail = fates[cur]
            break
        if monotone and cur & ~s_mask:
            tail = None
            break
        if cur in path:
            # the walk closed its own cycle at position j; none of it is S
            j, length = path[cur], len(path)
            for mask, i in path.items():
                fates[mask] = -(length - min(i, j))
            return fates[start], length
        if len(path) == max_steps:
            return -(max_steps + 1), max_steps
        path[cur] = len(path)
        responders = _response_mask(adj_masks, thresholds, cur)
        cur = cur | responders if monotone else responders
    length = len(path)
    for mask, i in path.items():
        if tail is None:
            fates[mask] = None
        elif tail >= 0:
            fates[mask] = tail + length - i
        else:
            fates[mask] = tail - (length - i)
    return fates[start], length


def _solve_simultaneous_common(instance: SnapshotInstance, limits: SearchLimits, seed_pool: Sequence[int]) -> SolveOutcome:
    t0 = time.perf_counter()
    stats = SolveStats()
    adj_masks, thresholds = instance.graph.adj_masks, instance.thresholds
    s_mask = instance.snapshot_mask()
    monotone = instance.mode.monotone
    max_steps = limits.steps_for(instance.graph.n)
    forced = _forced_seed_mask(adj_masks, thresholds, s_mask) if monotone else 0
    spare = instance.budget - forced.bit_count()
    if spare < 0:
        return _outcome(VERDICT_INFEASIBLE, None, stats, t0)
    # Supersets of the forced set, enumerated by their free part, come out
    # in the canonical order of the full space: same size, and the least
    # element of a symmetric difference is never a forced node.
    free_pool = [v for v in seed_pool if not forced >> v & 1]
    fates: dict[int, Optional[int]] = {s_mask: 0}
    capped = False
    for free in canonical_seed_sets(free_pool, spare):
        stats.seeds_tried += 1
        seed_mask = forced | mask_of(free)
        fate, expanded = _simultaneous_fate(
            adj_masks, thresholds, s_mask, monotone, max_steps, fates, seed_mask
        )
        stats.states_expanded += expanded
        if fate is None:
            continue
        if abs(fate) > max_steps:
            capped = True
        elif fate >= 0:
            cert = Certificate(nodes_of(seed_mask), SimultaneousWitness(fate))
            return _outcome(VERDICT_FEASIBLE, cert, stats, t0)
    return _outcome(VERDICT_CAP if capped else VERDICT_INFEASIBLE, None, stats, t0)


def solve_monotone_simultaneous(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Monotone simultaneous feasibility; seeds enumerated inside S only."""
    _require_mode(instance, "simultaneous", True, "solve_monotone_simultaneous")
    return _solve_simultaneous_common(instance, limits, sorted(instance.snapshot))


def solve_simultaneous(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Non-monotone simultaneous feasibility; seeds enumerated over all of V."""
    _require_mode(instance, "simultaneous", False, "solve_simultaneous")
    return _solve_simultaneous_common(instance, limits, range(instance.graph.n))


def solve_monotone_sequential(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Monotone sequential feasibility: some seed inside S has monotone
    closure exactly S when activation is confined to S."""
    _require_mode(instance, "sequential", True, "solve_monotone_sequential")
    t0 = time.perf_counter()
    stats = SolveStats()
    adj_masks, thresholds = instance.graph.adj_masks, instance.thresholds
    s_mask = instance.snapshot_mask()
    for seed_tuple in canonical_seed_sets(sorted(instance.snapshot), instance.budget):
        stats.seeds_tried += 1
        seed_mask = mask_of(seed_tuple)
        closure = _closure_mask(adj_masks, thresholds, seed_mask, s_mask)
        stats.states_expanded += (closure ^ seed_mask).bit_count() + 1
        if closure == s_mask:
            order = _closure_order(adj_masks, thresholds, seed_mask, s_mask)
            witness = SequentialWitness(tuple(Move(v, True) for v in order), len(order))
            return _outcome(VERDICT_FEASIBLE, Certificate(frozenset(seed_tuple), witness), stats, t0)
    return _outcome(VERDICT_INFEASIBLE, None, stats, t0)


def solve_sequential(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Non-monotone sequential feasibility by breadth-first search over the
    configuration space, per seed over all of V."""
    _require_mode(instance, "sequential", False, "solve_sequential")
    t0 = time.perf_counter()
    stats = SolveStats()
    adj_masks, thresholds = instance.graph.adj_masks, instance.thresholds
    target_mask = instance.snapshot_mask()
    capped = False
    for seed_tuple in canonical_seed_sets(range(instance.graph.n), instance.budget):
        stats.seeds_tried += 1
        moves, visited, cap = _bfs_to_target(
            adj_masks, thresholds, mask_of(seed_tuple), target_mask,
            monotone=False, max_states=limits.max_states,
        )
        stats.states_expanded += visited
        capped = capped or cap
        if moves is not None:
            witness = SequentialWitness(tuple(moves), len(moves))
            return _outcome(VERDICT_FEASIBLE, Certificate(frozenset(seed_tuple), witness), stats, t0)
    return _outcome(VERDICT_CAP if capped else VERDICT_INFEASIBLE, None, stats, t0)


def _restricted_k1_bfs(
    adj_masks: Sequence[int],
    thresholds: Sequence[int],
    s_mask: int,
    u0: Optional[int],
    max_states: int,
) -> tuple[Optional[list[Move]], int, bool]:
    """Search the clearing-restricted space for one seed candidate.

    States are configurations over S plus the candidate u0; moves are
    activations of snapshot nodes and best-response toggles of u0 only, so no
    node other than u0 ever deactivates. Neighbor counts only ever see active
    nodes inside S union {u0}, which equals counting inside the induced
    subgraph on S union {u0}.
    """
    u0_bit = 0 if u0 is None else 1 << u0
    arena = s_mask | u0_bit
    start = u0_bit
    if start == s_mask:
        return [], 1, False
    parents: dict[int, tuple[int, Move]] = {start: (-1, Move(0, True))}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for v in iter_bits(arena):
            bit = 1 << v
            met = (adj_masks[v] & cur).bit_count() >= thresholds[v]
            if not cur & bit:
                if not met:
                    continue
                nxt = cur | bit
            elif v == u0 and not met:
                nxt = cur & ~bit
            else:
                continue
            if nxt in parents:
                continue
            parents[nxt] = (cur, Move(v, bool(nxt & bit)))
            if nxt == s_mask:
                moves: list[Move] = []
                node = nxt
                while node != start:
                    prev, mv = parents[node]
                    moves.append(mv)
                    node = prev
                moves.reverse()
                return moves, len(parents), False
            if len(parents) >= max_states:
                return None, len(parents), True
            queue.append(nxt)
    return None, len(parents), False


def solve_sequential_k1(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Budget-1 non-monotone sequential solver with the two structural prunes:
    seed candidates come from N[S] (plus the empty seed), and each candidate
    search is restricted to orderings of S plus the candidate in which only
    the candidate may deactivate. Must agree with solve_sequential."""
    _require_mode(instance, "sequential", False, "solve_sequential_k1")
    if instance.budget != 1:
        raise ValueError(f"solve_sequential_k1 requires budget 1, got {instance.budget}")
    t0 = time.perf_counter()
    stats = SolveStats()
    adj_masks, thresholds = instance.graph.adj_masks, instance.thresholds
    s_mask = instance.snapshot_mask()
    candidates: list[Optional[int]] = [None]
    candidates.extend(sorted(closed_neighborhood(instance.graph, instance.snapshot)))
    capped = False
    for u0 in candidates:
        stats.seeds_tried += 1
        moves, visited, cap = _restricted_k1_bfs(
            adj_masks, thresholds, s_mask, u0, limits.max_states
        )
        stats.states_expanded += visited
        capped = capped or cap
        if moves is not None:
            seed = frozenset() if u0 is None else frozenset({u0})
            witness = SequentialWitness(tuple(moves), len(moves))
            return _outcome(VERDICT_FEASIBLE, Certificate(seed, witness), stats, t0)
    return _outcome(VERDICT_CAP if capped else VERDICT_INFEASIBLE, None, stats, t0)


def solve(instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Dispatch to the solver for the instance's dynamics mode."""
    if instance.mode.simultaneous:
        if instance.mode.monotone:
            return solve_monotone_simultaneous(instance, limits)
        return solve_simultaneous(instance, limits)
    if instance.mode.monotone:
        return solve_monotone_sequential(instance, limits)
    return solve_sequential(instance, limits)


def seed_feasible(
    instance: SnapshotInstance,
    seed: Iterable[int],
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Optional[Certificate]:
    """Check one specific seed set under the instance's mode; a certificate on
    success, None otherwise. Raises SearchCapExceeded on resource caps."""
    seed_set = frozenset(seed)
    graph, thresholds = instance.graph, instance.thresholds
    if instance.mode.simultaneous:
        result = run_simultaneous(
            graph, thresholds, seed_set, instance.mode,
            target=instance.snapshot, max_steps=limits.steps_for(graph.n),
        )
        if result.termination.kind == "step_cap_hit":
            raise SearchCapExceeded("simultaneous run hit the step cap")
        if result.matched:
            return Certificate(seed_set, SimultaneousWitness(result.trace.match_time))
        return None
    if instance.mode.monotone:
        if not seed_set <= instance.snapshot:
            return None
        s_mask = instance.snapshot_mask()
        if _closure_mask(graph.adj_masks, thresholds, mask_of(seed_set), s_mask) != s_mask:
            return None
        order = _closure_order(graph.adj_masks, thresholds, mask_of(seed_set), s_mask)
        return Certificate(seed_set, SequentialWitness(tuple(Move(v, True) for v in order), len(order)))
    moves, _, cap = _bfs_to_target(
        graph.adj_masks, thresholds, mask_of(seed_set), instance.snapshot_mask(),
        monotone=False, max_states=limits.max_states,
    )
    if cap:
        raise SearchCapExceeded("sequential seed search hit max_states")
    if moves is None:
        return None
    return Certificate(seed_set, SequentialWitness(tuple(moves), len(moves)))
