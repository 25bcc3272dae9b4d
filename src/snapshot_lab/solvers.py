"""Feasibility deciders for the four dynamics, with replayable certificates.

``solve(instance)`` is the one entry that decides an instance, under the
instance's own mode; ``solve_sequential_k1`` is a separate, restricted
solver for budget-1 non-monotone sequential instances, kept as the pruned
side of an acceptance check. A ``SolveOutcome`` writes its certificate
through ``serialize.certificate_to_dict``, and
``verification.check_certificate`` is the one replay of it.

Every mode asks the same question, whether some seed of size <= k reaches the
snapshot S, and answers it the same way: ``_search`` tries candidate seed
masks in one canonical order (by size, then lexicographically over sorted
ids) and runs one per-seed check on each, reporting the first seed whose
check returns a witness, so outputs are fully deterministic. Only the seed
pool, the check and the move rule differ by mode. ``_search`` is the only
loop that counts seeds and states.

Seed pools are the load-bearing prunes; ``_seed_masks`` lists the supersets
of a forced mask drawn from a pool:

* monotone dynamics, either order: seeds are subsets of S (a committed seed
  node is still active at match time), and only supersets of the forced set
  F = {v in S : |N(v) & S| < t(v)}. Before a match every configuration lies
  inside S, so a node of F can never activate and must be seeded; |F| > k is
  infeasible without trying a seed;
* non-monotone dynamics: seeds range over all of V (a seed can sit at
  distance >= 2 from the snapshot it produces, so no neighborhood prune is
  sound);
* non-monotone sequential with budget 1 (``solve_sequential_k1``): candidates
  shrink to the closed neighborhood N[S] plus the empty seed. Must agree with
  the unrestricted solver.

Per-seed checks:

* simultaneous, both modes: the run on bitmasks of one seed-independent step
  map, ``c -> R(c)`` (monotone: ``c -> c | R(c)``), where R(c) is the set of
  nodes whose best response to c is active; the seed drops out because every
  configuration of a monotone run contains its seed. Runs from different
  seeds therefore walk one functional graph. A run's fate is its first
  match with S or never: it never matches once it closes a cycle without
  meeting S, or, monotone, as soon as it leaves S, because it only grows.
  The masks of such a run go into a memo ``{mask: R(mask)}`` shared by the
  seeds of one solve, so a later run that reaches one stops there; a match
  ends the search, so nothing else needs storing. The first sweep of seed s
  looks up p, s without its highest node, and when p is stored it derives
  R(s) from R(p), re-reading only that node's neighbours. p is nearly
  always stored: canonical order tries p before s, and p's run either never
  matched, which stored p, or matched, which ended the search. A p that was
  never tried (the empty seed's, one lacking a forced node, one a filtered
  pool dropped) falls back to the full kernel; every entry is an exact R,
  so no verdict depends on a hit. Later sweeps use the full kernel. The
  configuration space is finite, so exact repeat detection settles every run
  and no step cap is needed. A ``Trace`` is built only when a certificate is
  replayed;
* monotone sequential: the monotone closure of the seed inside S (never
  selecting outside nodes is always safe and always sufficient), computed
  with its canonical activation order, lowest-id eligible node first, in one
  pass (``_closure``);
* non-monotone sequential: ``_bfs``, the one breadth-first search over single
  best-response moves. Node v may switch on if bit v of ``on`` is set and off
  if bit v of ``off`` is set: the plain search uses on = off = V (monotone
  reachability for the oracles: off = {}), the budget-1 solver and the
  ``clearing`` check use on = S | seed, off = seed, so only snapshot nodes
  activate and only the seed may deactivate. Moves expand in ascending node
  id, so the first shortest witness found is canonical. The searches of one
  solve share a memo of response masks, since they cross the same states; a
  state missing from it takes its parent's response and re-evaluates only
  the neighbours of the flipped node. The unrestricted move rule does not
  depend on the seed, so the plain searches of one solve also share a dead
  set: a search that runs to the end without storing S adds its states,
  since none of them can reach S, and later searches neither store nor
  expand a dead state (a dead seed is settled with no search). Every BFS
  parent of a state that can reach S can reach S too, so the search tree
  over S's ancestors, and its first shortest witness, are unchanged. The
  restricted searches and the enumerations never use it.

One cap rule: a configuration search caps only when a new state arrives
while ``max_states`` states are already stored, so a reachable set of exactly
``max_states`` states is enumerated in full; dead states are never stored,
so a plain search can fit under a cap that its seed's whole reachable set
exceeds. A capped search proves nothing and adds nothing to the dead set,
which, like the response memo, holds at most ``max_states`` entries. This is
the only cap, so only sequential searches can hit it. A check that caps
raises ``SearchCapExceeded`` carrying the states it stored, and ``_search``
is the only place that turns it into a verdict: "infeasible" is only ever
reported after every candidate was checked (or a forced node proves it for
every seed); if any check capped first, the verdict degrades to
"resource_cap_hit" instead of risking a silent false negative.

Every check reads the node table of ``dynamics._node_table``, built once
per solve by ``_seed_check`` (once per enumeration or check elsewhere): the
step map, ``_closure`` and the neighbour-only response update that ``_bfs``
and the simultaneous first sweep share read the same rows, and
``dynamics._response_mask`` is the one full response kernel.

Everything here is pure over immutable inputs; seed candidates are
independent work units, and the canonical ordering (not completion order)
decides the reported certificate.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import combinations, islice
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence

from .dynamics import NodeTable, _node_table, _response_after_flip, _response_mask, _step_mask
from .model import (
    Certificate,
    DynamicsMode,
    Graph,
    Move,
    PLAIN_SEQUENTIAL,
    SequentialWitness,
    SimultaneousWitness,
    SnapshotInstance,
    Witness,
    closed_neighborhood,
    iter_bits,
    mask_of,
    nodes_of,
)
from .serialize import certificate_to_dict

log = logging.getLogger("snapshot_lab")

VERDICT_FEASIBLE = "feasible"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_CAP = "resource_cap_hit"


class SearchCapExceeded(RuntimeError):
    """A configuration search outgrew ``max_states`` before finishing;
    ``states`` is the number of states it had stored."""

    def __init__(self, message: str, states: int = 0):
        super().__init__(message)
        self.states = states


@dataclass(frozen=True)
class SearchLimits:
    """The resource cap: max distinct states stored per configuration search."""

    max_states: int = 1 << 20

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("search limits must be positive")


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
        """The certificate document (``serialize.certificate_to_dict``) with the
        verdict and search stats; timings are off by default so files from
        identical runs are byte-identical."""
        out: dict = {"verdict": {VERDICT_CAP: "cap"}.get(self.verdict, self.verdict)}
        if self.certificate is not None:
            out.update(certificate_to_dict(self.certificate))
        stats = {
            "seeds_tried": self.stats.seeds_tried,
            "states_expanded": self.stats.states_expanded,
        }
        if include_timings:
            stats["wall_time"] = self.stats.wall_time
        out["stats"] = stats
        return out


# A per-seed check: the witness of a match (or None) and the states it used.
SeedCheck = Callable[[int], tuple[Optional[Witness], int]]


def canonical_seed_sets(candidates: Iterable[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Seed sets by increasing size, lexicographic within a size."""
    pool = sorted(candidates)
    for size in range(0, min(max_size, len(pool)) + 1):
        yield from combinations(pool, size)


def _seed_masks(pool: Iterable[int], forced: int, budget: int) -> Iterator[int]:
    """Seed masks of size <= budget that contain ``forced`` and draw the rest
    from ``pool``, in canonical order.

    Enumerating by the free part keeps the canonical order of the full space:
    same size, and the least element of a symmetric difference is never a
    forced node. A forced mask over budget yields nothing.
    """
    free_pool = [v for v in pool if not forced >> v & 1]
    for free in canonical_seed_sets(free_pool, budget - forced.bit_count()):
        yield forced | mask_of(free)


def _search(seeds: Iterable[int], check: SeedCheck) -> SolveOutcome:
    """Run ``check`` on each seed mask in order and report the first seed
    whose check returns a witness. A seed whose check raises
    SearchCapExceeded counts as capped and logs one DEBUG line, and a search
    that finds no seed then reads ``resource_cap_hit`` rather than
    ``infeasible``."""
    t0 = time.perf_counter()
    stats = SolveStats()
    verdict, cert = VERDICT_INFEASIBLE, None
    for seed_mask in seeds:
        stats.seeds_tried += 1
        try:
            witness, states = check(seed_mask)
        except SearchCapExceeded as cap:
            log.debug("seed %s hit the state cap with %d states stored",
                      list(iter_bits(seed_mask)), cap.states)
            stats.states_expanded += cap.states
            verdict = VERDICT_CAP
            continue
        stats.states_expanded += states
        if witness is not None:
            verdict, cert = VERDICT_FEASIBLE, Certificate(nodes_of(seed_mask), witness)
            break
    stats.wall_time = time.perf_counter() - t0
    return SolveOutcome(verdict, cert, stats)


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
    return nodes_of(_closure(_node_table(graph.adj_masks, thresholds), seed_mask, restrict)[0])


def _closure(table: NodeTable, seed_mask: int, restrict: int) -> tuple[int, list[int]]:
    """Monotone closure of the seed inside ``restrict``, and the canonical
    order that realizes it: the lowest-id eligible node activates first.

    Eligibility only grows, so a heap of eligible nodes, fed by the
    neighbours of each node it activates, pops them in that order in one
    pass.
    """
    active = seed_mask
    heap = list(iter_bits(_response_mask(table, active) & restrict & ~active))
    queued = active | mask_of(heap)
    order: list[int] = []
    while heap:
        v = heappop(heap)
        adj, _, bit = table[v]
        active |= bit
        order.append(v)
        for u in iter_bits(adj & restrict & ~queued):
            u_adj, u_threshold, u_bit = table[u]
            if (u_adj & active).bit_count() >= u_threshold:
                heappush(heap, u)
                queued |= u_bit
    return active, order


def _bfs(
    table: NodeTable,
    start: int,
    target: int,
    on: int,
    off: int,
    max_states: int,
    responses: dict[int, int],
    dead: AbstractSet[int] = frozenset(),
) -> dict[int, Optional[int]]:
    """Breadth-first search over single best-response moves from ``start``:
    node v may switch on if bit v of ``on`` is set, and off if bit v of
    ``off`` is set.

    Returns the parent of every stored state (``start`` maps to None); the
    move into a state flips the one bit of ``parent ^ state``. Stops once
    ``target`` is stored (-1 enumerates every reachable state). Raises
    SearchCapExceeded when a new state arrives while ``max_states`` states
    are already stored. ``responses`` memoizes the response mask of up to
    ``max_states`` states for every search on the same graph that shares it;
    searches from different seeds of one instance cross the same states. A
    state missing from it gets its response from its parent's memoized one,
    re-evaluating only the neighbours of the flipped node. States in
    ``dead`` are known not to reach ``target`` under this move rule; they are
    neither stored nor expanded, which leaves the search tree over the
    states that can reach ``target`` unchanged.
    """
    parents: dict[int, Optional[int]] = {start: None}
    if start == target:
        return parents
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        response = responses.get(cur)
        if response is None:
            prev = parents[cur]
            prev_response = None if prev is None else responses.get(prev)
            if prev_response is None:
                response = _response_mask(table, cur)
            else:
                node = (prev ^ cur).bit_length() - 1
                response = _response_after_flip(table, cur, node, prev_response)
            if len(responses) < max_states:
                responses[cur] = response
        flips = (response ^ cur) & (on & ~cur | off & cur)
        while flips:
            bit = flips & -flips
            flips ^= bit
            nxt = cur ^ bit
            if nxt in parents or nxt in dead:
                continue
            if len(parents) >= max_states:
                raise SearchCapExceeded(
                    f"configuration search exceeded max_states={max_states}", len(parents)
                )
            parents[nxt] = cur
            if nxt == target:
                return parents
            queue.append(nxt)
    return parents


def _moves_to(parents: dict[int, Optional[int]], state: int) -> tuple[Move, ...]:
    """The moves of the stored path from the search's start to ``state``."""
    moves: list[Move] = []
    prev = parents[state]
    while prev is not None:
        bit = prev ^ state
        moves.append(Move(bit.bit_length() - 1, bool(state & bit)))
        state, prev = prev, parents[prev]
    moves.reverse()
    return tuple(moves)


def _bfs_check(
    table: NodeTable,
    s_mask: int,
    max_states: int,
    restricted: bool,
    responses: dict[int, int],
    dead: AbstractSet[int],
    seed_mask: int,
) -> tuple[Optional[SequentialWitness], int]:
    """Non-monotone sequential check: a shortest move sequence from the seed
    to S, over all moves or, ``restricted``, over the clearing-restricted
    moves (only S activates, only the seed deactivates).

    The unrestricted move rule does not depend on the seed, so a search that
    runs to the end without storing S proves that none of its states can
    reach S: they go into ``dead`` (up to ``max_states`` entries), which later
    searches neither store nor expand, and a seed inside it is settled with
    no search. A capped search raises before it adds anything, and the
    restricted searches get an empty frozenset, which they never feed.
    """
    if seed_mask in dead:
        return None, 0
    if restricted:
        on, off = s_mask | seed_mask, seed_mask
    else:
        on = off = (1 << len(table)) - 1
    parents = _bfs(table, seed_mask, s_mask, on, off, max_states, responses, dead)
    if s_mask not in parents:
        if not restricted:
            dead.update(islice(parents, max_states - len(dead)))
        return None, len(parents)
    moves = _moves_to(parents, s_mask)
    return SequentialWitness(moves, len(moves)), len(parents)


def _closure_check(
    table: NodeTable, s_mask: int, seed_mask: int
) -> tuple[Optional[SequentialWitness], int]:
    """Monotone sequential check: the closure of the seed inside S is S."""
    closure, order = _closure(table, seed_mask, s_mask)
    if closure != s_mask:
        return None, len(order) + 1
    return SequentialWitness(tuple(Move(v, True) for v in order), len(order)), len(order) + 1


def _forced_seed_mask(adj_masks: Sequence[int], thresholds: Sequence[int], s_mask: int) -> int:
    """Snapshot nodes with fewer than their threshold of neighbors inside S.

    Under monotone dynamics, simultaneous or sequential, every configuration
    before a match lies inside S, so such a node can never activate before
    the match and must already be in the seed.
    """
    return mask_of(
        v for v in iter_bits(s_mask)
        if (adj_masks[v] & s_mask).bit_count() < thresholds[v]
    )


def _simultaneous_fate(
    table: NodeTable,
    s_mask: int,
    monotone: bool,
    memo: dict[int, int],
    start: int,
) -> tuple[Optional[SimultaneousWitness], int]:
    """Simultaneous check: the fate of the run from ``start`` under the
    seed-independent step map ``_step_mask``, its first match with S as a
    witness or None for never, and the number of masks whose successor this
    call computed.

    A run never matches once it closes a cycle without meeting S, reaches a
    mask of ``memo``, or, monotone, leaves S. Its masks then go into
    ``memo`` with their response masks, so a later seed whose run reaches
    one stops there. A match ends the seed search, so the masks of a
    matching run are never stored. The first sweep takes the response of
    ``start`` minus its highest node from ``memo`` when it is there and
    re-reads only that node's neighbours; later sweeps use the full kernel.
    """
    path: dict[int, int] = {}
    cur = start
    while cur != s_mask:
        if cur in memo or cur in path or monotone and cur & ~s_mask:
            memo.update(path)
            return None, len(path)
        response = None
        if not path and cur:
            top = cur.bit_length() - 1
            below = memo.get(cur ^ 1 << top)
            if below is not None:
                response = _response_after_flip(table, cur, top, below)
        if response is None:
            response = _response_mask(table, cur)
        path[cur] = response
        cur = _step_mask(table, cur, start, monotone, response)
    return SimultaneousWitness(len(path)), len(path)


def _seeds(instance: SnapshotInstance) -> Iterator[int]:
    """Candidate seed masks of the instance's mode: all of V, or under
    monotone dynamics the supersets of the forced set inside S."""
    if not instance.mode.monotone:
        return _seed_masks(range(instance.n), 0, instance.budget)
    s_mask = instance.snapshot_mask()
    forced = _forced_seed_mask(instance.graph.adj_masks, instance.thresholds, s_mask)
    return _seed_masks(instance.snapshot, forced, instance.budget)


def _seed_check(
    instance: SnapshotInstance, limits: SearchLimits, restricted: bool = False
) -> SeedCheck:
    """The per-seed check of the instance's mode. It keeps one memo for all
    the seeds it is called on: the response masks of the masks whose run
    never matches (simultaneous), or response masks and the states that
    cannot reach S (non-monotone sequential)."""
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    s_mask = instance.snapshot_mask()
    if instance.mode.simultaneous:
        return partial(_simultaneous_fate, table, s_mask, instance.mode.monotone, {})
    if instance.mode.monotone:
        return partial(_closure_check, table, s_mask)
    dead = frozenset() if restricted else set()
    return partial(_bfs_check, table, s_mask, limits.max_states, restricted, {}, dead)


def _reachable_mask_set(
    table: NodeTable,
    seed_mask: int,
    mode: DynamicsMode,
    limits: SearchLimits,
    responses: dict[int, int],
) -> set[int]:
    """All configuration masks a run from the seed can visit. A sequential
    enumeration raises SearchCapExceeded when it outgrows ``max_states``;
    those on one graph may share the ``responses`` memo. A simultaneous run
    is followed to its first repeat."""
    if mode.simultaneous:
        seen: set[int] = set()
        cur = seed_mask
        while cur not in seen:
            seen.add(cur)
            cur = _step_mask(table, cur, seed_mask, mode.monotone)
        return seen
    everything = (1 << len(table)) - 1
    off = 0 if mode.monotone else everything
    parents = _bfs(table, seed_mask, -1, everything, off, limits.max_states, responses)
    return set(parents)


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
    table = _node_table(graph.adj_masks, thresholds)
    masks = _reachable_mask_set(table, mask_of(seed), mode, limits, {})
    return {nodes_of(m) for m in masks}


def solve(instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Decide the instance under its own dynamics mode: the one decision entry
    for every mode."""
    return _search(_seeds(instance), _seed_check(instance, limits))


def solve_sequential_k1(
    instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS
) -> SolveOutcome:
    """Budget-1 non-monotone sequential solver with the two structural prunes:
    seed candidates come from N[S] (plus the empty seed), and each candidate
    search is restricted to orderings of S plus the candidate in which only
    the candidate may deactivate. Must agree with ``solve``."""
    if instance.mode != PLAIN_SEQUENTIAL:
        raise ValueError(
            "solve_sequential_k1 handles sequential dynamics, "
            f"instance mode is {instance.mode.describe()}"
        )
    if instance.budget != 1:
        raise ValueError(f"solve_sequential_k1 requires budget 1, got {instance.budget}")
    pool = closed_neighborhood(instance.graph, instance.snapshot)
    return _search(_seed_masks(pool, 0, 1), _seed_check(instance, limits, restricted=True))


def seed_feasible(
    instance: SnapshotInstance,
    seed: Iterable[int],
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Optional[Certificate]:
    """Check one specific seed set under the instance's mode; a certificate on
    success, None otherwise. Raises SearchCapExceeded on resource caps."""
    seed_set = frozenset(seed)
    witness, _ = _seed_check(instance, limits)(mask_of(seed_set))
    return None if witness is None else Certificate(seed_set, witness)
