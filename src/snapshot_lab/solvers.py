"""Feasibility deciders for the four dynamics, with replayable certificates.

``solve(instance)`` is the public entry that decides an instance, under the
instance's own mode. It and the clique rules decide through one front,
``_solve``, which logs a seed pool and hands it, with the mode's per-seed
check, to ``_search``: a rule that settles an instance before any search
is a pool of zero seeds or one. A ``SolveOutcome`` writes its certificate
through ``serialize.certificate_to_dict``, and
``verification.check_certificate`` is the one replay of it.

Every mode asks the same question, whether some seed of size <= k reaches the
snapshot S, and answers it the same way: ``_search`` tries candidate seed
masks in one canonical order (by size, then lexicographically over sorted
ids) and runs one per-seed check on each, reporting the first seed whose
check returns a witness, so outputs are fully deterministic. Only the seed
pool, the check and the move rule differ by mode. ``_search`` is the only
loop that counts seeds and states.

Seed pools are the load-bearing prunes. ``_seed_pool`` draws the solve's
from S's mask and the forced set F = {v in S : |N(v) & S| < t(v)} before the
node table exists, and the table is built only once a seed is tried. Every
pool is a lazy stream of masks, so a solve settled at its first seeds draws
no other; ``_seed_masks``, the one seed enumerator (the exhaustive oracles
draw from it too), lists the supersets of a forced mask drawn from a pool,
summing node bits rather than packing ids per seed. Every pool is a
subsequence of the canonical order, and every seed it drops is proved to
fail, so the reported seed and witness do not depend on it:

* monotone dynamics, either order: seeds are subsets of S (a committed seed
  node is still active at match time), and only supersets of F. Before a
  match every configuration lies inside S, so a node of F can never
  activate and must be seeded; |F| > k is infeasible without trying a
  seed;
* plain sequential, at every budget, the clearing pool for the seeds of at
  most one node: the empty seed if F is empty, a node u0 of S if F lies
  inside {u0}, and a node u0 outside S if t(u0) >= 1 and every node of F
  lacks exactly one neighbour in S and neighbours u0. Proof, from the
  clearing lemma below: S is reached along a direct path, on which only
  nodes of S switch on and only u0 switches off, so a node of F that is
  not the seed switches on with at most u0 beyond its neighbours in S, and
  u0 outside S must switch off, which t(u0) = 0 forbids. Every seed of two
  or more nodes follows, all of V (the canonical masks after the first
  n + 1);
* plain simultaneous: seeds range over all of V (a seed can sit at
  distance >= 2 from the snapshot it produces, so no neighborhood prune is
  sound in general).

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
  never tried (the empty seed's, one lacking a forced node) falls back to
  the full kernel; every entry is an exact R, so no verdict depends on a
  hit. Later sweeps use the full kernel. The configuration space is
  finite, so exact repeat detection settles every run and no step cap is
  needed. A ``Trace`` is built only when a certificate is replayed;
* monotone simultaneous on a clique: the same run by counts
  (``_clique_fate``), with the same stops, memo and state count. An
  inactive node sees all |c| active nodes, so the sweep from c adds
  ``steps[|c|]``, the nodes of threshold <= |c|, and no node table is
  built. The clique test, ``_missing_edge`` (``assert_clique`` reads it
  too), reads adjacency rows from the first, so a graph that is not a
  clique nearly always costs one row. ``run_simultaneous``, certificate
  replay and the oracles keep the node table as the reference. The two
  fates stay two loops: one loop taking the response as a function costs
  a call per sweep, measured at +2.5-7% sim-search p50;
* monotone sequential, and a non-monotone sequential seed of at most one
  node: ``_direct_check``, closures and no search (below), unless they cap;
* a non-monotone sequential seed of two or more nodes: ``_bfs``, the one
  breadth-first search over single best-response moves. Any node may switch on, and node
  v may switch off if bit v of ``off`` is set: the plain search uses off =
  V, the monotone reachability of the oracles off = {}. Moves expand in
  ascending node id, so each level's states leave the queue in the order of
  their lexicographically least shortest paths, and the first state of the
  level before that reaches a state is its parent: its stored path is that
  least path, the canonical witness. ``_bfs`` neither stores nor expands
  the states of a ``known`` set, whose whole reachable sets are accounted
  for: the dead set of states that cannot reach S, shared by the searches
  of one solve (``_bfs_check``), or the exhaustive oracles' union of what
  earlier seeds reached, so each seed enumerates only what no earlier seed
  did. Every BFS parent of a state that can reach S can reach S too, so
  skipping dead states leaves the search tree over S's ancestors, and its
  first shortest witness, unchanged.

The clearing lemma: under plain sequential dynamics, from a seed D of at
most one node u0, every reachable configuration c has a *direct* path, in
which only nodes of c switch on, each once, and only u0 switches off, once,
when it is not in c. Proof: the configurations with a direct path are
closed under legal moves. Along a direct path P to c every node but u0
keeps the support it switched on with, less u0's once u0 is off. A node
v != u0 switching on never did in P (it would still be on), so P, v on is
direct, and so is P, u0 off. If u0 switches back on, P is P1, u0 off, P2,
and P2's activations only gain support with u0 on, so P1, P2 is direct. A
node w != u0 can switch off only by losing u0's support: it switched on
with exactly t(w) active neighbours, u0 among them, and none switched on
after it, so leaving w's activation out keeps every later move legal (u0's
switch-off only gains), a direct path to c - w. A seed node with no
neighbour in S supports no node of a direct path to S, so the empty seed,
tried first, reaches S too. The lemma fails for two seeds (the hub pair of
the verification tests needs relays outside S), so the decider is chosen
per seed, not by the budget: closures for a seed of at most one node, the
BFS for a larger one. Every seed of at most one node precedes every pair
in canonical order, so verdict, seed and witness are those of a solve
that searches every seed. The dead states of the small seeds' searches
barely shrink the pairs' searches: budget-2 solves of arbitrary snapshots
expand 573.0 states each without those searches against 575.3 with them
(seq-search benchmark, seeds 1 and 2).

So S is reachable from D iff it has a direct path, which ``_direct_path``
decides by closures from any configuration on one (D plus nodes of S):

* u0 absent (D empty, u0 in S or already off): only nodes of S switch on,
  monotonically, so S is reachable iff the closure inside S is S. This is
  also the whole of monotone sequential, where the seed lies inside S;
* u0 on and outside S: u0 switches off once, with at most t(u0) - 1 active
  neighbours (never for t(u0) = 0). Before that the path activates some A
  inside X_full, the closure inside S | u0, and after it S must be the
  closure of A - u0 inside S. Pad A's neighbours of u0 (the ones already
  on among them) with other neighbours of u0 in X_full to a set Y of
  min(t(u0) - 1, their number) nodes, and let X be the closure inside
  (S - N(u0)) | Y | u0. Then A lies inside X, u0 can still switch off, and
  closures are monotone in start and restrict set, so the closure of X -
  u0 inside S is S whenever A's is: S is reachable iff some such Y works.

A direct path flips each node of S ^ D once, the fewest moves any path
can make, so every shortest path is direct, and the BFS's witness is the
lexicographically least direct path. ``_direct_check`` rebuilds it
greedily, taking at each step the lowest-id direct move after which
``_direct_path`` still reaches S; when u0 is absent every activation keeps
S reachable, so the closure order, lowest id first, is that walk.

One cap rule: a configuration search caps only when a new state arrives
while ``max_states`` states are already stored, so a reachable set of exactly
``max_states`` states is enumerated in full; known states are never stored,
so a plain search, or an oracle's enumeration of one seed, can fit under a
cap that its seed's whole reachable set exceeds. A capped search proves
nothing and adds nothing to the dead set, which holds at most
``max_states`` entries. The sets Y number C(deg, t - 1), so the closures of
one seed's check, decision and witness alike, count the configurations they
visit (each closure's start and one per activation) and stop before another
Y once they have visited ``max_states``. They count repeats, so they can cap
where a search fits, and the search of a pair can cap where the same
search fits under the dead set the small seeds' searches would have left.
So a plain sequential solve, at any budget, keeps one rule: at its first
cap ``_plain_sequential_check`` clears its dead set, and from then on it
searches that seed and every later one after every canonical seed before
it, those decided by closures or dropped by the clearing pool included.
Each such search sees an all-search solve's dead set, so the solve
decides each seed from its first cap on as that solve does: a verdict,
seed or witness that differs from that solve's is the uncapped one, and
a solve caps only where an all-search one does. A check
that caps raises ``SearchCapExceeded`` carrying the states it used, and
``_search`` is the only place that turns it into a verdict: "infeasible"
is only ever reported after every candidate was checked (or its pool
proves it for every seed); if any check capped first, the verdict
degrades to "resource_cap_hit" instead of risking a silent false
negative.

Every check but the clique count run reads the node table of
``dynamics._node_table``, built once per solve by ``_seed_check`` at its
first seed (once per enumeration or check elsewhere): the
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
from itertools import accumulate, chain, combinations, islice
from operator import or_
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence

from .dynamics import NodeTable, _node_table, _response_after_flip, _response_mask, _step_mask
from .model import (
    Certificate,
    DynamicsMode,
    Graph,
    Move,
    SequentialWitness,
    SimultaneousWitness,
    SnapshotInstance,
    Witness,
    is_int,
    iter_bits,
    mask_of,
    nodes_of,
)
from .serialize import certificate_to_dict, seed_ids

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
        if not is_int(self.max_states) or self.max_states < 1:
            raise ValueError(f"search limits must be positive integers, got {self.max_states!r}")


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


def _seed_masks(pool: Iterable[int], forced: int, budget: int) -> Iterator[int]:
    """Seed masks of size <= budget that contain ``forced`` and draw the rest
    from ``pool``, in canonical order: by size, lexicographic over sorted ids
    within a size. The one seed enumerator of the package.

    Enumerating by the free part keeps the canonical order of the full space:
    same size, and the least element of a symmetric difference is never a
    forced node. A forced mask over budget yields nothing. The free part is
    combined as node bits, distinct powers of two, so its sum is its mask.
    """
    free_bits = sorted(1 << v for v in pool if not forced >> v & 1)
    for size in range(min(budget - forced.bit_count(), len(free_bits)) + 1):
        for free in combinations(free_bits, size):
            yield forced | sum(free)


def _search(seeds: Iterable[int], make_check: Callable[[], SeedCheck]) -> SolveOutcome:
    """Run the check ``make_check`` builds at the first seed on each seed
    mask in order, and report the first seed whose check returns a witness.
    A seed whose check raises SearchCapExceeded counts as capped and logs
    one DEBUG line, and a search that finds no seed then reads
    ``resource_cap_hit`` rather than ``infeasible``."""
    t0 = time.perf_counter()
    stats = SolveStats()
    verdict, cert = VERDICT_INFEASIBLE, None
    check: Optional[SeedCheck] = None
    for seed_mask in seeds:
        stats.seeds_tried += 1
        if check is None:
            check = make_check()
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
    result is independent of activation order. Raises
    ``InvalidInstanceError`` on a node id outside the graph.
    """
    seed_mask = mask_of(seed_ids(list(seed), graph.n))
    if restrict_to is None:
        restrict = graph.full_mask()
    else:
        restrict = mask_of(seed_ids(list(restrict_to), graph.n, "restrict_to"))
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
    off: int,
    max_states: int,
    known: AbstractSet[int] = frozenset(),
) -> dict[int, Optional[int]]:
    """Breadth-first search over single best-response moves from ``start``:
    any node may switch on, and node v may switch off if bit v of ``off`` is
    set.

    Returns the parent of every stored state (``start`` maps to None); the
    move into a state flips the one bit of ``parent ^ state``. Stops once
    ``target`` is stored (-1 enumerates every reachable state). Raises
    SearchCapExceeded when a new state arrives while ``max_states`` states
    are already stored. Each queued state carries its response mask: the
    start's from the full kernel, every other's from its parent's,
    re-reading only the neighbours of the flipped node. States in ``known``
    have their whole reachable set accounted for already (the solve's dead
    set, or an oracle's union of what earlier seeds reached); they are
    neither stored nor expanded, and a start in it stores nothing. Skipping
    them leaves the search tree over the states that can reach ``target``
    unchanged.
    """
    if start in known:
        return {}
    parents: dict[int, Optional[int]] = {start: None}
    if start == target:
        return parents
    queue = deque([(start, _response_mask(table, start))])
    while queue:
        cur, response = queue.popleft()
        flips = (response ^ cur) & (off | ~cur)
        while flips:
            bit = flips & -flips
            flips ^= bit
            nxt = cur ^ bit
            if nxt in parents or nxt in known:
                continue
            if len(parents) >= max_states:
                raise SearchCapExceeded(
                    f"configuration search exceeded max_states={max_states}", len(parents)
                )
            parents[nxt] = cur
            if nxt == target:
                return parents
            queue.append((nxt, _response_after_flip(table, nxt, bit.bit_length() - 1, response)))
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
    dead: set[int],
    seed_mask: int,
) -> tuple[Optional[SequentialWitness], int]:
    """Non-monotone sequential check: a shortest move sequence from the seed
    to S.

    The move rule does not depend on the seed, so a search that runs to the
    end without storing S proves that none of its states can reach S: they
    go into ``dead`` (up to ``max_states`` entries), the ``known`` set of
    later searches, and a seed inside it is settled with no search. A capped
    search raises before it adds anything.
    """
    parents = _bfs(table, seed_mask, s_mask, -1, max_states, dead)
    if s_mask not in parents:
        dead.update(islice(parents, max_states - len(dead)))
        return None, len(parents)
    moves = _moves_to(parents, s_mask)
    return SequentialWitness(moves, len(moves)), len(parents)


def _direct_path(
    table: NodeTable, s_mask: int, active: int, u0: int, max_states: int, states: int = 0
) -> tuple[Optional[list[int]], int]:
    """The nodes a direct path from ``active`` (u0, a bit that is 0 when it
    lies in S or is off, plus nodes of S) to S flips, in order, or None (the
    module docstring holds the argument); and ``states`` plus the
    configurations its closures visited. Raises SearchCapExceeded before a
    neighbour set Y but the first once ``states`` reaches ``max_states``."""
    if not u0:
        closure, order = _closure(table, active, s_mask)
        return (order if closure == s_mask else None), states + len(order) + 1
    adj, threshold, _ = table[u0.bit_length() - 1]
    free = threshold - 1 - (adj & active).bit_count()
    if free < 0:
        return None, states
    x, before = _closure(table, active, s_mask | u0)
    states += len(before) + 1
    rest = adj & x & ~active
    tries = [None] if rest.bit_count() <= free else combinations(iter_bits(rest), free)
    for y in tries:
        if y is not None:
            if states >= max_states:
                raise SearchCapExceeded(f"closures exceeded max_states={max_states}", states)
            x, before = _closure(table, active, s_mask & ~adj | active | mask_of(y))
            states += len(before) + 1
        closure, after = _closure(table, x ^ u0, s_mask)
        states += len(after) + 1
        if closure == s_mask:
            return before + [u0.bit_length() - 1] + after, states
    return None, states


def _direct_check(
    table: NodeTable, s_mask: int, max_states: int, seed_mask: int
) -> tuple[Optional[SequentialWitness], int]:
    """The closure check of a monotone sequential seed, or of a non-monotone
    sequential seed of at most one node: ``_direct_path`` decides it, and for
    a seed node u0 outside S a greedy walk takes the lowest-id direct move
    that keeps S reachable, trying only moves below the last path's next
    one. Every closure counts against one ``max_states``."""
    u0 = seed_mask & ~s_mask
    path, states = _direct_path(table, s_mask, seed_mask, u0, max_states)
    if path is None:
        return None, states
    active, i = seed_mask, 0
    while active & u0:
        response = _response_mask(table, active)
        lower = (response & s_mask & ~active | u0 & ~response) & ((1 << path[i]) - 1)
        for v in iter_bits(lower):
            found, states = _direct_path(
                table, s_mask, active ^ 1 << v, u0 & ~(1 << v), max_states, states
            )
            if found is not None:
                path[i:] = [v] + found
                break
        active ^= 1 << path[i]
        i += 1
    moves = tuple(Move(v, not u0 >> v & 1) for v in path)
    return SequentialWitness(moves, len(moves)), states


def _forced(adj_masks: Sequence[int], thresholds: Sequence[int], s_mask: int) -> tuple[int, int]:
    """F, the snapshot nodes with fewer than their threshold of neighbours
    inside S, and the nodes adjacent to every node of F when each has
    exactly one neighbour too few (all of V for F empty; none if some node
    of F falls two or more short)."""
    forced, common = 0, -1
    for v in iter_bits(s_mask):
        deficit = thresholds[v] - (adj_masks[v] & s_mask).bit_count()
        if deficit > 0:
            forced |= 1 << v
            common &= adj_masks[v] if deficit == 1 else 0
    return forced, common


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


def _missing_edge(adj_masks: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair of distinct nodes that are not adjacent, lowest u then
    lowest v, or None on a clique. Rows are read from the first, so most
    graphs that are not cliques cost one row."""
    full, bit = (1 << len(adj_masks)) - 1, 1
    for u, adj in enumerate(adj_masks):
        missing = full & ~adj & ~bit
        if missing:
            return u, (missing & -missing).bit_length() - 1
        bit <<= 1
    return None


def _count_steps(thresholds: Sequence[int]) -> list[int]:
    """``steps[x]``, for x in 0..n, is the mask of the nodes of threshold <= x;
    a threshold above n never fires."""
    n = len(thresholds)
    steps = [0] * (n + 1)
    for v, threshold in enumerate(thresholds):
        if threshold <= n:
            steps[threshold] |= 1 << v
    return list(accumulate(steps, or_))


def _clique_fate(
    steps: Sequence[int], s_mask: int, memo: set[int], start: int
) -> tuple[Optional[SimultaneousWitness], int]:
    """``_simultaneous_fate`` of a monotone run on a clique, by counting: an
    inactive node sees every active one, so the sweep from c adds the nodes
    of threshold <= |c|, ``steps[|c|]``. Its stops, its memo of masks that
    never match and its state count are those of the node-table run. No
    active node can lose its support, since |c| only grows."""
    path: set[int] = set()
    cur = start
    while cur != s_mask:
        if cur in memo or cur in path or cur & ~s_mask:
            memo.update(path)
            return None, len(path)
        path.add(cur)
        cur |= steps[cur.bit_count()]
    return SimultaneousWitness(len(path)), len(path)


def _seed_pool(instance: SnapshotInstance, s_mask: int) -> tuple[str, Iterator[int]]:
    """The name of the rule that draws the candidate seed masks of the
    instance's mode, and those masks in canonical order as a lazy stream, so
    a solve settled at its first seeds draws no other (the module docstring
    has the rules)."""
    n, budget, mode = instance.n, instance.budget, instance.mode
    if mode.simultaneous and not mode.monotone:
        return "all of V", _seed_masks(range(n), 0, budget)
    thresholds = instance.thresholds
    forced, common = _forced(instance.graph.adj_masks, thresholds, s_mask)
    if mode.monotone:
        return "supersets of F in S", _seed_masks(instance.snapshot, forced, budget)
    singles: Iterable[int] = ()
    if budget:
        # u0 in S needs F inside {u0}; u0 outside S must be able to switch off
        inside = s_mask if not forced else 0 if forced & (forced - 1) else forced
        outside = common & instance.graph.full_mask() & ~s_mask
        singles = (1 << v for v in iter_bits(inside | outside) if inside >> v & 1 or thresholds[v])
    seeds = chain(() if forced else (0,), singles)
    if budget < 2:
        return "clearing", seeds
    # every seed of two or more nodes: the canonical masks after {} and the n singletons
    larger = islice(_seed_masks(range(n), 0, budget), n + 1, None)
    return "clearing, then all of V", chain(seeds, larger)


def _plain_sequential_check(
    table: NodeTable, s_mask: int, max_states: int, replay: Iterable[int]
) -> SeedCheck:
    """The plain sequential check, chosen per seed: closures
    (``_direct_check``) decide a seed of at most one node, the BFS
    (``_bfs_check``) a larger one, and the searches share one dead set.

    From the first cap on, the module docstring's cap rule holds: the dead
    set is cleared, and each seed is searched after the seeds ``replay``
    yields before it. A seed that ``replay`` does not hold keeps its cap:
    a larger one searched again under the same dead set would cap again."""
    direct = partial(_direct_check, table, s_mask, max_states)
    dead: set[int] = set()
    bfs = partial(_bfs_check, table, s_mask, max_states, dead)
    pending: Optional[Iterator[int]] = None  # replay, from the first cap on

    def check(seed_mask: int) -> tuple[Optional[Witness], int]:
        nonlocal pending
        states = 0
        if pending is None:
            try:
                return (bfs if seed_mask & (seed_mask - 1) else direct)(seed_mask)
            except SearchCapExceeded as cap:
                states = cap.states
            pending = iter(replay)
            dead.clear()
        for mask in pending:
            try:
                witness, searched = bfs(mask)
            except SearchCapExceeded as cap:
                if mask == seed_mask:
                    cap.states += states
                    raise
                searched = cap.states
            states += searched
            if mask == seed_mask:
                return witness, states
        raise SearchCapExceeded(f"configuration search exceeded max_states={max_states}", states)

    return check


def _seed_check(
    instance: SnapshotInstance,
    s_mask: int,
    limits: SearchLimits,
    replay: Optional[Iterable[int]] = None,
) -> SeedCheck:
    """The per-seed check of the instance's mode: the simultaneous run (by
    counts on a monotone clique), closures (monotone sequential) or
    ``_plain_sequential_check``, whose searches after a cap replay
    ``replay`` (by default every seed of size <= budget, in canonical
    order). One memo serves all its seeds: the masks of runs that never
    match (simultaneous), or the states that cannot reach S (the BFS)."""
    adj_masks, mode = instance.graph.adj_masks, instance.mode
    if mode.simultaneous and mode.monotone and _missing_edge(adj_masks) is None:
        return partial(_clique_fate, _count_steps(instance.thresholds), s_mask, set())
    table = _node_table(adj_masks, instance.thresholds)
    if mode.simultaneous:
        return partial(_simultaneous_fate, table, s_mask, mode.monotone, {})
    if mode.monotone:
        return partial(_direct_check, table, s_mask, limits.max_states)
    if replay is None:
        replay = _seed_masks(range(instance.n), 0, instance.budget)
    return _plain_sequential_check(table, s_mask, limits.max_states, replay)


def _reachable_mask_set(
    table: NodeTable,
    seed_mask: int,
    mode: DynamicsMode,
    limits: SearchLimits,
    known: AbstractSet[int] = frozenset(),
) -> set[int]:
    """All configuration masks a run from the seed can visit, less those of
    ``known``, a set that holds the whole reachable set of each of its
    masks. A sequential enumeration is ``_bfs`` under its cap rule; a
    simultaneous run is followed to its first repeat or known mask, since
    the step map does not depend on the seed."""
    if mode.simultaneous:
        seen: set[int] = set()
        cur = seed_mask
        while cur not in seen and cur not in known:
            seen.add(cur)
            cur = _step_mask(table, cur, seed_mask, mode.monotone)
        return seen
    off = 0 if mode.monotone else -1  # every bit set: any node may switch off
    return set(_bfs(table, seed_mask, -1, off, limits.max_states, known))


def reachable_configs(
    graph: Graph,
    thresholds: Sequence[int],
    seed: Iterable[int],
    mode: DynamicsMode,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> set[frozenset[int]]:
    """Every configuration reachable from the seed under the mode: the whole
    move-reachable space for sequential dynamics, the trajectory up to cycle
    closure for simultaneous dynamics. Raises ``InvalidInstanceError`` on a
    seed id outside the graph."""
    seed_mask = mask_of(seed_ids(list(seed), graph.n))
    table = _node_table(graph.adj_masks, thresholds)
    masks = _reachable_mask_set(table, seed_mask, mode, limits)
    return {nodes_of(m) for m in masks}


def _solve(
    instance: SnapshotInstance, s_mask: int, limits: SearchLimits, rule: str, seeds: Iterable[int]
) -> SolveOutcome:
    """The one decision front: search the seed pool ``seeds``, drawn by
    ``rule``, with the per-seed check of the instance's mode. One DEBUG line
    names the pool, its size and |F|."""
    if log.isEnabledFor(logging.DEBUG):
        seeds = list(seeds)
        forced = _forced(instance.graph.adj_masks, instance.thresholds, s_mask)[0]
        log.debug("seed pool %s: %d seeds, |F| = %d", rule, len(seeds), forced.bit_count())
    return _search(seeds, partial(_seed_check, instance, s_mask, limits))


def solve(instance: SnapshotInstance, limits: SearchLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Decide the instance under its own dynamics mode: the one decision entry
    for every mode. The seed pool is drawn before the node table, which is
    built only once a seed is tried."""
    s_mask = instance.snapshot_mask()
    return _solve(instance, s_mask, limits, *_seed_pool(instance, s_mask))


def seed_feasible(
    instance: SnapshotInstance,
    seed: Iterable[int],
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Optional[Certificate]:
    """Check one specific seed set under the instance's mode; a certificate on
    success, None otherwise. Raises SearchCapExceeded on resource caps, and
    ``InvalidInstanceError`` on a seed id outside the instance."""
    seed_set = seed_ids(list(seed), instance.n)
    if instance.mode.monotone and not seed_set <= instance.snapshot:
        return None  # a monotone run keeps its seed active
    # capped closures hand a seed of at most one node to its own search; a
    # capped search of a larger seed stands
    seed_mask = mask_of(seed_set)
    replay = [seed_mask] if len(seed_set) <= 1 else []
    witness, _ = _seed_check(instance, instance.snapshot_mask(), limits, replay)(seed_mask)
    return None if witness is None else Certificate(seed_set, witness)
