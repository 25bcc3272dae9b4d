"""Best responses and the four transition systems.

Simultaneous dynamics: every node best-responds at once; the trajectory is
deterministic and is run with exact repeat detection (every visited
configuration is stored, so fixed points and cycles of any period are found
without relying on periodicity assumptions). Sequential dynamics: one selected
node best-responds per step; the system is nondeterministic over selections,
so this module provides the legal-move enumeration and ordering replay that
the solvers search over.

A match against a target set is checked at every time step, time 0 included;
what happens after the first match is irrelevant to feasibility, so later
over-activation never invalidates an earlier exact hit.

All functions are pure over immutable inputs. Hot paths work on int bitmasks
and read one node table, a ``(neighbour mask, threshold, node bit)`` row per
node (``_node_table``), built once per run, solve, enumeration or check and
never per step, with no call per node: its bit column is one cached tuple per
node count. ``_response_mask`` is the one response kernel over it,
``_response_after_flip`` re-reads the rows of one node's neighbours for the
sequential BFS and the first sweep of the simultaneous seed loop, and
``_step_mask`` is the one simultaneous step map. The public surface speaks
frozenset: a configuration is the frozenset of its active nodes, and a trace
step carries its own time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Optional, Sequence

from .model import (
    DynamicsMode,
    Graph,
    Move,
    Trace,
    TraceStep,
    is_int,
    iter_bits,
    mask_of,
    nodes_of,
    seed_ids,
)


class EngineInvariantError(RuntimeError):
    """A dynamics invariant failed; signals an engine bug, not a user error."""


@dataclass(frozen=True)
class Termination:
    """Why a run stopped.

    kind is one of: "matched", "fixed_point", "cycle_detected" (with period
    and entry_time), "step_cap_hit", "ordering_exhausted" (sequential replay
    ran out of moves without matching).
    """

    kind: str
    period: Optional[int] = None
    entry_time: Optional[int] = None


@dataclass(frozen=True)
class RunResult:
    trace: Trace
    termination: Termination

    @property
    def matched(self) -> bool:
        return self.termination.kind == "matched"


def best_response(
    graph: Graph, thresholds: Sequence[int], active: frozenset[int], node: int
) -> bool:
    """True iff the node's best response is to be active: at least
    ``thresholds[node]`` of its neighbors are in ``active``. Threshold 0 means
    the active state is always the best response. Raises
    ``InvalidInstanceError`` on an active or node id outside the graph."""
    active_mask = mask_of(seed_ids(list(active), graph.n, "active"))
    seed_ids([node], graph.n, "node")
    return (graph.adj_masks[node] & active_mask).bit_count() >= thresholds[node]


# One row per node: (neighbour mask, threshold, node bit).
NodeTable = tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=256)
def _node_bits(n: int) -> tuple[int, ...]:
    """The node bits 1 << v for v in 0..n-1: one shared tuple per node count."""
    return tuple([1 << v for v in range(n)])


def _node_table(adj_masks: Sequence[int], thresholds: Sequence[int]) -> NodeTable:
    """The rows the response kernel reads, built once per solve, run,
    enumeration or check and never per step: the rows zip the adjacency and
    the thresholds with the shared bit tuple of the node count, so building
    them calls nothing per node. A threshold count other than the node count
    raises ValueError naming both.

    The rows go through a list. ``tuple()`` of an iterator without a length
    takes a ten-slot tuple and shrinks it, so CPython (3.10 to 3.12) draws it
    from one free list and, once it is freed, files it on the free list of
    its final size: every call would leave one more block there, up to 2,000
    per size. Each per-call tuple of the package is built from a list for
    this reason."""
    n = len(adj_masks)
    if len(thresholds) != n:
        raise ValueError(f"{len(thresholds)} thresholds for {n} nodes")
    return tuple([*zip(adj_masks, thresholds, _node_bits(n))])


def _response_mask(table: NodeTable, active: int) -> int:
    """The one response kernel: the mask of the nodes whose best response to
    ``active`` is to be active."""
    out = 0
    for adj, threshold, bit in table:
        if (adj & active).bit_count() >= threshold:
            out |= bit
    return out


def _response_after_flip(table: NodeTable, active: int, node: int, response: int) -> int:
    """The response mask of ``active``, given ``response``, the response mask
    of ``active`` with bit ``node`` flipped. Adjacency is symmetric and has no
    self-loops, so only the neighbours of ``node`` see a different count, and
    only their rows are re-read."""
    nbrs = table[node][0]
    out = response & ~nbrs
    while nbrs:
        bit = nbrs & -nbrs
        nbrs ^= bit
        adj, threshold, _ = table[bit.bit_length() - 1]
        if (adj & active).bit_count() >= threshold:
            out |= bit
    return out


def _step_mask(
    table: NodeTable, active: int, seed: int, monotone: bool, responders: Optional[int] = None
) -> int:
    """The one simultaneous step map, on bitmasks: c -> R(c), or monotone
    c -> c | R(c). ``responders`` is R(c) when the caller already has it.
    A monotone run always contains its seed; ``seed`` serves only the check
    that no other active node has lost its support, which no monotone run
    can violate."""
    if responders is None:
        responders = _response_mask(table, active)
    if not monotone:
        return responders
    stale = active & ~seed & ~responders
    if stale:
        raise EngineInvariantError(
            f"monotone step would drop best response of active nodes {sorted(nodes_of(stale))}"
        )
    return active | responders


def run_simultaneous(
    graph: Graph,
    thresholds: Sequence[int],
    seed: frozenset[int],
    mode: DynamicsMode,
    target: Optional[frozenset[int]] = None,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Iterate simultaneous sweeps from the seed configuration.

    Stops at the first of: target matched (time 0 included), configuration
    repeat (fixed point or cycle; all visited configurations are stored for
    exact detection), or the step cap ``max_steps`` if one is given: the
    state space is finite, so every uncapped run ends. Deterministic; this
    is the reference run that ``simulate`` and certificate replay use.
    Raises ``InvalidInstanceError`` on a seed or target id outside the graph.
    """
    if not mode.simultaneous:
        raise ValueError("run_simultaneous requires simultaneous order dynamics")
    if max_steps is not None and not is_int(max_steps):
        raise ValueError(f"max_steps must be an integer, got {max_steps!r}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    seed = seed_ids(list(seed), graph.n)
    table, seed_mask = _node_table(graph.adj_masks, thresholds), mask_of(seed)
    target_mask = None if target is None else mask_of(seed_ids(list(target), graph.n, "target"))

    steps: list[TraceStep] = []
    match_time: Optional[int] = None
    cur = seed_mask
    if target_mask is not None and cur == target_mask:
        trace = Trace(seed=seed, mode=mode, steps=(), match_time=0)
        return RunResult(trace, Termination("matched"))
    first_seen = {cur: 0}
    termination = Termination("step_cap_hit")
    times = count(1) if max_steps is None else range(1, max_steps + 1)
    for t in times:
        new = _step_mask(table, cur, seed_mask, mode.monotone)
        if new == cur:
            termination = Termination("fixed_point")
            break
        steps.append(TraceStep(t, None, nodes_of(new)))
        if target_mask is not None and new == target_mask:
            match_time = t
            termination = Termination("matched")
            break
        if new in first_seen:
            entry = first_seen[new]
            termination = Termination("cycle_detected", period=t - entry, entry_time=entry)
            break
        first_seen[new] = t
        cur = new
    trace = Trace(seed=seed, mode=mode, steps=tuple(steps), match_time=match_time)
    return RunResult(trace, termination)


def legal_moves(
    graph: Graph, thresholds: Sequence[int], active: frozenset[int], mode: DynamicsMode
) -> list[Move]:
    """All state-changing best responses available to a single agent in the
    configuration whose active nodes are ``active``.

    Activations for inactive nodes whose threshold is met; in non-monotone
    mode also deactivations for active nodes whose threshold is unmet (seed
    nodes included). Monotone mode excludes deactivations entirely: no run
    that starts from a committed seed ever makes one legal. Raises
    ``InvalidInstanceError`` on a node id outside the graph.
    """
    if not mode.sequential:
        raise ValueError("legal_moves requires sequential order dynamics")
    mask = mask_of(seed_ids(list(active), graph.n, "active"))
    flips = _response_mask(_node_table(graph.adj_masks, thresholds), mask) ^ mask
    if mode.monotone:
        flips &= ~mask
    return [Move(v, not mask >> v & 1) for v in iter_bits(flips)]


def apply_ordering(
    graph: Graph,
    thresholds: Sequence[int],
    seed: frozenset[int],
    ordering: Sequence[int],
    mode: DynamicsMode,
    target: Optional[frozenset[int]] = None,
) -> RunResult:
    """Replay a selection ordering under sequential dynamics.

    At step i the i-th node is set to its best response; selecting a node
    whose best response equals its state is a legal no-op that still advances
    time. Under monotone dynamics active nodes never deactivate. match_time is
    the first prefix (time 0 included) whose active set equals the target.
    Raises ``InvalidInstanceError`` on a seed, ordering or target id outside
    the graph.
    """
    if not mode.sequential:
        raise ValueError("apply_ordering requires sequential order dynamics")
    seed = seed_ids(list(seed), graph.n)
    seed_ids(list(ordering), graph.n, "ordering")
    table = _node_table(graph.adj_masks, thresholds)
    target_mask = None if target is None else mask_of(seed_ids(list(target), graph.n, "target"))
    active = mask_of(seed)
    match_time: Optional[int] = None
    if target_mask is not None and active == target_mask:
        match_time = 0
    steps: list[TraceStep] = []
    for t, v in enumerate(ordering, start=1):
        adj, threshold, bit = table[v]
        if (adj & active).bit_count() >= threshold:
            active |= bit
        elif not (mode.monotone and active & bit):
            active &= ~bit
        steps.append(TraceStep(t, Move(v, bool(active & bit)), nodes_of(active)))
        if match_time is None and target_mask is not None and active == target_mask:
            match_time = t
    trace = Trace(seed=seed, mode=mode, steps=tuple(steps), match_time=match_time)
    kind = "matched" if match_time is not None else "ordering_exhausted"
    return RunResult(trace, Termination(kind))
