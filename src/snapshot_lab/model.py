"""Core data model: graphs, thresholds, dynamics modes, instances, traces, certificates.

All types are immutable after construction and safe to share across workers.
Node ids are dense integers 0..n-1; labels are presentation-only. Algorithms
work on ids (and on int bitmasks internally); every file format carries labels.
A ``Graph`` keeps one adjacency, a neighbour bitmask per node: degrees, edge
lists, neighbourhoods and induced subgraphs are mask arithmetic, and the
sorted neighbour tuples are built only when ``Graph.adj`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Union

SIMULTANEOUS = "simultaneous"
SEQUENTIAL = "sequential"

# one non-negative entry per node; entries may exceed the node's degree
# (such nodes can only ever be active by seeding)
Thresholds = tuple[int, ...]


class InvalidInstanceError(ValueError):
    """Raised when a raw instance description violates the model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def is_int(x) -> bool:
    """The integer rule of every id, count and budget: exactly ``int``
    (booleans, strings and floats are rejected, not coerced)."""
    return type(x) is int


def mask_of(nodes: Iterable[int]) -> int:
    """Pack node ids into an int bitmask."""
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def nodes_of(mask: int) -> frozenset[int]:
    """Unpack an int bitmask into a frozenset of node ids."""
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1, checked once, at construction.

    The one stored adjacency is ``adj_masks``, an int bitmask per node
    (``adj_masks[v] >> u & 1`` tests the edge u-v); a graph stores exactly
    ``n``, ``adj_masks`` and ``labels``. ``adj``, the sorted neighbour
    tuples, is a read-only view built on each access. Built directly,
    ``Graph(n, adj, labels)`` takes those tuples and rejects neighbours
    outside 0..n-1, self-loops, rows that are not sorted and unique, edges
    without their reverse and a label count other than n. ``from_edges``
    checks an edge list instead, and no later step checks the graph again.
    """

    n: int
    adj_masks: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, n: int, adj, labels: tuple[str, ...]):
        masks, violations = _adjacency_masks(n, adj)
        if len(labels) != n:
            violations.append(f"{len(labels)} labels for {n} nodes")
        if violations:
            raise InvalidInstanceError(violations)
        _fill(self, n, masks, labels)

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Iterable[str]] = None,
    ) -> "Graph":
        """Build a graph from an edge list, enforcing all structural invariants:
        ``int`` endpoints in 0..n-1, no self-loops, no duplicates, n labels."""
        if n < 0:
            raise InvalidInstanceError([f"node count {n} is negative"])
        masks = [0] * n
        violations: list[str] = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # is_int, inlined: runs per edge
                violations.append(f"edge ({u!r},{v!r}) endpoints must be integers")
            elif not (0 <= u < n and 0 <= v < n):
                violations.append(f"edge ({u},{v}) outside node range 0..{n - 1}")
            elif u == v:
                violations.append(f"self-loop at node {u}")
            elif masks[u] >> v & 1:
                violations.append(f"duplicate edge ({min(u, v)},{max(u, v)})")
            else:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        if violations:
            raise InvalidInstanceError(violations)
        if labels is None:
            label_tuple = default_labels(n)
        else:
            label_tuple = tuple(map(str, labels))
            if len(label_tuple) != n:
                raise InvalidInstanceError([f"{len(label_tuple)} labels for {n} nodes"])
        # the edge loop above has checked everything the constructor would
        return _fill(object.__new__(Graph), n, tuple(masks), label_tuple)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, built from ``adj_masks`` on each access."""
        return tuple(tuple(iter_bits(m)) for m in self.adj_masks)

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: i<j pairs, sorted."""
        out = []
        for u, mask in enumerate(self.adj_masks):
            higher = mask >> u + 1  # bit i stands for node u + 1 + i
            while higher:
                low = higher & -higher
                out.append((u, u + low.bit_length()))
                higher ^= low
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _fill(graph: Graph, n: int, masks: tuple[int, ...], labels: tuple[str, ...]) -> Graph:
    """Set the three fields of a graph whose adjacency is already checked."""
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "adj_masks", masks)
    object.__setattr__(graph, "labels", labels)
    return graph


@lru_cache(maxsize=256)
def default_labels(n: int) -> tuple[str, ...]:
    """The labels v0..v{n-1}: one shared tuple per node count."""
    return tuple(f"v{i}" for i in range(n))


def _adjacency_masks(n: int, adj) -> tuple[tuple[int, ...], list[str]]:
    """The neighbour masks of a directly given adjacency, and every way it
    fails to be a simple undirected graph on 0..n-1."""
    if not is_int(n) or len(adj) != n:
        return (), [f"{len(adj)} adjacency rows for {n!r} nodes"]
    masks = [0] * n
    violations: list[str] = []
    for u, row in enumerate(adj):
        last = -1
        for v in row:
            if not is_int(v) or not 0 <= v < n:
                violations.append(f"neighbour {v!r} of node {u} outside node range 0..{n - 1}")
                continue
            if v == u:
                violations.append(f"self-loop at node {u}")
            elif v <= last:
                violations.append(f"neighbours of node {u} are not sorted and unique")
            masks[u] |= 1 << v
            last = v
    for u, mask in enumerate(masks):
        for v in iter_bits(mask):
            if v != u and not masks[v] >> u & 1:
                violations.append(f"edge ({u},{v}) has no reverse ({v},{u})")
    return tuple(masks), violations


@dataclass(frozen=True)
class DynamicsMode:
    """Order dynamics (simultaneous vs sequential) crossed with seed commitment.

    ``monotone=True`` commits the seed set to stay active forever; together
    with best response this makes the active set grow monotonically. With
    ``monotone=False`` every node, seed included, may best-respond by
    deactivating.
    """

    order: str
    monotone: bool

    def __post_init__(self):
        if self.order not in (SIMULTANEOUS, SEQUENTIAL):
            raise ValueError(f"unknown order dynamics {self.order!r}")

    @property
    def simultaneous(self) -> bool:
        return self.order == SIMULTANEOUS

    @property
    def sequential(self) -> bool:
        return self.order == SEQUENTIAL

    def describe(self) -> str:
        return ("monotone " if self.monotone else "") + self.order


MONOTONE_SIMULTANEOUS = DynamicsMode(SIMULTANEOUS, True)
PLAIN_SIMULTANEOUS = DynamicsMode(SIMULTANEOUS, False)
MONOTONE_SEQUENTIAL = DynamicsMode(SEQUENTIAL, True)
PLAIN_SEQUENTIAL = DynamicsMode(SEQUENTIAL, False)

ALL_MODES = (
    MONOTONE_SIMULTANEOUS,
    PLAIN_SIMULTANEOUS,
    MONOTONE_SEQUENTIAL,
    PLAIN_SEQUENTIAL,
)


@dataclass(frozen=True)
class SnapshotInstance:
    """A feasibility question: can some seed of size <= budget produce exactly
    ``snapshot`` as the active set at some finite time under ``mode``?"""

    graph: Graph
    thresholds: tuple[int, ...]
    snapshot: frozenset[int]
    budget: int
    mode: DynamicsMode

    @property
    def n(self) -> int:
        return self.graph.n

    def snapshot_mask(self) -> int:
        return mask_of(self.snapshot)


@dataclass(frozen=True)
class Move:
    """One agent's state change. ``activate=True`` turns the node on."""

    node: int
    activate: bool

    def to_wire(self) -> list:
        return [self.node, "on" if self.activate else "off"]

    @staticmethod
    def from_wire(pair) -> "Move":
        node, state = pair
        if not is_int(node):
            raise ValueError(f"move node must be an integer, got {node!r}")
        if state not in ("on", "off"):
            raise ValueError(f"move state must be 'on' or 'off', got {state!r}")
        return Move(node, state == "on")


@dataclass(frozen=True)
class TraceStep:
    """One recorded step: the move taken (None for a simultaneous sweep) and
    the active set of the configuration it produced."""

    time: int
    move: Optional[Move]
    active: frozenset[int]


@dataclass(frozen=True)
class Trace:
    """A replayable run: the seed at time 0, then steps at 1, 2, ..., each
    with its time and active set (a configuration is a frozenset of nodes).

    ``match_time`` is the first time (0 included) the active set equalled the
    run's target, if any.
    """

    seed: frozenset[int]
    mode: DynamicsMode
    steps: tuple[TraceStep, ...]
    match_time: Optional[int] = None

    def configurations(self) -> Iterator[frozenset[int]]:
        """The active set at times 0, 1, 2, ...: the seed, then each step's."""
        yield self.seed
        for step in self.steps:
            yield step.active


@dataclass(frozen=True)
class SimultaneousWitness:
    """Witness for simultaneous dynamics: the trajectory is deterministic, so
    the match time alone suffices."""

    match_time: int


@dataclass(frozen=True)
class SequentialWitness:
    """Witness for sequential dynamics: the move ordering whose prefix of
    length ``match_prefix`` produces the exact snapshot."""

    ordering: tuple[Move, ...]
    match_prefix: int


Witness = Union[SimultaneousWitness, SequentialWitness]


@dataclass(frozen=True)
class Certificate:
    """A seed set plus a replayable witness proving snapshot feasibility."""

    seed: frozenset[int]
    witness: Witness


def _closed_neighborhood_mask(graph: Graph, s_mask: int) -> int:
    """N[s] as a mask, for s given as a mask."""
    out = s_mask
    for v in iter_bits(s_mask):
        out |= graph.adj_masks[v]
    return out


def closed_neighborhood(graph: Graph, s: Iterable[int]) -> frozenset[int]:
    """N[s]: the nodes of s together with all their neighbors."""
    return nodes_of(_closed_neighborhood_mask(graph, mask_of(s)))


@dataclass(frozen=True)
class IdMap:
    """Bidirectional id translation for an induced subgraph."""

    to_original: tuple[int, ...]
    from_original: dict

    def original(self, sub_id: int) -> int:
        return self.to_original[sub_id]

    def sub(self, original_id: int) -> int:
        return self.from_original[original_id]


def induced_subgraph(
    graph: Graph, thresholds: tuple[int, ...], s: Iterable[int]
) -> tuple[Graph, tuple[int, ...], IdMap]:
    """G[s] with thresholds restricted (values unchanged) and an id map back.

    The rows of the kept nodes, masked to s, lose the bit of each dropped
    node, highest first: the bits below it stay and the bits above it move
    down one place. An induced subgraph of a checked graph needs no check.
    """
    kept = sorted(set(s))
    kept_mask = mask_of(kept)
    rows = [graph.adj_masks[u] & kept_mask for u in kept]
    for v in reversed(list(iter_bits(graph.full_mask() & ~kept_mask))):
        low = (1 << v) - 1
        rows = [row & low | row >> 1 & ~low for row in rows]
    sub = _fill(object.__new__(Graph), len(kept), tuple(rows), tuple(graph.labels[v] for v in kept))
    sub_thresholds = tuple(thresholds[v] for v in kept)
    return sub, sub_thresholds, IdMap(tuple(kept), {v: i for i, v in enumerate(kept)})


def value_violations(
    n: int, thresholds: Iterable[int], snapshot: Iterable[int], budget: int
) -> list[str]:
    """The violations of thresholds, snapshot and budget on n nodes."""
    violations: list[str] = []
    tvec = list(thresholds)
    if len(tvec) != n:
        violations.append(f"{len(tvec)} thresholds for {n} nodes")
    for v, t in enumerate(tvec):
        if not is_int(t) or t < 0:
            violations.append(f"threshold of node {v} is {t!r}, must be a non-negative integer")
    for v in snapshot:
        if not is_int(v):
            violations.append(f"snapshot node {v!r} must be an integer")
        elif not 0 <= v < n:
            violations.append(f"snapshot node {v} outside V (0..{n - 1})")
    if not is_int(budget):
        violations.append(f"budget {budget!r} must be an integer")
    elif budget < 0:
        violations.append(f"budget {budget} is negative")
    return violations


def validate_instance(
    graph: Graph,
    thresholds: Iterable[int],
    snapshot: Iterable[int],
    budget: int,
    mode: DynamicsMode,
) -> SnapshotInstance:
    """Check thresholds, snapshot and budget against ``graph`` and return the
    instance. The graph itself was checked when it was built and is not
    rebuilt here.

    Empty snapshots and budget 0 are both legal: the time-0 configuration of
    the empty seed counts as produced.
    """
    thresholds = tuple(thresholds)
    snapshot = tuple(snapshot)
    violations = value_violations(graph.n, thresholds, snapshot, budget)
    if violations:
        raise InvalidInstanceError(violations)
    return SnapshotInstance(
        graph=graph,
        thresholds=thresholds,
        snapshot=frozenset(snapshot),
        budget=budget,
        mode=mode,
    )
