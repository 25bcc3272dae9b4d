"""Core data model: graphs, thresholds, dynamics modes, instances, traces, certificates.

All types are immutable after construction and safe to share across workers.
Graphs and snapshot instances are checked once, at construction, however
they are built, so no later step checks them again.
Node ids are dense integers 0..n-1; labels are presentation-only. Algorithms
work on ids (and on int bitmasks internally); every file format carries labels.
A ``Graph`` keeps one adjacency, a neighbour bitmask per node: degrees, edge
lists, neighbourhoods and induced subgraphs are mask arithmetic, and the
sorted neighbour tuples are built only when ``Graph.adj`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Union

SIMULTANEOUS = "simultaneous"
SEQUENTIAL = "sequential"

# one non-negative entry per node; entries may exceed the node's degree
# (such nodes can only ever be active by seeding)
Thresholds = tuple[int, ...]


class _Slotted:
    """Base of the frozen dataclasses built in bulk (graphs and instances):
    each names its fields in ``__slots__``, so an instance has no
    ``__dict__``.

    ``dataclass(slots=True)`` is not used: on CPython 3.10-3.12 the frozen
    ``__setattr__`` of the class it rebuilds raises TypeError instead of
    ``FrozenInstanceError`` for a name that is not a field. A frozen
    instance refuses the ``setattr`` that pickle and ``copy`` restore slots
    with, so the state is the tuple of field values, restored through
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __getstate__(self):
        return tuple([getattr(self, f.name) for f in fields(self)])

    def __setstate__(self, state):
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


class InvalidInstanceError(ValueError):
    """Raised when a raw instance description violates the model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def is_int(x) -> bool:
    """The integer rule of every id, count and budget: exactly ``int``
    (booleans, strings and floats are rejected, not coerced)."""
    return type(x) is int


def seed_ids(ids: list, n: int, role: str = "seed") -> frozenset[int]:
    """The node set of a list of node ids, each an ``int`` in 0..n-1; the
    error names the ids by ``role``."""
    outside = [v for v in ids if not is_int(v) or not 0 <= v < n]
    if outside:
        raise InvalidInstanceError([f"{role} ids {outside} outside 0..{n - 1}"])
    return frozenset(ids)


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
class Graph(_Slotted):
    """Undirected simple graph on nodes 0..n-1, checked once, at construction.

    The one stored adjacency is ``adj_masks``, an int bitmask per node
    (``adj_masks[v] >> u & 1`` tests the edge u-v); a graph stores exactly
    ``n``, ``adj_masks`` and ``labels``. ``adj``, the sorted neighbour
    tuples, is a read-only view built on each access. Built directly,
    ``Graph(n, adj_masks, labels)`` takes the stored fields, so
    ``dataclasses.replace`` works too, and rejects a mask that is not a
    non-negative integer, neighbours outside 0..n-1, self-loops, edges
    without their reverse and a label count other than n. ``from_edges``
    checks an edge list instead, and no later step checks the graph again.
    """

    __slots__ = ("n", "adj_masks", "labels")
    n: int
    adj_masks: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, n: int, adj_masks, labels):
        masks, labels = tuple(adj_masks), tuple(labels)
        violations = _mask_violations(n, masks)
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
        if not is_int(n) or n < 0:
            raise InvalidInstanceError([f"node count {n!r} must be a non-negative integer"])
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
            # from a list, as in dynamics._node_table
            label_tuple = tuple([*map(str, labels)])
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


def _mask_violations(n: int, masks: tuple) -> list[str]:
    """Every way directly given neighbour masks fail to be a simple
    undirected graph on 0..n-1."""
    if not is_int(n) or len(masks) != n:
        return [f"{len(masks)} adjacency masks for {n!r} nodes"]
    violations: list[str] = []
    for u, mask in enumerate(masks):
        if not is_int(mask) or mask < 0:
            violations.append(f"neighbour mask of node {u} is {mask!r}, must be a non-negative integer")
            continue
        if mask >> n:
            violations.append(f"neighbour {mask.bit_length() - 1} of node {u} outside node range 0..{n - 1}")
        if mask >> u & 1:
            violations.append(f"self-loop at node {u}")
    if violations:
        return violations
    for u, mask in enumerate(masks):
        for v in iter_bits(mask):
            if not masks[v] >> u & 1:
                violations.append(f"edge ({u},{v}) has no reverse ({v},{u})")
    return violations


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
        if not isinstance(self.monotone, bool):
            raise ValueError(f"monotone must be a bool, not {self.monotone!r}")

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
class SnapshotInstance(_Slotted):
    """A feasibility question: can some seed of size <= budget produce exactly
    ``snapshot`` as the active set at some finite time under ``mode``?

    Checked once, at construction, as a ``Graph`` is: the graph must be a
    ``Graph`` and the mode a ``DynamicsMode``, and thresholds, snapshot ids
    and budget as given must pass ``value_violations`` against the graph,
    and are stored as a tuple and a frozenset. The graph was checked when
    it was built. ``dataclasses.replace`` goes through the same check.
    """

    __slots__ = ("graph", "thresholds", "snapshot", "budget", "mode")
    graph: Graph
    thresholds: tuple[int, ...]
    snapshot: frozenset[int]
    budget: int
    mode: DynamicsMode

    def __post_init__(self):
        if not isinstance(self.mode, DynamicsMode):
            raise InvalidInstanceError([f"mode must be a DynamicsMode, not {type(self.mode).__name__}"])
        thresholds, snapshot = _checked_values(self.graph, self.thresholds, self.snapshot, self.budget)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "snapshot", frozenset(snapshot))

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
    """N[s]: the nodes of s together with all their neighbors. Raises
    ``InvalidInstanceError`` on a node id outside the graph."""
    return nodes_of(_closed_neighborhood_mask(graph, mask_of(seed_ids(list(s), graph.n, "node"))))


def induced_subgraph(
    graph: Graph, thresholds: tuple[int, ...], s: Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """G[s] with thresholds restricted (values unchanged), its nodes the
    nodes of s in ascending order.

    The rows of the kept nodes, masked to s, lose the bit of each dropped
    node, highest first: the bits below it stay and the bits above it move
    down one place. An induced subgraph of a checked graph needs no check.
    Raises ``InvalidInstanceError`` on a kept id outside the graph.
    """
    kept = sorted(seed_ids(list(s), graph.n, "kept"))
    kept_mask = mask_of(kept)
    rows = [graph.adj_masks[u] & kept_mask for u in kept]
    for v in reversed(list(iter_bits(graph.full_mask() & ~kept_mask))):
        low = (1 << v) - 1
        rows = [row & low | row >> 1 & ~low for row in rows]
    sub = _fill(object.__new__(Graph), len(kept), tuple(rows), tuple([graph.labels[v] for v in kept]))
    sub_thresholds = tuple([thresholds[v] for v in kept])
    return sub, sub_thresholds


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


def _checked_values(
    graph: Graph, thresholds: Iterable[int], snapshot: Iterable[int], budget: int
) -> tuple[tuple[int, ...], tuple]:
    """Thresholds and snapshot as tuples, after ``value_violations`` passes
    on them against ``graph``, which must be a ``Graph``; raises
    ``InvalidInstanceError`` otherwise. The snapshot is checked as a tuple,
    so a ``True`` in it is rejected, not merged with 1."""
    if not isinstance(graph, Graph):
        raise InvalidInstanceError([f"graph must be a Graph, not {type(graph).__name__}"])
    thresholds, snapshot = tuple(thresholds), tuple(snapshot)
    violations = value_violations(graph.n, thresholds, snapshot, budget)
    if violations:
        raise InvalidInstanceError(violations)
    return thresholds, snapshot


def validate_instance(
    graph: Graph,
    thresholds: Iterable[int],
    snapshot: Iterable[int],
    budget: int,
    mode: DynamicsMode,
) -> SnapshotInstance:
    """The checked instance: ``SnapshotInstance`` checks its values at
    construction, and the graph was checked when it was built.

    Empty snapshots and budget 0 are both legal: the time-0 configuration of
    the empty seed counts as produced.
    """
    return SnapshotInstance(graph, thresholds, snapshot, budget, mode)
