"""Seeded operation batches for the four workloads.

A batch is a fixed list of operation *shapes* (kind, dynamics, size, budget,
snapshot kind) that is the same for every seed; the seed only draws the
graphs, thresholds, seeds and snapshots. So two seeds give different inputs
with the same mix, and any prefix of a batch carries roughly the whole mix.
Graphs have a fixed edge count, ``le2`` thresholds are half 1 and half 2,
and arbitrary snapshots have a fixed size: search cost is heavy-tailed in
each of these, and fixing them keeps one seed's batch about as costly as
another's.

Reachable snapshots come from the reference dynamics in ``checks``: a prefix
of a simultaneous trajectory, or a random walk of legal sequential moves,
each from a seed whose size is the budget. Arbitrary snapshots are uniform
random sets of n // 2 nodes; the fixed size keeps the number of seeds an
infeasible verdict exhausts the same for every seed of the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from snapshot_lab import (
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    CHECK_IDS,
    DynamicsMode,
    Graph,
    TargetSetInstance,
    validate_instance,
)

from checks import sequential_walk, trajectory

GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``kind`` is ``solve``, ``lemma``, ``clique``, ``reduce`` or ``cli``;
    ``arg`` is the check id, the gadget id, or the instance file of a ``cli``
    operation; ``reachable`` marks a snapshot made by a run, on which an
    ``infeasible`` verdict is wrong.
    """

    kind: str
    instance: object
    reachable: bool = False
    arg: Optional[str] = None
    mode: Optional[DynamicsMode] = None


@dataclass(frozen=True)
class Shape:
    mode: DynamicsMode
    law: str
    n: tuple[int, int]
    k: tuple[int, int]
    degree: float
    reachable: bool


def _spread(j: int, lo: int, hi: int) -> int:
    """The j-th of an evenly spread sequence over lo..hi."""
    return lo + int((j * GOLDEN) % 1.0 * (hi - lo + 1))


def _graph(rng: random.Random, n: int, degree: float) -> Graph:
    """Uniform graph with exactly round(degree * n / 2) edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, min(len(pairs), round(degree * n / 2))))


def _thresholds(rng: random.Random, graph: Graph, law: str) -> tuple[int, ...]:
    if law == "le2":
        out = [1] * (graph.n - graph.n // 2) + [2] * (graph.n // 2)
        rng.shuffle(out)
        return tuple(out)
    low = 0 if law == "uniform0" else 1
    return tuple(rng.randint(low, max(low, graph.degree(v))) for v in range(graph.n))


def _snapshot(rng, graph, thresholds, mode, budget, reachable) -> frozenset[int]:
    n = graph.n
    if not reachable:
        return frozenset(rng.sample(range(n), n // 2))
    seed = 0
    for v in rng.sample(range(n), min(budget, n)):
        seed |= 1 << v
    adj = graph.adj_masks
    if mode.simultaneous:
        configs = trajectory(adj, thresholds, seed, mode.monotone)
        pick = configs[rng.randrange(1, len(configs))] if len(configs) > 1 else seed
    else:
        walk = sequential_walk(rng, adj, thresholds, seed, mode.monotone, rng.randint(1, 2 * n))
        pick = [c for c in walk if c][-1]
    return frozenset(v for v in range(n) if pick >> v & 1)


def _instance(rng: random.Random, shape: Shape, j: int):
    n = _spread(j, *shape.n)
    k = shape.k[0] + j % (shape.k[1] - shape.k[0] + 1)
    graph = _graph(rng, n, shape.degree)
    thresholds = _thresholds(rng, graph, shape.law)
    snapshot = _snapshot(rng, graph, thresholds, shape.mode, k, shape.reachable)
    return validate_instance(graph, thresholds, snapshot, k, shape.mode)


def _search_batch(rng: random.Random, cycle: list[Shape], count: int) -> Iterator[Op]:
    uses: dict[Shape, int] = {}
    for i in range(count):
        shape = cycle[i % len(cycle)]
        j = uses.get(shape, 0)
        uses[shape] = j + 1
        yield Op("solve", _instance(rng, shape, j), reachable=shape.reachable)


def _both(mode, law, n, k, degree) -> tuple[Shape, Shape]:
    return Shape(mode, law, n, k, degree, True), Shape(mode, law, n, k, degree, False)


# Monotone simultaneous runs grow for a few sweeps; plain simultaneous ones
# settle into period <= 2 quickly, so their cost is seeds x sweep cost.
MONO_SIM = _both(MONOTONE_SIMULTANEOUS, "uniform1", (24, 36), (3, 3), 3.0)
PLAIN_SIM = _both(PLAIN_SIMULTANEOUS, "le2", (16, 22), (2, 2), 3.0)
SIM_CYCLE = [MONO_SIM[0], PLAIN_SIM[1], PLAIN_SIM[0], MONO_SIM[1]]

# Plain sequential cost is BFS states per seed; monotone sequential is
# decided by closure inside S and is cheap even at n = 60.
PLAIN_SEQ = _both(PLAIN_SEQUENTIAL, "le2", (10, 12), (1, 2), 2.5)
MONO_SEQ = _both(MONOTONE_SEQUENTIAL, "uniform1", (30, 40), (3, 3), 3.0)
SEQ_CYCLE = [
    PLAIN_SEQ[0], PLAIN_SEQ[1], MONO_SEQ[0], PLAIN_SEQ[0], PLAIN_SEQ[1],
    PLAIN_SEQ[0], PLAIN_SEQ[1], MONO_SEQ[1], PLAIN_SEQ[0], PLAIN_SEQ[1],
]

CLI_CYCLE = [
    Shape(MONOTONE_SIMULTANEOUS, "uniform1", (8, 20), (1, 3), 3.0, True),
    Shape(PLAIN_SIMULTANEOUS, "le2", (6, 12), (1, 2), 3.0, True),
    Shape(MONOTONE_SEQUENTIAL, "uniform1", (8, 20), (1, 3), 3.0, True),
    Shape(PLAIN_SEQUENTIAL, "le2", (5, 9), (1, 2), 3.0, True),
    Shape(MONOTONE_SIMULTANEOUS, "uniform1", (8, 20), (1, 3), 3.0, False),
]


def _lemma_op(rng: random.Random, j: int, check: str) -> Op:
    n = _spread(j, 3, 9 if check == "clearing" else 10)
    graph = _graph(rng, n, (n - 1) / 2)
    thresholds = _thresholds(rng, graph, "uniform0" if j % 2 == 0 else "uniform1")
    k = 1 + j % 2
    instance = validate_instance(graph, thresholds, (), k, PLAIN_SEQUENTIAL)
    return Op("lemma", instance, arg=check)


def _clique_op(rng: random.Random, j: int) -> Op:
    n = _spread(j, 3, 9)
    graph = _graph(rng, n, n - 1)
    thresholds = tuple(rng.randint(0, n) for _ in range(n))
    reachable = j % 2 == 0
    k = 1 + j % 3
    snapshot = _snapshot(rng, graph, thresholds, MONOTONE_SIMULTANEOUS, k, reachable)
    instance = validate_instance(graph, thresholds, snapshot, k, MONOTONE_SIMULTANEOUS)
    return Op("clique", instance, reachable=reachable)


def _reduce_op(rng: random.Random, j: int, gadget: str) -> Op:
    n = _spread(j, 3, 7) if gadget == "embed" else _spread(j, 2, 3)
    graph = _graph(rng, n, (n - 1) / 2)
    thresholds = _thresholds(rng, graph, "le2")
    source = TargetSetInstance(graph, thresholds, 1 + j % 2)
    mode = (MONOTONE_SIMULTANEOUS, MONOTONE_SEQUENTIAL)[j // 2 % 2] if gadget == "embed" else None
    return Op("reduce", source, arg=gadget, mode=mode)


# One cycle of oracle operations: each structural check twice, cheap clique
# analyses for 40% of the operations (so p50 falls among them), and both
# exact gadgets. Check trials are n = 3..10 except ``clearing``, which stops
# at n = 9 (and ``seqk1`` sources at n = 3): at n = 10 one clearing trial
# takes ~130 ms, and how many of those a run drew decided +-10% of its
# throughput.
ORACLE_CYCLE = list(CHECK_IDS) * 2 + ["clique"] * 10 + ["embed"] * 2 + ["seqk1"] * 3


def _oracle_batch(rng: random.Random, count: int) -> Iterator[Op]:
    uses: dict[str, int] = {}
    for i in range(count):
        what = ORACLE_CYCLE[i % len(ORACLE_CYCLE)]
        j = uses.get(what, 0)
        uses[what] = j + 1
        if what == "clique":
            yield _clique_op(rng, j)
        elif what in ("embed", "seqk1"):
            yield _reduce_op(rng, j, what)
        else:
            yield _lemma_op(rng, j, what)


def instance_document(instance) -> dict:
    """The documented instance file format."""
    return {
        "labels": list(instance.graph.labels),
        "edges": [list(e) for e in instance.graph.edges()],
        "thresholds": list(instance.thresholds),
        "snapshot": sorted(instance.snapshot),
        "budget": instance.budget,
        "dynamics": {"order": instance.mode.order, "monotone": instance.mode.monotone},
    }


def _cli_batch(rng: random.Random, count: int, workdir: Path) -> Iterator[Op]:
    for i, op in enumerate(_search_batch(rng, CLI_CYCLE, count)):
        path = workdir / f"instance_{i:04d}.json"
        path.write_text(json.dumps(instance_document(op.instance), indent=2) + "\n", encoding="utf-8")
        yield Op("cli", op.instance, reachable=op.reachable, arg=str(path))


# Operations per batch: about what a 20 s run gets through on a 2-core x86
# VM while other tenants load the host. A run measures whole passes only.
SIZES = {
    "sim-search": 1500,
    "seq-search": 2400,
    "oracle-checks": 5500,
    "cli-small": 200,
}


def iter_batch(workload: str, seed: int, workdir: Path, limit: Optional[int] = None) -> Iterator[Op]:
    """The workload's operations for this seed, one at a time; ``limit``
    keeps a prefix. Only ``cli-small`` writes files, into ``workdir``."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {tuple(SIZES)}")
    rng = random.Random(f"{workload}:{seed}")
    count = min(SIZES[workload], limit or SIZES[workload])
    if workload == "sim-search":
        return _search_batch(rng, SIM_CYCLE, count)
    if workload == "seq-search":
        return _search_batch(rng, SEQ_CYCLE, count)
    if workload == "oracle-checks":
        return _oracle_batch(rng, count)
    return _cli_batch(rng, count, workdir)


def build_batch(workload: str, seed: int, workdir: Path, limit: Optional[int] = None) -> list[Op]:
    return list(iter_batch(workload, seed, workdir, limit))
