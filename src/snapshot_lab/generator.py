"""Reproducible random instance generation for the verification suites.

Edges are sampled independently with a fixed probability; thresholds follow
one of three laws:

* ``uniform0``: uniform on [0 .. deg(v)] (zero thresholds included);
* ``uniform1``: uniform on [1 .. deg(v)], and 1 for isolated nodes;
* ``le2``: uniform on {1, 2}, the restricted hardness regime;
* ``mixed``: alternate uniform0/uniform1 across the stream.

The same ``rng_seed`` always yields the same instance stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .model import ALL_MODES, DynamicsMode, Graph, SnapshotInstance, is_int, validate_instance
from .solvers import reachable_configs

THRESHOLD_LAWS = ("uniform0", "uniform1", "le2", "mixed")
SNAPSHOT_MODES = ("arbitrary", "reachable")


@dataclass(frozen=True)
class GeneratorParams:
    n_min: int = 3
    n_max: int = 7
    edge_prob: float = 0.5
    threshold_law: str = "mixed"
    budget_min: int = 1
    budget_max: int = 2
    snapshot_mode: str = "arbitrary"
    mode: Optional[DynamicsMode] = None  # None: sample one of the four modes
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_min", "n_max", "budget_min", "budget_max"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 < self.n_min <= self.n_max):
            raise ValueError("need 0 < n_min <= n_max")
        if isinstance(self.edge_prob, bool) or not isinstance(self.edge_prob, (int, float)):
            raise ValueError(f"edge_prob must be a number, got {self.edge_prob!r}")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must be in [0, 1]")
        if self.threshold_law not in THRESHOLD_LAWS:
            raise ValueError(f"threshold_law must be one of {THRESHOLD_LAWS}")
        if self.snapshot_mode not in SNAPSHOT_MODES:
            raise ValueError(f"snapshot_mode must be one of {SNAPSHOT_MODES}")
        if not (0 <= self.budget_min <= self.budget_max):
            raise ValueError("need 0 <= budget_min <= budget_max")


def _thresholds(rng: random.Random, graph: Graph, law: str) -> tuple[int, ...]:
    out = []
    for v in range(graph.n):
        deg = graph.degree(v)
        if law == "uniform0":
            out.append(rng.randint(0, deg))
        elif law == "uniform1":
            out.append(rng.randint(1, deg) if deg >= 1 else 1)
        else:  # le2
            out.append(rng.choice((1, 2)))
    return tuple(out)


def instance_stream(params: GeneratorParams) -> Iterator[SnapshotInstance]:
    """Deterministic infinite stream of validated instances."""
    rng = random.Random(params.rng_seed)
    index = 0
    while True:
        n = rng.randint(params.n_min, params.n_max)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < params.edge_prob
        ]
        graph = Graph.from_edges(n, edges)
        law = params.threshold_law
        if law == "mixed":
            law = "uniform0" if index % 2 == 0 else "uniform1"
        thresholds = _thresholds(rng, graph, law)
        budget = rng.randint(params.budget_min, params.budget_max)
        mode = params.mode if params.mode is not None else rng.choice(ALL_MODES)
        if params.snapshot_mode == "arbitrary":
            snapshot = frozenset(v for v in range(n) if rng.random() < 0.5)
        else:
            size = rng.randint(0, min(budget, n))
            seed = frozenset(rng.sample(range(n), size))
            configs = sorted(
                sorted(c) for c in reachable_configs(graph, thresholds, seed, mode)
            )
            snapshot = frozenset(rng.choice(configs))
        yield validate_instance(graph, thresholds, snapshot, budget, mode)
        index += 1

