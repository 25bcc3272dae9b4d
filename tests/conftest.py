"""Shared fixtures: the worked-example graphs and a certificate assertion."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from snapshot_lab import (
    ALL_MODES,
    DynamicsMode,
    Graph,
    SnapshotInstance,
    check_certificate,
)


@pytest.fixture
def star4():
    """Four nodes, u2 the center; thresholds (1, 2, 1, 1)."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)], labels=["u1", "u2", "u3", "u4"])


@pytest.fixture
def star4_instance(star4):
    def make(snapshot, budget, mode):
        return SnapshotInstance(star4, (1, 2, 1, 1), frozenset(snapshot), budget, mode)

    return make


@pytest.fixture
def double_diamond():
    """A hub joining two 4-cycles; thresholds (5, 1, 1, 2, 1, 1, 2)."""
    g = Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 6), (6, 5), (0, 5)],
        labels=[f"u{i}" for i in range(1, 8)],
    )
    return g


@pytest.fixture
def hub_pair():
    """Two high-threshold hubs feeding six relays that feed three collectors.

    ``corrected=True`` lowers the collector thresholds to 2 (their degree);
    the uncorrected variant keeps the unreachable value 3.
    """

    def make(corrected: bool):
        edges = (
            [(0, i) for i in range(2, 8)]
            + [(1, i) for i in range(2, 8)]
            + [(2, 8), (3, 8), (4, 9), (5, 9), (6, 10), (7, 10)]
        )
        g = Graph.from_edges(11, edges, labels=[f"u{i}" for i in range(1, 12)])
        tail = (2, 2, 2) if corrected else (3, 3, 3)
        return g, (7, 7, 2, 2, 2, 2, 2, 2) + tail

    return make


@pytest.fixture
def clique():
    def make(n, thresholds, snapshot, budget, mode):
        g = Graph.from_edges(
            n,
            [(i, j) for i in range(n) for j in range(i + 1, n)],
            labels=[f"u{i}" for i in range(1, n + 1)],
        )
        return SnapshotInstance(g, tuple(thresholds), frozenset(snapshot), budget, mode)

    return make


@pytest.fixture
def clique10(clique):
    def make(snapshot, budget, mode):
        return clique(10, (1, 1, 2, 2, 3, 4, 5, 6, 7, 8), snapshot, budget, mode)

    return make


def assert_certificate_replays(instance: SnapshotInstance, outcome) -> None:
    """Every feasible outcome anywhere in the artifact must pass the one
    certificate checker on its own certificate document."""
    assert outcome.feasible
    result, problems = check_certificate(instance, outcome.to_dict())
    assert problems == []
    assert result.matched


@st.composite
def small_instances(draw, max_n=6, max_budget=2, modes=ALL_MODES):
    """Random graph + thresholds + snapshot + budget + mode."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    graph = Graph.from_edges(n, edges)
    thresholds = tuple(
        draw(st.integers(min_value=0, max_value=graph.degree(v) + 1)) for v in range(n)
    )
    snapshot = frozenset(v for v in range(n) if draw(st.booleans()))
    budget = draw(st.integers(min_value=0, max_value=max_budget))
    mode = draw(st.sampled_from(list(modes)))
    return SnapshotInstance(graph, thresholds, snapshot, budget, mode)
