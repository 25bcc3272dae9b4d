from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    Graph,
    InvalidInstanceError,
    MONOTONE_SIMULTANEOUS,
    Move,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    TargetSetInstance,
    closed_neighborhood,
    embed_target_set,
    gadget_deactivation_robust,
    gadget_sequential_k1,
    induced_subgraph,
    validate_instance,
)
from snapshot_lab.model import DynamicsMode, mask_of, nodes_of, value_violations
from snapshot_lab.reductions import target_set_from_dict, target_set_to_dict
from snapshot_lab.serialize import instance_from_dict, instance_to_dict

from conftest import small_instances


def test_star4_instance_validates(star4):
    inst = validate_instance(star4, (1, 2, 1, 1), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
    assert inst.snapshot == frozenset({0, 1, 2})
    assert inst.graph.labels == ("u1", "u2", "u3", "u4")


def test_snapshot_node_outside_graph_is_named():
    Graph.from_edges(4, [(0, 1)])
    violations = value_violations(4, [1, 1, 1, 1], [99], 1)
    assert any("snapshot node 99" in v for v in violations)


def test_self_loop_rejected():
    with pytest.raises(InvalidInstanceError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])


def test_duplicate_and_out_of_range_edges_rejected():
    with pytest.raises(InvalidInstanceError, match="duplicate edge"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidInstanceError, match="outside node range"):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize("endpoint", [True, 1.0, "1"])
def test_edge_endpoints_follow_the_integer_rule(endpoint):
    with pytest.raises(InvalidInstanceError, match="endpoints must be integers"):
        Graph.from_edges(2, [(0, endpoint)])


def test_negative_threshold_and_budget_rejected(star4):
    assert any("non-negative" in v for v in value_violations(4, [1, -1, 1, 1], [], 1))
    with pytest.raises(InvalidInstanceError, match="budget"):
        validate_instance(star4, (1, 2, 1, 1), set(), -1, MONOTONE_SIMULTANEOUS)


def test_empty_snapshot_and_zero_budget_are_legal(star4):
    inst = validate_instance(star4, (1, 2, 1, 1), set(), 0, MONOTONE_SIMULTANEOUS)
    assert inst.snapshot == frozenset()
    assert inst.budget == 0


def test_threshold_may_exceed_degree(star4):
    # such nodes can only be active by seeding, but the instance is valid
    validate_instance(star4, (9, 2, 1, 1), {0}, 1, MONOTONE_SIMULTANEOUS)


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        DynamicsMode(order="diagonal", monotone=True)


def test_closed_neighborhood_star4(star4):
    assert closed_neighborhood(star4, {1}) == frozenset({0, 1, 2, 3})
    assert closed_neighborhood(star4, {0}) == frozenset({0, 1})
    assert closed_neighborhood(star4, set()) == frozenset()


def test_induced_subgraph_star4_leaves(star4):
    sub, sub_t, idmap = induced_subgraph(star4, (1, 2, 1, 1), {0, 2})
    assert sub.n == 2 and sub.edges() == []
    assert sub_t == (1, 1)
    assert [idmap.original(i) for i in range(2)] == [0, 2]
    assert idmap.sub(2) == 1


def test_induced_subgraph_identity(star4):
    sub, sub_t, _ = induced_subgraph(star4, (1, 2, 1, 1), range(4))
    assert sub.edges() == star4.edges()
    assert sub_t == (1, 2, 1, 1)


def test_induced_subgraph_clique10_prefix(clique10):
    inst = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
    sub, sub_t, _ = induced_subgraph(inst.graph, inst.thresholds, range(7))
    assert sub_t == (1, 1, 2, 2, 3, 4, 5)
    assert len(sub.edges()) == 7 * 6 // 2


def test_move_wire_roundtrip():
    for move in (Move(3, True), Move(0, False)):
        assert Move.from_wire(move.to_wire()) == move
    with pytest.raises(ValueError):
        Move.from_wire([1, "maybe"])


def test_mask_helpers_roundtrip():
    nodes = frozenset({0, 3, 5})
    assert nodes_of(mask_of(nodes)) == nodes


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_set_contained_in_its_closed_neighborhood(instance):
    s = instance.snapshot
    assert s <= closed_neighborhood(instance.graph, s)


@given(small_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_round_trip_preserves_adjacency(instance, data):
    graph = instance.graph
    kept = [v for v in range(graph.n) if data.draw(st.booleans())]
    sub, _, idmap = induced_subgraph(graph, instance.thresholds, kept)
    back = {(idmap.original(u), idmap.original(v)) for u, v in sub.edges()}
    expected = {
        (u, v) for u, v in graph.edges() if u in idmap.from_original and v in idmap.from_original
    }
    assert back == expected


def test_sequential_mode_flags():
    assert PLAIN_SEQUENTIAL.sequential and not PLAIN_SEQUENTIAL.monotone
    assert PLAIN_SEQUENTIAL.describe() == "sequential"
    assert MONOTONE_SIMULTANEOUS.describe() == "monotone simultaneous"


@pytest.mark.parametrize(
    "adj, labels, message",
    [
        (((1,), (), ()), ("a", "b", "c"), r"edge \(0,1\) has no reverse"),
        (((0, 1), (0,)), ("a", "b"), "self-loop at node 0"),
        (((1,), (0,)), ("a", "b", "c"), "3 labels for 2 nodes"),
        (((), (), (-1,)), ("a", "b", "c"), "neighbour -1 of node 2 outside node range"),
        (((1,), (0, 0)), ("a", "b"), "neighbours of node 1 are not sorted and unique"),
        (((2, 1), (0,), (0,)), ("a", "b", "c"), "neighbours of node 0 are not sorted"),
    ],
    ids=["asymmetric", "self-loop", "label-count", "out-of-range", "duplicate", "unsorted"],
)
def test_directly_built_bad_graph_is_rejected(adj, labels, message):
    with pytest.raises(InvalidInstanceError, match=message):
        validate_instance(Graph(len(adj), adj, labels), (1,) * len(adj), {0}, 1, PLAIN_SIMULTANEOUS)


@given(small_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_direct_graph_equals_edge_list_graph(instance, data):
    graph = instance.graph
    edges = data.draw(st.permutations(graph.edges()))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    shuffled = Graph.from_edges(graph.n, edges, graph.labels)
    direct = Graph(graph.n, shuffled.adj, shuffled.labels)
    assert shuffled == graph == direct
    assert shuffled.adj_masks == direct.adj_masks == tuple(mask_of(row) for row in graph.adj)


@pytest.mark.parametrize(
    "snapshot, budget, message",
    [
        ({1.0}, 1, "snapshot node 1.0 must be an integer"),
        ({True}, 1, "snapshot node True must be an integer"),
        ({1}, True, "budget True must be an integer"),
        ({1}, 1.0, "budget 1.0 must be an integer"),
    ],
    ids=["float-node", "bool-node", "bool-budget", "float-budget"],
)
def test_snapshot_ids_and_budget_follow_the_integer_rule(snapshot, budget, message):
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidInstanceError, match=message):
        validate_instance(graph, (1, 1, 1), snapshot, budget, PLAIN_SIMULTANEOUS)
    assert message in value_violations(3, (1, 1, 1), snapshot, budget)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_graph_stores_only_masks_and_reads_them_as_the_edge_list(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if data.draw(st.booleans())]
    graph = Graph.from_edges(n, [(v, u) for u, v in reversed(edges)])
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj_masks", "labels"]
    assert list(vars(graph)) == ["n", "adj_masks", "labels"]
    neighbours = [sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}) for v in range(n)]
    assert graph.adj == tuple(map(tuple, neighbours))
    assert [graph.degree(v) for v in range(n)] == list(map(len, neighbours))
    assert graph.edges() == edges
    s = {v for v in range(n) if data.draw(st.booleans())}
    assert closed_neighborhood(graph, s) == frozenset(s).union(*(neighbours[v] for v in s))
    direct = Graph(n, graph.adj, graph.labels)
    assert direct == graph and direct.adj_masks == graph.adj_masks
    with pytest.raises(AttributeError):
        graph.adj = ()


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts the graphs built, through ``from_edges`` or the constructor."""
    builds = []
    from_edges, init = Graph.from_edges, Graph.__init__

    def counted_from_edges(*args, **kwargs):
        builds.append("from_edges")
        return from_edges(*args, **kwargs)

    def counted_init(self, *args):
        builds.append("constructor")
        init(self, *args)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(counted_from_edges))
    monkeypatch.setattr(Graph, "__init__", counted_init)
    return builds


def _star4_instance(star4):
    return validate_instance(star4, (1, 2, 1, 1), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)


@pytest.mark.parametrize(
    "build, graphs",
    [
        (_star4_instance, 0),
        (lambda g: instance_from_dict(instance_to_dict(_star4_instance(g))), 1),
        (lambda g: target_set_from_dict(target_set_to_dict(TargetSetInstance(g, (1, 2, 1, 1), 1))), 1),
        (lambda g: embed_target_set(TargetSetInstance(g, (1, 2, 1, 1), 1), MONOTONE_SIMULTANEOUS), 0),
        (lambda g: gadget_sequential_k1(TargetSetInstance(g, (1, 2, 1, 1), 1)), 1),
        (lambda g: gadget_deactivation_robust(_star4_instance(g)), 1),
    ],
    ids=["validate_instance", "instance_from_dict", "target_set_from_dict", "embed", "seqk1", "dummy"],
)
def test_each_instance_builds_its_graph_once(star4, graph_builds, build, graphs):
    build(star4)
    assert len(graph_builds) == graphs, graph_builds


def test_default_labels_are_shared_per_node_count():
    first, second = Graph.from_edges(5, []), Graph.from_edges(5, [(0, 1)])
    assert first.labels == ("v0", "v1", "v2", "v3", "v4")
    assert first.labels is second.labels
    assert Graph.from_edges(4, []).labels == ("v0", "v1", "v2", "v3")
