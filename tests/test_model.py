from __future__ import annotations

import copy
import dataclasses
import pickle
import re

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
    SnapshotInstance,
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


@pytest.mark.parametrize("n", [True, 2.0, "3", None, -1], ids=repr)
def test_node_count_follows_the_integer_rule(n):
    with pytest.raises(InvalidInstanceError, match=f"^node count {re.escape(repr(n))} must be a non-negative integer$"):
        Graph.from_edges(n, [])
    with pytest.raises(InvalidInstanceError, match=f"^0 adjacency masks for {re.escape(repr(n))} nodes;"):
        Graph(n, (), ())


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


@pytest.mark.parametrize("monotone", ["false", 0, 1, None])
def test_monotone_that_is_not_a_bool_rejected(monotone):
    # "false" is truthy: unchecked, it ran as monotone and named itself so
    with pytest.raises(ValueError, match=re.escape(f"monotone must be a bool, not {monotone!r}")):
        DynamicsMode("sequential", monotone)


def test_closed_neighborhood_star4(star4):
    assert closed_neighborhood(star4, {1}) == frozenset({0, 1, 2, 3})
    assert closed_neighborhood(star4, {0}) == frozenset({0, 1})
    assert closed_neighborhood(star4, set()) == frozenset()


@pytest.mark.parametrize("ids", [[9], [-1], [0, 4], [True]])
def test_closed_neighborhood_rejects_node_ids_outside_the_graph(star4, ids):
    with pytest.raises(InvalidInstanceError, match=r"^node ids \[\S+\] outside 0\.\.3$"):
        closed_neighborhood(star4, ids)


def test_induced_subgraph_star4_leaves(star4):
    sub, sub_t = induced_subgraph(star4, (1, 2, 1, 1), [2, 0, 2])
    assert sub.n == 2 and sub.edges() == []
    assert sub_t == (1, 1)
    assert sub.labels == (star4.labels[0], star4.labels[2])  # ascending, repeats dropped


def test_induced_subgraph_identity(star4):
    sub, sub_t = induced_subgraph(star4, (1, 2, 1, 1), range(4))
    assert sub.edges() == star4.edges()
    assert sub_t == (1, 2, 1, 1)


def test_induced_subgraph_clique10_prefix(clique10):
    inst = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
    sub, sub_t = induced_subgraph(inst.graph, inst.thresholds, range(7))
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
    sub, _ = induced_subgraph(graph, instance.thresholds, kept)
    back = {(kept[u], kept[v]) for u, v in sub.edges()}
    assert back == {(u, v) for u, v in graph.edges() if u in kept and v in kept}


def test_sequential_mode_flags():
    assert PLAIN_SEQUENTIAL.sequential and not PLAIN_SEQUENTIAL.monotone
    assert PLAIN_SEQUENTIAL.describe() == "sequential"
    assert MONOTONE_SIMULTANEOUS.describe() == "monotone simultaneous"


@pytest.mark.parametrize(
    "n, masks, labels, message",
    [
        (3, (0b010, 0, 0), ("a", "b", "c"), r"edge \(0,1\) has no reverse"),
        (2, (0b11, 0b01), ("a", "b"), "self-loop at node 0"),
        (2, (0b10, 0b01), ("a", "b", "c"), "3 labels for 2 nodes"),
        (3, (0, 0, 0b1001), ("a", "b", "c"), "neighbour 3 of node 2 outside node range"),
        (2, (0, -1), ("a", "b"), "neighbour mask of node 1 is -1, must be a non-negative integer"),
        (2, (0b10, True), ("a", "b"), "neighbour mask of node 1 is True, must be a non-negative integer"),
        (1, (0b10, 0b01), ("a",), "2 adjacency masks for 1 nodes"),
    ],
    ids=["asymmetric", "self-loop", "label-count", "out-of-range", "negative-mask", "bool-mask", "mask-count"],
)
def test_directly_built_bad_graph_is_rejected(n, masks, labels, message):
    with pytest.raises(InvalidInstanceError, match=message):
        validate_instance(Graph(n, masks, labels), (1,) * n, {0}, 1, PLAIN_SIMULTANEOUS)


@given(small_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_direct_graph_equals_edge_list_graph(instance, data):
    graph = instance.graph
    edges = data.draw(st.permutations(graph.edges()))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    shuffled = Graph.from_edges(graph.n, edges, graph.labels)
    direct = Graph(graph.n, [mask_of(row) for row in shuffled.adj], shuffled.labels)
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
    assert Graph.__slots__ == ("n", "adj_masks", "labels")
    assert not hasattr(graph, "__dict__")
    neighbours = [sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}) for v in range(n)]
    assert graph.adj == tuple(map(tuple, neighbours))
    assert [graph.degree(v) for v in range(n)] == list(map(len, neighbours))
    assert graph.edges() == edges
    s = {v for v in range(n) if data.draw(st.booleans())}
    assert closed_neighborhood(graph, s) == frozenset(s).union(*(neighbours[v] for v in s))
    direct = Graph(n, [mask_of(row) for row in neighbours], graph.labels)
    assert direct == graph and direct.adj_masks == graph.adj_masks
    with pytest.raises(AttributeError):
        graph.adj = ()


def test_slotted_values_pickle_copy_and_replace(star4):
    instance = validate_instance(star4, (1, 2, 1, 1), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
    target_set = TargetSetInstance(star4, (1, 2, 1, 1), 2)
    for value in (star4, instance, target_set):
        assert not hasattr(value, "__dict__")
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert other == value and hash(other) == hash(value)
        with pytest.raises(AttributeError):
            value.graph = None
    assert dataclasses.replace(instance, budget=1).budget == 1
    assert dataclasses.replace(target_set, budget=1) == TargetSetInstance(star4, (1, 2, 1, 1), 1)
    relabelled = dataclasses.replace(Graph.from_edges(3, [(0, 1)]), labels=("a", "b", "c"))
    assert relabelled == Graph.from_edges(3, [(0, 1)], labels=["a", "b", "c"])
    assert dataclasses.replace(star4, labels=list("abcd")).adj_masks == star4.adj_masks
    with pytest.raises(InvalidInstanceError, match="3 labels for 4 nodes"):
        dataclasses.replace(star4, labels=("a", "b", "c"))
    with pytest.raises(InvalidInstanceError, match="self-loop at node 0"):
        dataclasses.replace(star4, adj_masks=(0b11, 0b1101, 0b10, 0b10))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda g: SnapshotInstance(g, (1, 2, 1, 1), frozenset({1}), -1, PLAIN_SEQUENTIAL), "budget -1 is negative"),
        (lambda g: SnapshotInstance(g, (1, 2, 1, 1), frozenset({9}), 1, PLAIN_SEQUENTIAL), "snapshot node 9 outside"),
        (lambda g: TargetSetInstance(g, (1, 2, 1, 1), -1), "budget -1 is negative"),
        (lambda g: TargetSetInstance(g, (1, 2, 1), 1), "3 thresholds for 4 nodes"),
        (lambda g: dataclasses.replace(_star4_instance(g), budget=-1), "budget -1 is negative"),
        (lambda g: dataclasses.replace(_star4_instance(g), thresholds=(1, -2, 1, 1)), "threshold of node 1"),
        (lambda g: SnapshotInstance(g, (1, 2, 1, 1), frozenset({1}), 1, None), "mode must be a DynamicsMode, not NoneType"),
        (lambda g: SnapshotInstance(g, (1, 2, 1, 1), frozenset({1}), 1, "sequential"), "mode must be a DynamicsMode, not str"),
        (lambda g: dataclasses.replace(_star4_instance(g), mode="sequential"), "mode must be a DynamicsMode"),
        (lambda g: SnapshotInstance(g.adj_masks, (1, 2, 1, 1), frozenset({1}), 1, PLAIN_SEQUENTIAL), "graph must be a Graph, not tuple"),
        (lambda g: TargetSetInstance(None, (1,), 1), "graph must be a Graph, not NoneType"),
    ],
    ids=[
        "budget", "snapshot", "target-set-budget", "target-set-thresholds", "replace-budget", "replace-threshold",
        "mode-none", "mode-str", "replace-mode", "graph-masks", "target-set-graph-none",
    ],
)
def test_instances_are_checked_however_they_are_built(star4, build, message):
    with pytest.raises(InvalidInstanceError, match=message):
        build(star4)


def test_instances_store_thresholds_as_a_tuple_and_the_snapshot_as_a_frozenset(star4):
    instance = SnapshotInstance(star4, [1, 2, 1, 1], [0, 1, 1], 1, PLAIN_SEQUENTIAL)
    assert instance.thresholds == (1, 2, 1, 1) and instance.snapshot == frozenset({0, 1})
    assert TargetSetInstance(star4, [1, 2, 1, 1], 1).thresholds == (1, 2, 1, 1)
    document = instance_to_dict(instance)
    document["snapshot"] = [1, True]  # checked as given: True is not merged with 1
    with pytest.raises(InvalidInstanceError, match="snapshot node True must be an integer"):
        instance_from_dict(document)


def test_an_instance_document_lists_its_graph_and_value_violations_together(star4):
    document = dict(instance_to_dict(_star4_instance(star4)), edges=[[0, 5]], thresholds=[-1, 1, 1, 1])
    with pytest.raises(InvalidInstanceError) as info:
        instance_from_dict(document)
    assert info.value.violations == [
        "edge (0,5) outside node range 0..3",
        "threshold of node 0 is -1, must be a non-negative integer",
    ]


def test_an_instance_document_lists_every_missing_field(star4):
    document = instance_to_dict(_star4_instance(star4))
    for key in ("labels", "snapshot", "dynamics"):
        del document[key]
    with pytest.raises(InvalidInstanceError) as info:
        instance_from_dict(document)
    assert info.value.violations == [
        "missing field 'labels'",
        "missing field 'snapshot'",
        "missing field 'dynamics' (and no mode override)",
    ]


@pytest.mark.parametrize(
    "fields, violations",
    [
        ({"thresholds": {"a": 1}}, ["'thresholds' must be a list of integers"]),
        ({"labels": "abcd", "thresholds": 1}, ["'labels' must be a list of strings", "'thresholds' must be a list of integers"]),
        ({"edges": [[1, 1]], "budget": -1}, ["self-loop at node 1", "budget -1 is negative"]),
    ],
    ids=["thresholds-object", "labels-and-thresholds", "graph-and-budget"],
)
def test_both_graph_documents_share_one_field_rule(star4, fields, violations):
    instance_doc = dict(instance_to_dict(_star4_instance(star4)), **fields)
    target_set_doc = dict(target_set_to_dict(TargetSetInstance(star4, (1, 2, 1, 1), 1)), **fields)
    for read, document in ((instance_from_dict, instance_doc), (target_set_from_dict, target_set_doc)):
        with pytest.raises(InvalidInstanceError) as info:
            read(document)
        assert info.value.violations == violations


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
