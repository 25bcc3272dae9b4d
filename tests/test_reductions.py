from __future__ import annotations

import random

import pytest

from snapshot_lab import (
    Graph,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SnapshotInstance,
    TargetSetInstance,
    check_equivalence,
    embed_target_set,
    gadget_deactivation_robust,
    gadget_sequential_k1,
    has_target_set,
    solve,
)
from snapshot_lab.reductions import target_set_from_dict, target_set_to_dict
from snapshot_lab.serialize import instance_from_dict, instance_to_dict


@pytest.fixture
def star4_ts(star4):
    return TargetSetInstance(star4, (1, 2, 1, 1), 1)


@pytest.fixture
def edge_ab():
    return Graph.from_edges(2, [(0, 1)], labels=["a", "b"])


def test_embed_target_set(star4_ts):
    inst = embed_target_set(star4_ts, MONOTONE_SIMULTANEOUS)
    assert inst.snapshot == frozenset(range(4))
    assert inst.graph.edges() == star4_ts.graph.edges()
    assert inst.thresholds == star4_ts.thresholds
    assert solve(inst).feasible  # the center closes over the whole star

    two = TargetSetInstance(Graph.from_edges(2, []), (2, 2), 1)
    assert not solve(embed_target_set(two, MONOTONE_SIMULTANEOUS)).feasible

    with pytest.raises(ValueError):
        embed_target_set(star4_ts, PLAIN_SIMULTANEOUS)


def test_dummy_gadget_structure(star4):
    inst = SnapshotInstance(star4, (1, 2, 1, 1), frozenset({0, 1, 2}), 2, MONOTONE_SIMULTANEOUS)
    out = gadget_deactivation_robust(inst)
    assert out.n == 4 + sum(t + 1 for t in inst.thresholds) == 13
    assert set(out.thresholds[4:]) == {1}
    assert out.snapshot == inst.snapshot and out.budget == inst.budget
    assert out.mode == PLAIN_SIMULTANEOUS
    for v in range(4):
        extra = out.graph.labels.index(f"e:u{v + 1}")
        assert out.graph.degree(extra) == inst.thresholds[v] + 1
    # deterministic, byte for byte
    assert instance_to_dict(gadget_deactivation_robust(inst)) == instance_to_dict(out)


def test_dummy_gadget_zero_threshold_node():
    g = Graph.from_edges(1, [], labels=["a"])
    inst = SnapshotInstance(g, (0,), frozenset({0}), 1, MONOTONE_SIMULTANEOUS)
    out = gadget_deactivation_robust(inst)
    assert out.n == 2  # zero plain dummies plus the one extra dummy
    assert out.graph.labels == ("a", "e:a")


def test_seqk1_gadget_structure():
    ts = TargetSetInstance(Graph.from_edges(1, [], labels=["a"]), (1,), 1)
    out = gadget_sequential_k1(ts)
    assert out.n == 4
    assert out.graph.labels == ("a", "v:a:0", "u':a", "v0")
    assert out.thresholds == (1, 1, 1, 2)  # hub threshold budget + 1
    assert out.snapshot == frozenset({0, 1, 2})
    assert out.budget == 1 and out.mode == PLAIN_SEQUENTIAL
    assert solve(out).feasible


def test_seqk1_gadget_node_count_formula():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        t = tuple(rng.choice((1, 2)) for _ in range(n))
        ts = TargetSetInstance(Graph.from_edges(n, edges), t, rng.choice((1, 2)))
        assert gadget_sequential_k1(ts).n == n + sum(t) + n + 1


def test_seqk1_gadget_rejects_zero_thresholds():
    ts = TargetSetInstance(Graph.from_edges(2, [(0, 1)]), (1, 0), 1)
    with pytest.raises(ValueError, match="node 1"):
        gadget_sequential_k1(ts)


def test_seqk1_gadget_infeasible_when_no_target_set():
    ts = TargetSetInstance(Graph.from_edges(2, []), (2, 2), 1)
    reduced = gadget_sequential_k1(ts)
    assert not has_target_set(ts)
    assert solve(reduced).verdict == "infeasible"


def test_check_equivalence_embed_both_monotone_modes(star4_ts):
    for mode in (MONOTONE_SIMULTANEOUS, MONOTONE_SEQUENTIAL):
        verdict = check_equivalence("embed", star4_ts, mode=mode)
        assert verdict.agree and verdict.left_feasible


def test_check_equivalence_seqk1_examples():
    single = TargetSetInstance(Graph.from_edges(1, [], labels=["a"]), (1,), 1)
    assert check_equivalence("seqk1", single).agree

    two = TargetSetInstance(Graph.from_edges(2, []), (2, 2), 1)
    verdict = check_equivalence("seqk1", two)
    assert verdict.agree and not verdict.left_feasible


def test_check_equivalence_dummy_edge_discrepancy(edge_ab):
    src = SnapshotInstance(edge_ab, (1, 1), frozenset({0, 1}), 1, MONOTONE_SIMULTANEOUS)
    verdict = check_equivalence("dummy", src)
    assert verdict.left_feasible and not verdict.right_feasible
    assert not verdict.agree
    # the shrunken counterexample is recorded, revalidates, and still disagrees
    assert verdict.counterexample is not None
    shrunk = instance_from_dict(verdict.counterexample)
    assert shrunk.n == 2
    again = check_equivalence("dummy", shrunk)
    assert not again.agree


def test_check_equivalence_unknown_gadget(star4_ts):
    with pytest.raises(ValueError):
        check_equivalence("mystery", star4_ts)


def test_gadget_outputs_validate_and_roundtrip(star4):
    inst = SnapshotInstance(star4, (1, 2, 1, 1), frozenset({0, 1}), 2, MONOTONE_SIMULTANEOUS)
    for emitted in (
        gadget_deactivation_robust(inst),
        gadget_sequential_k1(TargetSetInstance(star4, (1, 2, 1, 1), 2)),
        embed_target_set(TargetSetInstance(star4, (1, 2, 1, 1), 1), MONOTONE_SIMULTANEOUS),
    ):
        assert instance_from_dict(instance_to_dict(emitted)) == emitted


def test_target_set_document_roundtrip(star4_ts):
    assert target_set_from_dict(target_set_to_dict(star4_ts)) == star4_ts
