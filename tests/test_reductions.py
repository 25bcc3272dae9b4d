from __future__ import annotations

import itertools
import json
import random
from importlib import resources

import pytest

from snapshot_lab import (
    Graph,
    InvalidInstanceError,
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
    reductions,
    solve,
)
from snapshot_lab.reductions import target_set_from_dict, target_set_to_dict
from snapshot_lab.serialize import instance_from_dict, instance_to_dict

from conftest import DATA


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


@pytest.mark.parametrize(
    "call", [lambda ts: embed_target_set(ts, "sequential"),
             lambda ts: check_equivalence("embed", ts, mode="sequential")],
    ids=["embed_target_set", "check_equivalence"],
)
def test_embed_rejects_a_mode_that_is_not_a_dynamics_mode(star4_ts, call):
    with pytest.raises(InvalidInstanceError, match="^mode must be a DynamicsMode, not str$"):
        call(star4_ts)


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
        fans = sum(min(t[v], ts.graph.degree(v) + 1) for v in range(n))
        assert gadget_sequential_k1(ts).n == n + fans + n + 1


def _graphs(n: int):
    """Every labelled graph on n nodes."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for b, p in enumerate(pairs) if bits >> b & 1])


def _unclamped_dummy(inst: SnapshotInstance) -> SnapshotInstance:
    """The dummy gadget with a fan of t(v) nodes at every threshold t(v)."""
    labels, edges, thresholds = list(inst.graph.labels), list(inst.graph.edges()), list(inst.thresholds)
    for v, label in enumerate(inst.graph.labels):
        edges.append((v, reductions._add_fan(labels, thresholds, edges, v, f"d:{label}", f"e:{label}")))
    graph = Graph.from_edges(len(labels), edges, labels)
    return SnapshotInstance(graph, thresholds, inst.snapshot, inst.budget, PLAIN_SIMULTANEOUS)


def test_gadgets_clamp_a_threshold_above_degree_plus_one(star4):
    # node 0 of the star has degree 1
    big, clamped = (10**6, 2, 1, 1), (2, 2, 1, 1)
    ts_big, ts_clamped = TargetSetInstance(star4, big, 1), TargetSetInstance(star4, clamped, 1)
    assert gadget_sequential_k1(ts_big) == gadget_sequential_k1(ts_clamped)
    verdict = check_equivalence("seqk1", ts_big)
    assert verdict.agree and verdict.left_feasible == check_equivalence("seqk1", ts_clamped).left_feasible
    inst_big, inst_clamped = (
        SnapshotInstance(star4, t, frozenset({0, 1, 2}), 2, MONOTONE_SIMULTANEOUS) for t in (big, clamped)
    )
    assert gadget_deactivation_robust(inst_big) == gadget_deactivation_robust(inst_clamped)
    a, b = (check_equivalence("dummy", inst) for inst in (inst_big, inst_clamped))
    assert (a.left_feasible, a.right_feasible) == (b.left_feasible, b.right_feasible)


def test_seqk1_agrees_on_every_small_source_with_thresholds_up_to_degree_plus_three():
    # the gadget's budget is 1 whatever the source's is, so budget 0 is rejected
    cases = rejected = 0
    for n in (1, 2, 3):
        for graph in _graphs(n):
            ranges = [range(1, graph.degree(v) + 4) for v in range(n)]
            for thresholds in itertools.product(*ranges):
                with pytest.raises(ValueError, match="^budget = 0 unsupported by gadget"):
                    check_equivalence("seqk1", TargetSetInstance(graph, thresholds, 0))
                rejected += 1
                for budget in range(1, n + 1):
                    verdict = check_equivalence("seqk1", TargetSetInstance(graph, thresholds, budget))
                    assert verdict.agree, (graph.edges(), thresholds, budget)
                    cases += 1
    assert (cases, rejected) == (1661, 564)


def test_dummy_gadget_keeps_the_verdict_of_its_unclamped_form():
    cases = 0
    for n in (1, 2, 3):
        for graph in _graphs(n):
            ranges = [range(0, graph.degree(v) + 4) for v in range(n)]
            for thresholds in itertools.product(*ranges):
                if all(t <= graph.degree(v) + 1 for v, t in enumerate(thresholds)):
                    continue  # no threshold is clamped
                for budget, snapshot in itertools.product(range(n + 1), range(1 << n)):
                    if snapshot.bit_count() <= budget:
                        continue  # seeding the snapshot itself matches at time 0
                    inst = SnapshotInstance(
                        graph, thresholds, {v for v in range(n) if snapshot >> v & 1}, budget, MONOTONE_SIMULTANEOUS
                    )
                    expected = solve(_unclamped_dummy(inst)).verdict
                    assert solve(gadget_deactivation_robust(inst)).verdict == expected, inst
                    cases += 1
    assert cases == 9666


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


@pytest.mark.parametrize(
    "gadget, source, takes, given",
    [
        ("embed", "instance", "TargetSetInstance", "SnapshotInstance"),
        ("seqk1", "instance", "TargetSetInstance", "SnapshotInstance"),
        ("dummy", "target_set", "SnapshotInstance", "TargetSetInstance"),
    ],
)
def test_check_equivalence_rejects_the_wrong_source_type(star4_ts, gadget, source, takes, given):
    sources = {
        "instance": SnapshotInstance(star4_ts.graph, star4_ts.thresholds, frozenset({0, 1}), 1, MONOTONE_SIMULTANEOUS),
        "target_set": star4_ts,
    }
    with pytest.raises(ValueError, match=f"^gadget '{gadget}' takes a {takes}, not a {given}$"):
        check_equivalence(gadget, sources[source])


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


def test_target_set_document_rejects_unknown_fields(star4_ts):
    # a snapshot-instance document would otherwise lose its snapshot and dynamics
    doc = instance_to_dict(embed_target_set(star4_ts, MONOTONE_SIMULTANEOUS))
    with pytest.raises(InvalidInstanceError) as info:
        target_set_from_dict(doc)
    assert sorted(info.value.violations) == ["unknown field 'dynamics'", "unknown field 'snapshot'"]
    doc = dict(target_set_to_dict(star4_ts), bogus=1)
    with pytest.raises(InvalidInstanceError, match="unknown field 'bogus'"):
        target_set_from_dict(doc)


def test_target_set_document_lists_an_unknown_snapshot_with_its_graph_violations(star4_ts):
    doc = dict(target_set_to_dict(star4_ts), snapshot=True, edges=[[0, 9]])
    with pytest.raises(InvalidInstanceError) as info:
        target_set_from_dict(doc)
    assert info.value.violations == ["edge (0,9) outside node range 0..3", "unknown field 'snapshot'"]


@pytest.mark.parametrize("name", ["clique10", "star4"])
def test_committed_target_sets_match_their_corpus_instances(name):
    corpus = resources.files("snapshot_lab").joinpath("corpus", f"{name}.json")
    inst = instance_from_dict(json.loads(corpus.read_text()))
    doc = json.loads((DATA / f"{name}_target_set.json").read_text())
    assert target_set_from_dict(doc) == TargetSetInstance(inst.graph, inst.thresholds, inst.budget)
