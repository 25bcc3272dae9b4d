from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    Graph,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    Move,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    apply_ordering,
    best_response,
    legal_moves,
    monotone_closure,
    reachable_configs,
    run_simultaneous,
)
from snapshot_lab.dynamics import EngineInvariantError, _node_table, _response_mask, _step_mask
from snapshot_lab.model import mask_of, nodes_of
from snapshot_lab.serialize import trace_jsonl

from conftest import small_instances

T4 = (1, 2, 1, 1)


def cfg(*nodes):
    return frozenset(nodes)


def step(graph, nodes, seed, monotone):
    return _step_mask(_node_table(graph.adj_masks, T4), mask_of(nodes), mask_of(seed), monotone)


def test_best_response_star4(star4):
    assert best_response(star4, T4, cfg(0, 2), 1) is True  # 2 active neighbors >= 2
    assert best_response(star4, T4, cfg(), 1) is False
    assert best_response(star4, T4, cfg(1), 0) is True  # 1 >= 1


def test_best_response_zero_threshold(star4):
    assert best_response(star4, (0, 2, 1, 1), cfg(), 0) is True


def test_simultaneous_step_non_monotone_center_drops_out(star4):
    new = step(star4, {1}, {1}, monotone=False)
    assert nodes_of(new) == frozenset({0, 2, 3})
    assert nodes_of(new ^ mask_of({1})) == frozenset({0, 1, 2, 3})  # every node flips


def test_simultaneous_step_monotone_keeps_seed(star4):
    assert nodes_of(step(star4, {1}, {1}, monotone=True)) == frozenset({0, 1, 2, 3})


def test_simultaneous_step_empty_fixed_point(star4):
    assert step(star4, set(), set(), monotone=False) == 0
    assert step(star4, set(), set(), monotone=True) == 0


def test_monotone_invariant_guards_engine(star4):
    # an active non-seed node without support cannot arise in a monotone run;
    # feeding one in trips the engine invariant
    with pytest.raises(EngineInvariantError):
        step(star4, {0}, set(), monotone=True)


@given(small_instances(max_n=8), st.data())
@settings(max_examples=200, deadline=None)
def test_table_response_and_step_equal_best_response(instance, data):
    # the table-driven kernel against the per-node definition, with
    # threshold 0 and thresholds above the degree drawn on purpose
    graph, n = instance.graph, instance.n
    thresholds = tuple(
        data.draw(st.sampled_from([0, graph.degree(v) + 1, instance.thresholds[v]]))
        for v in range(n)
    )
    active = frozenset(v for v in range(n) if data.draw(st.booleans()))
    responders = frozenset(v for v in range(n) if best_response(graph, thresholds, active, v))
    table = _node_table(graph.adj_masks, thresholds)
    assert table == tuple((graph.adj_masks[v], thresholds[v], 1 << v) for v in range(n))
    assert nodes_of(_response_mask(table, mask_of(active))) == responders
    assert nodes_of(_step_mask(table, mask_of(active), 0, False)) == responders
    # a monotone step needs every active node without support in the seed
    seed = (active - responders) | frozenset(v for v in active if data.draw(st.booleans()))
    stepped = _step_mask(table, mask_of(active), mask_of(seed), True)
    assert nodes_of(stepped) == active | responders


def test_node_table_of_a_graph_past_64_nodes():
    n = 70
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    table = _node_table(path.adj_masks, (1,) * n)
    assert [bit for _, _, bit in table] == [1 << v for v in range(n)]
    assert nodes_of(_response_mask(table, 1 << 69)) == frozenset({68})
    result = run_simultaneous(path, (1,) * n, frozenset({0}), MONOTONE_SIMULTANEOUS)
    assert result.termination.kind == "fixed_point" and len(result.trace.steps) == n - 1


@pytest.mark.parametrize("thresholds", [(1, 1), (1, 1, 1, 1)], ids=["short", "long"])
def test_threshold_count_other_than_node_count_is_rejected(thresholds):
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    seed = frozenset({0})
    calls = [
        lambda: run_simultaneous(path, thresholds, seed, PLAIN_SIMULTANEOUS),
        lambda: legal_moves(path, thresholds, seed, PLAIN_SEQUENTIAL),
        lambda: apply_ordering(path, thresholds, seed, [1, 2], PLAIN_SEQUENTIAL),
        lambda: monotone_closure(path, thresholds, seed),
        lambda: reachable_configs(path, thresholds, seed, PLAIN_SEQUENTIAL),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_run_simultaneous_matches_at_first_hit(star4):
    result = run_simultaneous(
        star4, T4, frozenset({0, 2}), MONOTONE_SIMULTANEOUS, target=frozenset({0, 1, 2})
    )
    assert result.matched and result.trace.match_time == 1
    # the run stops at the match even though u4 would join at t=2
    assert result.trace.steps[-1].active == frozenset({0, 1, 2})


def test_run_simultaneous_double_diamond(double_diamond):
    t = (5, 1, 1, 2, 1, 1, 2)
    result = run_simultaneous(
        double_diamond, t, frozenset({0}), PLAIN_SIMULTANEOUS, target=frozenset({3, 6})
    )
    assert result.matched and result.trace.match_time == 2
    assert [sorted(s.active) for s in result.trace.steps] == [[1, 2, 4, 5], [3, 6]]


def test_run_simultaneous_detects_two_cycle(star4):
    result = run_simultaneous(
        star4, T4, frozenset({1}), PLAIN_SIMULTANEOUS, target=frozenset(range(4))
    )
    assert result.termination.kind == "cycle_detected"
    assert result.termination.period == 2
    assert result.termination.entry_time == 0
    assert result.trace.match_time is None


def test_run_simultaneous_match_at_time_zero(star4):
    result = run_simultaneous(star4, T4, frozenset({0}), PLAIN_SIMULTANEOUS, target=frozenset({0}))
    assert result.matched and result.trace.match_time == 0 and result.trace.steps == ()


def test_run_simultaneous_step_cap(star4):
    result = run_simultaneous(
        star4, T4, frozenset({1}), PLAIN_SIMULTANEOUS, target=frozenset(range(4)), max_steps=1
    )
    assert result.termination.kind == "step_cap_hit"


def test_legal_moves_star4(star4):
    moves = legal_moves(star4, T4, cfg(1), PLAIN_SEQUENTIAL)
    assert moves == [Move(0, True), Move(1, False), Move(2, True), Move(3, True)]
    moves = legal_moves(star4, T4, cfg(1), MONOTONE_SEQUENTIAL)
    assert moves == [Move(0, True), Move(2, True), Move(3, True)]
    assert legal_moves(star4, T4, cfg(), PLAIN_SEQUENTIAL) == []


def test_legal_moves_requires_sequential(star4):
    with pytest.raises(ValueError):
        legal_moves(star4, T4, cfg(), PLAIN_SIMULTANEOUS)


def test_apply_ordering_examples(star4):
    r = apply_ordering(star4, T4, frozenset({1}), [2], PLAIN_SEQUENTIAL, target=frozenset({1, 2}))
    assert r.trace.match_time == 1

    r = apply_ordering(star4, T4, frozenset({1}), [], PLAIN_SEQUENTIAL, target=frozenset({1}))
    assert r.trace.match_time == 0

    # the seed itself deactivates: 0 active neighbors < 2
    r = apply_ordering(star4, T4, frozenset({1}), [1], PLAIN_SEQUENTIAL, target=frozenset())
    assert r.trace.match_time == 1
    assert r.trace.steps[0].move == Move(1, False)


def test_apply_ordering_monotone_never_deactivates(star4):
    r = apply_ordering(star4, T4, frozenset({1}), [1, 2], MONOTONE_SEQUENTIAL)
    assert r.trace.steps[0].active == frozenset({1})  # no-op step, time advances
    assert r.trace.steps[1].active == frozenset({1, 2})
    assert r.termination.kind == "ordering_exhausted"


def test_apply_ordering_rejects_bad_node(star4):
    with pytest.raises(ValueError):
        apply_ordering(star4, T4, frozenset(), [7], PLAIN_SEQUENTIAL)


@given(small_instances(modes=[MONOTONE_SIMULTANEOUS]))
@settings(max_examples=60, deadline=None)
def test_monotone_runs_grow_monotonically(instance):
    result = run_simultaneous(
        instance.graph, instance.thresholds, instance.snapshot, instance.mode
    )
    configs = list(result.trace.configurations())
    for before, after in zip(configs, configs[1:]):
        assert before <= after
    # every recorded step activates at least one node, so a run settles
    # within n steps
    assert len(result.trace.steps) <= instance.graph.n


@given(small_instances(max_n=12, modes=[PLAIN_SIMULTANEOUS]))
@settings(max_examples=80, deadline=None)
def test_non_monotone_simultaneous_terminates_in_fixed_point_or_cycle(instance):
    # exact repeat detection bounds every uncapped trajectory by 2^n steps;
    # symmetric threshold networks only reach periods 1 and 2 (Goles & Olivos,
    # 1980)
    result = run_simultaneous(
        instance.graph, instance.thresholds, instance.snapshot, instance.mode
    )
    assert result.termination.kind in ("fixed_point", "cycle_detected")
    if result.termination.kind == "cycle_detected":
        assert result.termination.period <= 2


@given(small_instances(modes=[PLAIN_SIMULTANEOUS, MONOTONE_SIMULTANEOUS]))
@settings(max_examples=40, deadline=None)
def test_simultaneous_runs_are_deterministic(instance):
    runs = [
        run_simultaneous(
            instance.graph, instance.thresholds, instance.snapshot, instance.mode,
            target=frozenset({0}) if instance.graph.n else None,
        )
        for _ in range(2)
    ]
    assert trace_jsonl(runs[0]) == trace_jsonl(runs[1])


@given(small_instances(modes=[PLAIN_SEQUENTIAL, MONOTONE_SEQUENTIAL]))
@settings(max_examples=80, deadline=None)
def test_applied_moves_stop_being_legal(instance):
    for move in legal_moves(instance.graph, instance.thresholds, instance.snapshot, instance.mode):
        after = apply_ordering(
            instance.graph, instance.thresholds, instance.snapshot, [move.node], instance.mode
        ).trace.steps[-1].active
        assert after != instance.snapshot
        assert move not in legal_moves(instance.graph, instance.thresholds, after, instance.mode)


@given(small_instances(max_n=8, modes=[PLAIN_SEQUENTIAL]))
@settings(max_examples=80, deadline=None)
def test_plain_sequential_move_graph_is_acyclic(instance):
    # every state-changing best-response move strictly lowers an energy
    # function (Goles, Fogelman-Soulie & Pellegrin, 1985), so no sequence of
    # legal moves returns to a configuration it left
    graph, thresholds = instance.graph, instance.thresholds

    def successors(mask):
        active = nodes_of(mask)
        return [mask ^ 1 << m.node for m in legal_moves(graph, thresholds, active, instance.mode)]

    finished: set[int] = set()
    for root in range(1 << graph.n):
        if root in finished:
            continue
        on_path = {root}
        stack = [(root, iter(successors(root)))]
        while stack:
            mask, children = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                on_path.discard(mask)
                finished.add(mask)
            elif child not in finished:
                assert child not in on_path, f"move cycle through {sorted(nodes_of(child))}"
                on_path.add(child)
                stack.append((child, iter(successors(child))))
