from __future__ import annotations

import itertools
import logging
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    ALL_MODES,
    Graph,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SearchCapExceeded,
    SearchLimits,
    SnapshotInstance,
    clique_analysis,
    feasible_snapshots,
    legal_moves,
    monotone_closure,
    reachable_configs,
    run_simultaneous,
    seed_feasible,
    solve,
    solve_sequential_k1,
)
from snapshot_lab.generator import GeneratorParams, instance_stream
from snapshot_lab.dynamics import _node_table, _response_after_flip, _response_mask
from snapshot_lab.model import mask_of, nodes_of
from snapshot_lab.solvers import _closure, _seeds, _simultaneous_fate, canonical_seed_sets

from conftest import assert_certificate_replays, small_instances

T4 = (1, 2, 1, 1)


def test_canonical_seed_order():
    assert list(canonical_seed_sets([2, 0, 1], 2)) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)
    ]


def test_monotone_closure_star4(star4):
    assert monotone_closure(star4, T4, {1}) == frozenset(range(4))
    assert monotone_closure(star4, T4, set()) == frozenset()


def test_monotone_closure_clique10(clique10):
    inst = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
    assert monotone_closure(inst.graph, inst.thresholds, {3, 4}) == frozenset(range(10))


def test_monotone_closure_respects_restriction(star4):
    assert monotone_closure(star4, T4, {1}, restrict_to={1, 2}) == frozenset({1, 2})
    with pytest.raises(ValueError):
        monotone_closure(star4, T4, {0}, restrict_to={1})


@given(small_instances())
@settings(max_examples=50, deadline=None)
def test_monotone_closure_is_order_independent(instance):
    graph, thresholds = instance.graph, instance.thresholds
    seed = instance.snapshot
    expected = monotone_closure(graph, thresholds, seed)
    rng = random.Random(17)
    for _ in range(10):
        active = set(seed)
        while True:
            eligible = [
                v for v in range(graph.n)
                if v not in active and len(set(graph.adj[v]) & active) >= thresholds[v]
            ]
            if not eligible:
                break
            active.add(rng.choice(eligible))
        assert frozenset(active) == expected


def _rescan_closure(graph, thresholds, seed, restrict):
    """Reference closure order: rescan for the lowest-id eligible node after
    every activation."""
    active, order = set(seed), []
    while True:
        eligible = [
            v for v in sorted(restrict - active)
            if len(set(graph.adj[v]) & active) >= thresholds[v]
        ]
        if not eligible:
            return frozenset(active), order
        active.add(eligible[0])
        order.append(eligible[0])


@given(small_instances(max_n=8), st.data())
@settings(max_examples=150, deadline=None)
def test_one_pass_closure_matches_rescan_order(instance, data):
    graph, thresholds = instance.graph, instance.thresholds
    seed = data.draw(st.frozensets(st.integers(min_value=0, max_value=graph.n - 1)))
    restrict = data.draw(st.sampled_from([instance.snapshot | seed, frozenset(range(graph.n))]))
    table = _node_table(graph.adj_masks, thresholds)
    mask, order = _closure(table, mask_of(seed), mask_of(restrict))
    assert (nodes_of(mask), order) == _rescan_closure(graph, thresholds, seed, restrict)


@given(small_instances(max_n=7, max_budget=3, modes=[MONOTONE_SEQUENTIAL]))
@settings(max_examples=200, deadline=None)
def test_monotone_sequential_matches_brute_force(instance):
    graph, thresholds, s = instance.graph, instance.thresholds, instance.snapshot
    expected = next(
        (
            seed for seed in map(frozenset, canonical_seed_sets(s, instance.budget))
            if monotone_closure(graph, thresholds, seed, restrict_to=s) == s
        ),
        None,
    )
    out = solve(instance)
    assert out.verdict == ("infeasible" if expected is None else "feasible")
    assert (out.certificate.seed if out.certificate else None) == expected


def test_solve_star4_canonical_outcomes(star4_instance):
    out = solve(star4_instance({0, 1, 2}, 2, MONOTONE_SIMULTANEOUS))
    assert out.feasible and sorted(out.certificate.seed) == [0, 2]
    assert out.certificate.witness.match_time == 1

    assert solve(star4_instance({0, 2, 3}, 2, MONOTONE_SIMULTANEOUS)).verdict == "infeasible"
    assert solve(star4_instance({1, 2}, 1, PLAIN_SIMULTANEOUS)).verdict == "infeasible"


def test_solve_monotone_simultaneous_examples(star4_instance, clique10):
    out = solve(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert out.feasible

    out = solve(star4_instance(range(4), 1, MONOTONE_SIMULTANEOUS))
    assert out.feasible and sorted(out.certificate.seed) == [1]

    # |S| <= k always matches at time 0 with S itself as a seed
    inst = star4_instance({0, 2}, 3, MONOTONE_SIMULTANEOUS)
    assert solve(inst).feasible
    cert = seed_feasible(inst, {0, 2})
    assert cert is not None and cert.witness.match_time == 0


def test_clique10_per_seed_checks(clique10):
    inst = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
    accepted = seed_feasible(inst, {3, 4})
    assert accepted is not None and accepted.witness.match_time == 2
    assert seed_feasible(inst, {5, 6}) is None  # u8 joins when the count reaches 6


def test_clique10_budget_one_is_feasible_via_middle_node(clique10):
    # middle singletons walk the counts 1 -> 3 -> 5 -> 7 and stop exactly at S
    out = solve(clique10(range(7), 1, MONOTONE_SIMULTANEOUS))
    assert out.feasible and sorted(out.certificate.seed) == [2]
    assert out.certificate.witness.match_time == 3


def test_solve_simultaneous_examples(star4_instance, double_diamond):
    out = solve(star4_instance({0, 2, 3}, 1, PLAIN_SIMULTANEOUS))
    assert out.feasible and sorted(out.certificate.seed) == [1]
    assert out.certificate.witness.match_time == 1

    inst = SnapshotInstance(
        double_diamond, (5, 1, 1, 2, 1, 1, 2), frozenset({3, 6}), 1, PLAIN_SIMULTANEOUS
    )
    out = solve(inst)
    assert out.feasible and sorted(out.certificate.seed) == [0]
    assert out.certificate.witness.match_time == 2

    assert solve(star4_instance(range(4), 1, PLAIN_SIMULTANEOUS)).verdict == "infeasible"


def test_solve_monotone_sequential_examples(star4_instance):
    out = solve(star4_instance({1, 2}, 1, MONOTONE_SEQUENTIAL))
    assert out.feasible and sorted(out.certificate.seed) == [1]
    assert [m.to_wire() for m in out.certificate.witness.ordering] == [[2, "on"]]

    assert solve(star4_instance({0, 3}, 1, MONOTONE_SEQUENTIAL)).verdict == "infeasible"

    out = solve(star4_instance(range(4), 1, MONOTONE_SEQUENTIAL))
    assert out.feasible and sorted(out.certificate.seed) == [1]


def test_solve_sequential_examples(star4_instance, hub_pair):
    out = solve(star4_instance({1, 2}, 1, PLAIN_SEQUENTIAL))
    assert out.feasible and sorted(out.certificate.seed) == [1]

    assert solve(star4_instance({0, 2, 3}, 1, PLAIN_SEQUENTIAL)).verdict == "infeasible"

    graph, thresholds = hub_pair(corrected=True)
    inst = SnapshotInstance(graph, thresholds, frozenset({8, 9, 10}), 2, PLAIN_SEQUENTIAL)
    out = solve(inst)
    assert out.feasible and sorted(out.certificate.seed) == [0, 1]
    assert_certificate_replays(inst, out)


def test_hub_pair_literal_thresholds_are_unreachable(hub_pair):
    graph, thresholds = hub_pair(corrected=False)
    inst = SnapshotInstance(graph, thresholds, frozenset({8, 9, 10}), 2, PLAIN_SEQUENTIAL)
    assert solve(inst).verdict == "infeasible"


def test_solve_sequential_k1_examples(star4_instance):
    out = solve_sequential_k1(star4_instance({1, 2}, 1, PLAIN_SEQUENTIAL))
    assert out.feasible and sorted(out.certificate.seed) == [1]

    assert solve_sequential_k1(star4_instance({0, 2, 3}, 1, PLAIN_SEQUENTIAL)).verdict == "infeasible"

    with pytest.raises(ValueError):
        solve_sequential_k1(star4_instance({1}, 2, PLAIN_SEQUENTIAL))
    with pytest.raises(ValueError):
        solve_sequential_k1(star4_instance({1}, 1, MONOTONE_SEQUENTIAL))


def test_solve_sequential_k1_empty_snapshot(star4_instance):
    out = solve_sequential_k1(star4_instance(set(), 1, PLAIN_SEQUENTIAL))
    assert out.feasible and out.certificate.seed == frozenset()
    assert out.certificate.witness.match_prefix == 0


@given(small_instances(max_n=6, modes=[PLAIN_SEQUENTIAL]))
@settings(max_examples=100, deadline=None)
def test_k1_solver_agrees_with_unrestricted_search(instance):
    inst = replace(instance, budget=1)
    assert solve_sequential_k1(inst).verdict == solve(inst).verdict


@given(small_instances(max_n=5))
@settings(max_examples=120, deadline=None)
def test_feasible_certificates_replay(instance):
    out = solve(instance)
    if out.feasible:
        assert_certificate_replays(instance, out)


@given(small_instances(max_n=5, modes=[MONOTONE_SIMULTANEOUS]))
@settings(max_examples=60, deadline=None)
def test_mono_sim_feasible_implies_mono_seq_feasible(instance):
    if solve(instance).feasible:
        assert solve(replace(instance, mode=MONOTONE_SEQUENTIAL)).feasible


@given(small_instances(max_n=5, modes=[MONOTONE_SEQUENTIAL]))
@settings(max_examples=60, deadline=None)
def test_mono_seq_feasible_implies_plain_seq_feasible(instance):
    if solve(instance).feasible:
        assert solve(replace(instance, mode=PLAIN_SEQUENTIAL)).feasible


def test_reachable_configs_examples(star4):
    reach = reachable_configs(star4, T4, {0}, MONOTONE_SIMULTANEOUS)
    assert reach == {frozenset({0})}
    reach = reachable_configs(star4, T4, {1}, MONOTONE_SIMULTANEOUS)
    assert reach == {frozenset({1}), frozenset(range(4))}
    reach = reachable_configs(star4, T4, set(), PLAIN_SEQUENTIAL)
    assert reach == {frozenset()}


def test_budget_zero_and_empty_snapshot(star4_instance):
    for mode in ALL_MODES:
        out = solve(star4_instance(set(), 0, mode))
        assert out.feasible and out.certificate.seed == frozenset()
    assert solve(star4_instance({0}, 0, MONOTONE_SIMULTANEOUS)).verdict == "infeasible"


def _hub_instance():
    # hub with six leaves, everything threshold 1: S = two leaves is
    # infeasible (the center locks active), and a tiny state cap trips first
    g = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
    return SnapshotInstance(g, (1,) * 7, frozenset({1, 2}), 1, PLAIN_SEQUENTIAL)


def test_resource_cap_reported_not_infeasible():
    inst = _hub_instance()
    assert solve(inst).verdict == "infeasible"
    capped = solve(inst, SearchLimits(max_states=2))
    assert capped.verdict == "resource_cap_hit"
    # the largest reachable set of one seed (the center) has 65 states, but
    # the empty seed proves the state {} dead before it is searched, so that
    # search stores 64: a cap of 64 enumerates it in full, a cap of 63 trips
    assert solve(inst, SearchLimits(max_states=64)).verdict == "infeasible"
    assert solve(inst, SearchLimits(max_states=63)).verdict == "resource_cap_hit"


def test_capped_seed_check_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="snapshot_lab")
    assert solve(_hub_instance(), SearchLimits(max_states=63)).verdict == (
        "resource_cap_hit"
    )
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("snapshot_lab", "DEBUG", "seed [0] hit the state cap with 63 states stored"),
    ]
    caplog.clear()
    assert solve(_hub_instance()).verdict == "infeasible"
    assert caplog.records == []


def test_stats_are_populated(star4_instance):
    out = solve(star4_instance({0, 1, 2}, 2, MONOTONE_SIMULTANEOUS))
    assert out.stats.seeds_tried >= 1
    assert out.stats.states_expanded >= 1
    assert out.stats.wall_time >= 0.0


SIMULTANEOUS_MODES = [MONOTONE_SIMULTANEOUS, PLAIN_SIMULTANEOUS]


def _per_seed_reference(instance):
    """One reference run per canonical seed: (verdict, seed, match time).
    Every run settles (match, fixed point or cycle) well inside the default
    step cap, so the reference never reads a cap."""
    pool = sorted(instance.snapshot) if instance.mode.monotone else range(instance.n)
    for seed in map(frozenset, canonical_seed_sets(pool, instance.budget)):
        result = run_simultaneous(
            instance.graph, instance.thresholds, seed, instance.mode, target=instance.snapshot
        )
        assert result.termination.kind != "step_cap_hit"
        cert = seed_feasible(instance, seed)
        assert (cert and cert.witness.match_time) == (
            result.trace.match_time if result.matched else None
        )
        if result.matched:
            return "feasible", seed, result.trace.match_time
    return "infeasible", None, None


def _summary(outcome):
    cert = outcome.certificate
    return outcome.verdict, cert and cert.seed, cert and cert.witness.match_time


def _forced(instance):
    s = instance.snapshot
    return frozenset(
        v for v in s if len(set(instance.graph.adj[v]) & s) < instance.thresholds[v]
    )


@given(small_instances(max_n=7, max_budget=3, modes=SIMULTANEOUS_MODES))
@example(  # seed {2} runs into the 2-cycle {0} <-> {1} that seed {0} walked first
    SnapshotInstance(
        Graph.from_edges(4, [(0, 1), (1, 2)]), (1, 1, 2, 1), frozenset({1, 3}), 1,
        PLAIN_SIMULTANEOUS,
    ),
)
@settings(max_examples=200, deadline=None)
def test_simultaneous_solver_matches_per_seed_runs(instance):
    verdict, seed, match_time = _per_seed_reference(instance)
    assert _summary(solve(instance)) == (verdict, seed, match_time)
    # the one cap bounds configuration searches; a simultaneous run never caps
    assert _summary(solve(instance, SearchLimits(max_states=1))) == (verdict, seed, match_time)


def _simultaneous_stream(mode, snapshot_mode):
    params = GeneratorParams(
        n_min=6, n_max=12, edge_prob=0.3, threshold_law="le2", budget_min=1,
        budget_max=3, snapshot_mode=snapshot_mode, mode=mode, rng_seed=11,
    )
    return itertools.islice(instance_stream(params), 40)


@pytest.mark.parametrize("mode", SIMULTANEOUS_MODES)
@pytest.mark.parametrize("snapshot_mode", ["arbitrary", "reachable"])
def test_simultaneous_solver_matches_per_seed_runs_on_stream(mode, snapshot_mode):
    for instance in _simultaneous_stream(mode, snapshot_mode):
        verdict, seed, match_time = _per_seed_reference(instance)
        assert _summary(solve(instance)) == (verdict, seed, match_time)


# Total (seeds_tried, states_expanded) of solve over each stream, recorded
# while every sweep still ran the full response kernel: reusing a stored
# response must not change the work a solve reports.
SIMULTANEOUS_STREAM_WORK = {
    (MONOTONE_SIMULTANEOUS, "arbitrary"): (160, 190),
    (MONOTONE_SIMULTANEOUS, "reachable"): (72, 91),
    (PLAIN_SIMULTANEOUS, "arbitrary"): (1877, 2412),
    (PLAIN_SIMULTANEOUS, "reachable"): (196, 282),
}


@pytest.mark.parametrize("mode", SIMULTANEOUS_MODES)
@pytest.mark.parametrize("snapshot_mode", ["arbitrary", "reachable"])
def test_simultaneous_work_counters_on_stream_are_pinned(mode, snapshot_mode):
    seeds = states = 0
    for instance in _simultaneous_stream(mode, snapshot_mode):
        stats = solve(instance).stats
        seeds, states = seeds + stats.seeds_tried, states + stats.states_expanded
    assert (seeds, states) == SIMULTANEOUS_STREAM_WORK[mode, snapshot_mode]


@given(small_instances(max_n=7, max_budget=3, modes=SIMULTANEOUS_MODES))
@example(  # node 2 is forced and the highest node of every seed, so each lookup misses
    SnapshotInstance(
        Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)]), (1, 2, 2, 1), frozenset({0, 1, 2}), 2,
        MONOTONE_SIMULTANEOUS,
    ),
)
@settings(max_examples=200, deadline=None)
def test_simultaneous_memo_holds_exact_responses_of_runs_that_never_match(instance):
    graph, thresholds, s = instance.graph, instance.thresholds, instance.snapshot
    table = _node_table(graph.adj_masks, thresholds)
    memo: dict[int, int] = {}
    checked: set[int] = set()
    for seed_mask in _seeds(instance):
        witness, _ = _simultaneous_fate(table, mask_of(s), instance.mode.monotone, memo, seed_mask)
        run = run_simultaneous(graph, thresholds, nodes_of(seed_mask), instance.mode, target=s)
        assert (witness and witness.match_time) == run.trace.match_time
        for mask in memo.keys() - checked:
            assert memo[mask] == _response_mask(table, mask)
            assert not run_simultaneous(
                graph, thresholds, nodes_of(mask), instance.mode, target=s
            ).matched
        checked |= memo.keys()
        if witness is not None:
            break


def test_clique_filter_dropping_the_one_smaller_seed_agrees_with_solve(clique):
    # P3 forces node 5, the highest id, so the clique search tries {5}, {0, 5}
    # and {1, 5} while the memo never holds {0} or {1}; solve tries both
    inst = clique(6, (1, 4, 1, 2, 3, 3), {0, 1, 2, 3, 5}, 2, MONOTONE_SIMULTANEOUS)
    analysis = clique_analysis(inst)
    assert [r.nodes for r in analysis.reports if r.rule == "P3"] == [(5,)]
    assert analysis.outcome.stats.seeds_tried == 3
    summary = _summary(solve(inst))
    assert summary[:2] == ("feasible", {1, 5}) and summary[2] > 0
    assert _summary(analysis.outcome) == summary


@given(small_instances(max_n=7, max_budget=3, modes=[MONOTONE_SIMULTANEOUS]))
@settings(max_examples=150, deadline=None)
def test_every_matching_monotone_seed_contains_forced_nodes(instance):
    forced = _forced(instance)
    for seed in map(frozenset, canonical_seed_sets(instance.snapshot, instance.budget)):
        if run_simultaneous(
            instance.graph, instance.thresholds, seed, instance.mode, target=instance.snapshot
        ).matched:
            assert forced <= seed


def test_forced_seed_nodes_over_budget_skip_the_search(star4_instance):
    # the leaves 0, 2, 3 have no neighbor inside S, so all three are forced
    for mode in (MONOTONE_SIMULTANEOUS, MONOTONE_SEQUENTIAL):
        out = solve(star4_instance({0, 2, 3}, 2, mode))
        assert out.verdict == "infeasible" and out.stats.seeds_tried == 0


def _bfs_moves(instance, seed, max_states=None):
    """Reference forward BFS from one seed over ``legal_moves``: the first
    shortest move sequence to S (moves in ascending node id), or None. Raises
    SearchCapExceeded when a new state arrives while ``max_states`` states
    are stored."""
    graph, thresholds, target = instance.graph, instance.thresholds, instance.snapshot
    parents = {seed: None}
    queue = deque([seed])
    while queue and target not in parents:
        cur = queue.popleft()
        for move in legal_moves(graph, thresholds, cur, instance.mode):
            nxt = cur ^ {move.node}
            if nxt in parents:
                continue
            if max_states is not None and len(parents) >= max_states:
                raise SearchCapExceeded("reference search capped", len(parents))
            parents[nxt] = (cur, move)
            if nxt == target:
                break
            queue.append(nxt)
    if target not in parents:
        return None
    moves, state = [], target
    while parents[state] is not None:
        state, move = parents[state]
        moves.append(move)
    return tuple(reversed(moves))


def _sequential_reference(instance, max_states=None):
    """One reference BFS per canonical seed, sharing nothing between seeds:
    (verdict, seed, moves, seeds whose search capped)."""
    capped = []
    for seed in map(frozenset, canonical_seed_sets(range(instance.n), instance.budget)):
        try:
            moves = _bfs_moves(instance, seed, max_states)
        except SearchCapExceeded:
            capped.append(seed)
            continue
        if moves is not None:
            return "feasible", seed, moves, capped
    return ("resource_cap_hit" if capped else "infeasible"), None, None, capped


def _assert_matches_sequential_reference(instance):
    verdict, seed, moves, _ = _sequential_reference(instance)
    out = solve(instance)
    cert = out.certificate
    assert (out.verdict, cert and cert.seed, cert and cert.witness.ordering) == (verdict, seed, moves)
    if out.feasible:
        assert cert.witness.match_prefix == len(moves)
    feasible = feasible_snapshots(
        instance.graph, instance.thresholds, instance.budget, PLAIN_SEQUENTIAL
    )
    assert out.feasible == (instance.snapshot in feasible)


@given(small_instances(max_n=8, max_budget=3, modes=[PLAIN_SEQUENTIAL]))
@settings(max_examples=150, deadline=None)
def test_sequential_solver_matches_per_seed_bfs(instance):
    _assert_matches_sequential_reference(instance)


@pytest.mark.parametrize("snapshot_mode", ["arbitrary", "reachable"])
def test_sequential_solver_matches_per_seed_bfs_on_stream(snapshot_mode):
    params = GeneratorParams(
        n_min=5, n_max=8, edge_prob=0.35, threshold_law="le2", budget_min=1,
        budget_max=3, snapshot_mode=snapshot_mode, mode=PLAIN_SEQUENTIAL, rng_seed=13,
    )
    for instance in itertools.islice(instance_stream(params), 30):
        _assert_matches_sequential_reference(instance)


@given(
    small_instances(max_n=7, max_budget=3, modes=[PLAIN_SEQUENTIAL]),
    st.integers(min_value=1, max_value=20),
)
@example(  # {} is dead, so seed {0} fits the cap and reaches S; the reference caps
    SnapshotInstance(Graph.from_edges(2, []), (1, 0), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL), 2
)
@example(  # every seed falls to the dead {} at once; the reference caps on each
    SnapshotInstance(Graph.from_edges(2, []), (1, 1), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL), 1
)
@settings(max_examples=300, deadline=None)
def test_state_cap_never_reads_as_infeasible(instance, max_states):
    out = solve(instance, SearchLimits(max_states=max_states))
    if out.verdict == "infeasible":
        assert _sequential_reference(instance)[0] == "infeasible"
    # Against the reference under the same cap: a search that skips dead
    # states stores a subset of the reference's states, so it caps no more
    # often, and every seed the reference settles it settles the same way.
    verdict, seed, moves, capped = _sequential_reference(instance, max_states)
    if verdict == "infeasible":
        assert out.verdict == "infeasible"
    elif verdict == "feasible":
        assert out.feasible
        assert_certificate_replays(instance, out)
        if out.certificate.seed == seed:
            assert out.certificate.witness.ordering == moves
        else:  # an earlier seed the reference capped on
            assert out.certificate.seed in capped


@given(small_instances(max_n=9), st.data())
@settings(max_examples=200, deadline=None)
def test_response_after_flip_matches_full_recompute(instance, data):
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    active = data.draw(st.integers(min_value=0, max_value=(1 << instance.n) - 1))
    node = data.draw(st.integers(min_value=0, max_value=instance.n - 1))
    before = _response_mask(table, active ^ (1 << node))
    assert _response_after_flip(table, active, node, before) == _response_mask(table, active)
