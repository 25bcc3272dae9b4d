from __future__ import annotations

import itertools
import json
import logging
import random
from collections import deque
from dataclasses import replace
from functools import partial
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    ALL_MODES,
    Certificate,
    Graph,
    InvalidInstanceError,
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
)
from snapshot_lab.generator import GeneratorParams, instance_stream
from snapshot_lab.dynamics import _node_table, _response_after_flip, _response_mask
from snapshot_lab.model import mask_of, nodes_of
from snapshot_lab.reductions import gadget_sequential_k1, target_set_from_dict
from snapshot_lab.serialize import load_instance_file
from snapshot_lab.solvers import (
    DEFAULT_LIMITS,
    SolveOutcome,
    SolveStats,
    _bfs_check,
    _closure,
    _direct_check,
    _search,
    _seed_masks,
    _seed_pool,
    _simultaneous_fate,
)

from conftest import (
    DATA,
    assert_certificate_replays,
    restricted_path,
    small_instances,
)

T4 = (1, 2, 1, 1)


def test_canonical_seed_order():
    assert list(map(sorted, map(nodes_of, _seed_masks([2, 0, 1], 0, 2)))) == [
        [], [0], [1], [2], [0, 1], [0, 2], [1, 2]
    ]
    assert list(map(sorted, map(nodes_of, _seed_masks([3, 0, 1, 2], 0b100, 2)))) == [
        [2], [0, 2], [1, 2], [2, 3]
    ]


@given(
    st.lists(st.integers(0, 9), unique=True, max_size=8),
    st.sets(st.integers(0, 9), max_size=4),
    st.integers(0, 4),
)
def test_seed_masks_match_a_mask_of_reference(pool, forced_nodes, budget):
    # pools arrive unsorted, and may hold forced nodes or not
    forced = mask_of(forced_nodes)
    supersets = {
        forced | mask_of(free)
        for size in range(len(pool) + 1)
        for free in itertools.combinations(pool, size)
    }
    reference = sorted(
        (m for m in supersets if m.bit_count() <= budget),
        key=lambda m: (m.bit_count(), sorted(nodes_of(m))),
    )
    assert list(_seed_masks(pool, forced, budget)) == reference


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


@pytest.mark.parametrize("ids", [[9], [-1], [0, 4], [True]])
def test_monotone_closure_rejects_node_ids_outside_the_graph(star4, ids):
    with pytest.raises(InvalidInstanceError, match=r"^seed ids \[\S+\] outside 0\.\.3$"):
        monotone_closure(star4, T4, ids)
    with pytest.raises(InvalidInstanceError, match=r"^restrict_to ids \[\S+\] outside 0\.\.3$"):
        monotone_closure(star4, T4, [0], restrict_to=[0, 1] + ids)


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
            seed for seed in map(nodes_of, _seed_masks(s, 0, instance.budget))
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
    # budget 1 is decided by closures and budget 2 by the search; both agree
    for budget in (1, 2):
        out = solve(star4_instance({1, 2}, budget, PLAIN_SEQUENTIAL))
        assert out.feasible and sorted(out.certificate.seed) == [1]
        assert [m.to_wire() for m in out.certificate.witness.ordering] == [[2, "on"]]

    assert solve(star4_instance({0, 2, 3}, 1, PLAIN_SEQUENTIAL)).verdict == "infeasible"


def test_solve_sequential_k1_empty_snapshot(star4_instance):
    out = solve(star4_instance(set(), 1, PLAIN_SEQUENTIAL))
    assert out.feasible and out.certificate.seed == frozenset()
    assert out.certificate.witness.match_prefix == 0


@given(small_instances(max_n=6, modes=[PLAIN_SEQUENTIAL]))
@settings(max_examples=100, deadline=None)
def test_k1_solver_agrees_with_unrestricted_search(instance):
    inst = replace(instance, budget=1)
    verdict, seed, moves, _ = _sequential_reference(inst)
    out = solve(inst)
    assert out.verdict == verdict
    if out.feasible:
        assert (out.certificate.seed, out.certificate.witness.ordering) == (seed, moves)
        assert_certificate_replays(inst, out)


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


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda mode: mode.describe())
def test_seed_ids_outside_the_graph_are_invalid(mode):
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = SnapshotInstance(path, (1, 1, 1), frozenset({0, 1}), 1, mode)
    for seed in ([5], [-1], [0, 3]):
        with pytest.raises(InvalidInstanceError, match="outside 0..2"):
            seed_feasible(inst, seed)
        with pytest.raises(InvalidInstanceError, match="outside 0..2"):
            reachable_configs(path, inst.thresholds, seed, mode)


@pytest.mark.parametrize("max_states", [2.5, True, "5", None, 0, -1])
def test_search_limits_take_positive_integers_only(max_states):
    with pytest.raises(ValueError, match="positive integers"):
        SearchLimits(max_states=max_states)


def _hub_instance(snapshot, budget):
    # hub with six leaves, everything threshold 1: while a leaf is on the
    # center locks active, so no leaf can be on without it unless seeded
    g = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
    return SnapshotInstance(g, (1,) * 7, frozenset(snapshot), budget, PLAIN_SEQUENTIAL)


def test_resource_cap_reported_not_infeasible():
    # budget 2, S = three leaves: infeasible, and the seeds are checked
    inst = _hub_instance({1, 2, 3}, 2)
    assert solve(inst).verdict == "infeasible"
    capped = solve(inst, SearchLimits(max_states=2))
    assert capped.verdict == "resource_cap_hit"
    # closures decide the center, the one seed of the clearing pool, so the
    # largest search is the first pair's: {0, 1} locks the center on with
    # the other five leaves free, 32 states. A cap of 32 enumerates it in
    # full and its dead states settle the later pairs; at a cap of 31 it
    # trips, as an all-search solve does below 64, where the center's own
    # search trips
    assert solve(inst, SearchLimits(max_states=32)).verdict == "infeasible"
    assert solve(inst, SearchLimits(max_states=31)).verdict == "resource_cap_hit"
    # budget 1, S = two leaves, decided by closures: a cap of 63 is never
    # reached, and at a cap of 2 the center's closures stop before their
    # first neighbour set and its search, run instead, caps too
    inst = _hub_instance({1, 2}, 1)
    assert solve(inst, SearchLimits(max_states=63)).verdict == "infeasible"
    assert solve(inst, SearchLimits(max_states=2)).verdict == "resource_cap_hit"


def test_seed_feasible_searches_a_capped_pair_once():
    # {0, 1} stores 32 states (see above); at a cap of 31 its one search
    # caps, and the cap stands without a second search
    inst = _hub_instance({1, 2, 3}, 2)
    assert seed_feasible(inst, {0, 1}, SearchLimits(max_states=32)) is None
    with pytest.raises(SearchCapExceeded) as capped:
        seed_feasible(inst, {0, 1}, SearchLimits(max_states=31))
    assert capped.value.states == 31


def test_capped_seed_check_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="snapshot_lab")
    # at a cap of 31 (see above) each pair caps and logs one line. {0, 1}
    # caps first with no dead states, then hands over to the search of the
    # seeds before it, {} and the singletons, and caps again: 280 states in
    # all. Every later pair stores 31 states before its cap
    inst = _hub_instance({1, 2, 3}, 2)
    pool = ("snapshot_lab", "DEBUG", "seed pool clearing, then all of V: 22 seeds, |F| = 3")
    assert solve(inst, SearchLimits(max_states=31)).verdict == "resource_cap_hit"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [pool] + [
        ("snapshot_lab", "DEBUG", f"seed {list(pair)} hit the state cap with "
         f"{280 if pair == (0, 1) else 31} states stored")
        for pair in itertools.combinations(range(7), 2)
    ]
    caplog.clear()
    assert solve(inst).verdict == "infeasible"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [pool]


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
    for seed in map(nodes_of, _seed_masks(pool, 0, instance.budget)):
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
    for seed_mask in _seed_pool(instance, mask_of(s))[1]:
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
    # P3 forces node 5, the highest id, but no rule decides, so the analysis
    # is solve's: its seeds, states, seed and witness
    inst = clique(6, (1, 4, 1, 2, 3, 3), {0, 1, 2, 3, 5}, 2, MONOTONE_SIMULTANEOUS)
    analysis = clique_analysis(inst)
    assert [r.nodes for r in analysis.reports if r.rule == "P3"] == [(5,)]
    out = solve(inst)
    summary = _summary(out)
    assert summary[:2] == ("feasible", {1, 5}) and summary[2] > 0
    assert analysis.outcome.to_dict() == out.to_dict()
    assert out.to_dict()["stats"] == {"seeds_tried": 13, "states_expanded": 18}


@given(small_instances(max_n=7, max_budget=3, modes=[MONOTONE_SIMULTANEOUS]))
@settings(max_examples=150, deadline=None)
def test_every_matching_monotone_seed_contains_forced_nodes(instance):
    forced = _forced(instance)
    for seed in map(nodes_of, _seed_masks(instance.snapshot, 0, instance.budget)):
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


def _assert_matching_seeds_lie_in_the_pool(instance) -> set[str]:
    """The clearing pool of a plain sequential instance of budget <= 1 keeps
    the canonical order and every seed whose reference search reaches S.
    Returns the kinds of seeds it covered: kept or dropped, by whether F is
    empty and where the seed node lies."""
    s_mask = instance.snapshot_mask()
    rule, pool = _seed_pool(instance, s_mask)
    pool = list(pool)
    assert rule == "clearing"
    forced = _forced(instance)
    canonical = list(_seed_masks(range(instance.n), 0, instance.budget))
    assert pool == [m for m in canonical if m in pool]
    kinds = set()
    for seed_mask in canonical:
        matched = _bfs_moves(instance, nodes_of(seed_mask)) is not None
        assert seed_mask in pool or not matched
        where = "empty" if not seed_mask else "in S" if seed_mask & s_mask else "outside S"
        state = "matched" if matched else "kept" if seed_mask in pool else "dropped"
        kinds.add(f"F {'nonempty' if forced else 'empty'}, seed {where}, {state}")
    return kinds


@given(small_instances(max_n=8, max_budget=1, modes=[PLAIN_SEQUENTIAL]))
@example(  # F = {0, 1}, each one neighbour short, and node 2 their common neighbour
    SnapshotInstance(Graph.from_edges(3, [(0, 2), (2, 1)]), (1, 1, 1), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL)
)
@settings(max_examples=300, deadline=None)
def test_every_matching_budget_one_seed_lies_in_the_clearing_pool(instance):
    _assert_matching_seeds_lie_in_the_pool(instance)


def test_every_matching_budget_one_seed_lies_in_the_clearing_pool_on_stream():
    kinds = set()
    for snapshot_mode in ("arbitrary", "reachable"):
        params = GeneratorParams(
            n_min=2, n_max=9, edge_prob=0.35, threshold_law="mixed", budget_min=0,
            budget_max=1, snapshot_mode=snapshot_mode, mode=PLAIN_SEQUENTIAL, rng_seed=20,
        )
        for instance in itertools.islice(instance_stream(params), 150):
            kinds |= _assert_matching_seeds_lie_in_the_pool(instance)
    for kind in (
        "F empty, seed empty, matched", "F empty, seed in S, matched",
        "F empty, seed outside S, dropped", "F nonempty, seed empty, dropped",
        "F nonempty, seed in S, matched", "F nonempty, seed in S, dropped",
        "F nonempty, seed outside S, matched", "F nonempty, seed outside S, kept",
        "F nonempty, seed outside S, dropped",
    ):
        assert kind in kinds


def _clearing_pool_reference(instance) -> list[int]:
    """The plain sequential pool as one list, node by node from the module
    docstring's rules: {} if F is empty; a node u0 of S if F lies inside
    {u0}; a node u0 outside S with t(u0) >= 1 that neighbours every node of
    F when each lacks exactly one neighbour in S; then, from budget 2 on,
    every canonical seed of two or more nodes."""
    s, adj, thresholds = instance.snapshot, instance.graph.adj, instance.thresholds
    deficit = {v: thresholds[v] - len(set(adj[v]) & s) for v in s}
    forced = {v for v in s if deficit[v] > 0}
    pool = [] if forced else [frozenset()]
    if instance.budget:
        for u in range(instance.n):
            if u in s:
                keep = forced <= {u}
            else:
                keep = thresholds[u] >= 1 and all(deficit[v] == 1 and u in adj[v] for v in forced)
            if keep:
                pool.append(frozenset({u}))
    canonical = map(nodes_of, _seed_masks(range(instance.n), 0, instance.budget))
    pool += [seed for seed in canonical if len(seed) >= 2]
    return list(map(mask_of, pool))


def test_the_clearing_pool_stream_lists_the_reference_pool():
    budgets = set()
    for snapshot_mode in ("arbitrary", "reachable"):
        params = GeneratorParams(
            n_min=2, n_max=8, edge_prob=0.35, threshold_law="mixed", budget_min=0,
            budget_max=3, snapshot_mode=snapshot_mode, mode=PLAIN_SEQUENTIAL, rng_seed=29,
        )
        for instance in itertools.islice(instance_stream(params), 200):
            rule, pool = _seed_pool(instance, instance.snapshot_mask())
            assert rule == ("clearing" if instance.budget < 2 else "clearing, then all of V")
            assert list(pool) == _clearing_pool_reference(instance)
            budgets.add(instance.budget)
    assert budgets == {0, 1, 2, 3}


def test_capped_closures_search_the_seeds_the_pool_dropped():
    # path 0 - 2 - 1, S = {0, 1}: both lack their one neighbour, so the pool
    # is {2}, whose closures cap at 3. The search that takes over runs {},
    # {0} and {1} first, as an all-search solve would, and their dead states
    # keep the search from {2} under the cap
    inst = SnapshotInstance(
        Graph.from_edges(3, [(0, 2), (2, 1)]), (1, 1, 1), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL
    )
    assert list(_seed_pool(inst, inst.snapshot_mask())[1]) == [0b100]
    out = solve(inst, SearchLimits(max_states=3))
    assert out.verdict == "infeasible"
    assert out.to_dict()["stats"] == {"seeds_tried": 1, "states_expanded": 13}
    assert solve(inst, SearchLimits(max_states=2)).verdict == "resource_cap_hit"


def test_an_empty_seed_pool_is_infeasible_without_a_seed(caplog):
    caplog.set_level(logging.DEBUG, logger="snapshot_lab")
    # path 0 - 1 - 2 - 3, S = {0, 3}: each end lacks its one neighbour, and
    # no node neighbours both
    inst = SnapshotInstance(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), (1,) * 4, frozenset({0, 3}), 1, PLAIN_SEQUENTIAL
    )
    out = solve(inst)
    assert out.verdict == "infeasible"
    assert out.to_dict()["stats"] == {"seeds_tried": 0, "states_expanded": 0}
    assert _sequential_reference(inst)[0] == "infeasible"
    assert [r.getMessage() for r in caplog.records] == ["seed pool clearing: 0 seeds, |F| = 2"]


def test_each_solve_logs_its_seed_pool(caplog, star4_instance):
    caplog.set_level(logging.DEBUG, logger="snapshot_lab")
    # S = {0, 1, 2} under T4: node 1 has two neighbours in S, the leaves one
    # each, so F is empty
    solve(star4_instance({0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    solve(star4_instance({0, 2, 3}, 2, MONOTONE_SEQUENTIAL))
    solve(star4_instance({0, 1, 2}, 1, PLAIN_SEQUENTIAL))
    solve(star4_instance({0, 2}, 1, PLAIN_SEQUENTIAL))
    solve(star4_instance({0, 2}, 2, PLAIN_SEQUENTIAL))
    solve(star4_instance({0, 2}, 1, PLAIN_SIMULTANEOUS))
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("snapshot_lab", "DEBUG", message) for message in (
            "seed pool supersets of F in S: 4 seeds, |F| = 0",
            "seed pool supersets of F in S: 0 seeds, |F| = 3",
            "seed pool clearing: 5 seeds, |F| = 0",
            "seed pool clearing: 1 seeds, |F| = 2",
            "seed pool clearing, then all of V: 7 seeds, |F| = 2",
            "seed pool all of V: 5 seeds, |F| = 2",
        )
    ]


def test_seed_feasible_searches_a_seed_of_two_nodes_at_budget_one(hub_pair, star4_instance):
    # closures decide the seeds of at most one node that a budget-1 solve
    # tries; a larger seed is searched, here through relays outside S
    graph, thresholds = hub_pair(corrected=True)
    inst = SnapshotInstance(graph, thresholds, frozenset({8, 9, 10}), 1, PLAIN_SEQUENTIAL)
    seed = frozenset({0, 1})
    cert = seed_feasible(inst, seed)
    assert cert is not None and cert.witness.ordering == _bfs_moves(inst, seed)
    # a monotone run keeps its seed active, so a seed outside S never matches
    assert seed_feasible(star4_instance({1, 2}, 1, MONOTONE_SEQUENTIAL), {0}) is None


def _sequential_reference(instance, max_states=None):
    """One reference BFS per canonical seed, sharing nothing between seeds:
    (verdict, seed, moves, seeds whose search capped)."""
    capped = []
    for seed in map(nodes_of, _seed_masks(range(instance.n), 0, instance.budget)):
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
@example(  # the search's path is 1 on, 0 off, 2 on; the closure order 1 on, 2 on, 0 off
    SnapshotInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), (2, 1, 1), frozenset({1, 2}), 1, PLAIN_SEQUENTIAL)
)
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
@example(  # one closure settles seed {0}, which reaches S; the reference caps
    SnapshotInstance(Graph.from_edges(2, []), (1, 0), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL), 2
)
@example(  # {} is dead, so seed {0} fits the cap and reaches S; the reference caps
    SnapshotInstance(Graph.from_edges(2, []), (1, 0), frozenset({0, 1}), 2, PLAIN_SEQUENTIAL), 2
)
@example(  # one closure settles each seed; the reference caps on each
    SnapshotInstance(Graph.from_edges(2, []), (1, 1), frozenset({0, 1}), 1, PLAIN_SEQUENTIAL), 1
)
@example(  # the witness walk of seed {0} caps after 11 visits; its search fits
    SnapshotInstance(Graph.from_edges(4, [(0, 1), (0, 2)]), (2, 0, 1, 1), frozenset({1, 2}), 1, PLAIN_SEQUENTIAL), 11
)
@settings(max_examples=300, deadline=None)
def test_state_cap_never_reads_as_infeasible(instance, max_states):
    out = solve(instance, SearchLimits(max_states=max_states))
    if out.verdict == "infeasible":
        assert _sequential_reference(instance)[0] == "infeasible"
    if out.feasible:
        assert_certificate_replays(instance, out)
        assert out.certificate.witness.ordering == _bfs_moves(instance, out.certificate.seed)
    # Against the reference under the same cap: a search that skips dead
    # states stores a subset of the reference's states, so it caps no more
    # often; closures that cap hand their seed to such a search; and every
    # seed the reference settles it settles the same way.
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


def _assert_restricted_decider_matches_reference(instance) -> set[str]:
    """The closure decider against the reference restricted search, for the
    empty seed and every node as the seed node. Returns the kinds of
    (seed, S) pairs it covered."""
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    s_mask = instance.snapshot_mask()
    checked = replace(instance, budget=1)
    kinds = set()
    for seed_mask in [0] + [1 << u for u in range(instance.n)]:
        expected = restricted_path(table, seed_mask, s_mask)
        witness, _ = _direct_check(table, s_mask, DEFAULT_LIMITS.max_states, seed_mask)
        assert (witness and witness.ordering) == expected
        if seed_mask & ~s_mask:
            u0 = seed_mask.bit_length() - 1
            kind = "u0 outside S"
            if instance.thresholds[u0] == 0:
                kind += ", t(u0) = 0"
            elif instance.thresholds[u0] > instance.graph.degree(u0):
                kind += ", t(u0) > deg(u0)"
        else:
            kind = "u0 in S" if seed_mask else "empty seed"
        kinds.add(kind + (", feasible" if witness else ""))
        if witness is None:
            continue
        assert witness.match_prefix == len(witness.ordering) == (s_mask ^ seed_mask).bit_count()
        outcome = SolveOutcome("feasible", Certificate(nodes_of(seed_mask), witness), SolveStats())
        assert_certificate_replays(checked, outcome)
    return kinds


@given(small_instances(max_n=7, modes=[PLAIN_SEQUENTIAL]))
@example(  # the seed node 0 has threshold 0 and can never switch off
    SnapshotInstance(Graph.from_edges(2, [(0, 1)]), (0, 1), frozenset({1}), 1, PLAIN_SEQUENTIAL)
)
@example(  # threshold over degree: every neighbour of the seed node in S may join first
    SnapshotInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), (1, 4, 1), frozenset({0, 2}), 1, PLAIN_SEQUENTIAL)
)
@settings(max_examples=200, deadline=None)
def test_restricted_decider_matches_the_reference_search(instance):
    _assert_restricted_decider_matches_reference(instance)


def test_restricted_decider_matches_the_reference_search_on_stream():
    kinds = set()
    for snapshot_mode in ("arbitrary", "reachable"):
        params = GeneratorParams(
            n_min=1, n_max=9, edge_prob=0.4, threshold_law="mixed", budget_min=1,
            budget_max=1, snapshot_mode=snapshot_mode, mode=PLAIN_SEQUENTIAL, rng_seed=16,
        )
        for instance in itertools.islice(instance_stream(params), 150):
            kinds |= _assert_restricted_decider_matches_reference(instance)
    for kind in ("empty seed", "u0 in S", "u0 outside S", "u0 outside S, t(u0) = 0",
                 "u0 outside S, t(u0) > deg(u0)"):
        assert kind in kinds
        if "t(u0) = 0" not in kind:
            assert kind + ", feasible" in kinds


def test_k1_solver_decides_the_clique10_gadget_by_closures():
    document = json.loads((DATA / "clique10_target_set.json").read_text())
    reduced = gadget_sequential_k1(target_set_from_dict(document))
    out = solve(reduced)
    assert out.feasible and sorted(out.certificate.seed) == [0]
    assert out.stats.seeds_tried == 2
    assert out.certificate.witness.match_prefix == len(reduced.snapshot) - 1
    assert_certificate_replays(reduced, out)


def _hub_of_forty_leaves(leaf_threshold: int, leaf_path: bool) -> SnapshotInstance:
    """Hub 0 of threshold 20 joined to 40 snapshot leaves, which may also
    form a path 1 - 2 - ... - 40; the hub is outside S."""
    edges = [(0, v) for v in range(1, 41)]
    if leaf_path:
        edges += [(v, v + 1) for v in range(1, 40)]
    thresholds = (20,) + (leaf_threshold,) * 40
    return SnapshotInstance(
        Graph.from_edges(41, edges), thresholds, frozenset(range(1, 41)), 1, PLAIN_SEQUENTIAL
    )


def test_k1_solver_on_a_high_threshold_hub_of_large_degree():
    # every leaf has no neighbour in S and threshold 2, and one seed node
    # supplies at most one, so the seed pool is empty and no closure runs
    inst = _hub_of_forty_leaves(2, leaf_path=False)
    out = solve(inst)
    assert out.verdict == "infeasible"
    assert out.stats.seeds_tried == 0 and out.stats.states_expanded == 0
    # the hub's own closures: C(40, 19) neighbour sets, but no leaf can
    # switch on while the hub is on, so only the empty one is tried
    table = _node_table(inst.graph.adj_masks, inst.thresholds)
    assert _direct_check(table, inst.snapshot_mask(), DEFAULT_LIMITS.max_states, 1) == (None, 2)
    # the first neighbour set, leaves 1..19, lets the path finish after the
    # hub switches off
    out = solve(_hub_of_forty_leaves(1, leaf_path=True))
    assert out.feasible and sorted(out.certificate.seed) == [0]
    assert out.certificate.witness.match_prefix == 41
    assert_certificate_replays(_hub_of_forty_leaves(1, leaf_path=True), out)
    # every leaf can switch on beside the hub, no 19 of them finish S, and
    # the neighbour sets outnumber the cap, as do the 2^40 configurations of
    # the search that takes over (a lowered cap keeps that search small)
    out = solve(_hub_of_forty_leaves(1, leaf_path=False), SearchLimits(max_states=20_000))
    assert out.verdict == "resource_cap_hit"
    assert out.stats.states_expanded > 2 * 20_000


def test_capped_closures_hand_the_seed_to_the_search():
    # hub 0 of threshold 6 joined to 11 snapshot leaves of threshold 1: the
    # hub's closures visit 3,246 configurations, C(11, 5) neighbour sets of
    # 7 visits each, but the search from {0} stores 3,072 (every leaf set
    # with the hub on, the sets of at most 5 with it off), 3,071 besides
    # the {} the empty seed proves dead. Every leaf lacks one neighbour in
    # S, so the pool is the hub alone; the search still runs the empty seed
    # first, as an all-search solve would
    graph = Graph.from_edges(12, [(0, v) for v in range(1, 12)])
    inst = SnapshotInstance(graph, (6,) + (1,) * 11, frozenset(range(1, 12)), 1, PLAIN_SEQUENTIAL)
    table = _node_table(graph.adj_masks, inst.thresholds)
    assert _direct_check(table, inst.snapshot_mask(), 10**6, 1) == (None, 3246)
    with pytest.raises(SearchCapExceeded):
        _direct_check(table, inst.snapshot_mask(), 3071, 1)
    assert solve(inst).stats.states_expanded == 3246
    assert solve(inst, SearchLimits(max_states=3071)).verdict == "infeasible"
    assert solve(inst, SearchLimits(max_states=3070)).verdict == "resource_cap_hit"


def _all_search(instance, limits=DEFAULT_LIMITS):
    """The all-search reference of a plain sequential solve: one BFS per
    canonical seed of size <= k, all sharing one dead set."""
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    check = partial(_bfs_check, table, instance.snapshot_mask(), limits.max_states, set())
    return _search(_seed_masks(range(instance.n), 0, instance.budget), lambda: check)


def _decision(outcome):
    cert = outcome.certificate
    return outcome.verdict, cert and cert.seed, cert and cert.witness.ordering


def _assert_matches_all_search(instance, caps=()):
    """Uncapped, the solve decides as the all-search reference. Under each
    cap it reads ``resource_cap_hit`` only where the reference does, and
    any verdict, seed or witness that differs from the reference's is the
    uncapped one."""
    out = solve(instance)
    assert _decision(out) == _decision(_all_search(instance))
    for cap in caps:
        limits = SearchLimits(max_states=cap)
        capped, reference = _decision(solve(instance, limits)), _decision(_all_search(instance, limits))
        if capped[0] == "resource_cap_hit":
            assert reference[0] == "resource_cap_hit"
        assert capped in (reference, _decision(out))


@given(
    small_instances(max_n=8, modes=[PLAIN_SEQUENTIAL]),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=1, max_value=300), max_size=4),
)
@example(  # [0] caps in closures and search; [3] by closures is neither [0] nor the reference's cap
    SnapshotInstance(
        Graph.from_edges(4, [(0, 1), (0, 3), (2, 3)]), (2, 0, 0, 1), frozenset({1, 3}), 1, PLAIN_SEQUENTIAL
    ),
    1,
    [1],
)
@settings(max_examples=200, deadline=None)
def test_closures_and_larger_seed_searches_match_the_all_search_solve(instance, budget, caps):
    _assert_matches_all_search(replace(instance, budget=budget), caps)


@pytest.mark.parametrize("snapshot_mode", ["arbitrary", "reachable"])
def test_closures_and_larger_seed_searches_match_the_all_search_solve_on_stream(snapshot_mode):
    params = GeneratorParams(
        n_min=7, n_max=10, edge_prob=0.3, threshold_law="le2", budget_min=0,
        budget_max=3, snapshot_mode=snapshot_mode, mode=PLAIN_SEQUENTIAL, rng_seed=21,
    )
    for instance in itertools.islice(instance_stream(params), 40):
        _assert_matches_all_search(instance, caps=(1, 3, 5, 10, 20, 40, 60, 100, 300))


@pytest.mark.parametrize("name", ["hub_pair_corrected.json", "hub_pair_literal.json"])
def test_closures_and_larger_seed_searches_match_the_all_search_solve_on_hub_pairs(name):
    instance = load_instance_file(resources.files("snapshot_lab").joinpath("corpus", name))
    assert instance.mode == PLAIN_SEQUENTIAL and instance.budget == 2
    _assert_matches_all_search(instance, caps=(1, 50, 100, 186, 187, 188, 300))
