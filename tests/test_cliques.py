from __future__ import annotations

import random
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    Graph,
    MONOTONE_SIMULTANEOUS,
    NotACliqueError,
    PLAIN_SIMULTANEOUS,
    SnapshotInstance,
    assert_clique,
    clique_analysis,
    monotone_closure,
    solve,
)

from snapshot_lab import cliques
from snapshot_lab.cliques import _rule_chain
from snapshot_lab.dynamics import _node_table, _step_mask
from snapshot_lab.model import nodes_of
from snapshot_lab.solvers import (
    DEFAULT_LIMITS,
    _clique_fate,
    _count_steps,
    _missing_edge,
    _search,
    _seed_check,
    _seed_pool,
    _simultaneous_fate,
)

from conftest import assert_certificate_replays


def test_assert_clique(clique, star4_instance):
    assert_clique(clique(10, [1] * 10, {0}, 1, MONOTONE_SIMULTANEOUS))
    assert_clique(clique(1, [0], {0}, 1, MONOTONE_SIMULTANEOUS))
    with pytest.raises(NotACliqueError) as err:
        assert_clique(star4_instance({0}, 1, MONOTONE_SIMULTANEOUS))
    assert err.value.missing_edge == (0, 2)


def _report(instance, rule):
    """One rule's report, read from the chain ``clique_analysis`` runs."""
    return next(r for r in _rule_chain(instance) if r.rule == rule)


def test_rule_forced_seed(clique, clique10):
    r = _report(clique(2, (1, 5), {0, 1}, 1, MONOTONE_SIMULTANEOUS), "P1")
    assert r.action == "forced_seed" and r.nodes == (1,)

    r = _report(clique10(range(7), 2, MONOTONE_SIMULTANEOUS), "P1")
    assert r.action == "inapplicable"

    r = _report(clique(3, (3, 3, 1), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS), "P1")
    assert r.action == "infeasible" and r.nodes == (0, 1)


def test_rule_low_threshold_outside(clique, clique10):
    inst = clique(4, (1, 1, 1, 2), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
    r = _report(inst, "P2")
    assert r.action == "excluded_seed_size" and r.size == 2
    # the excluded size leaves the smaller feasible seed in play
    assert clique_analysis(inst).outcome.feasible

    r = _report(clique10(range(7), 2, MONOTONE_SIMULTANEOUS), "P2")
    assert r.action == "inapplicable"

    r = _report(clique(3, (1, 1, 1), {0, 1}, 2, MONOTONE_SIMULTANEOUS), "P2")
    assert r.action == "inapplicable"  # |S| <= k: S itself is a time-0 seed


def test_rule_threshold_collision(clique, clique10):
    r = _report(clique(4, (1, 2, 2, 3), {0, 1}, 1, MONOTONE_SIMULTANEOUS), "P3")
    assert r.action == "forced_seed" and r.nodes == (1,)

    r = _report(clique10(range(7), 2, MONOTONE_SIMULTANEOUS), "P3")
    assert r.action == "inapplicable"

    r = _report(clique(3, (1, 1, 2), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS), "P3")
    assert r.action == "inapplicable"  # no outside nodes


def test_rule_prune_outside(clique10, clique):
    r = _report(clique10(range(7), 2, MONOTONE_SIMULTANEOUS), "P4")
    assert r.action == "pruned_nodes" and r.nodes == (8, 9)

    r = _report(clique(3, (1, 1, 1), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS), "P4")
    assert r.action == "inapplicable"

    r = _report(clique(4, (1, 1, 2, 2), {0, 1}, 1, MONOTONE_SIMULTANEOUS), "P4")
    assert r.action == "inapplicable"  # outside thresholds all equal


def test_rule_isolated_snapshot(clique, clique10):
    r = _report(clique(4, (1, 2, 2, 9), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS), "P5")
    assert r.action == "reduced_to_target_set" and r.feasible is True
    assert r.nodes == (1,)  # highest threshold in S, tie broken by ascending id

    r = _report(clique10(range(7), 2, MONOTONE_SIMULTANEOUS), "P5")
    assert r.action == "inapplicable"

    r = _report(clique(3, (1, 1, 2), set(), 1, MONOTONE_SIMULTANEOUS), "P5")
    assert r.action == "reduced_to_target_set" and r.feasible is True  # empty S is vacuous


def test_rule_isolated_snapshot_names_ids_of_the_given_instance(clique):
    # P4 prunes node 1, which sits below the snapshot's ids: the P5 seed must
    # still name node 2 of this instance, the seed the certificate carries
    inst = clique(4, (3, 4, 1, 1), {2, 3}, 1, MONOTONE_SIMULTANEOUS)
    analysis = clique_analysis(inst)
    p4, p5 = analysis.reports[3:]
    assert p4.action == "pruned_nodes" and p4.nodes == (1,)
    assert p5.action == "reduced_to_target_set" and p5.nodes == (2,)
    assert sorted(analysis.outcome.certificate.seed) == [2]
    assert_certificate_replays(inst, analysis.outcome)


def test_solve_clique_clique10(clique10):
    inst = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
    analysis = clique_analysis(inst)
    assert analysis.outcome.feasible
    assert [r.rule for r in analysis.reports] == ["P1", "P2", "P3", "P4", "P5"]
    assert_certificate_replays(inst, analysis.outcome)

    assert clique_analysis(clique10(range(7), 1, MONOTONE_SIMULTANEOUS)).outcome.feasible


def test_solve_clique_match_at_time_zero(clique):
    inst = clique(2, (1, 1), {0}, 1, MONOTONE_SIMULTANEOUS)
    out = clique_analysis(inst).outcome
    assert out.feasible and out.certificate.witness.match_time == 0


def test_the_rules_run_only_behind_clique_analysis():
    # P5 alone would call S = V feasible here; the rules hold on cliques only
    inst = SnapshotInstance(Graph.from_edges(3, [(0, 2)]), (1, 0, 2), frozenset(range(3)), 0, MONOTONE_SIMULTANEOUS)
    assert _report(inst, "P5").feasible and solve(inst).verdict == "infeasible"
    with pytest.raises(NotACliqueError):
        clique_analysis(inst)
    assert not [name for name in dir(cliques) if name.startswith("rule_")]


def test_solve_clique_rejects_non_monotone(clique):
    with pytest.raises(ValueError):
        clique_analysis(clique(3, (1, 1, 1), {0}, 1, PLAIN_SIMULTANEOUS))


def test_rule_soundness_against_brute_force(clique):
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 8)
        t = [rng.randint(0, n) for _ in range(n)]
        snapshot = {v for v in range(n) if rng.random() < 0.5}
        k = rng.randint(0, 3)
        inst = clique(n, t, snapshot, k, MONOTONE_SIMULTANEOUS)
        analysis = clique_analysis(inst)
        assert analysis.outcome.verdict == solve(inst).verdict
        p5 = analysis.reports[-1]
        if p5.rule == "P5" and p5.feasible:
            assert p5.nodes == tuple(sorted(analysis.outcome.certificate.seed))


@st.composite
def clique_instances(draw, max_n=8, max_budget=3, excess=0):
    """Monotone simultaneous cliques with thresholds in 0..n + excess and a
    budget up to ``max_budget`` (None: up to n)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    graph = Graph.from_edges(n, list(combinations(range(n), 2)))
    thresholds = tuple(draw(st.integers(min_value=0, max_value=n + excess)) for _ in range(n))
    snapshot = frozenset(v for v in range(n) if draw(st.booleans()))
    budget = draw(st.integers(min_value=0, max_value=n if max_budget is None else max_budget))
    return SnapshotInstance(graph, thresholds, snapshot, budget, MONOTONE_SIMULTANEOUS)


@given(clique_instances())
@settings(max_examples=300, deadline=None)
def test_a_clique_no_rule_decides_is_solved_by_solve(instance):
    analysis = clique_analysis(instance)
    decided = [r for r in analysis.reports if r.feasible is not None]
    out = solve(instance)
    assert analysis.outcome.verdict == out.verdict
    if not decided:
        assert analysis.outcome.to_dict() == out.to_dict()
    elif decided[0].rule == "P5" and decided[0].feasible:
        assert analysis.outcome.certificate.seed == frozenset(decided[0].nodes)
        assert_certificate_replays(instance, analysis.outcome)


def _every_small_clique():
    """Every monotone simultaneous clique with n <= 4: thresholds in 0..n+1,
    every S and every budget k <= n (107,884 instances)."""
    for n in range(1, 5):
        graph = Graph.from_edges(n, list(combinations(range(n), 2)))
        for thresholds in product(range(n + 2), repeat=n):
            for s_mask in range(1 << n):
                for budget in range(n + 1):
                    yield SnapshotInstance(graph, thresholds, nodes_of(s_mask), budget, MONOTONE_SIMULTANEOUS)


def _node_table_solve(instance):
    """``solve``'s seed search with the node-table run as the per-seed check."""
    s_mask = instance.snapshot_mask()
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    _, pool = _seed_pool(instance, s_mask)
    return _search(pool, lambda: partial(_simultaneous_fate, table, s_mask, True, {}))


def _assert_count_run_is_the_node_table_run(instance):
    assert solve(instance).to_dict() == _node_table_solve(instance).to_dict()


def _assert_profile_reads_as_the_rules_alone(instance):
    """P5's count closure inside S is ``monotone_closure`` restricted to S."""
    p5 = _report(instance, "P5")
    if p5.feasible is not None:
        closure = monotone_closure(instance.graph, instance.thresholds, p5.nodes, restrict_to=instance.snapshot)
        assert p5.feasible == (closure == instance.snapshot)


def test_clique_count_run_matches_the_node_table_run_on_every_small_clique():
    for instance in _every_small_clique():
        _assert_count_run_is_the_node_table_run(instance)


@given(clique_instances(max_n=9, max_budget=None, excess=1))
@settings(max_examples=200, deadline=None)
def test_clique_count_run_matches_the_node_table_run(instance):
    _assert_count_run_is_the_node_table_run(instance)


def test_clique_profile_matches_the_rules_alone_on_every_small_clique():
    for instance in _every_small_clique():
        _assert_profile_reads_as_the_rules_alone(instance)


@given(clique_instances(max_n=9, max_budget=None, excess=1))
@settings(max_examples=200, deadline=None)
def test_clique_profile_matches_the_rules_alone(instance):
    _assert_profile_reads_as_the_rules_alone(instance)


def test_only_a_monotone_simultaneous_clique_runs_by_counts(clique, star4_instance):
    inst = clique(4, (1, 2, 2, 9), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS)
    assert _seed_check(inst, inst.snapshot_mask(), DEFAULT_LIMITS).func is _clique_fate
    for other in (
        clique(4, (1, 2, 2, 9), {0, 1, 2}, 1, PLAIN_SIMULTANEOUS),
        star4_instance({0, 1}, 1, MONOTONE_SIMULTANEOUS),
    ):
        assert _seed_check(other, other.snapshot_mask(), DEFAULT_LIMITS).func is not _clique_fate


@pytest.mark.parametrize("n", range(2, 7))
def test_a_clique_less_any_edge_is_not_a_clique(n):
    edges = list(combinations(range(n), 2))
    assert _missing_edge(Graph.from_edges(n, edges).adj_masks) is None
    for missing in edges:
        graph = Graph.from_edges(n, [e for e in edges if e != missing])
        assert _missing_edge(graph.adj_masks) == missing


def test_the_count_step_is_the_node_table_step_on_every_small_clique():
    # _clique_fate and _simultaneous_fate stay two loops, so their step maps
    # are compared on every configuration, not only those some solve visits
    cases = 0
    for n in range(6):
        adj_masks = Graph.from_edges(n, list(combinations(range(n), 2))).adj_masks
        for thresholds in product(range(n + 2), repeat=n):
            table, steps = _node_table(adj_masks, thresholds), _count_steps(thresholds)
            for c in range(1 << n):
                assert c | steps[c.bit_count()] == _step_mask(table, c, c, True), (thresholds, c)
                cases += 1
    assert cases == 559_631
