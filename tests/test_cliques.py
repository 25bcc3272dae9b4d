from __future__ import annotations

import random
from itertools import combinations

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
    rule_forced_seed,
    rule_isolated_snapshot,
    rule_low_threshold_outside,
    rule_prune_outside,
    rule_threshold_collision,
    solve,
)

from conftest import assert_certificate_replays


def test_assert_clique(clique, star4_instance):
    assert_clique(clique(10, [1] * 10, {0}, 1, MONOTONE_SIMULTANEOUS))
    assert_clique(clique(1, [0], {0}, 1, MONOTONE_SIMULTANEOUS))
    with pytest.raises(NotACliqueError) as err:
        assert_clique(star4_instance({0}, 1, MONOTONE_SIMULTANEOUS))
    assert err.value.missing_edge == (0, 2)


def test_rule_forced_seed(clique, clique10):
    r = rule_forced_seed(clique(2, (1, 5), {0, 1}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "forced_seed" and r.nodes == (1,)

    r = rule_forced_seed(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_forced_seed(clique(3, (3, 3, 1), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "infeasible" and r.nodes == (0, 1)


def test_rule_low_threshold_outside(clique, clique10):
    inst = clique(4, (1, 1, 1, 2), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
    r = rule_low_threshold_outside(inst)
    assert r.action == "excluded_seed_size" and r.size == 2
    # the excluded size leaves the smaller feasible seed in play
    assert clique_analysis(inst).outcome.feasible

    r = rule_low_threshold_outside(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_low_threshold_outside(clique(3, (1, 1, 1), {0, 1}, 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"  # |S| <= k: S itself is a time-0 seed


def test_rule_threshold_collision(clique, clique10):
    r = rule_threshold_collision(clique(4, (1, 2, 2, 3), {0, 1}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "forced_seed" and r.nodes == (1,)

    r = rule_threshold_collision(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_threshold_collision(clique(3, (1, 1, 2), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"  # no outside nodes


def test_rule_prune_outside(clique10, clique):
    r = rule_prune_outside(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "pruned_nodes" and r.nodes == (8, 9)

    r = rule_prune_outside(clique(3, (1, 1, 1), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_prune_outside(clique(4, (1, 1, 2, 2), {0, 1}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"  # outside thresholds all equal


def test_rule_isolated_snapshot(clique, clique10):
    r = rule_isolated_snapshot(clique(4, (1, 2, 2, 9), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "reduced_to_target_set" and r.feasible is True
    assert r.nodes == (1,)  # highest threshold in S, tie broken by ascending id

    r = rule_isolated_snapshot(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_isolated_snapshot(clique(3, (1, 1, 2), set(), 1, MONOTONE_SIMULTANEOUS))
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
def clique_instances(draw, max_n=8, max_budget=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    graph = Graph.from_edges(n, list(combinations(range(n), 2)))
    thresholds = tuple(draw(st.integers(min_value=0, max_value=n)) for _ in range(n))
    snapshot = frozenset(v for v in range(n) if draw(st.booleans()))
    budget = draw(st.integers(min_value=0, max_value=max_budget))
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
