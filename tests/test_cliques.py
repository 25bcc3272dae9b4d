from __future__ import annotations

import random

import pytest

from snapshot_lab import (
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


def test_rule_low_threshold_outside_strict_reading(clique):
    inst = clique(4, (1, 1, 1, 2), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
    assert rule_low_threshold_outside(inst, strict=True).action == "infeasible"
    assert clique_analysis(inst, strict_property2=True).outcome.verdict == "infeasible"
    assert solve(inst).verdict == "feasible"  # the strict reading oversimplifies


def test_rule_threshold_collision(clique, clique10):
    r = rule_threshold_collision(clique(4, (1, 2, 2, 3), {0, 1}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "forced_seed" and r.nodes == (1,)

    r = rule_threshold_collision(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_threshold_collision(clique(3, (1, 1, 2), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"  # no outside nodes


def test_rule_prune_outside(clique10, clique):
    r, reduced, idmap = rule_prune_outside(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "pruned_nodes" and r.nodes == (8, 9)
    assert reduced.n == 8 and idmap.original(7) == 7

    r, _, _ = rule_prune_outside(clique(3, (1, 1, 1), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r, _, _ = rule_prune_outside(clique(4, (1, 1, 2, 2), {0, 1}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"  # outside thresholds all equal


def test_rule_isolated_snapshot(clique, clique10):
    r = rule_isolated_snapshot(clique(4, (1, 2, 2, 9), {0, 1, 2}, 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "reduced_to_target_set" and r.feasible is True
    assert r.nodes == (1,)  # highest threshold in S, tie broken by ascending id

    r = rule_isolated_snapshot(clique10(range(7), 2, MONOTONE_SIMULTANEOUS))
    assert r.action == "inapplicable"

    r = rule_isolated_snapshot(clique(3, (1, 1, 2), set(), 1, MONOTONE_SIMULTANEOUS))
    assert r.action == "reduced_to_target_set" and r.feasible is True  # empty S is vacuous


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
        assert clique_analysis(inst).outcome.verdict == solve(inst).verdict
