from __future__ import annotations

import json
import math
import re
import shutil
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapshot_lab import (
    GeneratorParams,
    InvalidInstanceError,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SearchCapExceeded,
    SnapshotInstance,
    check_lemma,
    closed_neighborhood,
    feasible_snapshots,
    induced_subgraph,
    instance_stream,
    reachable_configs,
    replay_corpus,
    run_simultaneous,
    seed_distance,
    seed_feasible,
)
from snapshot_lab import verification
from snapshot_lab.dynamics import _node_table
from snapshot_lab.model import nodes_of
from snapshot_lab.serialize import instance_from_dict, read_document
from snapshot_lab.solvers import DEFAULT_LIMITS, SearchLimits, _reachable_mask_set
from snapshot_lab.verification import CHECK_IDS, _check_clearing, _entry_instance, _manifest_entries

from conftest import restricted_path, small_instances

T4 = (1, 2, 1, 1)


def test_feasible_snapshots_star4_monotone_simultaneous(star4):
    got = feasible_snapshots(star4, T4, 1, MONOTONE_SIMULTANEOUS)
    expected = {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset(range(4)),
    }
    assert got == expected


def test_feasible_snapshots_star4_plain_simultaneous(star4):
    got = feasible_snapshots(star4, T4, 1, PLAIN_SIMULTANEOUS)
    assert frozenset({0, 2, 3}) in got  # the center seeds the three leaves and drops out
    assert frozenset(range(4)) not in got


def test_feasible_snapshots_budget_zero(star4):
    assert feasible_snapshots(star4, T4, 0, PLAIN_SEQUENTIAL) == {frozenset()}


def test_feasible_snapshots_rejects_large_graphs():
    from snapshot_lab import Graph

    big = Graph.from_edges(20, [])
    with pytest.raises(ValueError):
        feasible_snapshots(big, (1,) * 20, 1, PLAIN_SEQUENTIAL)


@given(small_instances(max_n=5))
@settings(max_examples=40, deadline=None)
def test_feasible_snapshots_monotone_in_budget(instance):
    g, t = instance.graph, instance.thresholds
    for mode in (MONOTONE_SIMULTANEOUS, PLAIN_SEQUENTIAL):
        smaller = feasible_snapshots(g, t, 1, mode)
        larger = feasible_snapshots(g, t, 2, mode)
        assert smaller <= larger


@given(small_instances(max_n=7, max_budget=3), st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_feasible_snapshots_is_the_union_of_the_seeds_reachable_sets(instance, max_states):
    g, t, k = instance.graph, instance.thresholds, instance.budget
    per_seed = [
        reachable_configs(g, t, seed, instance.mode)
        for size in range(k + 1)
        for seed in combinations(range(instance.n), size)
    ]
    union = set().union(*per_seed)
    assert feasible_snapshots(g, t, k, instance.mode) == union
    # a sequential seed stores only what no earlier seed reached, so the
    # oracle caps only where that outgrows the cap, never where every seed's
    # whole reachable set fits; a simultaneous run has no cap
    fresh, reached = [], set()
    for configs in per_seed:
        fresh.append(len(configs - reached))
        reached |= configs
    over = instance.mode.sequential and max(fresh) > max_states
    assert not over or max(map(len, per_seed)) > max_states
    try:
        capped = feasible_snapshots(g, t, k, instance.mode, SearchLimits(max_states))
    except SearchCapExceeded:
        capped = None
    assert capped == (None if over else union)


def fixed_stream(instance):
    while True:
        yield instance


def test_check_lemma_star4_all_clean(star4_instance):
    inst = star4_instance({0, 1}, 2, MONOTONE_SIMULTANEOUS)
    for lemma in CHECK_IDS:
        verdict = check_lemma(lemma, fixed_stream(inst), 1)
        assert verdict.ok and verdict.trials == 1, lemma


def test_check_lemma_unknown_id(star4_instance):
    with pytest.raises(ValueError):
        check_lemma("mystery", fixed_stream(star4_instance({0}, 1, MONOTONE_SIMULTANEOUS)), 1)


def test_check_lemma_batch_is_clean():
    params = GeneratorParams(n_min=3, n_max=6, rng_seed=2024)
    for lemma in CHECK_IDS:
        verdict = check_lemma(lemma, instance_stream(params), 40)
        assert verdict.ok, (lemma, verdict.violations[:1])


def _clearing_reference(instance, limits):
    """The unpruned ``clearing`` check: the reference restricted search for
    every (snapshot, seed node) pair, whatever the unrestricted search
    reached. A restricted search stores a subset of the unrestricted
    enumeration from the same seed node, so only that enumeration caps."""
    n = instance.n
    table = _node_table(instance.graph.adj_masks, instance.thresholds)
    violations = []
    for u0 in range(n):
        u0_bit = 1 << u0
        reach_full = _reachable_mask_set(table, u0_bit, PLAIN_SEQUENTIAL, limits)
        for s_mask in range(1 << n):
            restricted = restricted_path(table, u0_bit, s_mask) is not None
            full = s_mask in reach_full
            if restricted != full:
                violations.append(
                    {
                        "snapshot": sorted(nodes_of(s_mask)),
                        "u0": u0,
                        "unrestricted": full,
                        "restricted": restricted,
                    }
                )
    return violations


def test_clearing_check_matches_the_unpruned_reference():
    params = GeneratorParams(n_min=2, n_max=7, rng_seed=15)
    for instance in islice(instance_stream(params), 40):
        assert _check_clearing(instance, DEFAULT_LIMITS) == _clearing_reference(instance, DEFAULT_LIMITS)


@pytest.mark.parametrize("max_states", [1, 2, 3, 5, 8, 13, 21, 34, 64])
def test_clearing_check_caps_like_the_unpruned_reference(max_states, monkeypatch):
    params = GeneratorParams(n_min=3, n_max=7, rng_seed=max_states)
    limits = SearchLimits(max_states)
    pruned = check_lemma("clearing", instance_stream(params), 30, limits)
    monkeypatch.setitem(verification._CHECKS, "clearing", _clearing_reference)
    reference = check_lemma("clearing", instance_stream(params), 30, limits)
    assert (pruned.trials, pruned.skipped, pruned.violations) == (
        reference.trials, reference.skipped, reference.violations,
    )


def test_neighbor_prune_is_unsound_for_simultaneous_dynamics(double_diamond):
    # the sequential neighborhood prune must not be applied to simultaneous
    # dynamics: here the only working seed sits at distance 2 from S
    t = (5, 1, 1, 2, 1, 1, 2)
    snapshot = frozenset({3, 6})
    assert snapshot in reachable_configs(double_diamond, t, {0}, PLAIN_SIMULTANEOUS)
    for u in sorted(closed_neighborhood(double_diamond, snapshot)):
        assert snapshot not in reachable_configs(double_diamond, t, {u}, PLAIN_SIMULTANEOUS)
    assert snapshot not in reachable_configs(double_diamond, t, set(), PLAIN_SIMULTANEOUS)
    assert 0 not in closed_neighborhood(double_diamond, snapshot)
    assert seed_distance(double_diamond, {0}, snapshot) == 2


def test_clearing_restriction_fails_for_budget_two(hub_pair):
    # with two seeds, the only ordering that works routes through nodes that
    # are in neither the snapshot nor the seed, so the restriction to
    # S + seed loses feasibility: the restricted arena is edgeless
    graph, thresholds = hub_pair(corrected=True)
    snapshot = frozenset({8, 9, 10})
    seed = frozenset({0, 1})
    inst = SnapshotInstance(graph, thresholds, snapshot, 2, PLAIN_SEQUENTIAL)
    assert seed_feasible(inst, seed) is not None

    arena = sorted(snapshot | seed)
    sub, sub_t = induced_subgraph(graph, thresholds, arena)
    assert sub.edges() == []
    restricted = SnapshotInstance(
        sub, sub_t, frozenset(arena.index(v) for v in snapshot), 2, PLAIN_SEQUENTIAL
    )
    assert seed_feasible(restricted, {arena.index(0), arena.index(1)}) is None


def test_seed_distance_examples(double_diamond, hub_pair):
    assert seed_distance(double_diamond, {0}, {3, 6}) == 2
    graph, _ = hub_pair(corrected=True)
    assert seed_distance(graph, {0, 1}, {8, 9, 10}) == 2
    assert seed_distance(graph, {8, 9}, {8, 9, 10}) == 0


def test_seed_distance_aggregates_and_edge_cases(star4):
    assert seed_distance(star4, set(), {0}) == 0
    assert seed_distance(star4, {0}, set()) == math.inf
    assert seed_distance(star4, {0, 1}, {0}) == 1  # max aggregation
    assert seed_distance(star4, {0, 1}, {0}, aggregate="min") == 0
    with pytest.raises(ValueError):
        seed_distance(star4, {0}, {1}, aggregate="median")


@pytest.mark.parametrize(
    "seed, snapshot", [([9], [0]), ([-1], [0]), ([0], [9]), ([], [-1]), ([0], [True])]
)
def test_seed_distance_rejects_node_ids_outside_the_graph(star4, seed, snapshot):
    with pytest.raises(InvalidInstanceError, match=r"outside 0\.\.3"):
        seed_distance(star4, seed, snapshot)


def test_seed_distance_disconnected():
    from snapshot_lab import Graph

    g = Graph.from_edges(3, [(0, 1)])
    assert seed_distance(g, {2}, {0}) == math.inf
    assert seed_distance(g, {1, 2}, {0}, aggregate="min") == 1


def test_replay_corpus_all_pass():
    report = replay_corpus()
    assert report.all_passed
    assert len(report.rows) >= 15
    table = report.format_table()
    assert "PASS" in table and "FAIL" not in table


def test_replay_corpus_negative_control(tmp_path):
    work = _corpus_copy(tmp_path)
    doc = json.loads((work / "star4.json").read_text())
    doc["thresholds"][1] = 1  # corrupt the center threshold
    (work / "star4.json").write_text(json.dumps(doc))
    report = replay_corpus(corpus_dir=work)
    assert not report.all_passed
    failed = [r for r in report.rows if not r.passed]
    assert failed and any("expected" in r.details for r in failed)


def _corpus_src():
    from importlib import resources

    return resources.files("snapshot_lab").joinpath("corpus")


def test_replay_corpus_missing_directory(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(FileNotFoundError, match=re.escape(str(missing / "expectations.json"))):
        replay_corpus(corpus_dir=missing)


def _corpus_copy(tmp_path) -> Path:
    work = tmp_path / "corpus"
    shutil.copytree(Path(str(_corpus_src())), work)
    return work


def test_a_manifest_entry_without_a_file_names_the_manifest(tmp_path):
    work = _corpus_copy(tmp_path)
    manifest = json.loads((work / "expectations.json").read_text())
    del manifest["entries"][1]["file"]
    del manifest["entries"][2]["expect"]["verdict"]
    (work / "expectations.json").write_text(json.dumps(manifest))
    # every malformed entry is listed at once
    message = (f"{work / 'expectations.json'}: entry 1 needs a 'file' name; "
               f"{work / 'expectations.json'}: entry 2 needs an 'expect' object with a 'verdict'")
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        replay_corpus(corpus_dir=work)


@pytest.mark.parametrize(
    "key, value, shape",
    [
        ("seed", [0, "1"], "'expect.seed', if any, as a list of node ids"),
        ("match_time", 1.0, "'expect.match_time', if any, as an int"),
        ("accepted_seeds", 5, "'expect.accepted_seeds', if any, as a list of node id lists"),
        ("rejected_seeds", [0], "'expect.rejected_seeds', if any, as a list of node id lists"),
        ("seed_distance", {}, "'expect.seed_distance', if any, as an object with a 'seed' id list and a numeric 'value'"),
        ("clique_agrees", "yes", "'expect.clique_agrees', if any, as a bool"),
        ("note", 3, "'note', if any, as a string"),
    ],
    ids=["seed", "match_time", "accepted_seeds", "rejected_seeds", "seed_distance", "clique_agrees", "note"],
)
def test_a_malformed_expectation_names_the_manifest(tmp_path, key, value, shape):
    work = _corpus_copy(tmp_path)
    manifest = json.loads((work / "expectations.json").read_text())
    for i in (0, 3):
        entry = manifest["entries"][i]
        (entry if key == "note" else entry["expect"])[key] = value
    (work / "expectations.json").write_text(json.dumps(manifest))
    # both malformed entries are listed at once
    message = "; ".join(f"{work / 'expectations.json'}: entry {i} needs its {shape}" for i in (0, 3))
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        replay_corpus(corpus_dir=work)


@pytest.mark.parametrize(
    "key, value, ids",
    [
        ("seed", [9], "expect.seed ids [9]"),
        ("accepted_seeds", [[1], [9]], "expect.accepted_seeds ids [9]"),
        ("rejected_seeds", [[-1, 2]], "expect.rejected_seeds ids [-1]"),
        ("seed_distance", {"seed": [4], "value": 1}, "expect.seed_distance.seed ids [4]"),
    ],
    ids=["seed", "accepted_seeds", "rejected_seeds", "seed_distance"],
)
def test_an_expected_id_outside_the_instance_names_the_file(tmp_path, key, value, ids):
    work = _corpus_copy(tmp_path)
    manifest = json.loads((work / "expectations.json").read_text())
    entry = manifest["entries"][0]
    entry["expect"][key] = value
    (work / "expectations.json").write_text(json.dumps(manifest))
    message = f"{work / entry['file']}: entry {entry['name']!r}: {ids} outside 0..3"
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        replay_corpus(corpus_dir=work)


def test_a_corpus_file_that_is_not_json_names_the_file(tmp_path):
    work = _corpus_copy(tmp_path)
    (work / "star4.json").write_text("{not json")
    with pytest.raises(InvalidInstanceError, match=re.escape(f"{work / 'star4.json'}: not valid JSON (line 1:")):
        replay_corpus(corpus_dir=work)


def test_corpus_entries_revalidate():
    from snapshot_lab.serialize import instance_to_dict

    root = Path(str(_corpus_src()))
    for entry in read_document(root / "expectations.json", _manifest_entries):
        instance = read_document(root / entry["file"], _entry_instance, entry)
        assert instance_from_dict(json.loads(json.dumps(instance_to_dict(instance)))) == instance


_COUNT_ARGUMENTS = [
    ("k", lambda star4, v: feasible_snapshots(star4, (1, 2, 1, 1), v, PLAIN_SIMULTANEOUS)),
    ("max_steps", lambda star4, v: run_simultaneous(
        star4, (1, 2, 1, 1), frozenset({0}), PLAIN_SIMULTANEOUS, max_steps=v)),
    ("trials", lambda star4, v: check_lemma("serial", instance_stream(GeneratorParams()), v)),
    *[(name, lambda star4, v, name=name: GeneratorParams(**{name: v}))
      for name in ("n_min", "n_max", "budget_min", "budget_max")],
]


@pytest.mark.parametrize("value", [True, 1.5, "1"], ids=repr)
@pytest.mark.parametrize(
    "name, call", _COUNT_ARGUMENTS,
    ids=["feasible_snapshots", "run_simultaneous", "check_lemma",
         "n_min", "n_max", "budget_min", "budget_max"],
)
def test_count_arguments_follow_the_integer_rule(star4, name, call, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(star4, value)
