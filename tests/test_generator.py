from __future__ import annotations

from itertools import islice

import pytest

from snapshot_lab import (
    GeneratorParams,
    MONOTONE_SIMULTANEOUS,
    instance_stream,
    reachable_configs,
    validate_instance,
)
from snapshot_lab.model import nodes_of
from snapshot_lab.serialize import instance_to_dict
from snapshot_lab.solvers import _seed_masks


def take(params, count):
    return list(islice(instance_stream(params), count))


def test_same_seed_gives_identical_stream():
    params = GeneratorParams(rng_seed=424242)
    first = [instance_to_dict(i) for i in take(params, 6)]
    second = [instance_to_dict(i) for i in take(params, 6)]
    assert first == second


def test_different_seed_changes_stream():
    a = [instance_to_dict(i) for i in take(GeneratorParams(rng_seed=1), 4)]
    b = [instance_to_dict(i) for i in take(GeneratorParams(rng_seed=2), 4)]
    assert a != b


def test_edge_probability_extremes():
    full = next(instance_stream(GeneratorParams(n_min=4, n_max=4, edge_prob=1.0, rng_seed=7)))
    assert len(full.graph.edges()) == 6  # a clique on 4 nodes
    empty = next(instance_stream(GeneratorParams(n_min=5, n_max=5, edge_prob=0.0, rng_seed=7)))
    assert empty.graph.edges() == []


@pytest.mark.parametrize("law", ["uniform0", "uniform1", "le2"])
def test_threshold_laws_respect_bounds(law):
    params = GeneratorParams(n_min=3, n_max=6, threshold_law=law, rng_seed=5)
    for inst in take(params, 30):
        for v, t in enumerate(inst.thresholds):
            if law == "uniform0":
                assert 0 <= t <= inst.graph.degree(v)
            elif law == "uniform1":
                assert 1 <= t <= max(1, inst.graph.degree(v))
            else:
                assert t in (1, 2)


def test_mixed_law_alternates():
    params = GeneratorParams(n_min=6, n_max=6, edge_prob=1.0, threshold_law="mixed", rng_seed=9)
    zero_seen = [min(inst.thresholds) == 0 for inst in take(params, 40)]
    assert any(zero_seen[0::2]) or any(zero_seen[1::2])  # uniform0 halves admit zeros
    assert all(min(t for t in inst.thresholds) >= 1 for i, inst in enumerate(take(params, 40)) if i % 2 == 1)


def test_reachable_snapshot_mode_emits_reachable_sets():
    params = GeneratorParams(
        n_min=3, n_max=5, snapshot_mode="reachable", mode=MONOTONE_SIMULTANEOUS, rng_seed=77
    )
    for inst in take(params, 15):
        feasible = set()
        for seed in map(nodes_of, _seed_masks(range(inst.graph.n), 0, inst.budget)):
            feasible |= reachable_configs(inst.graph, inst.thresholds, seed, inst.mode)
        assert inst.snapshot in feasible


def test_generated_instances_validate():
    for inst in take(GeneratorParams(rng_seed=13), 40):
        validate_instance(inst.graph, inst.thresholds, inst.snapshot, inst.budget, inst.mode)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        GeneratorParams(n_min=0)
    with pytest.raises(ValueError):
        GeneratorParams(edge_prob=1.5)
    with pytest.raises(ValueError):
        GeneratorParams(threshold_law="gaussian")
    with pytest.raises(ValueError):
        GeneratorParams(snapshot_mode="biased")


@pytest.mark.parametrize("edge_prob", ["0.5", None, True, False])
def test_edge_prob_must_be_a_number(edge_prob):
    with pytest.raises(ValueError, match="edge_prob"):
        GeneratorParams(edge_prob=edge_prob)


@pytest.mark.parametrize("edge_prob", [0, 1, 0.25])
def test_edge_prob_takes_ints_and_floats(edge_prob):
    assert GeneratorParams(edge_prob=edge_prob).edge_prob == edge_prob
