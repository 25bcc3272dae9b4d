"""Every public function that takes node ids rejects an id outside the graph
with ``InvalidInstanceError`` naming the argument's role, and the CLI turns
such an id into exit code 2 with a message."""

from __future__ import annotations

import inspect
import json
from importlib import resources

import pytest

import snapshot_lab
from snapshot_lab import (
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    Graph,
    InvalidInstanceError,
    SnapshotInstance,
    apply_ordering,
    best_response,
    check_certificate,
    closed_neighborhood,
    induced_subgraph,
    legal_moves,
    monotone_closure,
    reachable_configs,
    run_simultaneous,
    seed_distance,
    seed_feasible,
    validate_instance,
)
from snapshot_lab.cli import main

G = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])  # star4, center 1
T = (1, 2, 1, 1)
SEQ = SnapshotInstance(G, T, frozenset({1, 2}), 1, PLAIN_SEQUENTIAL)
ONE = frozenset({1})


def _certificate(seed, node):
    return {"seed": seed, "witness": {"type": "sequential", "ordering": [[node, "on"]]}}


# (function, role, call with the bad id x in that role's place)
ID_ARGUMENTS = [
    ("closed_neighborhood", "node", lambda x: closed_neighborhood(G, [x])),
    ("induced_subgraph", "kept", lambda x: induced_subgraph(G, T, [0, x])),
    ("validate_instance", "snapshot", lambda x: validate_instance(G, T, [x], 1, PLAIN_SEQUENTIAL)),
    ("best_response", "active", lambda x: best_response(G, T, [x], 0)),
    ("best_response", "node", lambda x: best_response(G, T, [], x)),
    ("legal_moves", "active", lambda x: legal_moves(G, T, [x], PLAIN_SEQUENTIAL)),
    ("apply_ordering", "seed", lambda x: apply_ordering(G, T, [x], [0], PLAIN_SEQUENTIAL)),
    ("apply_ordering", "ordering", lambda x: apply_ordering(G, T, ONE, [0, x], PLAIN_SEQUENTIAL)),
    ("apply_ordering", "target",
     lambda x: apply_ordering(G, T, ONE, [0], PLAIN_SEQUENTIAL, target=[x])),
    ("run_simultaneous", "seed", lambda x: run_simultaneous(G, T, [x], MONOTONE_SIMULTANEOUS)),
    ("run_simultaneous", "target",
     lambda x: run_simultaneous(G, T, ONE, MONOTONE_SIMULTANEOUS, target=[x])),
    ("monotone_closure", "seed", lambda x: monotone_closure(G, T, [x])),
    ("monotone_closure", "restrict_to", lambda x: monotone_closure(G, T, [0], restrict_to=[0, x])),
    ("reachable_configs", "seed", lambda x: reachable_configs(G, T, [x], PLAIN_SEQUENTIAL)),
    ("seed_feasible", "seed", lambda x: seed_feasible(SEQ, [x])),
    ("seed_distance", "seed", lambda x: seed_distance(G, [x], [0])),
    ("seed_distance", "snapshot", lambda x: seed_distance(G, [0], [x])),
    ("check_certificate", "seed", lambda x: check_certificate(SEQ, _certificate([x], 0))),
    ("check_certificate", "ordering", lambda x: check_certificate(SEQ, _certificate([1], x))),
]

# public functions whose arguments hold no node ids
NO_ID_ARGUMENTS = {
    "assert_clique", "check_equivalence", "check_lemma", "clique_analysis", "embed_target_set",
    "feasible_snapshots", "gadget_deactivation_robust", "gadget_sequential_k1", "has_target_set",
    "instance_stream", "replay_corpus", "solve",
}


def test_every_exported_function_is_listed():
    exported = {
        name for name, value in vars(snapshot_lab).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }
    assert exported == {name for name, _, _ in ID_ARGUMENTS} | NO_ID_ARGUMENTS


@pytest.mark.parametrize("bad", [4, -1, "0"], ids=["n", "negative", "str"])
@pytest.mark.parametrize(
    "call", ID_ARGUMENTS, ids=[f"{name}-{role}" for name, role, _ in ID_ARGUMENTS]
)
def test_an_id_outside_the_graph_is_invalid(call, bad):
    _, role, invoke = call
    with pytest.raises(InvalidInstanceError, match=role):
        invoke(bad)


@pytest.mark.parametrize("args, message", [
    (["--order", "simultaneous", "--monotone", "true", "--seed", "9"], "seed ids [9] outside 0..3"),
    (["--order", "sequential", "--monotone", "false", "--seed", "1", "--ordering", "9"],
     "ordering ids [9] outside 0..3"),
    (["--order", "sequential", "--monotone", "false", "--seed", "1", "--ordering", "-1"],
     "ordering ids [-1] outside 0..3"),
], ids=["seed", "ordering-n", "ordering-negative"])
def test_cli_simulate_rejects_an_id_outside_the_graph(tmp_path, capsys, args, message):
    doc = json.loads(resources.files("snapshot_lab").joinpath("corpus", "star4.json").read_text())
    del doc["dynamics"]
    path = tmp_path / "star4.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--instance", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
