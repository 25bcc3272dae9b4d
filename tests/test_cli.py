from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import re
import shlex
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapshot_lab import Certificate, InvalidInstanceError, SimultaneousWitness
from snapshot_lab.cli import COMMANDS, build_parser, main
from snapshot_lab.serialize import canonical_json, certificate_from_dict

CORPUS = resources.files("snapshot_lab").joinpath("corpus")


def corpus_path(name: str) -> str:
    return str(CORPUS.joinpath(name))


@pytest.fixture
def star4_file():
    return corpus_path("star4.json")


def run(args):
    return main(args)


def test_solve_exit_codes_and_payload(star4_file, capsys):
    assert run(["solve", "--instance", star4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "feasible"
    assert payload["seed"] == [0, 2]
    assert payload["witness"] == {"match_time": 1, "type": "simultaneous"}
    assert "wall_time" not in payload["stats"]


def test_solve_infeasible_exit_one(tmp_path, star4_file, capsys):
    doc = json.loads(Path(star4_file).read_text())
    doc["snapshot"] = [0, 2, 3]
    target = tmp_path / "inst.json"
    target.write_text(json.dumps(doc))
    assert run(["solve", "--instance", str(target)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"


def test_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(Path(corpus_path("star4.json")).read_text())
    del doc["thresholds"]
    bad.write_text(json.dumps(doc))
    assert run(["solve", "--instance", str(bad)]) == 2
    assert "thresholds" in capsys.readouterr().err

    bad.write_text("{not json")
    assert run(["solve", "--instance", str(bad)]) == 2


def test_zero_search_limits_exit_two(star4_file, capsys):
    assert run(["solve", "--instance", star4_file, "--max-states", "0"]) == 2
    assert "search limits must be positive" in capsys.readouterr().err
    assert run(["simulate", "--instance", star4_file, "--seed", "0", "--max-steps", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_solvers_take_no_step_cap(tmp_path, star4_file, capsys, command):
    target = ["--instance", star4_file] if command == "solve" else ["--dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        run([command, *target, "--max-steps", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-steps" in capsys.readouterr().err


def test_enumerate_negative_budget_exits_two(star4_file, capsys):
    assert run(["enumerate", "--instance", star4_file, "--budget", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--instance", "{dir}"],
        ["solve", "--instance", "{star4}", "--out", "{dir}"],
        ["simulate", "--instance", "{star4}", "--replay", "{dir}"],
        ["simulate", "--instance", "{star4}", "--seed", "0,2", "--out", "{dir}"],
    ],
    ids=["solve-instance", "solve-out", "simulate-replay", "simulate-out"],
)
def test_unreadable_or_unwritable_paths_exit_two(tmp_path, star4_file, capsys, args):
    # a directory where a file belongs raises IsADirectoryError, an OSError
    # other than FileNotFoundError
    argv = [a.format(dir=tmp_path, star4=star4_file) for a in args]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_missing_dir_exits_two(tmp_path, capsys):
    assert run(["bench", "--dir", str(tmp_path / "missing")]) == 2
    captured = capsys.readouterr()
    assert "is not a directory" in captured.err
    assert captured.out == ""


def test_verify_negative_trials_exits_two(capsys):
    assert run(["verify", "--lemma", "serial", "--trials", "-1"]) == 2
    assert "trials must be >= 0, got -1" in capsys.readouterr().err


def test_mode_override_only_without_dynamics(tmp_path, star4_file, capsys):
    doc = json.loads(Path(star4_file).read_text())
    del doc["dynamics"]
    doc["snapshot"] = [1, 2]
    doc["budget"] = 1
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))

    assert run(["solve", "--instance", str(bare)]) == 2  # no dynamics anywhere
    assert run(["solve", "--instance", str(bare), "--order", "sequential", "--monotone", "false"]) == 0
    capsys.readouterr()
    # override against a file that already fixes dynamics is an input error
    assert run(["solve", "--instance", star4_file, "--order", "sequential", "--monotone", "false"]) == 2


def test_simulate_simultaneous_trace(star4_file, capsys):
    doc_exit = run(["simulate", "--instance", star4_file, "--seed", "0,2"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert doc_exit == 0
    assert json.loads(lines[0]) == {"t": 0, "move": None, "active": [0, 2]}
    assert json.loads(lines[1]) == {"t": 1, "move": "sim", "active": [0, 1, 2]}
    assert json.loads(lines[-1]) == {"match_time": 1, "termination": "matched"}


def test_simulate_sequential_needs_ordering(tmp_path, capsys):
    doc = json.loads(Path(corpus_path("star4.json")).read_text())
    doc["dynamics"] = {"order": "sequential", "monotone": False}
    doc["snapshot"] = [1, 2]
    inst = tmp_path / "seq.json"
    inst.write_text(json.dumps(doc))
    assert run(["simulate", "--instance", str(inst), "--seed", "1"]) == 2
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--seed", "1", "--ordering", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert json.loads(lines[1]) == {"t": 1, "move": {"node": 2, "to": "on"}, "active": [1, 2]}


def _jsonl(*records) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def test_simulate_trace_wire_format(tmp_path, star4_file, capsys):
    # the whole JSONL of three runs, byte for byte: a plain 2-cycle, a
    # monotone match, and a sequential ordering with a no-op selection
    doc = json.loads(Path(star4_file).read_text())
    plain = _write(tmp_path / "plain.json", dict(doc, dynamics={"order": "simultaneous", "monotone": False}))
    seq = _write(
        tmp_path / "seq.json",
        dict(doc, dynamics={"order": "sequential", "monotone": False}, snapshot=[0, 1, 2]),
    )
    cases = [
        (["--instance", plain, "--seed", "1"], 1, _jsonl(
            {"t": 0, "move": None, "active": [1]},
            {"t": 1, "move": "sim", "active": [0, 2, 3]},
            {"t": 2, "move": "sim", "active": [1]},
            {"match_time": None, "termination": "cycle_detected"},
        )),
        (["--instance", star4_file, "--seed", "0,2"], 0, _jsonl(
            {"t": 0, "move": None, "active": [0, 2]},
            {"t": 1, "move": "sim", "active": [0, 1, 2]},
            {"match_time": 1, "termination": "matched"},
        )),
        (["--instance", seq, "--seed", "1", "--ordering", "0,0,2,3"], 0, _jsonl(
            {"t": 0, "move": None, "active": [1]},
            {"t": 1, "move": {"node": 0, "to": "on"}, "active": [0, 1]},
            {"t": 2, "move": {"node": 0, "to": "on"}, "active": [0, 1]},
            {"t": 3, "move": {"node": 2, "to": "on"}, "active": [0, 1, 2]},
            {"t": 4, "move": {"node": 3, "to": "on"}, "active": [0, 1, 2, 3]},
            {"match_time": 3, "termination": "matched"},
        )),
    ]
    for args, code, expected in cases:
        assert run(["simulate", *args]) == code
        assert capsys.readouterr().out == expected


def test_certificates_replay_through_simulate(tmp_path, capsys):
    # simultaneous witness
    cert_path = tmp_path / "cert.json"
    assert run(["solve", "--instance", corpus_path("star4.json"), "--out", str(cert_path)]) == 0
    assert run(["simulate", "--instance", corpus_path("star4.json"), "--replay", str(cert_path)]) == 0

    # sequential witness
    doc = json.loads(Path(corpus_path("star4.json")).read_text())
    doc["dynamics"] = {"order": "sequential", "monotone": False}
    doc["snapshot"] = [1, 2]
    doc["budget"] = 1
    inst = tmp_path / "seq.json"
    inst.write_text(json.dumps(doc))
    cert2 = tmp_path / "cert2.json"
    assert run(["solve", "--instance", str(inst), "--out", str(cert2)]) == 0
    assert run(["simulate", "--instance", str(inst), "--replay", str(cert2)]) == 0
    # a missing match_prefix defaults to the whole ordering
    cert = json.loads(cert2.read_text())
    del cert["witness"]["match_prefix"]
    cert2.write_text(json.dumps(cert))
    assert run(["simulate", "--instance", str(inst), "--replay", str(cert2)]) == 0
    capsys.readouterr()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _sequential_star4(tmp_path, **fields) -> str:
    doc = json.loads(Path(corpus_path("star4.json")).read_text())
    doc["dynamics"] = {"order": "sequential", "monotone": False}
    doc.update(fields)
    return _write(tmp_path / "seq.json", doc)


def test_replay_rejects_seed_over_budget(tmp_path, star4_file, capsys):
    # {0, 1, 2} is the snapshot itself, so it matches at t=0, but budget is 2
    cert = _write(tmp_path / "cert.json", {
        "seed": [0, 1, 2], "witness": {"type": "simultaneous", "match_time": 0},
    })
    assert run(["simulate", "--instance", star4_file, "--replay", cert]) == 1
    assert "over budget 2" in capsys.readouterr().err


def test_replay_rejects_node_ids_outside_the_graph(tmp_path, star4_file, capsys):
    for seed in ([-1], [0, 4]):
        cert = _write(tmp_path / "cert.json", {
            "seed": seed, "witness": {"type": "simultaneous", "match_time": 1},
        })
        assert run(["simulate", "--instance", star4_file, "--replay", cert]) == 2
        assert "outside 0..3" in capsys.readouterr().err


def test_replay_rejects_recorded_move_direction(tmp_path, capsys):
    inst = _sequential_star4(tmp_path, snapshot=[1, 2], budget=1)
    # node 2 turns on in the replay; the certificate claims it turned off
    cert = _write(tmp_path / "cert.json", {
        "seed": [1], "witness": {"type": "sequential", "ordering": [[2, "off"]], "match_prefix": 1},
    })
    assert run(["simulate", "--instance", inst, "--replay", cert]) == 1
    assert "records [2, 'off']" in capsys.readouterr().err


def _solved_certificate(tmp_path, capsys, dynamics: dict) -> tuple[str, dict]:
    """The star4 instance with snapshot [0, 1, 2] under ``dynamics``, and
    the certificate ``solve`` gives for it."""
    inst = _write(tmp_path / "inst.json", _star4_doc(dynamics=dynamics, snapshot=[0, 1, 2]))
    assert run(["solve", "--instance", inst]) == 0
    return inst, json.loads(capsys.readouterr().out)


def test_replay_rejects_a_move_that_changes_nothing(tmp_path, capsys):
    inst, cert = _solved_certificate(tmp_path, capsys, {"order": "sequential", "monotone": True})
    assert cert["seed"] == [1]
    assert cert["witness"]["ordering"] == [[0, "on"], [2, "on"]]
    # node 1 is seeded, so selecting it first leaves every state as it was
    cert["witness"]["ordering"].insert(0, [1, "on"])
    cert["witness"]["match_prefix"] = 3
    path = _write(tmp_path / "cert.json", cert)
    assert run(["simulate", "--instance", inst, "--replay", path]) == 1
    assert capsys.readouterr().err == "error: step 1 records [1, 'on'], which changes nothing\n"


def test_replay_rejects_a_repeated_seed_id(tmp_path, capsys):
    inst, cert = _solved_certificate(tmp_path, capsys, {"order": "sequential", "monotone": False})
    assert cert["seed"] == [1]
    path = _write(tmp_path / "cert.json", dict(cert, seed=[1, 1]))
    assert run(["simulate", "--instance", inst, "--replay", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certificate seed [1, 1] repeats a node id\n"


def test_verify_corpus_checks_every_feasible_certificate(monkeypatch, capsys):
    import snapshot_lab.verification as verification

    solve = verification.solve

    def late_match(instance, limits):
        # the solver's own verdict and seed, with the match time one sweep late
        outcome = solve(instance, limits)
        cert = outcome.certificate
        if cert is not None and isinstance(cert.witness, SimultaneousWitness):
            cert = Certificate(cert.seed, SimultaneousWitness(cert.witness.match_time + 1))
        return dataclasses.replace(outcome, certificate=cert)

    monkeypatch.setattr(verification, "solve", late_match)
    assert run(["verify", "--corpus", "--format", "json"]) == 1
    failed = [e for e in json.loads(capsys.readouterr().out)["entries"] if not e["passed"]]
    assert failed
    problem = "certificate: replay does not first match the snapshot at the certified time"
    assert all(problem in entry["details"] for entry in failed)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["", "on", "off", "ab", "simultaneous", "sequential"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
witness_like = st.fixed_dictionaries(
    {"type": st.sampled_from(["simultaneous", "sequential"]) | json_values},
    optional={
        "match_time": st.integers(-1, 4) | json_values,
        "ordering": st.lists(
            st.tuples(st.integers(-1, 5), st.sampled_from(["on", "off"])).map(list), max_size=4
        ) | json_values,
        "match_prefix": st.integers(-1, 5) | json_values,
    },
)
certificate_like = st.fixed_dictionaries(
    {
        "seed": st.lists(st.integers(0, 4), max_size=3, unique=True)
        | st.lists(st.integers(-1, 5), max_size=3) | json_values,
        "witness": witness_like,
    },
    optional={"verdict": json_values},
)


@given(document=json_values | certificate_like, n=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_certificate_from_dict_rejects_any_json_value_cleanly(document, n):
    try:
        cert = certificate_from_dict(document, n)
    except ValueError as exc:  # InvalidInstanceError is a ValueError
        assert type(exc) in (InvalidInstanceError, ValueError)
        return
    # a missing seed is the empty seed
    assert len(cert.seed) == len(document.get("seed", [])) and all(0 <= v < n for v in cert.seed)


def test_enumerate_cap_exits_one_with_message(tmp_path, capsys):
    inst = _sequential_star4(tmp_path)
    assert run(["enumerate", "--instance", inst, "--max-states", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_state_cap_boundary(tmp_path, capsys):
    # one seed of this star reaches exactly 65 states, so a cap of 65 holds
    star7 = _write(tmp_path / "star7.json", {
        "labels": [f"s{i}" for i in range(7)],
        "edges": [[0, i] for i in range(1, 7)],
        "thresholds": [1] * 7,
        "snapshot": [1, 2],
        "budget": 1,
        "dynamics": {"order": "sequential", "monotone": False},
    })
    assert run(["enumerate", "--instance", star7, "--max-states", "65"]) == 0
    capsys.readouterr()
    assert run(["enumerate", "--instance", star7, "--max-states", "64"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_reduce_check_cap_is_an_error_not_a_disagreement(tmp_path, capsys):
    path7 = _write(tmp_path / "path7.json", {
        "labels": [f"p{i}" for i in range(7)],
        "edges": [[i, i + 1] for i in range(6)],
        "thresholds": [1] * 7,
        "budget": 1,
    })
    argv = ["reduce", "--gadget", "seqk1", "--instance", path7, "--check"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert run(argv + ["--max-states", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _cert(seed, **witness) -> dict:
    return {"seed": seed, "witness": witness}


def _seq_cert(**fields) -> dict:
    """The certificate of seed [1] then [2, "on"] on the plain sequential
    star4 with snapshot [1, 2], with ``fields`` replaced in its witness."""
    return _cert([1], **{"type": "sequential", "ordering": [[2, "on"]], "match_prefix": 1, **fields})


def _star4_doc(**fields) -> dict:
    doc = json.loads(Path(corpus_path("star4.json")).read_text())
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "command, doc",
    [
        ("replay", {"seed": 5, "witness": {"type": "simultaneous", "match_time": 1}}),
        ("replay", {"seed": [0, 2], "witness": 3}),
        ("replay", [1]),
        ("replay", {"seed": [0], "witness": {"type": "sequential", "ordering": [5]}}),
        ("embed", 5),
        ("embed", {"labels": ["a"], "edges": [], "thresholds": [1], "budget": True}),
        ("embed", {"labels": ["a", "b"], "edges": [[0, True]], "thresholds": [1, 1], "budget": 1}),
        ("solve", _star4_doc(edges=[[0, True], [1, 2], [1, 3]])),
        ("solve", _star4_doc(edges=[["0", 1], [1, 2], [1, 3]])),
        ("solve", _star4_doc(edges=[[0, 1.0], [1, 2], [1, 3]])),
        ("replay", _cert([0, 2], type="simultaneous", match_time=True)),
        ("replay", _cert([0, 2], type="simultaneous", match_time=1.0)),
        ("replay-seq", _seq_cert(match_prefix=True)),
        ("replay-seq", _seq_cert(match_prefix=1.0)),
        ("replay-seq", _seq_cert(ordering=[["2", "on"]])),
        ("replay-seq", _seq_cert(ordering=[[2.0, "on"]])),
        ("solve", _star4_doc(snapshot=[0, 1.0])),
        ("solve", _star4_doc(budget=True)),
        ("solve", _star4_doc(thresholds=[1, 2, 1, True])),
        ("embed", {"labels": [1, 2, 3], "edges": [[0, 1], [1, 2]], "thresholds": [1, 1, 1], "budget": 1}),
    ],
    ids=[
        "int-seed", "int-witness", "list-document", "int-move", "int-document", "bool-budget",
        "bool-edge-target-set", "bool-edge", "str-edge", "float-edge",
        "bool-match-time", "float-match-time", "bool-match-prefix", "float-match-prefix",
        "str-move-node", "float-move-node", "float-snapshot-node", "bool-instance-budget",
        "bool-threshold", "int-labels-target-set",
    ],
)
def test_malformed_documents_exit_two(tmp_path, star4_file, capsys, command, doc):
    path = _write(tmp_path / "doc.json", doc)
    seq_star4 = _sequential_star4(tmp_path, snapshot=[1, 2], budget=1)
    argv = {
        "replay": ["simulate", "--instance", star4_file, "--replay", path],
        "replay-seq": ["simulate", "--instance", seq_star4, "--replay", path],
        "embed": ["reduce", "--gadget", "embed", "--instance", path],
        "solve": ["solve", "--instance", path],
    }[command]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_lists_snapshots(star4_file, capsys):
    assert run(["enumerate", "--instance", star4_file, "--budget", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert [0, 1, 2, 3] in payload["snapshots"]
    assert payload["snapshots"] == sorted(payload["snapshots"])


def test_reduce_embed_and_check(tmp_path, star4_file, capsys):
    ts = {
        "labels": ["u1", "u2", "u3", "u4"],
        "edges": [[0, 1], [1, 2], [1, 3]],
        "thresholds": [1, 2, 1, 1],
        "budget": 1,
    }
    ts_path = tmp_path / "ts.json"
    ts_path.write_text(json.dumps(ts))
    out_path = tmp_path / "embedded.json"
    assert run(["reduce", "--gadget", "embed", "--instance", str(ts_path), "--out", str(out_path)]) == 0
    embedded = json.loads(out_path.read_text())
    assert embedded["snapshot"] == [0, 1, 2, 3]
    assert embedded["dynamics"] == {"monotone": True, "order": "simultaneous"}

    assert run(["reduce", "--gadget", "embed", "--instance", str(ts_path), "--check"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["agree"] is True

    assert run(["reduce", "--gadget", "seqk1", "--instance", str(ts_path), "--check"]) == 0
    capsys.readouterr()


def test_reduce_dummy_check_flags_known_discrepancy(tmp_path, capsys):
    src = {
        "labels": ["a", "b"],
        "edges": [[0, 1]],
        "thresholds": [1, 1],
        "snapshot": [0, 1],
        "budget": 1,
        "dynamics": {"order": "simultaneous", "monotone": True},
    }
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(src))
    assert run(["reduce", "--gadget", "dummy", "--instance", str(path), "--check"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["left"] == "feasible" and verdict["right"] == "infeasible"
    assert verdict["counterexample"]["labels"] == ["a", "b"]


def test_verify_corpus(capsys):
    assert run(["verify", "--corpus"]) == 0
    out = capsys.readouterr().out
    assert "entries passed" in out and "FAIL" not in out


def test_verify_lemma_writes_no_violations(tmp_path, capsys):
    code = run([
        "verify", "--lemma", "serial", "--trials", "15", "--rng-seed", "3",
        "--violations-dir", str(tmp_path / "violations"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["trials"] == 15
    assert not (tmp_path / "violations").exists()


def test_clique_subcommand(capsys):
    assert run(["clique", "--instance", corpus_path("clique10.json"), "--explain"]) == 0
    out = capsys.readouterr().out
    assert "P4: pruned_nodes" in out and "verdict: feasible" in out
    assert run(["clique", "--instance", corpus_path("star4.json")]) == 2  # not a clique


def test_bench_csv(tmp_path, capsys):
    bench_dir = tmp_path / "instances"
    bench_dir.mkdir()
    for name in ("star4.json", "clique10.json"):
        (bench_dir / name).write_text(Path(corpus_path(name)).read_text())
    out_csv = tmp_path / "bench.csv"
    assert run(["bench", "--dir", str(bench_dir), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "digest,mode,n,k,verdict,states_expanded"
    assert len(lines) == 3


def test_dot_export(tmp_path, star4_file):
    dot_path = tmp_path / "graph.dot"
    assert run(["solve", "--instance", star4_file, "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.startswith("graph snapshot_instance")
    assert 'fillcolor="orange"' in dot  # seed inside snapshot
    assert "n1 -- n2;" in dot


def test_subcommands_are_deterministic(tmp_path, star4_file):
    pairs = []
    for i in (1, 2):
        solve_out = tmp_path / f"solve{i}.json"
        run(["solve", "--instance", star4_file, "--out", str(solve_out)])
        enum_out = tmp_path / f"enum{i}.json"
        run(["enumerate", "--instance", star4_file, "--out", str(enum_out)])
        verify_out = tmp_path / f"verify{i}.json"
        run(["verify", "--lemma", "serial2", "--trials", "10", "--rng-seed", "7",
             "--out", str(verify_out), "--violations-dir", str(tmp_path / f"v{i}")])
        pairs.append((solve_out.read_bytes(), enum_out.read_bytes(), verify_out.read_bytes()))
    assert pairs[0] == pairs[1]


def test_emit_then_load_roundtrip(tmp_path, star4_file):
    # canonical emit of a reduced instance reloads to the identical document
    ts = {"labels": ["a"], "edges": [], "thresholds": [1], "budget": 1}
    ts_path = tmp_path / "ts.json"
    ts_path.write_text(json.dumps(ts))
    out1 = tmp_path / "r1.json"
    run(["reduce", "--gadget", "seqk1", "--instance", str(ts_path), "--out", str(out1)])
    doc = json.loads(out1.read_text())
    assert canonical_json(doc) == out1.read_text()


def _fake_violations(monkeypatch, count):
    # no real violations exist, so fabricate some to exercise the file layout
    import snapshot_lab.cli as cli_mod
    from snapshot_lab.verification import LemmaVerdict

    doc = json.loads(Path(corpus_path("star4.json")).read_text())

    def fake_check(lemma, instances, trials, limits):
        return LemmaVerdict(
            lemma=lemma,
            trials=trials,
            violations=[
                {"instance": doc, "witness": {"snapshot": [v], "budget": 1}} for v in range(count)
            ],
        )

    monkeypatch.setattr(cli_mod, "check_lemma", fake_check)


def test_verify_lemma_violation_files_are_replayable(tmp_path, capsys, monkeypatch):
    from snapshot_lab.serialize import instance_from_dict

    _fake_violations(monkeypatch, 2)
    vdir = tmp_path / "violations"
    code = run(["verify", "--lemma", "serial", "--trials", "5", "--violations-dir", str(vdir)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    files = list((vdir / "serial").glob("*.json"))
    assert len(files) == 1  # both witnesses grouped under the instance digest
    stored = json.loads(files[0].read_text())
    assert len(stored["witnesses"]) == 2
    assert instance_from_dict(stored).snapshot == frozenset({0, 1, 2})  # revalidates on reload


def test_verify_lemma_bad_out_leaves_no_violation_file(tmp_path, capsys, monkeypatch):
    _fake_violations(monkeypatch, 1)
    vdir = tmp_path / "violations"
    out = tmp_path / "missing" / "x.json"
    argv = ["verify", "--lemma", "serial", "--trials", "5", "--violations-dir", str(vdir)]
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not vdir.exists()


def _readme_synopsis() -> list[str]:
    """Every ``snapshot-lab <cmd> ...`` line of the README, indented
    continuation lines joined to it, without the program name."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    entries: list[str] = []
    continuing = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("snapshot-lab "):
            entries.append(line[len("snapshot-lab "):])
            continuing = True
        elif continuing and line.startswith(" "):
            entries[-1] += " " + line.strip()
        else:
            continuing = False
    return entries


def _synopsis_argvs(entry: str) -> list[list[str]]:
    """The argv lists one synopsis entry stands for: optional brackets
    dropped, each ``|`` alternative its own argv, the first of each
    ``a|b`` choice and ``1`` for each one-letter placeholder."""
    command, *tokens = shlex.split(entry.replace("[", "").replace("]", ""))
    argvs, argv = [], [command]
    for token in tokens + ["|"]:
        if token == "|":
            argvs.append(argv)
            argv = [command]
        else:
            argv.append("1" if re.fullmatch(r"[A-Z]", token) else token.split("|")[0])
    return argvs


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_synopsis_flags_exist():
    synopsis = _readme_synopsis()
    assert {entry.split()[0] for entry in synopsis} == set(_subcommands(build_parser()))
    for entry in synopsis:
        command = entry.split()[0]
        flags = set(re.findall(r"--[a-z][a-z0-9-]*", entry))
        for parser in (build_parser(), build_parser(command)):
            accepted = _subcommands(parser)[command]._option_string_actions
            assert flags <= set(accepted), (command, sorted(flags - set(accepted)))


def test_build_parser_builds_one_known_subcommand():
    assert set(_subcommands(build_parser())) == set(COMMANDS)
    for command in COMMANDS:
        assert list(_subcommands(build_parser(command))) == [command]
    for argv0 in (None, "nope", "--help"):
        assert set(_subcommands(build_parser(argv0))) == set(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_subcommand_parser_help_matches_full_parser(command):
    alone = _subcommands(build_parser(command))[command].format_help()
    assert alone == _subcommands(build_parser())[command].format_help()


@pytest.mark.parametrize(
    "argv", [argv for entry in _readme_synopsis() for argv in _synopsis_argvs(entry)],
    ids=" ".join,
)
def test_one_subcommand_parser_parses_readme_synopsis_alike(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def test_main_reads_sys_argv(monkeypatch, star4_file, capsys):
    monkeypatch.setattr(sys, "argv", ["snapshot-lab", "solve", "--instance", star4_file])
    assert main(None) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == [0, 2]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        ([], "snapshot-lab: error: the following arguments are required: command\n"),
        (["nope"], "snapshot-lab: error: argument command: invalid choice: 'nope'"),
        (["solve", "--bogus"], "snapshot-lab solve: error: the following arguments are required: --instance\n"),
        (["solve", "--instance", "{star4}", "--bogus"], "snapshot-lab: error: unrecognized arguments: --bogus\n"),
    ],
    ids=["no-command", "unknown-command", "solve-bogus", "solve-instance-bogus"],
)
def test_usage_errors_read_as_the_full_parser(monkeypatch, star4_file, capsys, argv, fragment):
    # the full parser (all seven subcommands, argparse's own usage metavar)
    # is the reference for how a usage error reads
    monkeypatch.setenv("COLUMNS", "80")
    argv = [a.format(star4=star4_file) for a in argv]
    codes, errors = [], []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        codes.append(exit_info.value.code)
        errors.append(capsys.readouterr().err)
    assert codes == [2, 2]
    assert errors[0] == errors[1]
    assert fragment in errors[0]


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_bad_dot_path_writes_no_main_output(tmp_path, star4_file, capsys, command):
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", "--instance", star4_file],
        "simulate": ["simulate", "--instance", star4_file, "--seed", "0,2"],
    }[command]
    assert run([*argv, "--out", str(out), "--dot", str(tmp_path / "missing" / "g.dot")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _rejection_case(tmp_path, dynamics: str) -> tuple[str, str, list[str]]:
    """An instance, a certificate that replays on it, and a seed and
    ordering that simulate on it, for the plain sequential star4 with
    snapshot [1, 2] or the corpus star4 (monotone simultaneous)."""
    if dynamics == "sequential":
        inst = _sequential_star4(tmp_path, snapshot=[1, 2], budget=1)
        return inst, _write(tmp_path / "cert.json", _seq_cert()), ["--seed", "1", "--ordering", "2"]
    cert = _write(tmp_path / "cert.json", _cert([0, 2], type="simultaneous", match_time=1))
    return corpus_path("star4.json"), cert, ["--seed", "0,2"]


MAX_STEPS_ERROR = "error: --max-steps applies only to simultaneous dynamics\n"
REPLAY_ERROR = "error: --replay takes its seed and ordering from the certificate\n"


@pytest.mark.parametrize(
    "dynamics, argv, error",
    [
        ("sequential", ["{run}", "--max-steps", "1"], MAX_STEPS_ERROR),
        ("sequential", ["--replay", "{cert}", "--max-steps", "1"], MAX_STEPS_ERROR),
        ("simultaneous", ["{run}", "--ordering", "1,3"], "error: --ordering applies only to sequential dynamics\n"),
        ("simultaneous", ["--replay", "{cert}", "--seed", "0,2"], REPLAY_ERROR),
        ("simultaneous", ["--replay", "{cert}", "--ordering", "1,3"], REPLAY_ERROR),
        ("sequential", ["--replay", "{cert}", "--seed", "1"], REPLAY_ERROR),
        ("sequential", ["--replay", "{cert}", "--ordering", "2"], REPLAY_ERROR),
    ],
    ids=[
        "max-steps-sequential", "max-steps-sequential-replay", "ordering-simultaneous",
        "replay-seed", "replay-ordering", "replay-seed-sequential", "replay-ordering-sequential",
    ],
)
def test_simulate_rejects_flags_it_would_ignore(tmp_path, capsys, dynamics, argv, error):
    # each flag would be silently ignored: exit 2 with one error line instead
    inst, cert, seeded = _rejection_case(tmp_path, dynamics)
    assert run(["simulate", "--instance", inst, "--replay", cert]) == 0
    assert run(["simulate", "--instance", inst, *seeded]) == 0
    capsys.readouterr()
    argv = [a for arg in argv for a in (seeded if arg == "{run}" else [arg.format(cert=cert)])]
    assert run(["simulate", "--instance", inst, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error


def test_simulate_replay_writes_dot_before_its_output(tmp_path, star4_file, capsys):
    cert, dot, out = tmp_path / "cert.json", tmp_path / "g.dot", tmp_path / "trace.jsonl"
    assert run(["solve", "--instance", star4_file, "--out", str(cert)]) == 0
    seeded = tmp_path / "seeded.dot"
    assert run(["simulate", "--instance", star4_file, "--seed", "0,2", "--dot", str(seeded)]) == 0
    capsys.readouterr()
    assert run(["simulate", "--instance", star4_file, "--replay", str(cert), "--dot", str(dot), "--out", str(out)]) == 0
    # the certificate's seed is [0, 2], so the rendering equals the seeded run's
    assert dot.read_text() == seeded.read_text()
    assert 'fillcolor="orange"' in dot.read_text()
    assert out.exists()
    missing = tmp_path / "missing" / "g.dot"
    out.unlink()
    assert run(["simulate", "--instance", star4_file, "--replay", str(cert), "--dot", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_logs_one_info_line_per_command(star4_file, caplog, capsys):
    caplog.set_level(logging.INFO, logger="snapshot_lab")
    assert run(["solve", "--instance", star4_file]) == 0
    assert run(["enumerate", "--instance", star4_file, "--budget", "-1"]) == 2
    capsys.readouterr()
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("snapshot_lab", "INFO", "solve exit 0 verdict=feasible seeds_tried=6 states_expanded=6"),
        ("snapshot_lab", "INFO", "enumerate exit 2"),
    ]
