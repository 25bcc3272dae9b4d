"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the benchmark at a small size, so they say nothing about speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import inputs  # noqa: E402
import ops  # noqa: E402
from checks import PIN_CHUNK, PIN_DIGITS, certificate_problems  # noqa: E402
from hostspeed import PROBE_EVERY_S, REFERENCE_S, HostSpeed  # noqa: E402
from snapshot_lab import Certificate, SearchLimits, SolveOutcome, solve  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = ["--seed", "3", "--seconds", "0.2", "--ops", "30"]
COUNTER_UNITS = ("count", "bytes")


def _bench(*argv: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOADS:
        out[workload] = {
            "plain": _bench("--workload", workload, "--trace", "0", *SMALL),
            "traced": [_bench("--workload", workload, "--trace", "1", *SMALL) for _ in range(2)],
        }
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(results, workload):
    for (lines, result), metrics in (
        (results[workload]["plain"], run.END_TO_END),
        (results[workload]["traced"][0], {k: unit for k, (unit, _) in run.PER_LAYER.items()}),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
        shown = {line.split()[0]: line.split()[-1] for line in lines[1:]}
        assert shown == dict(metrics, failed_frac="fraction")
    plain = results[workload]["plain"][1]["metrics"]
    assert all(plain[k]["value"] > 0 for k in run.END_TO_END)


@pytest.mark.parametrize(
    "workload, layers",
    [
        ("sim-search", ["solvers.seeds_tried", "solvers.states_expanded"]),
        ("seq-search", ["solvers.seeds_tried", "solvers.states_expanded"]),
        ("oracle-checks", ["verification.trials", "cliques.seeds_tried", "cliques.rule_decided", "reductions.agree"]),
        ("cli-small", ["cli.invocations", "serialize.parses", "dynamics.replay_steps", "solvers.seeds_tried"]),
    ],
)
def test_counters_repeat_exactly_for_a_seed(results, workload, layers):
    first, second = (r[1]["metrics"] for r in results[workload]["traced"])
    counters = {k: v["value"] for k, v in first.items() if v["unit"] in COUNTER_UNITS}
    assert counters == {k: second[k]["value"] for k in counters}
    assert all(counters[k] > 0 for k in layers)


def _batch(workload: str, count: int = 30, seed: int = 3):
    assert workload != "cli-small"  # the only workload that writes files
    return inputs.build_batch(workload, seed, run.RUN_DIR, count)


def _failed(batch, monkeypatch, fake_solve) -> int:
    monkeypatch.setattr(ops, "solve", fake_solve)
    runner = ops.Runner(batch, None, Tracer())
    for index in range(len(batch)):
        runner.run(index)
    assert runner.attempted == len(batch)
    return runner.failed


def test_over_budget_certificate_counts_as_failure(monkeypatch):
    batch = [op for op in _batch("sim-search") if op.reachable]

    def over_budget(instance):
        out = solve(instance)
        seed = frozenset(range(instance.budget + 1))
        return SolveOutcome(out.verdict, Certificate(seed, out.certificate.witness), out.stats)

    assert _failed(batch, monkeypatch, over_budget) == len(batch)


def test_cap_and_wrong_infeasible_count_as_failures(monkeypatch):
    batch = [op for op in _batch("seq-search") if not op.instance.mode.monotone]
    tiny = SearchLimits(max_states=2)
    caps = sum(solve(op.instance, tiny).verdict == "resource_cap_hit" for op in batch)
    assert caps > 0
    assert _failed(batch, monkeypatch, lambda inst: solve(inst, tiny)) == caps

    reachable = [op for op in batch if op.reachable]
    flipped = lambda inst: SolveOutcome("infeasible", None, solve(inst).stats)  # noqa: E731
    assert _failed(reachable, monkeypatch, flipped) == len(reachable)


def test_pinned_digest_mismatch_counts_as_failure():
    batch = _batch("oracle-checks", PIN_CHUNK + 10)
    runner = ops.Runner(batch, None, Tracer())
    for index in range(len(batch)):
        runner.run(index)
    assert runner.failed == 0
    runner = ops.Runner(batch, ["0" * PIN_DIGITS] * 2, Tracer())
    for index in range(len(batch)):
        runner.run(index)
    assert runner.failed == 2  # one per chunk: operations 0..49 and 50..59


def test_reference_replay_rejects_tampered_moves():
    batch = _batch("seq-search", 60)
    checked = 0
    for op in batch:
        wire = solve(op.instance).to_dict()
        moves = wire.get("witness", {}).get("ordering")
        if not moves:
            continue
        assert certificate_problems(op.instance, wire) == []
        flipped = [[v, "off" if s == "on" else "on"] for v, s in moves]
        assert certificate_problems(op.instance, dict(wire, witness=dict(wire["witness"], ordering=flipped)))
        late = dict(wire["witness"], match_prefix=len(moves) + 1)
        assert certificate_problems(op.instance, dict(wire, witness=late))
        checked += 1
    assert checked > 10


def test_reachable_snapshots_are_feasible_and_arbitrary_ones_have_half_the_nodes():
    for workload in ("sim-search", "seq-search"):
        for op in _batch(workload, 40):
            if op.reachable:
                assert solve(op.instance).feasible
            else:
                assert len(op.instance.snapshot) == op.instance.n // 2


def test_batches_depend_only_on_the_seed():
    assert run.WORKLOADS == tuple(inputs.SIZES)
    a, b, c = _batch("seq-search"), _batch("seq-search"), _batch("seq-search", seed=4)
    assert [op.instance for op in a] == [op.instance for op in b]
    assert [op.instance for op in a] != [op.instance for op in c]

    def shapes(batch):
        return [(op.kind, op.reachable, op.instance.mode, op.instance.n, op.instance.budget) for op in batch]

    assert shapes(a) == shapes(c)


def test_a_pinned_seed_matches_its_pins():
    lines, result = _bench("--workload", "cli-small", "--seed", "0", "--seconds", "2", "--trace", "0")
    assert "(pinned)" in lines[0]
    assert result["correct"] and result["attempted"] > 200  # every chunk of the batch was compared


def test_host_speed_scales_each_piece_by_the_probes_around_it():
    speed = HostSpeed()
    speed.probe()
    short, long = 0.2 * PROBE_EVERY_S, 0.9 * PROBE_EVERY_S
    for seconds in (short, long, short):  # enough work after the second piece for a probe
        speed.record(seconds)
    scaled = speed.close()  # and a closing probe
    p = speed.probes
    assert len(p) == 3 and all(0 < t < 1 for t in p)
    assert scaled == pytest.approx(
        [t * REFERENCE_S * 2 / (a + b) for t, a, b in ((short, p[0], p[1]), (long, p[0], p[1]), (short, p[1], p[2]))]
    )
    assert speed.close() == [] and len(speed.probes) == 3

    items, seconds = HostSpeed().time_steps(iter([1, 2, 3]))
    assert items == [1, 2, 3] and seconds > 0
