"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (visible with -s or in the
captured output of a failing run). Criteria:

1. the bundled worked-example corpus reproduces every expected verdict in
   under a second;
2. five structural checks over >= 500 seeded random instances (n in [3,7],
   p=0.5, budgets {1,2}, both uniform threshold laws) report zero violations
   in under five minutes;
3. the budget-1 sequential solver agrees with the unrestricted search on
   >= 200 random instances;
4. the rule-assisted clique solver agrees with brute force on >= 300 random
   cliques, including the low-threshold-outside caveat instance;
5. reduction gadgets: the identity embedding is exact on an exhaustive
   n <= 5 sweep, the budget-1 sequential gadget is exact on >= 100 random
   instances, and the deactivation-robustness checker completes on >= 100
   instances with the two-node edge discrepancy reproduced and flagged;
6. every CLI subcommand is byte-deterministic across repeated runs;
7. performance floor: monotone simultaneous at n=20, k=2 solves in under a
   second; unrestricted sequential at n=12, k=1 in under thirty seconds.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations, islice, product
from pathlib import Path

from snapshot_lab import (
    Graph,
    GeneratorParams,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SnapshotInstance,
    TargetSetInstance,
    check_equivalence,
    clique_analysis,
    check_lemma,
    gadget_deactivation_robust,
    instance_stream,
    replay_corpus,
    seed_distance,
    seed_feasible,
    solve,
    solve_sequential_k1,
)
from snapshot_lab.cli import main as cli_main
from snapshot_lab.verification import CHECK_IDS

from conftest import assert_certificate_replays


def _report(name: str, body) -> None:
    ok = False
    try:
        body()
        ok = True
    finally:
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def _random_clique(rng: random.Random, max_n: int) -> SnapshotInstance:
    n = rng.randint(1, max_n)
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    thresholds = tuple(rng.randint(0, n) for _ in range(n))
    snapshot = frozenset(v for v in range(n) if rng.random() < 0.5)
    return SnapshotInstance(g, thresholds, snapshot, rng.randint(0, 3), MONOTONE_SIMULTANEOUS)


def test_criterion_1_worked_example_corpus(star4_instance, double_diamond, clique10):
    def body():
        t0 = time.perf_counter()
        report = replay_corpus()
        assert report.all_passed, report.format_table()

        # star pattern across the four dynamics
        out = solve(star4_instance({0, 1, 2}, 2, MONOTONE_SIMULTANEOUS))
        assert out.feasible and sorted(out.certificate.seed) == [0, 2]
        assert not solve(star4_instance({0, 2, 3}, 2, MONOTONE_SIMULTANEOUS)).feasible
        for mode in (MONOTONE_SEQUENTIAL, PLAIN_SEQUENTIAL):
            assert solve(star4_instance({1, 2}, 1, mode)).feasible
        for mode in (MONOTONE_SIMULTANEOUS, PLAIN_SIMULTANEOUS):
            assert not solve(star4_instance({1, 2}, 1, mode)).feasible
        out = solve(star4_instance({0, 2, 3}, 1, PLAIN_SIMULTANEOUS))
        assert out.feasible and sorted(out.certificate.seed) == [1]
        assert not solve(star4_instance({0, 2, 3}, 1, PLAIN_SEQUENTIAL)).feasible
        assert solve(star4_instance(range(4), 1, MONOTONE_SIMULTANEOUS)).feasible
        assert not solve(star4_instance(range(4), 1, PLAIN_SIMULTANEOUS)).feasible

        # hub joining two cycles: seed at distance two, exact match at t=2
        dd = SnapshotInstance(
            double_diamond, (5, 1, 1, 2, 1, 1, 2), frozenset({3, 6}), 1, PLAIN_SIMULTANEOUS
        )
        out = solve(dd)
        assert out.feasible and sorted(out.certificate.seed) == [0]
        assert out.certificate.witness.match_time == 2
        assert seed_distance(dd.graph, {0}, dd.snapshot) == 2

        # clique of ten: middle pair accepted, top pair overshoots, solvers agree
        c10 = clique10(range(7), 2, MONOTONE_SIMULTANEOUS)
        assert seed_feasible(c10, {3, 4}) is not None
        assert seed_feasible(c10, {5, 6}) is None
        generic = solve(c10)
        assert generic.feasible
        assert clique_analysis(c10).outcome.verdict == generic.verdict

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"corpus replay took {elapsed:.2f}s"

    _report("1 worked-example corpus (< 1 s)", body)


def test_criterion_2_structural_check_suites():
    def body():
        params = GeneratorParams(
            n_min=3, n_max=7, edge_prob=0.5, threshold_law="mixed",
            budget_min=1, budget_max=2, rng_seed=20260811,
        )
        t0 = time.perf_counter()
        for lemma in CHECK_IDS:
            verdict = check_lemma(lemma, instance_stream(params), 500)
            assert verdict.trials == 500
            assert verdict.skipped == 0
            assert verdict.ok, (lemma, verdict.violations[:1])
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"structural suites took {elapsed:.1f}s"

    _report("2 structural suites, 5x500 trials, zero violations (< 5 min)", body)


def test_criterion_3_budget_one_oracle_equivalence():
    def body():
        params = GeneratorParams(
            n_min=1, n_max=7, edge_prob=0.5, threshold_law="mixed",
            budget_min=1, budget_max=1, mode=PLAIN_SEQUENTIAL, rng_seed=31415,
        )
        agree = 0
        for instance in islice(instance_stream(params), 200):
            fast = solve_sequential_k1(instance)
            full = solve(instance)
            assert fast.verdict == full.verdict, instance
            if fast.feasible:
                assert_certificate_replays(instance, fast)
            agree += 1
        assert agree == 200

    _report("3 budget-1 solver == unrestricted search on 200 instances", body)


def test_criterion_4_clique_rule_soundness(clique):
    def body():
        rng = random.Random(271828)
        for _ in range(300):
            inst = _random_clique(rng, max_n=9)
            assert clique_analysis(inst).outcome.verdict == solve(inst).verdict, inst
        caveat = clique(4, (1, 1, 1, 2), {0, 1, 2}, 2, MONOTONE_SIMULTANEOUS)
        out = clique_analysis(caveat).outcome
        assert out.feasible
        assert out.verdict == solve(caveat).verdict

    _report("4 clique rules == brute force on 300 cliques (incl. caveat case)", body)


def test_criterion_5_reduction_checks():
    def body():
        # identity embedding: exhaustive over every labeled graph with n <= 5;
        # thresholds exhaustive over {1,2}^n for n <= 4, seeded draws at n = 5
        rng = random.Random(42)
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for edge_bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1]
                g = Graph.from_edges(n, edges)
                if n <= 4:
                    tvecs = list(product((1, 2), repeat=n))
                else:
                    tvecs = [
                        tuple(rng.randint(0, g.degree(v)) for v in range(n)) for _ in range(2)
                    ]
                for tvec in tvecs:
                    for k in (1, 2):
                        ts = TargetSetInstance(g, tvec, k)
                        for mode in (MONOTONE_SIMULTANEOUS, MONOTONE_SEQUENTIAL):
                            assert check_equivalence("embed", ts, mode=mode).agree, (n, edges, tvec, k)

        # budget-1 sequential gadget: exact equivalence on 100 random instances
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 4)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            tvec = tuple(rng.choice((1, 2)) for _ in range(n))
            ts = TargetSetInstance(Graph.from_edges(n, edges), tvec, rng.choice((1, 2)))
            assert check_equivalence("seqk1", ts).agree, ts

        # deactivation-robustness checker: completes with a machine-readable
        # verdict on 100 instances; no agreement assertion is made
        params = GeneratorParams(
            n_min=1, n_max=4, edge_prob=0.5, threshold_law="le2",
            budget_min=1, budget_max=2, mode=MONOTONE_SIMULTANEOUS, rng_seed=555,
        )
        for source in islice(instance_stream(params), 100):
            verdict = check_equivalence("dummy", source).to_dict()
            assert set(verdict) >= {"gadget", "instance_digest", "left", "right", "agree"}

        # the known two-node discrepancy is reproduced and flagged
        ab = SnapshotInstance(
            Graph.from_edges(2, [(0, 1)], labels=["a", "b"]),
            (1, 1), frozenset({0, 1}), 1, MONOTONE_SIMULTANEOUS,
        )
        flagged = check_equivalence("dummy", ab)
        assert flagged.left_feasible and not flagged.right_feasible and not flagged.agree
        assert flagged.counterexample is not None

    _report("5 reduction gadget checks (embed exact, seqk1 exact, dummy flagged)", body)


def test_criterion_6_cli_determinism(tmp_path):
    def body():
        from importlib import resources

        corpus = resources.files("snapshot_lab").joinpath("corpus")
        star4 = str(corpus.joinpath("star4.json"))
        bench_dir = tmp_path / "bench_in"
        bench_dir.mkdir()
        for name in ("star4.json", "clique10.json", "double_diamond.json"):
            (bench_dir / name).write_text(corpus.joinpath(name).read_text(encoding="utf-8"))
        ts_doc = {"labels": ["a", "b"], "edges": [[0, 1]], "thresholds": [1, 1], "budget": 1}
        ts_path = tmp_path / "ts.json"
        ts_path.write_text(json.dumps(ts_doc))
        seq_doc = json.loads(Path(star4).read_text())
        seq_doc["dynamics"] = {"order": "sequential", "monotone": False}
        seq_doc["snapshot"] = [1, 2]
        seq_doc["budget"] = 1
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(seq_doc))

        invocations = {
            "solve": ["solve", "--instance", star4],
            "simulate_sim": ["simulate", "--instance", star4, "--seed", "0,2"],
            "simulate_seq": ["simulate", "--instance", str(seq_path), "--seed", "1", "--ordering", "2"],
            "enumerate": ["enumerate", "--instance", star4, "--budget", "2"],
            "reduce_embed": ["reduce", "--gadget", "embed", "--instance", str(ts_path)],
            "reduce_dummy": ["reduce", "--gadget", "dummy", "--instance", star4],
            "reduce_seqk1": ["reduce", "--gadget", "seqk1", "--instance", str(ts_path)],
            "verify_lemma": ["verify", "--lemma", "neighbor", "--trials", "25", "--rng-seed", "11",
                              "--violations-dir", str(tmp_path / "viol")],
            "verify_corpus": ["verify", "--corpus", "--format", "json"],
            "clique": ["clique", "--instance", str(bench_dir / "clique10.json"), "--format", "json"],
            "bench": ["bench", "--dir", str(bench_dir)],
        }
        for name, argv in invocations.items():
            outputs = []
            for i in (1, 2):
                out = tmp_path / f"{name}.{i}"
                code = cli_main(argv + ["--out", str(out)])
                assert code in (0, 1), (name, code)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} output differs between runs"

    _report("6 byte-identical outputs across repeated subcommand runs", body)


def test_criterion_7_performance_floor():
    def body():
        rng = random.Random(2024)
        n = 20
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        thresholds = tuple(rng.randint(1, max(1, g.degree(v))) for v in range(n))
        snapshot = frozenset(rng.sample(range(n), 8))
        inst = SnapshotInstance(g, thresholds, snapshot, 2, MONOTONE_SIMULTANEOUS)
        t0 = time.perf_counter()
        solve(inst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"monotone simultaneous n=20 k=2 took {elapsed:.2f}s"

        rng = random.Random(4096)
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        thresholds = tuple(rng.randint(1, max(1, g.degree(v))) for v in range(n))
        snapshot = frozenset(rng.sample(range(n), 5))
        inst = SnapshotInstance(g, thresholds, snapshot, 1, PLAIN_SEQUENTIAL)
        t0 = time.perf_counter()
        solve(inst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sequential n=12 k=1 took {elapsed:.2f}s"

    _report("7 performance floor (n=20 mono-sim < 1 s; n=12 sequential < 30 s)", body)
