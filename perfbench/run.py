"""snapshot-lab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sim-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Single process, single thread, closed loop: the next operation starts when
the previous one has returned. The workload's batch is built from ``--seed``
(see ``inputs.py``) and run from the start, round and round, until the
operations have taken ``--seconds`` and at least one whole pass is done.
Every output is checked after its operation's clock stops (see ``ops.py``).
Reported times are scaled to a reference host speed by probes taken
between operations (see ``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead runs one
pass over the batch, each operation once plain and once with spans, and
reports per-layer self time (mean ms per operation), per-pass counters that
repeat exactly for a seed, and the tracing overhead. ``--workload all`` runs
each workload in its own process and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run files go under
``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import PIN_DIGITS
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench"
WORKLOADS = ("sim-search", "seq-search", "oracle-checks", "cli-small")
SETUP_REPEATS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span whose self time it reports, or None for a counter)
PER_LAYER = {
    "cli.solve_ms": ("ms", "cli.solve"),
    "cli.replay_ms": ("ms", "cli.replay"),
    "cli.invocations": ("count", None),
    "serialize.parse_ms": ("ms", "serialize.parse"),
    "serialize.emit_ms": ("ms", "serialize.emit"),
    "serialize.parses": ("count", None),
    "serialize.emit_bytes": ("bytes", None),
    "solvers.solve_ms": ("ms", "solvers.solve"),
    "solvers.seeds_tried": ("count", None),
    "solvers.states_expanded": ("count", None),
    "solvers.states_per_s": ("1/s", None),
    "solvers.cap_hits": ("count", None),
    "solvers.verdict_feasible": ("count", None),
    "solvers.verdict_infeasible": ("count", None),
    "dynamics.replay_ms": ("ms", "dynamics.replay"),
    "dynamics.replay_steps": ("count", None),
    "dynamics.replay_failures": ("count", None),
    "verification.check_ms": ("ms", "verification.check"),
    "verification.trials": ("count", None),
    "verification.skipped": ("count", None),
    "verification.violations": ("count", None),
    "cliques.analysis_ms": ("ms", "cliques.analysis"),
    "cliques.seeds_tried": ("count", None),
    "cliques.rule_decided": ("count", None),
    "cliques.disagreements": ("count", None),
    "reductions.check_ms": ("ms", "reductions.check"),
    "reductions.agree": ("count", None),
    "reductions.disagree": ("count", None),
    "bench.ops": ("count", None),
    "bench.trace_overhead_frac": ("ratio", None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="snapshot-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="keep only the first N operations of the batch")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")
    return args


def import_package() -> None:
    """Import snapshot_lab from the checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import snapshot_lab
    import snapshot_lab.cli  # noqa: F401

    if not Path(snapshot_lab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"snapshot_lab was found at {snapshot_lab.__file__}, not in the checkout")


def load_pins(workload: str, seed: int):
    """Pinned chunk digests of the seed's batch, or None if not pinned."""
    path = HERE / "expected" / f"{workload}.json"
    digests = json.loads(path.read_text(encoding="utf-8")).get(str(seed)) if path.exists() else None
    if digests is None:
        return None
    return [digests[i : i + PIN_DIGITS] for i in range(0, len(digests), PIN_DIGITS)]


def quantile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def measure(runner, seconds: float, speed: HostSpeed) -> tuple[dict, str]:
    """Go round the batch until the operations have taken ``seconds`` and
    at least one whole pass is done. Every latency is taken to the reference
    speed by the host-speed probes around it (see ``hostspeed.py``), and the
    metrics cover the whole passes only, so that every run measures the
    same operations however fast the host is."""
    size = len(runner.batch)
    passed: list[bool] = []
    speed.probe()
    timed = 0.0
    while timed < seconds or runner.attempted < max(size, 2):  # two samples make a quantile
        failed = runner.failed
        elapsed = runner.run(runner.attempted % size)
        speed.record(elapsed)
        passed.append(runner.failed == failed)
        timed += elapsed
    whole = runner.attempted // size * size
    latencies = speed.close()[:whole]
    metrics = {
        "ops_per_s": sum(passed[:whole]) / sum(latencies),
        "op_p50_ms": quantile_ms(latencies, 50),
        "op_p90_ms": quantile_ms(latencies, 90),
    }
    basis = (f"{whole // size} whole passes, {whole} latency samples; {len(speed.probes)} host-speed "
             f"probes, median {statistics.median(speed.probes) * 1000:.3f} ms")
    return metrics, basis


def import_seconds(speed: HostSpeed) -> float:
    """Import the package between two probes; seconds at the reference speed."""
    speed.probe()
    start = perf_counter()
    import_package()
    speed.record(perf_counter() - start)
    return sum(speed.close())


def trace_pass(runner) -> dict:
    plain = traced = 0.0
    for index in range(len(runner.batch)):
        plain += runner.run(index)
        traced += runner.run(index, traced=True)
    own, inclusive, count = runner.tracer.totals()
    ops = len(runner.batch)
    metrics = {}
    for name, (_, span) in PER_LAYER.items():
        metrics[name] = own.get(span, 0.0) * 1000 / ops if span else runner.counts.get(name, 0)
    solving = inclusive.get("solvers.solve", 0.0)
    metrics["solvers.states_per_s"] = runner.counts["solvers.states_expanded"] / solving if solving else 0.0
    metrics["serialize.parses"] = count.get("serialize.parse", 0)
    metrics["bench.ops"] = ops
    metrics["bench.trace_overhead_frac"] = traced / plain - 1
    return metrics


def run_workload(args) -> int:
    speed = HostSpeed()
    try:
        import_s = import_seconds(speed)
    except ImportError as exc:
        print(f"error: cannot import snapshot_lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import inputs
    from ops import Runner
    from spans import Tracer

    workdir = RUN_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            batch, seconds = speed.time_steps(inputs.iter_batch(args.workload, args.seed, workdir, args.ops))
            setup.append(seconds)
        whole = len(batch) == inputs.SIZES[args.workload]  # pins cover whole batches only
        runner = Runner(batch, load_pins(args.workload, args.seed) if whole else None, Tracer())
        if args.trace:
            metrics = trace_pass(runner)
            runner.tracer.write(RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            basis = "one pass, each operation once plain and once traced"
        else:
            metrics, basis = measure(runner, args.seconds, speed)
            metrics["setup_s"] = import_s + statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pinned = "pinned" if runner.pins is not None else "not pinned"
    print(f"{args.workload} seed {args.seed}: {runner.attempted} operations timed, "
          f"{runner.failed} failed, batch of {len(batch)} ({pinned}); {basis}")
    for name in units:
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {runner.failed / runner.attempted:>14.6g} fraction")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
