"""Host-speed probes: times expressed at a fixed reference speed.

The benchmark runs on shared hosts whose speed changes by up to 1.7x from
one second to the next, as other tenants come and go. A *probe* is a fixed
pure-Python computation, timed as the fastest of three runs: simultaneous
threshold trajectories on a fixed graph (the integer bit work the engine
does) and one command line parsed by a fresh ``argparse`` parser (the
generic object, string and dict work of the CLI). Tight bit loops slow down
more than the CLI's code when the host is loaded, and the mix tracks both
kinds of workload to within a few per cent. Probes are taken between operations, every ``PROBE_EVERY_S`` of
operation time, and each time the benchmark reports is multiplied by
``REFERENCE_S / probe``, with the mean of the probes just before and just
after it (see ``HostSpeed``). So a time reads as it would on a host where
one probe takes ``REFERENCE_S``. A slower host slows the operation and the probe alike, and
that cancels; a change to the package changes the operation's time and not
the probe's, so it shows in full.

Nothing here imports the package, so the import itself can be timed
between two probes.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter

REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.05
PROBE_REPEATS = 3


def _probe_graph(n: int = 40, edges: int = 120, seed: int = 7):
    rng = random.Random(seed)
    adj = [0] * n
    for _ in range(edges):
        a, b = rng.sample(range(n), 2)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj), tuple(rng.randint(1, 3) for _ in range(n))


_ADJ, _THRESHOLDS = _probe_graph()
_SEEDS = tuple(s * 2654435761 & ((1 << len(_ADJ)) - 1) for s in range(1, 14))


def _kernel() -> int:
    """Simultaneous trajectories from fixed seeds up to the first repeat,
    then one parse of a fixed command line."""
    steps = 0
    for cur in _SEEDS:
        seen = set()
        while cur not in seen:
            seen.add(cur)
            nxt = 0
            for v, nbrs in enumerate(_ADJ):
                if (nbrs & cur).bit_count() >= _THRESHOLDS[v]:
                    nxt |= 1 << v
            cur = nxt
            steps += 1
    parser = argparse.ArgumentParser(prog="probe")
    solve = parser.add_subparsers(dest="command").add_parser("solve")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--out")
    solve.add_argument("--budget", type=int)
    args = parser.parse_args(["solve", "--instance", "a.json", "--out", "a.cert.json", "--budget", "3"])
    return steps + args.budget


class HostSpeed:
    """Probes and timed pieces of work of one run.

    Take a probe, then ``record`` the seconds of each piece of work (an
    operation, or one step of a set-up) as it ends; a probe is taken
    whenever ``PROBE_EVERY_S`` of work has built up since the last one.
    ``close`` gives the pieces at the reference speed, each scaled by the
    probes just before and just after it.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._pieces: list[tuple[float, int]] = []
        self._since = 0.0

    def probe(self) -> None:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        self.probes.append(best)
        self._since = 0.0

    def record(self, seconds: float) -> None:
        self._pieces.append((seconds, len(self.probes) - 1))
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probe()

    def close(self) -> list[float]:
        """Seconds of each piece recorded since the last ``close``, at the
        reference speed."""
        if self._pieces and self._pieces[-1][1] == len(self.probes) - 1:
            self.probe()
        probes = self.probes
        scaled = [t * REFERENCE_S * 2 / (probes[b] + probes[b + 1]) for t, b in self._pieces]
        self._pieces = []
        return scaled

    def time_steps(self, steps) -> tuple[list, float]:
        """Run an iterator to its end, timing each step: the items it
        yielded and its seconds at the reference speed."""
        self.probe()
        items = []
        while True:
            start = perf_counter()
            item = next(steps, self)
            self.record(perf_counter() - start)
            if item is self:
                return items, sum(self.close())
            items.append(item)
