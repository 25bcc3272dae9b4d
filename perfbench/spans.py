"""In-memory spans for the traced run.

A span is (name, start, end, parent, operation id). Spans are opened only by
this benchmark's own code, around the calls it makes into the package and,
for the CLI workload, around the names ``snapshot_lab.cli`` calls into other
modules, which are wrapped for the length of one traced call. A layer's self
time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Names that snapshot_lab.cli imports from other modules, and the layer each
# belongs to. Names the module no longer has are skipped.
CLI_CALLS = {
    "load_instance_file": "serialize.parse",
    "canonical_json": "serialize.emit",
    "trace_jsonl": "serialize.emit",
    "solve": "solvers.solve",
    "run_simultaneous": "dynamics.replay",
    "apply_ordering": "dynamics.replay",
}


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else None, tracer.op])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else nullcontext()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def cli_calls(self):
        """Wrap the cross-module calls of ``snapshot_lab.cli`` in spans."""
        from snapshot_lab import cli
        from snapshot_lab.solvers import SolveOutcome

        saved = {name: getattr(cli, name) for name in CLI_CALLS if hasattr(cli, name)}
        to_dict = SolveOutcome.to_dict
        for name, fn in saved.items():
            setattr(cli, name, self.wrap(fn, CLI_CALLS[name]))
        SolveOutcome.to_dict = self.wrap(to_dict, "serialize.emit")
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
            SolveOutcome.to_dict = to_dict

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self seconds, inclusive seconds and span count."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            inclusive[name] += end - start
            count[name] += 1
        return own, inclusive, count

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
