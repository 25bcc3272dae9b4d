"""Wire formats: the instance JSON document, trace JSON lines, canonical dumps.

Canonical form is what makes outputs diffable: sorted keys, sorted id lists,
edges as i<j pairs in lexicographic order, two-space indent, trailing newline.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .model import (
    DynamicsMode,
    Graph,
    InvalidInstanceError,
    SnapshotInstance,
    validate_instance,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mode_to_dict(mode: DynamicsMode) -> dict:
    return {"order": mode.order, "monotone": mode.monotone}


def mode_from_dict(data: dict) -> DynamicsMode:
    if not isinstance(data, dict):
        raise InvalidInstanceError(["'dynamics' must be an object"])
    missing = [key for key in ("order", "monotone") if key not in data]
    if missing:
        raise InvalidInstanceError([f"'dynamics' missing field {k!r}" for k in missing])
    if not isinstance(data["monotone"], bool):
        raise InvalidInstanceError(["'dynamics.monotone' must be a boolean"])
    return DynamicsMode(order=data["order"], monotone=data["monotone"])


def edge_pairs(raw) -> list[tuple[int, int]]:
    """The [i, j] pairs of an 'edges' field. ``Graph.from_edges`` checks the
    endpoints: booleans, strings and floats are rejected, not coerced."""
    try:
        return [(u, v) for u, v in raw]
    except (TypeError, ValueError):
        raise InvalidInstanceError(["'edges' must be a list of [i, j] pairs"]) from None


def instance_to_dict(instance: SnapshotInstance) -> dict:
    return {
        "labels": list(instance.graph.labels),
        "edges": [list(e) for e in sorted(instance.graph.edges())],
        "thresholds": list(instance.thresholds),
        "snapshot": sorted(instance.snapshot),
        "budget": instance.budget,
        "dynamics": mode_to_dict(instance.mode),
    }


def instance_from_dict(
    data: dict, mode_override: Optional[DynamicsMode] = None
) -> SnapshotInstance:
    """Parse and validate the documented instance document.

    ``mode_override`` is legal only when the document omits "dynamics".
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(["instance document must be a JSON object"])
    for key in ("labels", "edges", "thresholds", "snapshot", "budget"):
        if key not in data:
            raise InvalidInstanceError([f"missing field {key!r}"])
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InvalidInstanceError(["'labels' must be a list of strings"])
    n = len(labels)
    graph = Graph.from_edges(n, edge_pairs(data["edges"]), labels=labels)
    if "dynamics" in data and data["dynamics"] is not None:
        if mode_override is not None:
            raise InvalidInstanceError(
                ["mode override given but the document already fixes 'dynamics'"]
            )
        mode = mode_from_dict(data["dynamics"])
    elif mode_override is not None:
        mode = mode_override
    else:
        raise InvalidInstanceError(["missing field 'dynamics' (and no mode override)"])
    for key in ("thresholds", "snapshot"):
        if not isinstance(data[key], list):
            raise InvalidInstanceError([f"{key!r} must be a list of integers"])
    return validate_instance(
        graph=graph,
        thresholds=data["thresholds"],
        snapshot=data["snapshot"],
        budget=data["budget"],
        mode=mode,
    )


def load_instance_file(
    path, mode_override: Optional[DynamicsMode] = None
) -> SnapshotInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(
                [f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})"]
            ) from None
    return instance_from_dict(data, mode_override=mode_override)


def document_digest(doc: dict) -> str:
    """Stable 12-hex-char content digest of a canonical document."""
    return hashlib.sha256(compact_json(doc).encode("utf-8")).hexdigest()[:12]


def instance_digest(instance: SnapshotInstance) -> str:
    """Stable content digest of the canonical instance document."""
    return document_digest(instance_to_dict(instance))


def trace_jsonl(result) -> str:
    """Trace emission format: one JSON line per step plus a footer.

    The time-0 line carries ``"move": null`` (the seed configuration);
    sequential steps carry {"node": id, "to": "on"|"off"}; simultaneous
    sweeps carry the string "sim".
    """
    trace = result.trace
    lines = [
        compact_json({"t": 0, "move": None, "active": sorted(trace.seed)})
    ]
    for step in trace.steps:
        if step.move is None:
            move = "sim"
        else:
            move = {"node": step.move.node, "to": "on" if step.move.activate else "off"}
        lines.append(
            compact_json(
                {"t": step.time, "move": move, "active": sorted(step.active)}
            )
        )
    lines.append(
        compact_json(
            {"match_time": trace.match_time, "termination": result.termination.kind}
        )
    )
    return "\n".join(lines) + "\n"
