"""Wire formats: the instance and certificate JSON documents, trace JSON
lines, canonical dumps.

Canonical form is what makes outputs diffable: sorted keys, sorted id lists,
edges as i<j pairs in lexicographic order, two-space indent, trailing newline.

The certificate document has its one home here, in both directions:
``certificate_to_dict`` writes what ``solve`` emits, and
``certificate_from_dict`` reads it back with every shape rule (a list of
distinct in-range seed ids, an ``int`` match time, or ``[node, "on"|"off"]``
moves with an ``int`` match prefix that defaults to the whole ordering).
Whether a well-formed certificate proves its instance is
``verification.check_certificate``'s question.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .model import (
    Certificate,
    DynamicsMode,
    Graph,
    InvalidInstanceError,
    Move,
    SequentialWitness,
    SimultaneousWitness,
    SnapshotInstance,
    is_int,
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


def label_list(raw) -> list[str]:
    """The 'labels' field of an instance or target-set document: a list of
    strings, never coerced."""
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise InvalidInstanceError(["'labels' must be a list of strings"])
    return raw


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
    labels = label_list(data["labels"])
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


def seed_ids(ids: list, n: int) -> frozenset[int]:
    """The seed of a list of node ids, each an ``int`` in 0..n-1."""
    outside = [v for v in ids if not is_int(v) or not 0 <= v < n]
    if outside:
        raise InvalidInstanceError([f"seed ids {outside} outside 0..{n - 1}"])
    return frozenset(ids)


def certificate_to_dict(certificate: Certificate) -> dict:
    """The seed and witness fields of the certificate document."""
    witness = certificate.witness
    if isinstance(witness, SimultaneousWitness):
        wire = {"type": "simultaneous", "match_time": witness.match_time}
    else:
        wire = {
            "type": "sequential",
            "ordering": [m.to_wire() for m in witness.ordering],
            "match_prefix": witness.match_prefix,
        }
    return {"seed": sorted(certificate.seed), "witness": wire}


def _witness_int(witness: dict, key: str, default=None) -> int:
    value = witness.get(key, default)
    if not is_int(value):
        raise InvalidInstanceError([f"certificate {key!r} must be an integer, got {value!r}"])
    return value


def certificate_from_dict(data, n: int) -> Certificate:
    """Parse a certificate document for an instance on n nodes, checked for
    shape only; other fields (the verdict, the stats) are ignored. Raises
    ``InvalidInstanceError`` or ``ValueError`` on any JSON value that is not
    a certificate."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(["certificate must be a JSON object"])
    seed, witness = data.get("seed", []), data.get("witness", {})
    if not isinstance(seed, list):
        raise InvalidInstanceError(["certificate 'seed' must be a list of node ids"])
    if not isinstance(witness, dict):
        raise InvalidInstanceError(["certificate 'witness' must be an object"])
    seed_set = seed_ids(seed, n)
    if len(seed_set) != len(seed):
        raise InvalidInstanceError([f"certificate seed {seed} repeats a node id"])
    kind = witness.get("type")
    if kind == "simultaneous":
        return Certificate(seed_set, SimultaneousWitness(_witness_int(witness, "match_time")))
    if kind != "sequential":
        raise InvalidInstanceError([f"certificate witness type {kind!r} unknown"])
    try:
        moves = tuple(Move.from_wire(m) for m in witness.get("ordering", []))
    except TypeError:
        raise InvalidInstanceError(
            ["certificate 'ordering' must be a list of [node, 'on'|'off'] pairs"]
        ) from None
    prefix = _witness_int(witness, "match_prefix", len(moves))
    for move in moves:
        if not 0 <= move.node < n:
            raise InvalidInstanceError([f"ordering selects node {move.node}, outside 0..{n - 1}"])
    return Certificate(seed_set, SequentialWitness(moves, prefix))


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
