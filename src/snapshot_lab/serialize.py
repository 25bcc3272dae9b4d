"""Wire formats: the instance and certificate JSON documents, trace JSON
lines, canonical dumps.

Canonical form is what makes outputs diffable: sorted keys, sorted id lists,
edges as i<j pairs in lexicographic order, two-space indent, trailing newline.

``read_document`` is the one loader of every document file the CLI is given
(instance, target set, certificate): every ``InvalidInstanceError`` it
raises, "not valid JSON" included, names the file. The instance and
target-set documents share one field rule, ``graph_fields_from_dict``, and
one writer of their four shared fields, ``graph_fields_to_dict``: every
missing field and every violation of the graph, thresholds, snapshot and
budget is listed at once.

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
    seed_ids,
    value_violations,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mode_to_dict(mode: DynamicsMode) -> dict:
    return {"order": mode.order, "monotone": mode.monotone}


INSTANCE_FIELDS = ("labels", "edges", "thresholds", "snapshot", "budget")
TARGET_SET_FIELDS = ("labels", "edges", "thresholds", "budget")


def graph_fields_to_dict(source) -> dict:
    """The four fields an instance and a target-set document share."""
    return {
        "labels": list(source.graph.labels),
        "edges": [list(e) for e in sorted(source.graph.edges())],
        "thresholds": list(source.thresholds),
        "budget": source.budget,
    }


def graph_fields_from_dict(data, kind: str, fields: tuple[str, ...], make, tail=None):
    """The field rule of the instance and target-set documents: returns
    ``make(graph, *values, *extra)``, the values being those of ``fields``
    after 'labels' and 'edges'. ``tail(data)`` gives ``extra`` and its own
    violations (an instance's mode); with no tail, keys outside ``fields``
    are violations. Every missing field is listed at once, and once the
    fields have their shapes, the graph's violations are listed with those
    of the thresholds, snapshot and budget.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError([f"{kind} document must be a JSON object"])
    violations = [f"missing field {key!r}" for key in fields if key not in data]
    if tail is None:
        extra, problems = (), [f"unknown field {key!r}" for key in data if key not in fields]
    else:
        extra, problems = tail(data)
    if violations:
        raise InvalidInstanceError(violations + problems)
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        violations.append("'labels' must be a list of strings")
    for key in ("thresholds", "snapshot"):
        if key in fields and not isinstance(data[key], list):
            violations.append(f"{key!r} must be a list of integers")
    if not violations:
        try:
            graph = Graph.from_edges(len(labels), data["edges"], labels)
        except InvalidInstanceError as exc:
            violations = exc.violations
        except (TypeError, ValueError):
            violations = ["'edges' must be a list of [i, j] pairs"]
        else:
            if not problems:
                return make(graph, *[data[key] for key in fields[2:]], *extra)
        snapshot = data["snapshot"] if "snapshot" in fields else ()
        violations += value_violations(len(labels), data["thresholds"], snapshot, data["budget"])
    raise InvalidInstanceError(violations + problems)


def _document_mode(data: dict, mode_override: Optional[DynamicsMode]):
    """An instance document's mode and its violations, as the tail of
    ``graph_fields_from_dict``: its 'dynamics', or ``mode_override`` when it
    has none."""
    dynamics = data.get("dynamics")
    if dynamics is None:
        if mode_override is None:
            return (), ["missing field 'dynamics' (and no mode override)"]
        return (mode_override,), []
    if mode_override is not None:
        return (), ["mode override given but the document already fixes 'dynamics'"]
    if not isinstance(dynamics, dict):
        return (), ["'dynamics' must be an object"]
    missing = [f"'dynamics' missing field {key!r}" for key in ("order", "monotone") if key not in dynamics]
    if missing or not isinstance(dynamics["monotone"], bool):
        return (), missing or ["'dynamics.monotone' must be a boolean"]
    try:
        return (DynamicsMode(dynamics["order"], dynamics["monotone"]),), []
    except ValueError as exc:  # an unknown order
        return (), [str(exc)]


def instance_to_dict(instance: SnapshotInstance) -> dict:
    doc = graph_fields_to_dict(instance)
    return dict(doc, snapshot=sorted(instance.snapshot), dynamics=mode_to_dict(instance.mode))


def instance_from_dict(data: dict, mode_override: Optional[DynamicsMode] = None) -> SnapshotInstance:
    """Parse and validate the documented instance document; keys outside its
    fields are ignored (violation files carry ``witnesses``).
    ``mode_override`` is legal only when the document omits "dynamics".
    """
    return graph_fields_from_dict(
        data, "instance", INSTANCE_FIELDS, SnapshotInstance, lambda doc: _document_mode(doc, mode_override)
    )


def read_document(path, reader, *args):
    """``reader(document, *args)`` on the JSON document in the file at
    ``path``: the one loader of every document file the CLI is given. Every
    ``InvalidInstanceError`` it raises, "not valid JSON" included, names
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return reader(json.load(fh), *args)
        except UnicodeDecodeError as exc:
            violations = [f"not valid UTF-8 ({exc.reason} at byte {exc.start})"]
        except json.JSONDecodeError as exc:
            violations = [f"not valid JSON (line {exc.lineno}: {exc.msg})"]
        except RecursionError:
            violations = ["not valid JSON (nested too deeply)"]
        except InvalidInstanceError as exc:
            violations = exc.violations
    raise InvalidInstanceError([f"{path}: {v}" for v in violations])


def load_instance_file(path, mode_override: Optional[DynamicsMode] = None) -> SnapshotInstance:
    """The instance document at ``path``; every ``InvalidInstanceError`` it
    raises names the file."""
    return read_document(path, instance_from_dict, mode_override)


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
    shape only. Other fields (the verdict, the stats) are ignored, except
    that a document with no witness is rejected naming its verdict; a
    missing seed is the empty seed. Raises ``InvalidInstanceError`` or
    ``ValueError`` on any JSON value that is not a certificate."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(["certificate must be a JSON object"])
    if "witness" not in data:
        verdict = f" (verdict {data['verdict']!r})" if "verdict" in data else ""
        raise InvalidInstanceError([f"certificate has no witness{verdict}"])
    seed, witness = data.get("seed", []), data["witness"]
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
    ordering = witness.get("ordering", [])
    if not isinstance(ordering, list) or any(
        not isinstance(m, list) or len(m) != 2 for m in ordering
    ):
        raise InvalidInstanceError(
            ["certificate 'ordering' must be a list of [node, 'on'|'off'] pairs"]
        )
    seed_ids([node for node, _ in ordering], n, "ordering")
    # from a list, as in dynamics._node_table
    moves = tuple([*map(Move.from_wire, ordering)])
    prefix = _witness_int(witness, "match_prefix", len(moves))
    return Certificate(seed_set, SequentialWitness(moves, prefix))


def document_digest(doc: dict) -> str:
    """Stable 12-hex-char content digest of a canonical document."""
    return hashlib.sha256(compact_json(doc).encode("utf-8")).hexdigest()[:12]


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
