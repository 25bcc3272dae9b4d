"""Reference dynamics and the output gate, written apart from the package.

Nothing here imports the solver or the engine: reachable snapshots are made
and certificates are replayed with the definitions from the README, so a
defect in the package cannot vouch for its own output.

* A node's best response is *active* iff at least ``threshold`` of its
  neighbours are active.
* Simultaneous: every node best-responds at once; in monotone mode the seed
  stays active.
* Sequential: one node changes state per step; in monotone mode no node ever
  deactivates.
"""

from __future__ import annotations

import hashlib
import json
import random


def responders(adj: tuple[int, ...], thresholds: tuple[int, ...], active: int) -> int:
    """Mask of nodes whose best response to ``active`` is to be active."""
    out = 0
    for v, nbrs in enumerate(adj):
        if (nbrs & active).bit_count() >= thresholds[v]:
            out |= 1 << v
    return out


def trajectory(adj, thresholds, seed: int, monotone: bool) -> list[int]:
    """Simultaneous configurations from time 0 up to the first repeat."""
    seen = {seed}
    out = [seed]
    cur = seed
    while True:
        cur = responders(adj, thresholds, cur)
        if monotone:
            cur |= seed
        if cur in seen:
            return out
        seen.add(cur)
        out.append(cur)


def sequential_moves(adj, thresholds, active: int, monotone: bool) -> list[int]:
    """Nodes whose best response differs from their state."""
    best = responders(adj, thresholds, active)
    flips = best ^ active
    if monotone:
        flips &= ~active
    return [v for v in range(len(adj)) if flips >> v & 1]


def sequential_walk(rng: random.Random, adj, thresholds, seed: int, monotone: bool, steps: int) -> list[int]:
    """Configurations visited by a random walk of legal moves from the seed."""
    out = [seed]
    cur = seed
    for _ in range(steps):
        moves = sequential_moves(adj, thresholds, cur, monotone)
        if not moves:
            break
        cur ^= 1 << rng.choice(moves)
        out.append(cur)
    return out


def mask(nodes) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def certificate_problems(instance, cert: dict) -> list[str]:
    """Why a feasible certificate (wire format of ``solve``) does not prove
    the instance feasible; empty when it does.

    Checks the seed's ids and budget, that the witness fits the mode, and,
    by replay, the direction and legality of every move and that the stated
    match time or prefix is the first exact hit of the snapshot.
    """
    n = instance.graph.n
    adj = instance.graph.adj_masks
    thresholds = instance.thresholds
    target = mask(instance.snapshot)
    monotone = instance.mode.monotone
    seed_ids = cert.get("seed")
    if not isinstance(seed_ids, list) or not all(type(v) is int for v in seed_ids):
        return ["seed is not a list of integers"]
    if any(not 0 <= v < n for v in seed_ids):
        return [f"seed ids {seed_ids} outside 0..{n - 1}"]
    if len(set(seed_ids)) != len(seed_ids):
        return [f"seed {seed_ids} repeats a node"]
    if len(seed_ids) > instance.budget:
        return [f"seed of size {len(seed_ids)} over budget {instance.budget}"]
    seed = mask(seed_ids)
    witness = cert.get("witness") or {}
    if instance.mode.simultaneous:
        if witness.get("type") != "simultaneous":
            return [f"witness type {witness.get('type')!r} under simultaneous dynamics"]
        match_time = witness.get("match_time")
        if type(match_time) is not int or match_time < 0:
            return [f"match_time {match_time!r} is not a non-negative integer"]
        configs = trajectory(adj, thresholds, seed, monotone)
        hits = [t for t, c in enumerate(configs) if c == target]
        if not hits:
            return ["trajectory never reaches the snapshot"]
        if hits[0] != match_time:
            return [f"first match at t={hits[0]}, certificate says {match_time}"]
        return []
    if witness.get("type") != "sequential":
        return [f"witness type {witness.get('type')!r} under sequential dynamics"]
    ordering = witness.get("ordering")
    prefix = witness.get("match_prefix")
    if not isinstance(ordering, list) or type(prefix) is not int or not 0 <= prefix <= len(ordering):
        return ["ordering or match_prefix malformed"]
    cur = seed
    first = 0 if cur == target else None
    for t, move in enumerate(ordering, start=1):
        if not (isinstance(move, list) and len(move) == 2 and type(move[0]) is int and move[1] in ("on", "off")):
            return [f"move {t} is malformed: {move!r}"]
        v, state = move
        if not 0 <= v < n:
            return [f"move {t} selects node {v}, outside 0..{n - 1}"]
        bit = 1 << v
        wants_on = (adj[v] & cur).bit_count() >= thresholds[v]
        if bool(cur & bit) == wants_on or (monotone and not wants_on):
            return [f"move {t} on node {v} is not a legal state change"]
        if wants_on != (state == "on"):
            return [f"move {t} on node {v} is recorded {state!r} but turns it {'on' if wants_on else 'off'}"]
        cur ^= bit
        if first is None and cur == target:
            first = t
    if first != prefix:
        return [f"first match at prefix {first}, certificate says {prefix}"]
    return []


PIN_CHUNK = 50
PIN_DIGITS = 8


class ChunkDigests:
    """Digests of the outputs of consecutive chunks of PIN_CHUNK operations.

    Operations are fed in batch order; a chunk ends every PIN_CHUNK
    operations and at the end of the batch.
    """

    def __init__(self, batch_size: int):
        self.batch_size = batch_size
        self._hash = None

    def feed(self, index: int, payload):
        """The chunk's digest when ``index`` ends it, else None."""
        if index % PIN_CHUNK == 0:
            self._hash = hashlib.sha256()
        if self._hash is None:  # started mid-chunk
            return None
        self._hash.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n")
        if (index + 1) % PIN_CHUNK and index + 1 != self.batch_size:
            return None
        digest, self._hash = self._hash.hexdigest()[:PIN_DIGITS], None
        return digest
