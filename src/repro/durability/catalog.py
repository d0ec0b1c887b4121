"""The proxy's durable metadata catalog: typed WAL records and replay.

CryptDB's proxy is the single stateful trust root -- anonymised schema,
onion levels, JOIN-ADJ key state, HOM group layouts and the plan-cache
schema version all live in proxy memory (paper §3) while the ciphertexts
persist in the DBMS.  The catalog writes a record through the
:class:`~repro.durability.wal.WriteAheadLog` at every metadata mutation so
a restarted proxy can rebuild exactly the metadata the stored ciphertexts
were written under.  **No key material is ever logged**: every column key
re-derives deterministically from the master key, and JOIN-ADJ state is
logged only as the public group structure (which column keys off which
base), never as the scalars themselves.

Record types (``"t"`` field):

``create_table``   application layout + anonymised name + table counter
``drop_table``     table forgotten (anonymised twin dropped)
``meta``           state-setting diff: onion levels, HOM staleness, OPE join
                   groups, JOIN-ADJ group bases, shard routing, version
``intent``         two-phase onion adjustment: the re-runnable operations,
                   the metadata that takes effect on commit, and a canary
                   ciphertext (one sampled pre-value plus its expected
                   post-adjustment value) for in-doubt resolution
``commit``         the adjustment's backend transaction committed
``abort``          the adjustment failed and was rolled back cleanly
``snapshot``       compacted full state; replay restarts from it

All records are *state-setting*, so replay is duplicate-delivery
idempotent: a record delivered twice in a row applies exactly once
(property-tested), which is what recovery after a torn tail relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.durability.wal import WriteAheadLog
from repro.errors import CatalogError

#: Default compaction interval: once this many records follow the last
#: snapshot, the next sync barrier compacts the log.
_SNAPSHOT_EVERY_DEFAULT = 512


# ---------------------------------------------------------------------------
# JSON-safe value tagging (canary ciphertexts are bytes or big ints)
# ---------------------------------------------------------------------------
def tag_value(value: Any) -> Any:
    """Encode a canary/stored value for JSON (bytes and ints round-trip)."""
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, (float, str)):
        return {"v": value}
    if isinstance(value, int):
        return {"i": value}
    if isinstance(value, (bytes, bytearray)):
        return {"b": bytes(value).hex()}
    raise CatalogError(f"cannot log a value of type {type(value).__name__}")


def untag_value(tagged: Any) -> Any:
    if tagged is None:
        return None
    if "b" in tagged:
        return bytes.fromhex(tagged["b"])
    if "i" in tagged:
        return tagged["i"]
    return tagged["v"]


# ---------------------------------------------------------------------------
# replayed state
# ---------------------------------------------------------------------------
@dataclass
class CatalogState:
    """Everything a restarted proxy needs, rebuilt by :func:`replay_records`."""

    #: ``create_table`` payloads of live tables, in creation order.
    tables: list[dict] = field(default_factory=list)
    table_counter: int = 0
    version: int = 0
    #: ``(table, column, onion-value) -> scheme-value`` overrides.
    levels: dict = field(default_factory=dict)
    #: ``(table, column) -> bool``
    hom_stale: dict = field(default_factory=dict)
    #: ``(table, column) -> declared OPE range-join group``
    ope_groups: dict = field(default_factory=dict)
    #: ``(table, column) -> (base table, base column)``.  The catalog never
    #: stores JOIN-ADJ scalars -- they are key material.  A column's
    #: effective scalar is always its group base's *initial* scalar (bases
    #: only ever move to the merged group's lexicographic minimum, whose own
    #: key was never re-scaled), so the public group structure alone lets a
    #: recovered proxy re-derive every effective key from the master key.
    join_bases: dict = field(default_factory=dict)
    #: ``anon table -> (anon shard-key column, mode)``.
    routing: dict = field(default_factory=dict)
    #: Intents with neither commit nor abort: must be resolved on recovery.
    in_doubt: dict = field(default_factory=dict)
    #: Intent ids already resolved (commit or abort), for idempotent replay.
    resolved: set = field(default_factory=set)
    records_replayed: int = 0

    def table_payload(self, name: str) -> Optional[dict]:
        for payload in self.tables:
            if payload["table"] == name:
                return payload
        return None

    def apply_meta(self, meta: dict) -> None:
        """Fold one state-setting ``meta`` payload (or intent meta) in."""
        for table, column, onion, level in meta.get("levels", ()):
            self.levels[(table, column, onion)] = level
        for table, column, stale in meta.get("hom_stale", ()):
            self.hom_stale[(table, column)] = bool(stale)
        for table, column, group in meta.get("ope_groups", ()):
            self.ope_groups[(table, column)] = group
        joins = meta.get("joins") or {}
        for table, column, base_table, base_column in joins.get("bases", ()):
            self.join_bases[(table, column)] = (base_table, base_column)
        for anon_table, anon_column, mode in meta.get("routing", ()):
            self.routing[anon_table] = (anon_column, mode)
        if "version" in meta:
            self.version = int(meta["version"])

    def _drop_table_state(self, name: str, anon: Optional[str]) -> None:
        self.tables = [payload for payload in self.tables if payload["table"] != name]
        for mapping in (self.levels, self.hom_stale, self.ope_groups, self.join_bases):
            for key in [k for k in mapping if k[0] == name]:
                del mapping[key]
        self.routing.pop(anon, None)

    def snapshot_payload(self) -> dict:
        """The ``snapshot`` record body capturing this whole state."""
        return {
            "t": "snapshot",
            "tables": [dict(payload) for payload in self.tables],
            "counter": self.table_counter,
            "version": self.version,
            "levels": [[t, c, o, lvl] for (t, c, o), lvl in sorted(self.levels.items())],
            "hom_stale": [[t, c, flag] for (t, c), flag in sorted(self.hom_stale.items())],
            "ope_groups": [[t, c, g] for (t, c), g in sorted(self.ope_groups.items())],
            "joins": {
                "bases": [[t, c, bt, bc] for (t, c), (bt, bc) in sorted(self.join_bases.items())],
            },
            "routing": [[t, col, mode] for t, (col, mode) in sorted(self.routing.items())],
            "resolved": sorted(self.resolved),
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "CatalogState":
        state = cls()
        state.tables = [dict(entry) for entry in payload.get("tables", ())]
        state.table_counter = int(payload.get("counter", 0))
        state.apply_meta(payload)
        state.version = int(payload.get("version", 0))
        state.resolved = set(payload.get("resolved", ()))
        return state


def replay_records(records: list[dict]) -> CatalogState:
    """Fold a record sequence into a :class:`CatalogState` (idempotently)."""
    state = CatalogState()
    for payload in records:
        kind = payload.get("t")
        if kind == "snapshot":
            replayed = state.records_replayed
            state = CatalogState.from_snapshot(payload)
            state.records_replayed = replayed
        elif kind == "create_table":
            if state.table_payload(payload["table"]) is None:
                state.tables.append(dict(payload))
            state.table_counter = max(state.table_counter, int(payload["counter"]))
            state.version = int(payload["version"])
        elif kind == "drop_table":
            state._drop_table_state(payload["table"], payload.get("anon"))
            state.version = int(payload["version"])
        elif kind == "meta":
            state.apply_meta(payload)
        elif kind == "intent":
            if payload["id"] not in state.resolved:
                state.in_doubt[payload["id"]] = dict(payload)
        elif kind == "commit":
            intent = state.in_doubt.pop(payload["id"], None)
            if intent is not None:
                state.apply_meta(intent.get("meta") or {})
                state.resolved.add(payload["id"])
        elif kind == "abort":
            state.in_doubt.pop(payload["id"], None)
            state.resolved.add(payload["id"])
        else:
            raise CatalogError(f"unknown catalog record type {kind!r}")
        state.records_replayed += 1
    return state


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------
class MetadataCatalog:
    """Write-through durable catalog over one :class:`WriteAheadLog` file.

    ``snapshot_every`` bounds WAL growth: once that many records accumulate
    past the last snapshot, the next sync barrier compacts the log to one
    snapshot record via an atomic rename -- never while an intent is
    pending, so no in-doubt intent is ever folded away.  The snapshot body
    comes from :attr:`snapshot_source`, a zero-argument callable installed
    on attach (``recovery.snapshot_record`` over the live proxy).
    """

    def __init__(self, path: str, snapshot_every: int = _SNAPSHOT_EVERY_DEFAULT):
        self.path = path
        self.wal = WriteAheadLog(path)
        self.snapshot_every = max(int(snapshot_every), 2)
        self.snapshot_source = None  # set by recovery.attach after recovery
        self._intent_counter = 0
        self._pending_intents: dict[int, dict] = {}
        self._records_since_snapshot = 0
        self._closed = False
        self.state = replay_records(self.wal.load())
        self._records_since_snapshot = self.state.records_replayed
        self._intent_counter = self._next_intent_id(self.state)

    @staticmethod
    def _next_intent_id(state: CatalogState) -> int:
        used = set(state.resolved) | set(state.in_doubt)
        return (max(used) + 1) if used else 1

    @property
    def has_history(self) -> bool:
        """True when the log already describes a schema (restart path)."""
        return bool(self.state.tables or self.state.records_replayed)

    # -- appends -----------------------------------------------------------
    def append(self, payload: dict, sync: bool = True) -> None:
        """Append one record; ``sync=True`` places a group-commit barrier.

        Records whose effects the backend is about to observe (DDL, intents)
        must sync before that effect runs -- that is the write-*ahead*
        invariant.  Pure-metadata records may batch until the next barrier.
        """
        if self._closed:
            raise CatalogError("catalog is closed")
        self.wal.append(payload)
        self._records_since_snapshot += 1
        if sync:
            self.wal.sync()
            self.maybe_compact()

    def sync(self) -> None:
        self.wal.sync()

    # -- two-phase onion adjustment ----------------------------------------
    def begin_adjustment(self, ops: list, meta: dict, canary: Optional[dict]) -> int:
        """Log a durable INTENT; returns the id for commit/abort."""
        self._intent_counter += 1
        intent_id = self._intent_counter
        payload = {
            "t": "intent",
            "id": intent_id,
            "ops": ops,
            "meta": meta,
            "canary": canary,
        }
        self._pending_intents[intent_id] = payload
        self.append(payload, sync=True)
        return intent_id

    def commit_adjustment(self, intent_id: int) -> None:
        self._pending_intents.pop(intent_id, None)
        intent = self.state.in_doubt.pop(intent_id, None)
        if intent is not None:
            # A load-time in-doubt intent resolved by recovery: fold its
            # metadata in so the replayed state matches what replaying the
            # log (now ending in this commit record) would produce.
            self.state.apply_meta(intent.get("meta") or {})
        self.state.resolved.add(intent_id)
        self.append({"t": "commit", "id": intent_id}, sync=True)

    def abort_adjustment(self, intent_id: int) -> None:
        self._pending_intents.pop(intent_id, None)
        self.state.in_doubt.pop(intent_id, None)
        self.state.resolved.add(intent_id)
        self.append({"t": "abort", "id": intent_id}, sync=True)

    # -- compaction --------------------------------------------------------
    def maybe_compact(self) -> None:
        if (
            self.snapshot_source is None
            or self._records_since_snapshot < self.snapshot_every
            or self._pending_intents
            or self.wal.pending
        ):
            # Never compact with an adjustment in flight or unsynced records:
            # the snapshot must describe a quiescent, durable state.
            return
        self.compact()

    def compact(self) -> None:
        """Replace the WAL with one snapshot record (atomic rename)."""
        snapshot = self.snapshot_source()
        self.wal.replace_with([snapshot])
        self._records_since_snapshot = 1
        self.state = CatalogState.from_snapshot(snapshot)
        self.state.records_replayed = 1

    # -- lifecycle ---------------------------------------------------------
    def flush(self) -> None:
        """Flush and fsync everything buffered (the close-path barrier)."""
        self.wal.sync()

    def close(self) -> None:
        if self._closed:
            return
        # Flush before marking closed, so a failed fsync surfaces to the
        # caller and leaves the catalog open; the proxy detaches its
        # reference before calling close(), so it never closes twice.
        self.wal.close()
        self._closed = True

    def abandon(self) -> None:
        """Simulate process death (test harness): lose unsynced records."""
        self.wal.abandon()
        self._closed = True
