"""The proxy's one metadata image: the live state and the log never disagree.

``recovery.capture`` reads live metadata into a ``CatalogState``;
``replay_records`` folds the write-ahead log into one.  Every write-through
point logs the difference between two captures, so after any statement the
two images must agree -- including across compactions, DROP TABLE and a
restart of a sharded proxy.
"""

from __future__ import annotations

import os

import pytest

from repro.api.connection import Connection
from repro.api.sqlite_backend import SQLiteBackend
from repro.core.onion import ONION_LAYERS, Onion
from repro.core.proxy import CryptDBProxy
from repro.crypto.keys import MasterKey
from repro.durability import MetadataCatalog, WriteAheadLog, recovery, replay_records
from repro.shard.backend import ShardedBackend
from repro.testing.generator import GeneratedStatement, StatementGenerator
from repro.testing.oracle import run_statement

MASTER_KEY = MasterKey.from_passphrase("metadata-image-tests")


def _sharded(tmp_path, allow_existing=False):
    return ShardedBackend(
        shards=3,
        base="sqlite",
        paths=[os.fspath(tmp_path / f"shard{i}.db") for i in range(3)],
        allow_existing=allow_existing,
    )


def _proxy(db, wal_path, paillier, snapshot_every=512):
    return CryptDBProxy(
        db=db,
        master_key=MASTER_KEY,
        paillier=paillier,
        hom_precompute=0,
        catalog=MetadataCatalog(wal_path, snapshot_every=snapshot_every),
    )


def _comparable(state):
    """The restorable fields, sparse: what differs from a fresh table.

    The log records onion levels as overrides of a new table's outermost
    layers, while a live capture lists every level.
    """
    return {
        "levels": {
            key: level
            for key, level in state.levels.items()
            if level != ONION_LAYERS[Onion(key[2])][0].value
        },
        "HOM-stale columns": sorted(key for key, stale in state.hom_stale.items() if stale),
        "OPE groups": dict(state.ope_groups),
        "JOIN bases": {key: tuple(base) for key, base in state.join_bases.items() if tuple(base) != key},
        "routing": {anon: tuple(route) for anon, route in state.routing.items()},
    }


def _logged_image(wal_path):
    """Replay the log; fold in intents riding an open transaction.

    Inside an application transaction an adjustment's intent stays in doubt
    until COMMIT, while the live proxy already holds its metadata.
    """
    state = replay_records(WriteAheadLog(wal_path).load())
    for intent_id in sorted(state.in_doubt):
        state.apply_meta(state.in_doubt[intent_id].get("meta") or {})
    return state


@pytest.mark.parametrize("mode", ["packed", "sharded"])
def test_log_replays_to_the_live_image_after_every_statement(tmp_path, paillier_keypair, mode):
    wal_path = os.fspath(tmp_path / "catalog.wal")
    if mode == "sharded":
        db = _sharded(tmp_path)
    else:
        db = SQLiteBackend(path=os.fspath(tmp_path / "primary.db"))
    proxy = _proxy(db, wal_path, paillier_keypair, snapshot_every=6)
    conn = Connection(proxy, owns_backend=True, owns_proxy=True)
    stream = StatementGenerator(20110033, tables=2).generate_stream(120) + [
        GeneratedStatement("CREATE TABLE extra (id INT, qty INT)", kind="ddl"),
        GeneratedStatement("SELECT id FROM extra WHERE qty > 3"),
        GeneratedStatement("DROP TABLE extra", kind="ddl"),
    ]
    snapshots = 0
    try:
        for index, statement in enumerate(stream):
            run_statement(conn, statement)
            records = WriteAheadLog(wal_path).load()
            snapshots = max(snapshots, sum(r["t"] == "snapshot" for r in records))
            assert _comparable(_logged_image(wal_path)) == _comparable(
                recovery.capture(proxy)
            ), f"statement {index}: {statement.sql}"
    finally:
        conn.close()
    assert snapshots, "the stream should compact the log at least once"


def test_dropped_table_routing_stays_dropped_after_restart(tmp_path, paillier_keypair):
    wal_path = os.fspath(tmp_path / "catalog.wal")
    proxy = _proxy(_sharded(tmp_path), wal_path, paillier_keypair)
    proxy.execute("CREATE TABLE a (id INT, v INT)")
    proxy.execute("CREATE TABLE b (id INT, v INT)")
    proxy.execute("INSERT INTO b (id, v) VALUES (1, 10)")
    proxy.execute("DROP TABLE a")
    live_routing = proxy.db.routing_catalog()
    assert len(live_routing) == 1
    proxy.close()
    proxy.db.close()

    restarted = _proxy(_sharded(tmp_path, allow_existing=True), wal_path, paillier_keypair)
    try:
        assert restarted.db.routing_catalog() == live_routing
        assert restarted.execute("SELECT v FROM b WHERE id = 1").rows == [(10,)]
    finally:
        restarted.close()
        restarted.db.close()


def test_declared_range_join_group_survives_restart(tmp_path, paillier_keypair):
    db_path, wal_path = os.fspath(tmp_path / "primary.db"), os.fspath(tmp_path / "catalog.wal")
    proxy = _proxy(SQLiteBackend(path=db_path), wal_path, paillier_keypair)
    proxy.execute("CREATE TABLE a (id INT, x INT)")
    proxy.execute("CREATE TABLE b (id INT, y INT)")
    proxy.declare_range_join([("a", "x"), ("b", "y")], group="xy")
    proxy.executemany("INSERT INTO a (id, x) VALUES (?, ?)", [(1, 5), (2, 20)])
    proxy.executemany("INSERT INTO b (id, y) VALUES (?, ?)", [(1, 10), (2, 30)])
    join = "SELECT a.id, b.id FROM a JOIN b ON a.x < b.y ORDER BY a.id, b.id"
    expected = [(1, 1), (1, 2), (2, 2)]
    assert proxy.execute(join).rows == expected
    proxy.close()
    proxy.db.close()

    restarted = _proxy(
        SQLiteBackend(path=db_path, allow_existing=True), wal_path, paillier_keypair
    )
    try:
        assert restarted.schema.column("b", "y").ope_join_group == "xy"
        assert restarted.execute(join).rows == expected
    finally:
        restarted.close()
        restarted.db.close()
