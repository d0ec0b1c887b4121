"""Restart-path behaviour: ``connect(catalog=...)``, guards, close flushing.

The durable catalog exists so a proxy process can die and a new one can
pick up the same encrypted database files.  These tests drive that path
through the public API: a clean restart must restore schema, onion levels
and JOIN state from snapshot+WAL; an *un*-catalogued reattach to an
existing encrypted file must be refused loudly (the ciphertexts would be
unreadable garbage under fresh metadata); and ``Connection.close`` must
flush the catalog before the backend handle goes away -- idempotently,
even when the flush itself fails.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.api.exceptions import OperationalError
from repro.api.sqlite_backend import SQLiteBackend
from repro.crypto.keys import MasterKey
from repro.durability import MetadataCatalog, WriteAheadLog
from repro.errors import CatalogError


MASTER_KEY = MasterKey.from_passphrase("catalog-recovery-tests")


@pytest.fixture()
def connect_kwargs(paillier_keypair):
    """Keyword arguments every connection in this module shares.

    The master key and Paillier pair must be identical across restarts --
    column keys re-derive from the master key, and the catalog never logs
    key material.
    """
    return {
        "master_key": MASTER_KEY,
        "paillier": paillier_keypair,
        "hom_precompute": 0,
    }


def _populate(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE emp (id INT, name TEXT, salary INT)")
    cur.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(1, "alice", 70000), (2, "bob", 50000), (3, "carol", 90000)],
    )
    # Forces an Ord onion adjustment (RND -> OPE) that must persist.
    cur.execute("SELECT name FROM emp WHERE salary > ?", (60000,))
    return sorted(row[0] for row in cur.fetchall())


# ---------------------------------------------------------------------------
# the restart path
# ---------------------------------------------------------------------------
def test_connect_catalog_restarts_from_wal(tmp_path, connect_kwargs):
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")

    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    assert _populate(conn) == ["alice", "carol"]
    levels_before = sorted(map(tuple, conn.proxy.schema.catalog_levels()))
    conn.close()

    # A brand-new process: same files, same master key, nothing else.
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    try:
        assert sorted(map(tuple, conn.proxy.schema.catalog_levels())) == levels_before
        # The Ord onion stayed at OPE across the restart -- the recovered
        # proxy reads old rows and range-filters without re-adjusting.
        assert ("emp", "salary", "Ord", "OPE") in levels_before
        cur = conn.cursor()
        cur.execute("SELECT name FROM emp WHERE salary > ?", (60000,))
        assert sorted(row[0] for row in cur.fetchall()) == ["alice", "carol"]
        cur.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (4, "dave", 80000))
        cur.execute("SELECT COUNT(*) FROM emp")
        assert cur.fetchall() == [(4,)]
    finally:
        conn.close()


def test_restart_reads_the_packed_add_onion(tmp_path, connect_kwargs):
    """SUM, AVG and increments read the Add group cells a previous process
    wrote: the slot layout is not a per-process option, so a restart cannot
    come back with a DDL that lacks the stored Add columns."""
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    _populate(conn)
    conn.cursor().execute("UPDATE emp SET salary = salary + ? WHERE id = ?", (500, 2))
    conn.close()

    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    try:
        cur = conn.cursor()
        cur.execute("SELECT SUM(salary), AVG(salary) FROM emp")
        assert cur.fetchall() == [(210500, 210500 / 3)]
        cur.execute("UPDATE emp SET salary = salary - ? WHERE id = ?", (500, 2))
        cur.execute("SELECT id, salary FROM emp ORDER BY id")
        assert cur.fetchall() == [(1, 70000), (2, 50000), (3, 90000)]
    finally:
        conn.close()


def test_restart_requires_the_same_master_key(tmp_path, connect_kwargs):
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    _populate(conn)
    conn.close()

    wrong = dict(connect_kwargs, master_key=MasterKey.from_passphrase("not-the-one"))
    conn = repro.connect(db_path, catalog=wal_path, **wrong)
    try:
        cur = conn.cursor()
        # Column keys re-derive from the wrong master key, so decryption of
        # existing ciphertexts cannot produce the stored plaintext: the query
        # either fails outright or returns something other than the answer.
        try:
            cur.execute("SELECT name FROM emp WHERE salary > ?", (60000,))
            rows = sorted(row[0] for row in cur.fetchall())
        except conn.Error:
            rows = None
        assert rows != ["alice", "carol"]
    finally:
        conn.close()


def test_server_restart_path_uses_the_catalog(tmp_path, connect_kwargs):
    """The server builds its proxy from --catalog the same way connect does."""
    from repro.server.server import ReproServer, ServerConfig

    db_path = os.fspath(tmp_path / "srv.db")
    wal_path = os.fspath(tmp_path / "srv.wal")
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    _populate(conn)
    conn.close()

    config = ServerConfig(
        backend=db_path,
        proxy_kwargs=dict(connect_kwargs, catalog=wal_path),
    )
    server = ReproServer(config)
    try:
        assert "emp" in server.proxy.schema.tables
        rows = server.proxy.execute("SELECT name FROM emp WHERE salary > 60000").rows
        assert sorted(row[0] for row in rows) == ["alice", "carol"]
    finally:
        server.proxy.close()
        server.proxy.db.close()


# ---------------------------------------------------------------------------
# reattach guard (regression: silently re-opening an encrypted file)
# ---------------------------------------------------------------------------
def test_existing_encrypted_file_without_catalog_is_refused(tmp_path, connect_kwargs):
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    _populate(conn)
    conn.close()

    with pytest.raises(OperationalError, match="requires catalog="):
        SQLiteBackend(path=db_path)
    with pytest.raises(OperationalError, match="requires catalog="):
        repro.connect(db_path, **connect_kwargs)


def test_reattach_guard_respects_explicit_opt_outs(tmp_path, connect_kwargs):
    db_path = os.fspath(tmp_path / "emp.db")
    conn = repro.connect(db_path, catalog=os.fspath(tmp_path / "emp.wal"), **connect_kwargs)
    _populate(conn)
    conn.close()

    # A fresh path is not "existing", and allow_existing takes responsibility.
    SQLiteBackend(path=os.fspath(tmp_path / "fresh.db")).close()
    backend = SQLiteBackend(path=db_path, allow_existing=True)
    assert backend.table_names()
    backend.close()


# ---------------------------------------------------------------------------
# close() flushes the catalog
# ---------------------------------------------------------------------------
def test_close_flushes_the_catalog_before_releasing_the_backend(tmp_path, connect_kwargs):
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")
    conn = repro.connect(db_path, catalog=wal_path, **connect_kwargs)
    _populate(conn)
    conn.close()
    assert conn.closed
    # Every record the proxy wrote is on disk and decodable after close.
    records = WriteAheadLog(wal_path).load()
    assert any(r.get("t") == "create_table" for r in records)
    assert any(r.get("t") in ("meta", "snapshot", "commit") for r in records)


def test_close_is_idempotent_after_a_flush_failure(tmp_path, connect_kwargs, make_proxy):
    db_path = os.fspath(tmp_path / "emp.db")
    wal_path = os.fspath(tmp_path / "emp.wal")
    catalog = MetadataCatalog(wal_path)
    proxy = make_proxy(db=SQLiteBackend(path=db_path), catalog=catalog, **connect_kwargs)
    conn = repro.Connection(proxy, owns_proxy=True, owns_backend=True)
    _populate(conn)

    def broken_sync():
        raise CatalogError("simulated fsync failure")

    catalog.wal.sync = broken_sync
    with pytest.raises(CatalogError):
        conn.close()
    # The failure surfaced exactly once; the proxy detached its catalog
    # first, so closing again is a clean no-op.
    assert proxy.catalog is None
    conn.close()
    conn.close()
    assert conn.closed


def test_catalog_append_after_close_is_refused(tmp_path):
    catalog = MetadataCatalog(os.fspath(tmp_path / "late.wal"))
    catalog.append({"t": "meta", "version": 1})
    catalog.close()
    with pytest.raises(CatalogError):
        catalog.append({"t": "meta", "version": 2})
    catalog.close()  # still idempotent
