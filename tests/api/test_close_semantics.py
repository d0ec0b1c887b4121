"""Connection.close(): idempotent, leak-free, and safe after peer death."""

from __future__ import annotations

import pytest

from repro.api import exceptions
from repro.api.connection import connect
from repro.server.loopback import LoopbackServer


def test_double_close_is_a_noop():
    conn = connect()
    conn.close()
    conn.close()
    assert conn.closed


def test_use_after_close_raises_interface_error():
    conn = connect()
    conn.close()
    with pytest.raises(exceptions.InterfaceError, match="closed"):
        conn.cursor()
    with pytest.raises(exceptions.InterfaceError, match="closed"):
        conn.execute("SELECT 1 FROM t")
    with pytest.raises(exceptions.InterfaceError, match="closed"):
        conn.begin()


def test_close_rolls_back_open_transaction():
    backend_holder = connect()
    cur = backend_holder.cursor()
    cur.execute("CREATE TABLE c (id int)")
    backend_holder.begin()
    cur.execute("INSERT INTO c (id) VALUES (1)")
    assert backend_holder._in_transaction()
    backend_holder.close()
    assert not backend_holder._in_transaction()


def test_close_survives_rollback_failure_and_still_releases(monkeypatch):
    """A rollback that blows up must not leak the proxy's resources."""
    conn = connect()
    conn.execute("CREATE TABLE rb (id int)")
    conn.begin()
    conn.execute("INSERT INTO rb (id) VALUES (1)")

    proxy_closed = []
    original_close = conn.proxy.close
    monkeypatch.setattr(
        conn.proxy, "close", lambda: (proxy_closed.append(True), original_close())[1]
    )

    def exploding_execute(sql, params=None):
        raise exceptions.OperationalError("backend vanished mid-rollback")

    monkeypatch.setattr(conn.target, "execute", exploding_execute)
    conn.close()  # must not raise
    assert conn.closed
    assert proxy_closed == [True]


def test_remote_close_is_idempotent(paillier_keypair):
    from repro.crypto.keys import MasterKey

    server = LoopbackServer(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("close-idem"),
        hom_precompute=8,
    )
    try:
        conn = connect(url=server.url)
        conn.execute("CREATE TABLE ri (id int)")
        conn.close()
        conn.close()
        with pytest.raises(exceptions.InterfaceError):
            conn.cursor()
    finally:
        server.stop()


def test_remote_use_after_server_death_raises_interface_error(paillier_keypair):
    from repro.crypto.keys import MasterKey

    server = LoopbackServer(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("close-death"),
        hom_precompute=8,
    )
    conn = connect(url=server.url)
    cur = conn.cursor()
    cur.execute("CREATE TABLE dead (id int)")
    server.stop()  # the server dies under the connection
    with pytest.raises(exceptions.InterfaceError):
        cur.execute("SELECT * FROM dead")
    with pytest.raises(exceptions.InterfaceError):
        cur.execute("SELECT * FROM dead")  # stays dead, stays InterfaceError
    conn.close()  # and close after death neither raises nor hangs
    conn.close()
    assert conn.closed


def test_remote_close_with_open_transaction_after_server_death(paillier_keypair):
    """The hardening case: rollback fails against a dead peer, close survives."""
    from repro.crypto.keys import MasterKey

    server = LoopbackServer(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("close-txn-death"),
        hom_precompute=8,
    )
    conn = connect(url=server.url)
    conn.execute("CREATE TABLE txd (id int)")
    conn.begin()
    conn.execute("INSERT INTO txd (id) VALUES (1)")
    assert conn._in_transaction()
    server.stop()
    conn.close()  # rollback against a dead server is swallowed
    assert conn.closed


def test_plain_backend_close_releases_sqlite_handle():
    pytest.importorskip("sqlite3")
    from repro.errors import SQLExecutionError

    conn = connect(encrypted=False, backend="sqlite")
    conn.execute("CREATE TABLE s (id int)")
    conn.close()
    # The underlying sqlite3 handle really was released with the connection.
    with pytest.raises(SQLExecutionError, match="closed database"):
        conn.backend.execute("SELECT * FROM s")


def test_simulated_crash_crosses_the_dbapi_unwrapped(tmp_path, paillier_keypair):
    """A simulated process death is no DB-API error, not even in close().

    ``SimulatedCrash`` must reach the caller as itself through a cursor, and
    ``close()``'s rollback guard -- which swallows DB-API errors from a dead
    peer -- must not swallow it either; resources are still released.
    """
    from repro import faults
    from repro.crypto.keys import MasterKey
    from repro.errors import SimulatedCrash

    conn = connect(
        str(tmp_path / "crash.db"),
        catalog=str(tmp_path / "crash.wal"),
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("crash-unwrapped"),
    )
    cur = conn.cursor()
    cur.execute("CREATE TABLE sc (id INT, v INT)")
    cur.execute("INSERT INTO sc (id, v) VALUES (1, 2)")
    conn.begin()
    with faults.armed(faults.FaultPlan(0, [faults.crash("wal.append")])):
        with pytest.raises(SimulatedCrash) as crashed:
            cur.execute("SELECT id FROM sc WHERE v = 2")
    assert not isinstance(crashed.value, exceptions.Error)

    conn.execute("SELECT id FROM sc WHERE v = 2")  # logs a pending intent
    with faults.armed(faults.FaultPlan(0, [faults.crash("wal.append")])):
        with pytest.raises(SimulatedCrash):
            conn.close()  # the ROLLBACK's abort record is the victim
    assert conn.closed
