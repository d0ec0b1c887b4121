"""End-to-end: the remote connection as a drop-in for the in-process path."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro import faults
from repro.api import exceptions
from repro.api.connection import connect
from repro.server.loopback import LoopbackServer, connect_loopback


@pytest.fixture
def conn(loopback):
    connection = connect(url=loopback.url)
    yield connection
    connection.close()


def test_basic_roundtrip(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE rt (id int, name varchar(40), score int)")
    cur.execute("INSERT INTO rt (id, name, score) VALUES (?, ?, ?)", (1, "ada", 90))
    cur.execute("INSERT INTO rt (id, name, score) VALUES (2, 'bob', 75)")
    cur.execute("SELECT name, score FROM rt WHERE score >= ? ORDER BY id", (80,))
    assert cur.fetchall() == [("ada", 90)]
    assert cur.description[0][0] == "name"


def test_executemany_rowcount(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE em (id int, v int)")
    cur.executemany(
        "INSERT INTO em (id, v) VALUES (?, ?)", [(i, i * i) for i in range(25)]
    )
    assert cur.rowcount == 25
    cur.execute("SELECT COUNT(*) FROM em")
    assert cur.fetchone() == (25,)


def test_fetch_chunking_reassembles_everything(loopback):
    """A 3-row fetch chunk forces many FETCH frames; no row lost or reordered."""
    conn = connect(url=loopback.url, fetch_chunk=3)
    try:
        cur = conn.cursor()
        cur.execute("CREATE TABLE chunky (id int, label varchar(30))")
        cur.executemany(
            "INSERT INTO chunky (id, label) VALUES (?, ?)",
            [(i, f"row-{i}") for i in range(40)],
        )
        cur.execute("SELECT id, label FROM chunky ORDER BY id ASC")
        rows = cur.fetchall()
        assert rows == [(i, f"row-{i}") for i in range(40)]
    finally:
        conn.close()


def test_null_float_and_negative_values_cross_the_wire(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE vals (id int, f float, s varchar(20))")
    cur.execute(
        "INSERT INTO vals (id, f, s) VALUES (?, ?, ?)", (-5, 2.5, None)
    )
    cur.execute("SELECT id, f, s FROM vals")
    assert cur.fetchall() == [(-5, 2.5, None)]


def test_prepare_over_the_wire(conn):
    conn.execute("CREATE TABLE prep (id int, v int)")
    prepared = conn.proxy.prepare("INSERT INTO prep (id, v) VALUES (?, ?)")
    assert prepared["param_count"] == 2
    assert prepared["kind"] == "INSERT"


def test_error_classes_survive_the_wire(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE errs (id int, name varchar(20))")
    with pytest.raises(exceptions.NotSupportedError):
        cur.execute("SELECT id * name FROM errs")
    with pytest.raises(exceptions.ProgrammingError):
        cur.execute("SELECT * FROM no_such_table_anywhere")
    # The session survives SQL-level errors.
    cur.execute("SELECT COUNT(*) FROM errs")
    assert cur.fetchone() == (0,)


def test_server_stats_frame(conn):
    conn.execute("CREATE TABLE st (id int)")
    stats = conn.proxy.server_stats()
    assert stats["proxy"]["queries_processed"] >= 1
    assert stats["in_txn"] is False


def test_stats_frame_carries_storage_bytes_and_plan_invalidations(loopback, conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE sfi (id int, v int)")
    before = conn.proxy.server_stats()
    cur.executemany("INSERT INTO sfi (id, v) VALUES (?, ?)", [(i, i % 5) for i in range(12)])
    cur.execute("SELECT id FROM sfi WHERE v = ?", (3,))
    # The range predicate lowers v's Ord onion, which retires every cached
    # plan: the next equality lookup replans and counts an invalidation.
    cur.execute("SELECT id FROM sfi WHERE v > ?", (3,))
    cur.execute("SELECT id FROM sfi WHERE v = ?", (3,))
    after = conn.proxy.server_stats()
    assert after["storage_bytes"] > before["storage_bytes"]
    assert after["storage_bytes"] == loopback.server.proxy.storage_bytes()
    assert after["proxy"]["plan_cache_invalidations"] > before["proxy"]["plan_cache_invalidations"]
    # STATS skips admission: it answers while another session holds a
    # transaction (a statement would queue behind it).
    other = connect(url=loopback.url)
    try:
        other.begin()
        other.execute("INSERT INTO sfi (id, v) VALUES (99, 1)")
        assert conn.proxy.server_stats()["in_txn"] is True
        other.rollback()
    finally:
        other.close()
    reset = conn.proxy.server_stats(reset=True)
    assert reset["proxy"]["plan_cache_invalidations"] >= 1
    cleared = conn.proxy.server_stats()
    assert cleared["proxy"]["plan_cache_invalidations"] == 0
    assert cleared["storage_bytes"] == after["storage_bytes"]  # computed, not a counter


def test_stats_frame_carries_the_aes_batch_counters(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE sb (id int, label varchar(30))")
    cur.executemany(
        "INSERT INTO sb (id, label) VALUES (?, ?)", [(i, f"row-{i}") for i in range(30)]
    )
    cache = conn.proxy.server_stats(reset=True)["cache"]
    assert 0 < cache["aes_batch_calls"] < cache["aes_batched_blocks"]
    # reset=True closed that epoch: only the STATS exchange itself (CTR
    # frames of a few dozen blocks) has run since.
    assert conn.proxy.server_stats()["cache"]["aes_batched_blocks"] < cache["aes_batched_blocks"]


def test_stats_frame_carries_the_hom_decrypt_counters(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE shd (id int, v int)")
    cur.executemany("INSERT INTO shd (id, v) VALUES (?, ?)", [(i, i) for i in range(6)])
    before = conn.proxy.server_stats(reset=True)["cache"]
    for _ in range(2):
        cur.execute("SELECT SUM(v) FROM shd")
        assert cur.fetchall() == [(15,)]
    cache = conn.proxy.server_stats()["cache"]
    # The second SUM read the same ciphertext: answered from the memo.
    assert (cache["hom_decrypt_misses"], cache["hom_decrypt_hits"]) == (1, 1)
    assert cache["hom_decrypt_entries"] == before["hom_decrypt_entries"] + 1


def test_transaction_rollback_remote(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE txr (id int, v int)")
    cur.execute("INSERT INTO txr (id, v) VALUES (1, 10)")
    conn.begin()
    cur.execute("UPDATE txr SET v = 99 WHERE id = 1")
    cur.execute("SELECT v FROM txr")
    assert cur.fetchall() == [(99,)]
    conn.rollback()
    cur.execute("SELECT v FROM txr")
    assert cur.fetchall() == [(10,)]


def test_transaction_scope_with_statement(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE txs (id int, v int)")
    with pytest.raises(ZeroDivisionError):
        with conn:
            cur.execute("INSERT INTO txs (id, v) VALUES (1, 1)")
            raise ZeroDivisionError
    cur.execute("SELECT COUNT(*) FROM txs")
    assert cur.fetchone() == (0,)  # scope rolled back across the wire
    with conn:
        cur.execute("INSERT INTO txs (id, v) VALUES (2, 2)")
    cur.execute("SELECT COUNT(*) FROM txs")
    assert cur.fetchone() == (1,)


def test_concurrent_sessions_isolated_cursors(loopback):
    """Two clients interleave statements; each keeps its own result state."""
    a, b = connect(url=loopback.url), connect(url=loopback.url)
    try:
        ca, cb = a.cursor(), b.cursor()
        ca.execute("CREATE TABLE iso (id int, who varchar(10))")
        ca.execute("INSERT INTO iso (id, who) VALUES (1, 'a')")
        cb.execute("INSERT INTO iso (id, who) VALUES (2, 'b')")
        ca.execute("SELECT who FROM iso WHERE id = 1")
        cb.execute("SELECT who FROM iso WHERE id = 2")
        assert ca.fetchall() == [("a",)]
        assert cb.fetchall() == [("b",)]
    finally:
        a.close()
        b.close()


def test_transaction_exclusivity_across_sessions(loopback):
    """A session holding a transaction blocks others until it commits."""
    a, b = connect(url=loopback.url), connect(url=loopback.url)
    try:
        a.execute("CREATE TABLE excl (id int, v int)")
        a.execute("INSERT INTO excl (id, v) VALUES (1, 0)")
        a.begin()
        a.execute("UPDATE excl SET v = 1 WHERE id = 1")

        b_done = threading.Event()
        b_rows = []

        def b_reads():
            cur = b.execute("SELECT v FROM excl")
            b_rows.extend(cur.fetchall())
            b_done.set()

        worker = threading.Thread(target=b_reads)
        worker.start()
        # B must queue behind A's open transaction, not see its dirty write.
        assert not b_done.wait(timeout=0.5)
        a.commit()
        assert b_done.wait(timeout=30)
        worker.join(timeout=30)
        assert b_rows == [(1,)]  # served only after commit, sees final state
    finally:
        a.close()
        b.close()


def test_drain_refuses_new_statements_but_finishes_inflight(
    paillier_keypair, wait_until
):
    """The graceful-shutdown contract: in-flight finishes, new work refused."""
    from repro.crypto.keys import MasterKey

    server = LoopbackServer(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("drain-test"),
        hom_precompute=8,
    )
    a = connect(url=server.url)
    b = connect(url=server.url)
    # The in-flight batch is held at the backend until the refusal has been
    # seen, so the drain always finds it still running.
    release = threading.Event()
    hold = faults.FaultPlan(
        0,
        [
            faults.FaultRule(
                "backend.execute",
                kind="call",
                every_n=1,
                max_fires=1,
                match={"head": ("INSERT",)},
                scope=server.proxy.db,
                action=lambda _context: release.wait(timeout=120),
            )
        ],
    )
    try:
        a.execute("CREATE TABLE dr (id int, v int)")
        inflight_rows = [(i, i) for i in range(800)]
        result = {}

        def slow_statement():
            result["count"] = a.cursor().executemany(
                "INSERT INTO dr (id, v) VALUES (?, ?)", inflight_rows
            ).rowcount

        injector = faults.arm(hold)
        worker = threading.Thread(target=slow_statement)
        worker.start()
        # Waiting on the hold, not only on the in-flight count: the count
        # can still include the CREATE TABLE's response flush.
        wait_until(
            lambda: injector.fired_count == 1 and server.server._inflight > 0,
            message="the batch to reach the backend",
        )

        drainer = threading.Thread(target=server.drain)
        drainer.start()
        wait_until(
            lambda: server.server.draining,
            message="drain to flip the refuse-new-statements flag",
        )

        with pytest.raises(exceptions.OperationalError, match="draining"):
            b.execute("INSERT INTO dr (id, v) VALUES (9999, 9999)")
        release.set()

        worker.join(timeout=120)
        drainer.join(timeout=120)
        assert result["count"] == 800  # the in-flight batch fully landed
        stats = server.stats
        assert stats["dropped_inflight"] == 0
        assert stats["statements_refused_draining"] >= 1
    finally:
        release.set()
        faults.disarm()
        for c in (a, b):
            try:
                c.close()
            except exceptions.Error:
                pass
        server.stop()


def test_draining_server_rejects_new_connections(paillier_keypair):
    from repro.crypto.keys import MasterKey

    server = LoopbackServer(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("drain-reject"),
        hom_precompute=8,
    )
    url = server.url
    server.drain(timeout=5)
    with pytest.raises(exceptions.Error):
        connect(url=url, connect_timeout=2)
    server.stop()


def test_connect_loopback_closes_server_with_connection(paillier_keypair):
    conn = connect_loopback(paillier=paillier_keypair, hom_precompute=8)
    conn.execute("CREATE TABLE lb (id int)")
    conn.close()
    conn.close()  # idempotent even though close() also stopped the server


def test_connect_url_argument_validation():
    with pytest.raises(exceptions.InterfaceError, match="scheme"):
        connect(url="mysql://localhost:3306")
    with pytest.raises(exceptions.InterfaceError, match="host and a port"):
        connect(url="repro://localhost")
    with pytest.raises(exceptions.InterfaceError, match="cannot be"):
        connect("memory", url="repro://localhost:1")
    with pytest.raises(exceptions.InterfaceError, match="always encrypted"):
        connect(url="repro://localhost:1", encrypted=False)


def test_connect_refused_maps_to_interface_error():
    with pytest.raises(exceptions.InterfaceError, match="cannot connect"):
        connect(url="repro://127.0.0.1:1", connect_timeout=2)


def test_cli_serves_and_drains_on_sigint():
    """`python -m repro.server` boots, serves a client, and exits 0 on SIGINT."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server",
            "--host", "127.0.0.1", "--port", "0", "--paillier-bits", "512",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on repro://" in banner
        url = banner.strip().split()[-1]
        conn = connect(url=url)
        cur = conn.cursor()
        cur.execute("CREATE TABLE cli (id int)")
        cur.execute("INSERT INTO cli (id) VALUES (7)")
        cur.execute("SELECT id FROM cli")
        assert cur.fetchall() == [(7,)]
        conn.close()
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "dropped in flight" in out
        assert "0 dropped in flight" in out
    finally:
        if proc.poll() is None:
            proc.kill()
