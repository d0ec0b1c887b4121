"""The PEP 249 surface: connections, cursors, transactions, exceptions."""

import pytest

import repro
from repro.api import (
    BackendAdapter,
    Connection,
    InMemoryBackend,
    InterfaceError,
    NotSupportedError,
    ProgrammingError,
    apilevel,
    paramstyle,
)
from repro.errors import ReproError
from repro.sql.engine import Database


@pytest.fixture()
def conn(paillier_keypair):
    from repro.crypto.keys import MasterKey

    connection = repro.connect(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("api-test"),
    )
    cur = connection.cursor()
    cur.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
    cur.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(1, "Alice", 70000), (2, "Bob", 50000), (3, "Carol", 90000)],
    )
    return connection


def test_module_globals():
    assert apilevel == "2.0"
    assert paramstyle == "qmark"
    assert repro.paramstyle == "qmark"


def test_cursor_fetch_interface(conn):
    cur = conn.cursor()
    cur.execute("SELECT id, name FROM emp WHERE salary > ? ORDER BY salary DESC", (60000,))
    assert [d[0] for d in cur.description] == ["id", "name"]
    assert cur.rowcount == 2
    assert cur.fetchone() == (3, "Carol")
    assert cur.fetchmany(5) == [(1, "Alice")]
    assert cur.fetchone() is None
    cur.execute("SELECT id FROM emp WHERE id = ?", (2,))
    assert cur.fetchall() == [(2,)]
    assert cur.fetchall() == []


def test_cursor_iteration_and_arraysize(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM emp ORDER BY id")
    assert list(cur) == [(1,), (2,), (3,)]
    cur.execute("SELECT id FROM emp ORDER BY id")
    cur.arraysize = 2
    assert cur.fetchmany() == [(1,), (2,)]


def test_non_select_has_no_description(conn):
    cur = conn.cursor()
    cur.execute("UPDATE emp SET salary = ? WHERE id = ?", (55000, 2))
    assert cur.description is None
    assert cur.rowcount == 1


def test_connection_execute_shortcut(conn):
    rows = conn.execute("SELECT name FROM emp WHERE id = ?", (1,)).fetchall()
    assert rows == [("Alice",)]


def test_context_manager_commits(conn):
    with conn:
        conn.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (4, "Dan", 1))
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 4


def test_context_manager_rolls_back_on_error(conn):
    with pytest.raises(RuntimeError):
        with conn:
            conn.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (5, "Eve", 2))
            raise RuntimeError("boom")
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 3


def test_nested_with_blocks_commit_once(conn):
    with conn:
        with conn:  # inner scope must not steal the outer's commit duty
            conn.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (4, "Dan", 1))
        conn.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (5, "Eve", 2))
    # The outer scope committed: the transaction is closed and the data final.
    assert not conn.backend.transactions.in_transaction
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 5


def test_nested_with_rolls_back_from_outer_error(conn):
    with pytest.raises(RuntimeError):
        with conn:
            with conn:
                conn.execute("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (6, "Fay", 3))
            raise RuntimeError("outer boom")
    assert not conn.backend.transactions.in_transaction
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 3


def test_rollback_rewinds_join_adjustments(conn):
    conn.execute("CREATE TABLE dept (eid int, dname varchar(20))")
    conn.executemany(
        "INSERT INTO dept (eid, dname) VALUES (?, ?)", [(1, "sales"), (3, "eng")]
    )
    join_sql = "SELECT name, dname FROM emp JOIN dept ON id = eid ORDER BY name"
    with pytest.raises(RuntimeError):
        with conn:
            # First join re-keys JOIN-ADJ inside the transaction...
            assert conn.execute(join_sql).fetchall() == [("Alice", "sales"), ("Carol", "eng")]
            raise RuntimeError("abort")
    # ...the rollback reverted the server-side re-key UPDATE, so the proxy's
    # join bookkeeping must have rewound too or this join silently misses.
    assert conn.execute(join_sql).fetchall() == [("Alice", "sales"), ("Carol", "eng")]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_ddl_inside_a_transaction_is_refused(paillier_keypair, backend):
    # SQLite rolls DDL back with the transaction, the in-memory engine keeps
    # it and MySQL commits it implicitly: no caller can rely on either, so
    # the proxy refuses before its schema, catalog or backend change.
    conn = repro.connect(backend=backend, paillier=paillier_keypair)
    try:
        conn.execute("CREATE TABLE a (id int)")
        conn.begin()
        for ddl in ("CREATE TABLE b (id int)", "CREATE INDEX ib ON a (id)", "DROP TABLE a"):
            with pytest.raises(NotSupportedError):
                conn.execute(ddl)
        conn.execute("INSERT INTO a (id) VALUES (?)", (1,))
        conn.rollback()
        assert not conn.proxy.schema.has_table("b")
        conn.execute("CREATE TABLE b (id int)")
        conn.execute("INSERT INTO b (id) VALUES (?)", (2,))
        assert conn.execute("SELECT id FROM b").fetchall() == [(2,)]
        assert conn.execute("SELECT COUNT(*) FROM a").fetchone()[0] == 0
    finally:
        conn.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_python_api_ddl_inside_a_transaction_is_refused(paillier_keypair, backend, tmp_path):
    # The proxy's own DDL entry points take the same refusal as SQL DDL, so
    # a rollback cannot leave the proxy knowing a table the backend dropped.
    from repro.durability import recovery
    from repro.errors import UnsupportedQueryError

    conn = repro.connect(
        backend=backend, paillier=paillier_keypair, catalog=str(tmp_path / "meta.wal")
    )
    proxy = conn.proxy
    try:
        conn.execute("CREATE TABLE a (id int, k int)")
        conn.begin()
        proxy.catalog.sync()
        records = proxy.catalog.wal.load()
        image = recovery.capture(proxy)
        tables = sorted(proxy.db.table_names())
        for ddl in (
            lambda: proxy.create_table("CREATE TABLE x (id int)"),
            lambda: proxy.create_index("a", "id"),
            lambda: proxy.declare_range_join([("a", "k")]),
        ):
            with pytest.raises(UnsupportedQueryError):
                ddl()
        conn.rollback()
        assert not proxy.schema.has_table("x")
        assert recovery.capture(proxy) == image
        proxy.catalog.sync()
        assert proxy.catalog.wal.load() == records
        assert sorted(proxy.db.table_names()) == tables
        conn.execute("INSERT INTO a (id, k) VALUES (?, ?)", (1, 2))
        assert conn.execute("SELECT id FROM a WHERE k = ?", (2,)).fetchall() == [(1,)]
    finally:
        conn.close()


def test_explicit_commit_rollback(conn):
    conn.begin()
    conn.execute("DELETE FROM emp WHERE id = ?", (1,))
    conn.rollback()
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 3
    conn.begin()
    conn.execute("DELETE FROM emp WHERE id = ?", (1,))
    conn.commit()
    assert conn.execute("SELECT COUNT(*) FROM emp").fetchone()[0] == 2


def test_closed_connection_and_cursor_raise(conn):
    cur = conn.cursor()
    cur.close()
    with pytest.raises(InterfaceError):
        cur.execute("SELECT 1")
    conn.close()
    assert conn.closed
    with pytest.raises(InterfaceError):
        conn.cursor()
    conn.close()  # idempotent


def test_close_rolls_back_open_transaction(paillier_keypair):
    conn = repro.connect(paillier=paillier_keypair)
    conn.execute("CREATE TABLE t (a int)")
    backend = conn.backend
    conn.begin()
    conn.execute("INSERT INTO t (a) VALUES (?)", (1,))
    conn.close()
    assert not backend.transactions.in_transaction


def test_error_mapping(conn):
    cur = conn.cursor()
    with pytest.raises(ProgrammingError) as excinfo:
        cur.execute("SELEC nonsense")
    assert isinstance(excinfo.value, ReproError)  # layered onto repro.errors
    with pytest.raises(ProgrammingError):
        cur.execute("SELECT a FROM missing_table")
    with pytest.raises(NotSupportedError):
        cur.execute("SELECT salary FROM emp WHERE salary * 2 = 10")
    # PEP 249 classes are exposed on the connection object too.
    assert conn.ProgrammingError is ProgrammingError


def test_parameter_count_mismatch(conn):
    with pytest.raises(ProgrammingError):
        conn.execute("SELECT id FROM emp WHERE id = ?", (1, 2))
    with pytest.raises(ProgrammingError):
        conn.execute("SELECT id FROM emp WHERE id = ?")


def test_unencrypted_connection_round_trip():
    conn = repro.connect(encrypted=False)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a int, b varchar(20))")
    cur.executemany("INSERT INTO t (a, b) VALUES (?, ?)", [(1, "x"), (2, "y' z")])
    cur.execute("SELECT b FROM t WHERE a = ?", (2,))
    assert cur.fetchall() == [("y' z",)]
    with pytest.raises(InterfaceError):
        repro.connect(encrypted=False, paillier_bits=512)


def test_backend_adapter_protocol_and_shared_database(paillier_keypair):
    db = Database()
    backend = InMemoryBackend(db)
    assert isinstance(backend, BackendAdapter)
    conn = repro.connect(db, paillier=paillier_keypair, anonymize_names=False)
    conn.execute("CREATE TABLE t (a int)")
    conn.execute("INSERT INTO t (a) VALUES (?)", (7,))
    # The proxy created its (non-anonymised) table inside the shared engine.
    assert db.has_table("t")


def test_connection_wraps_existing_proxy(make_proxy):
    proxy = make_proxy()
    proxy.execute("CREATE TABLE t (a int)")
    conn = Connection(proxy)
    assert conn.proxy is proxy
    conn.execute("INSERT INTO t (a) VALUES (?)", (3,))
    assert conn.execute("SELECT a FROM t").fetchall() == [(3,)]


def test_legacy_proxy_execute_shim(conn):
    """CryptDBProxy.execute(sql) keeps working for un-migrated callers."""
    proxy = conn.proxy
    result = proxy.execute("SELECT name FROM emp WHERE id = 1")
    assert result.rows == [("Alice",)]
    result = proxy.execute("SELECT name FROM emp WHERE id = ?", (2,))
    assert result.rows == [("Bob",)]
