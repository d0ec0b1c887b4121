"""executemany batch semantics through the columnar pipeline.

The batched path plans the statement shape once, validates every parameter
row up front, encrypts all rows column-at-a-time and (for single-row INSERT
shapes) forwards one multi-row INSERT to the DBMS -- these tests pin down
the user-visible semantics: error behaviour, empty batches, and transaction
visibility/rollback of batch inserts.
"""

import pytest

import repro
from repro.api import ProgrammingError
from repro.crypto.keys import MasterKey


@pytest.fixture()
def conn(paillier_keypair):
    connection = repro.connect(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("executemany-batches"),
    )
    connection.execute("CREATE TABLE items (id int, label varchar(80), qty int)")
    return connection


def _count(conn):
    return conn.execute("SELECT COUNT(*) FROM items").fetchone()[0]


def test_param_count_mismatch_rejects_whole_batch(conn):
    """A bad row anywhere in the batch fails it before any row is written."""
    rows = [(1, "a", 10), (2, "b"), (3, "c", 30)]
    with pytest.raises(ProgrammingError):
        conn.executemany("INSERT INTO items (id, label, qty) VALUES (?, ?, ?)", rows)
    assert _count(conn) == 0
    with pytest.raises(ProgrammingError):
        conn.executemany(
            "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
            [(1, "a", 10, "extra")],
        )
    assert _count(conn) == 0
    # Same contract when the shape also carries a literal bound to an
    # encrypted column: a later bad row still fails the batch before any row
    # is written.
    with pytest.raises(ProgrammingError):
        conn.executemany(
            "INSERT INTO items (id, label, qty) VALUES (?, ?, 7)",
            [(1, "a"), (2, "b"), (3,)],
        )
    assert _count(conn) == 0


def test_empty_batch_is_a_pure_noop(conn):
    """PEP 249: executemany with no parameter rows does nothing at all.

    Regression test: this used to prepare (and therefore rewrite, adjust
    onions for, and plan-cache) the statement shape, raising for shapes the
    proxy could not prepare -- a no-op must not touch the database.
    """
    cursor = conn.cursor()
    cursor.executemany("INSERT INTO items (id, label, qty) VALUES (?, ?, ?)", [])
    assert cursor.rowcount == 0
    assert _count(conn) == 0
    before = conn.proxy.stats.queries_processed
    # Even a statement over a nonexistent table is silently skipped...
    cursor.executemany("INSERT INTO nowhere (id) VALUES (?)", [])
    assert cursor.rowcount == 0
    # ...and nothing reached the proxy or the DBMS.
    assert conn.proxy.stats.queries_processed == before
    # Empty iterators (not just empty lists) count as empty sequences.
    cursor.executemany("INSERT INTO items (id, label, qty) VALUES (?, ?, ?)", iter(()))
    assert cursor.rowcount == 0
    # The bad shape still fails loudly the moment it has rows to bind.
    with pytest.raises(ProgrammingError):
        cursor.executemany("INSERT INTO nowhere (id) VALUES (?)", [(1,)])


def test_empty_batch_is_a_noop_on_plain_backends():
    conn = repro.connect(encrypted=False, backend="sqlite")
    conn.execute("CREATE TABLE items (id int)")
    cursor = conn.cursor()
    cursor.executemany("INSERT INTO items (id) VALUES (?)", [])
    assert cursor.rowcount == 0
    cursor.executemany("INSERT INTO nowhere (id) VALUES (?)", [])
    assert cursor.rowcount == 0
    assert conn.execute("SELECT COUNT(*) FROM items").fetchone()[0] == 0


def test_batch_insert_visible_inside_open_transaction(conn):
    rows = [(i, f"item {i}", i * 2) for i in range(1, 6)]
    conn.execute("BEGIN")
    conn.executemany("INSERT INTO items (id, label, qty) VALUES (?, ?, ?)", rows)
    # Visible to the same connection before COMMIT.
    assert _count(conn) == 5
    assert conn.execute(
        "SELECT label FROM items WHERE id = ?", (3,)
    ).fetchall() == [("item 3",)]
    conn.commit()
    assert _count(conn) == 5


def test_batch_insert_rolls_back_atomically(conn):
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(1, "keep", 1)],
    )
    conn.execute("BEGIN")
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(i, f"txn {i}", i) for i in range(10, 15)],
    )
    assert _count(conn) == 6
    conn.rollback()
    assert _count(conn) == 1
    assert conn.execute("SELECT id FROM items").fetchall() == [(1,)]
    # Rows inserted after the rollback land in a consistent table.
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(2, "after", 2)],
    )
    assert sorted(conn.execute("SELECT id FROM items").fetchall()) == [(1,), (2,)]


def test_batched_update_and_delete_shapes(conn):
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(i, f"item {i}", 100) for i in range(1, 6)],
    )
    # Constant slots (WHERE id = ?) and hom_delta slots (qty = qty + ?).
    assert conn.executemany(
        "UPDATE items SET qty = qty + ? WHERE id = ?",
        [(5, 1), (7, 2), (-1, 3)],
    ).rowcount == 3
    assert conn.execute(
        "SELECT qty FROM items WHERE id IN (?, ?, ?) ORDER BY id", (1, 2, 3)
    ).fetchall() == [(105,), (107,), (99,)]
    assert conn.executemany(
        "DELETE FROM items WHERE id = ?", [(4,), (5,)]
    ).rowcount == 2
    assert _count(conn) == 3


def test_batch_statistics_recorded(conn):
    stats = conn.proxy.stats
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(i, "x", i) for i in range(1, 8)],
    )
    assert stats.batched_statements == 1
    assert stats.batched_rows == 7
    assert stats.queries_processed >= 7
    cache = stats.cache_stats()
    assert cache.det_misses > 0
    # Repeated values within the batch hit the Eq memo.
    assert cache.det_hits > 0
    stats.reset()
    assert stats.batched_rows == 0
    assert stats.cache_stats().det_hits == 0
    # Entries survive a counter reset; a second identical batch now hits.
    conn.executemany(
        "INSERT INTO items (id, label, qty) VALUES (?, ?, ?)",
        [(i, "x", i) for i in range(10, 17)],
    )
    assert stats.cache_stats().det_hits > 0
