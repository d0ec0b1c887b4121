"""Parameter binding: safety (no injection) and batching equivalence."""

import random

import pytest

import repro
from repro.crypto.keys import MasterKey
from repro.crypto.paillier import PaillierKeyPair


@pytest.fixture()
def conn(paillier_keypair):
    connection = repro.connect(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("binding-test"),
    )
    connection.execute(
        "CREATE TABLE notes (id int, body varchar(200), score int)"
    )
    return connection


AWKWARD_STRINGS = [
    "O'Brien",                       # embedded quote
    "'' OR ''='",                    # classic injection shape
    "x' OR '1'='1",                  # injection with unbalanced quote
    "question? marks ?? everywhere?",  # placeholder characters as data
    "naïve — ünïcode ✓ 日本語",        # non-ASCII
    "line\nbreak\tand tab",          # control characters
    "100% LIKE _done_",              # SQL wildcard characters
    "-- not a comment",              # comment marker as data
    "",                              # empty string
]


@pytest.mark.parametrize("body", AWKWARD_STRINGS)
def test_awkward_literals_round_trip_encrypted(conn, body):
    conn.execute("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", (1, body, 5))
    rows = conn.execute("SELECT body FROM notes WHERE id = ?", (1,)).fetchall()
    assert rows == [(body,)]
    # Equality *on* the awkward value itself must also bind safely.
    rows = conn.execute("SELECT id FROM notes WHERE body = ?", (body,)).fetchall()
    assert rows == [(1,)]
    # And the table still holds exactly one row: the value never spliced
    # extra SQL into the statement.
    assert conn.execute("SELECT COUNT(*) FROM notes").fetchone()[0] == 1


@pytest.mark.parametrize("body", AWKWARD_STRINGS)
def test_awkward_literals_round_trip_plain_backend(body):
    conn = repro.connect(encrypted=False)
    conn.execute("CREATE TABLE notes (id int, body varchar(200))")
    conn.execute("INSERT INTO notes (id, body) VALUES (?, ?)", (1, body))
    assert conn.execute(
        "SELECT body FROM notes WHERE id = ?", (1,)
    ).fetchall() == [(body,)]
    assert conn.execute(
        "SELECT id FROM notes WHERE body = ?", (body,)
    ).fetchall() == [(1,)]
    assert conn.execute("SELECT COUNT(*) FROM notes").fetchone()[0] == 1


def test_numeric_none_and_negative_parameters(conn):
    conn.execute("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", (1, None, -42))
    assert conn.execute(
        "SELECT body, score FROM notes WHERE id = ?", (1,)
    ).fetchall() == [(None, -42)]
    assert conn.execute(
        "SELECT id FROM notes WHERE score < ?", (0,)
    ).fetchall() == [(1,)]
    assert conn.execute(
        "SELECT id FROM notes WHERE body IS NULL"
    ).fetchall() == [(1,)]


def test_in_between_and_increment_binding(conn):
    conn.executemany(
        "INSERT INTO notes (id, body, score) VALUES (?, ?, ?)",
        [(i, f"note {i}", 10 * i) for i in range(1, 6)],
    )
    assert conn.execute(
        "SELECT id FROM notes WHERE id IN (?, ?) ORDER BY id", (2, 4)
    ).fetchall() == [(2,), (4,)]
    assert conn.execute(
        "SELECT id FROM notes WHERE score BETWEEN ? AND ? ORDER BY id", (20, 40)
    ).fetchall() == [(2,), (3,), (4,)]
    conn.execute("UPDATE notes SET score = score + ? WHERE id = ?", (7, 3))
    assert conn.execute(
        "SELECT score FROM notes WHERE id = ?", (3,)
    ).fetchone() == (37,)
    conn.execute("UPDATE notes SET score = score - ? WHERE id = ?", (2, 3))
    assert conn.execute(
        "SELECT score FROM notes WHERE id = ?", (3,)
    ).fetchone() == (35,)


def _deterministic_randomness(monkeypatch, seed: int) -> None:
    """Make every source of encryption randomness reproducible."""
    import repro.crypto.rnd as rnd_module
    import repro.crypto.search as search_module

    rng = random.Random(seed)

    def random_bytes(n):
        return rng.getrandbits(8 * n).to_bytes(n, "big")

    # RND IVs and SEARCH word splits both bind random_bytes at import time.
    monkeypatch.setattr(rnd_module, "random_bytes", random_bytes)
    monkeypatch.setattr(search_module, "random_bytes", random_bytes)

    def next_randomness(self):
        n = self.public.n
        r = rng.randrange(1, n - 1)
        return pow(r, n, self.public.n_squared)

    monkeypatch.setattr(PaillierKeyPair, "_next_randomness", next_randomness)


def _server_rows(connection):
    backend = connection.backend
    return {
        name: sorted(
            (sorted(row.items(), key=lambda kv: kv[0]) for _, row in
             backend.table(name).scan()),
            key=repr,
        )
        for name in backend.table_names()
    }


def test_single_row_executemany_matches_execute_byte_for_byte(
    paillier_keypair, monkeypatch
):
    """executemany([row]) and execute(row) produce identical ciphertext.

    Encryption randomness (RND IVs, Paillier factors) is patched to a seeded
    stream so the two runs are comparable byte-for-byte: for a single row the
    columnar pipeline draws randomness in exactly the per-row order, so any
    divergence means the batched bind encrypts differently from per-statement
    rewriting.
    """
    row = (1, "body with 'quotes' and ? marks", 99)

    def fresh_connection():
        return repro.connect(
            paillier=paillier_keypair,
            master_key=MasterKey.from_passphrase("byte-identical"),
            hom_precompute=0,  # pool draws would desynchronise the streams
        )

    _deterministic_randomness(monkeypatch, seed=1234)
    batched = fresh_connection()
    batched.execute("CREATE TABLE notes (id int, body varchar(200), score int)")
    batched.executemany(
        "INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", [row]
    )

    _deterministic_randomness(monkeypatch, seed=1234)
    sequential = fresh_connection()
    sequential.execute("CREATE TABLE notes (id int, body varchar(200), score int)")
    sequential.execute("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", row)

    assert _server_rows(batched) == _server_rows(sequential)


def test_executemany_matches_sequential_execute_decrypted(paillier_keypair):
    """Batched and scalar loading agree wherever the application can look.

    The columnar pipeline draws its RND/HOM randomness column-at-a-time, so
    raw ciphertexts differ from a scalar loop's -- but under the same master
    key every deterministic layer matches, decrypted results are identical,
    and the per-row randomness is never replayed across the batch.
    """
    rows = [
        (i, f"body {i} with 'quotes' and ? marks", 100 - i)
        for i in range(1, 8)
    ]

    def fresh_connection():
        return repro.connect(
            paillier=paillier_keypair,
            master_key=MasterKey.from_passphrase("batch-equivalence"),
        )

    batched = fresh_connection()
    batched.execute("CREATE TABLE notes (id int, body varchar(200), score int)")
    batched.executemany(
        "INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", rows
    )

    sequential = fresh_connection()
    sequential.execute("CREATE TABLE notes (id int, body varchar(200), score int)")
    for row in rows:
        sequential.execute("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", row)

    query = "SELECT id, body, score FROM notes ORDER BY id"
    assert batched.execute(query).fetchall() == sequential.execute(query).fetchall()
    assert batched.execute(query).fetchall() == rows

    # Same master key: predicates rewritten by either proxy select the same
    # rows from the other's data (the deterministic layers agree).
    assert batched.execute(
        "SELECT body FROM notes WHERE id = ?", (3,)
    ).fetchall() == sequential.execute(
        "SELECT body FROM notes WHERE id = ?", (3,)
    ).fetchall()

    # Freshness: no RND IV or Eq ciphertext is replayed across the batch.
    ivs = set()
    eq_cells = set()
    for _, server_row in batched.backend.table("table1").scan():
        ivs.add(bytes(server_row["C1_IV"]))
        eq_cells.add(bytes(server_row["C1_Eq"]))
    assert len(ivs) == len(rows)
    assert len(eq_cells) == len(rows)

    # Row/IV alignment: every batch-written cell decrypts through the
    # *scalar* decryptor with its own row's IV (a column/row zip bug in the
    # batched bind would scramble exactly this).
    from repro.core.onion import Onion

    proxy = batched.proxy
    id_col = proxy.schema.column("notes", "id")
    body_col = proxy.schema.column("notes", "body")
    decrypted_rows = []
    for _, server_row in batched.backend.table("table1").scan():
        row_id = proxy.encryptor.decrypt_value(
            id_col, Onion.EQ, id_col.onion_state(Onion.EQ).level,
            server_row["C1_Eq"], server_row["C1_IV"],
        )
        body = proxy.encryptor.decrypt_value(
            body_col, Onion.EQ, body_col.onion_state(Onion.EQ).level,
            server_row["C2_Eq"], server_row["C2_IV"],
        )
        decrypted_rows.append((row_id, body))
    assert sorted(decrypted_rows) == sorted((i, b) for i, b, _ in rows)


def test_executemany_never_replays_baked_randomness(conn):
    """A mixed literal+placeholder INSERT re-encrypts its literal per row.

    The literal 7 feeds an encrypted column.  It binds like a ``?`` riding
    every parameter row, so the shape takes the batched pipeline and each
    row still draws a fresh RND IV for it.
    """
    stats = conn.proxy.stats
    batched, batched_rows = stats.batched_statements, stats.batched_rows
    conn.executemany(
        "INSERT INTO notes (id, body, score) VALUES (?, ?, 7)",
        [(i, f"note {i}") for i in range(1, 5)],
    )
    assert stats.batched_statements == batched + 1
    assert stats.batched_rows == batched_rows + 4
    score_cells = set()
    for _, row in conn.backend.table("table1").scan():
        score_cells.add(bytes(row["C3_Eq"]))
    assert len(score_cells) == 4  # all-distinct RND ciphertexts for the same 7
    assert conn.execute(
        "SELECT COUNT(*) FROM notes WHERE score = ?", (7,)
    ).fetchone()[0] == 4


def test_placeholder_in_unbindable_position_is_rejected(conn):
    from repro.api import NotSupportedError, ProgrammingError

    with pytest.raises(NotSupportedError):
        # LIKE patterns drive the SEARCH rewrite and must be literals.
        conn.execute("SELECT id FROM notes WHERE body LIKE ?", ("%word%",))
    with pytest.raises((NotSupportedError, ProgrammingError)):
        conn.execute("SELECT ? FROM notes", (1,))
