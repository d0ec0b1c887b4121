"""Packed HOM through the whole proxy pipeline (§8.4 ciphertext diet).

All INTEGER/DECIMAL columns of a table share packed Paillier ciphertexts
(one slot per column, one ciphertext per row per group of ``slots_for(n)``
columns).  These tests pin the end-to-end behaviours the codec tests can't
see: storage layout, NULL semantics through SUM/AVG (the PR 4
zero-rows->NULL contract), increments and absolute SETs on shared cells,
headroom chunking on real aggregates (in the server's SUM UDF and across
shards), equivalence with the plaintext engine on randomized workloads,
and the refusal of a modulus too small for one slot.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.api.exceptions import InternalError
from repro.crypto import paillier
from repro.crypto.paillier import PackingConfig, PaillierKeyPair
from repro.errors import CryptoError


def _rows(proxy, sql):
    return proxy.execute(sql).rows


def test_add_onions_grouped_into_packed_cells(proxy):
    assert proxy.encryptor.packing is paillier.PACKING
    proxy.execute("CREATE TABLE g (a INT, b INT, c INT)")
    groups = proxy.schema.tables["g"].hom_groups
    assert groups and all(group.anon_name.endswith("_Add") for group in groups)
    slots = paillier.PACKING.slots_for(proxy.paillier.public.n)
    assert all(len(group.members) <= slots for group in groups)
    # 3 HOM columns, but far fewer stored Add ciphertexts than columns.
    assert len(groups) == -(-3 // slots)


def test_no_per_column_add_cells_stored(proxy):
    """Every Add onion is a group member: the DBMS table has no ``C*_Add``."""
    proxy.execute("CREATE TABLE st (a INT, name TEXT, price DECIMAL(8,2), b INT)")
    table = proxy.schema.tables["st"]
    stored = [column.name for column in proxy.db.table(table.anon_name).columns]
    add_columns = [name for name in stored if name.endswith("_Add")]
    assert sorted(add_columns) == sorted(group.anon_name for group in table.hom_groups)
    assert not any(name.startswith("C") for name in add_columns)
    members = [name for group in table.hom_groups for name in group.members]
    assert sorted(members) == ["a", "b", "price"]


def test_hom_sum_udf_closes_chunks_at_headroom(paillier_keypair, hom_slot_sum):
    """The server's SUM aggregate emits one chunk per ``chunk_rows`` rows."""
    from repro.core import udfs
    from repro.sql.engine import Database

    config = PackingConfig(value_bits=32, headroom_bits=2)
    db = Database()
    udfs.install_udfs(db, paillier_keypair.public, config)
    db.execute("CREATE TABLE h (c INT)")
    values = [7, -3, None, 12, 5, 0, -9, 4, 30, 1]
    for value in values:
        cell = paillier_keypair.encrypt_packed([value], config)
        db.execute(f"INSERT INTO h (c) VALUES ({cell})")
    (partial,), = db.execute(f"SELECT {udfs.HOM_SUM}(c) FROM h").rows
    chunks = paillier.decode_partial_sums(partial)
    assert len(chunks) == -(-len(values) // config.chunk_rows)
    count, total = hom_slot_sum(paillier_keypair, partial, 0, config)
    present = [value for value in values if value is not None]
    assert (count, total) == (len(present), sum(present))


def test_sharded_sum_pools_chunks_across_shards(make_proxy, monkeypatch):
    """Packed partials from several shards merge without any key and answer
    exactly like the plaintext engine, even when every shard emits chunks."""
    from repro.shard import ShardedBackend

    monkeypatch.setattr(
        paillier, "PACKING", PackingConfig(value_bits=32, headroom_bits=2)
    )
    backend = ShardedBackend(shards=3)
    sharded = make_proxy(db=backend)
    conn = repro.connect(encrypted=False)
    plain = conn.cursor()
    rows = [(i, "ab"[i % 2], i * 7 - 40 if i % 5 else None) for i in range(23)]
    for db in (sharded, plain):
        db.execute("CREATE TABLE sh (id INT, tag TEXT, v INT)")
        db.executemany("INSERT INTO sh (id, tag, v) VALUES (?, ?, ?)", rows)
    assert sum(1 for shard in backend.backends if any(shard.row_counts().values())) > 1
    for sql in (
        "SELECT SUM(v), AVG(v), COUNT(v) FROM sh",
        "SELECT tag, SUM(v), AVG(v) FROM sh GROUP BY tag ORDER BY tag",
        "SELECT SUM(v) FROM sh WHERE id < 0",
    ):
        plain.execute(sql)
        assert _rows(sharded, sql) == plain.fetchall()
    conn.close()
    backend.close()


def test_small_modulus_refuses_to_start():
    """A modulus that cannot hold one 97-bit slot is refused, never worked around."""
    from repro.core.proxy import CryptDBProxy

    tiny = PaillierKeyPair.generate(64)
    with pytest.raises(CryptoError, match="97-bit packed slot"):
        CryptDBProxy(paillier=tiny)
    # Through the DB-API entry point the refusal is a DB-API error.
    with pytest.raises(InternalError, match="97-bit packed slot"):
        repro.connect(paillier=tiny)


def test_connect_rejects_the_removed_packing_knob():
    """There is one HOM layout, so ``hom_packing`` is an unknown proxy option."""
    with pytest.raises(TypeError, match="hom_packing"):
        repro.connect(**{"hom_packing": False})


def test_sum_zero_rows_is_null(proxy):
    proxy.execute("CREATE TABLE z (id INT, v INT)")
    assert _rows(proxy, "SELECT SUM(v), AVG(v) FROM z") == [(None, None)]
    proxy.execute("INSERT INTO z (id, v) VALUES (1, 5)")
    assert _rows(proxy, "SELECT SUM(v) FROM z WHERE id = 99") == [(None,)]


def test_sum_all_null_column_is_null(proxy):
    proxy.execute("CREATE TABLE an (id INT, v INT)")
    proxy.execute("INSERT INTO an (id, v) VALUES (1, NULL), (2, NULL)")
    assert _rows(proxy, "SELECT SUM(v), AVG(v), COUNT(v) FROM an") == [(None, None, 0)]


def test_sum_skips_null_members(proxy):
    proxy.execute("CREATE TABLE sn (id INT, v INT)")
    proxy.execute("INSERT INTO sn (id, v) VALUES (1, 10), (2, NULL), (3, -4)")
    assert _rows(proxy, "SELECT SUM(v), AVG(v) FROM sn") == [(6, 3.0)]


def test_increment_preserves_null_and_neighbours(proxy):
    proxy.execute("CREATE TABLE inc (id INT, a INT, b INT)")
    proxy.execute("INSERT INTO inc (id, a, b) VALUES (1, 10, NULL), (2, 20, 7)")
    proxy.execute("UPDATE inc SET b = b + 5")
    # SQL: NULL + 5 stays NULL; the packed neighbour slots are untouched.
    assert _rows(proxy, "SELECT id, a, b FROM inc ORDER BY id") == [
        (1, 10, None),
        (2, 20, 12),
    ]


def test_multiple_increments_same_group_one_update(proxy):
    proxy.execute("CREATE TABLE mi (id INT, a INT, b INT)")
    proxy.execute("INSERT INTO mi (id, a, b) VALUES (1, 100, 200)")
    # Two members of one packed group in a single UPDATE: the rewritten
    # assignments must nest, not last-win.
    proxy.execute("UPDATE mi SET a = a + 5, b = b - 3 WHERE id = 1")
    assert _rows(proxy, "SELECT a, b FROM mi") == [(105, 197)]


def test_absolute_set_rewrites_only_target_slot(proxy):
    proxy.execute("CREATE TABLE rmw (id INT, a INT, b INT)")
    proxy.execute("INSERT INTO rmw (id, a, b) VALUES (1, 1, 2), (2, 3, 4)")
    proxy.execute("UPDATE rmw SET a = a + 10 WHERE id = 2")  # pending delta
    proxy.execute("UPDATE rmw SET b = ? WHERE id = 2", (99,))
    # The read-modify-write must splice b's slot while keeping a's pending
    # homomorphic increment bit-exact, and leave other rows alone.
    assert _rows(proxy, "SELECT id, a, b FROM rmw ORDER BY id") == [
        (1, 1, 2),
        (2, 13, 99),
    ]


def test_absolute_set_to_null_then_aggregate(proxy):
    proxy.execute("CREATE TABLE ns (id INT, v INT)")
    proxy.execute("INSERT INTO ns (id, v) VALUES (1, 5), (2, 6)")
    proxy.execute("UPDATE ns SET v = ? WHERE id = 1", (None,))
    assert _rows(proxy, "SELECT SUM(v), AVG(v) FROM ns") == [(6, 6.0)]


def test_sum_across_chunk_boundaries(make_proxy, monkeypatch):
    monkeypatch.setattr(
        paillier, "PACKING", PackingConfig(value_bits=32, headroom_bits=2)
    )
    proxy = make_proxy()
    proxy.execute("CREATE TABLE big (id INT, v INT)")
    rows = [(i, i * 3 - 10) for i in range(11)]  # 11 rows > 2 chunks of 4
    proxy.executemany("INSERT INTO big (id, v) VALUES (?, ?)", rows)
    expected = sum(v for _, v in rows)
    assert _rows(proxy, "SELECT SUM(v) FROM big") == [(expected,)]
    assert _rows(proxy, "SELECT AVG(v) FROM big") == [(expected / len(rows),)]


def test_grouped_sum_packed(proxy):
    proxy.execute("CREATE TABLE gs (tag VARCHAR(8), v INT)")
    proxy.execute(
        "INSERT INTO gs (tag, v) VALUES ('a', 1), ('a', 2), ('b', NULL), ('b', 7)"
    )
    rows = sorted(_rows(proxy, "SELECT tag, SUM(v), AVG(v) FROM gs GROUP BY tag"))
    assert rows == [("a", 3, 1.5), ("b", 7, 7.0)]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=-10_000, max_value=10_000)),
            st.one_of(st.none(), st.integers(min_value=-10_000, max_value=10_000)),
        ),
        min_size=1,
        max_size=8,
    ),
    delta=st.integers(min_value=-500, max_value=500),
)
def test_packed_matches_plaintext_pipeline(make_proxy, rows, delta):
    """The packed proxy answers exactly like the plaintext engine."""
    packed = make_proxy()
    conn = repro.connect(encrypted=False)
    plain = conn.cursor()
    for db in (packed, plain):
        db.execute("CREATE TABLE eq (id INT, x INT, y INT)")
        db.executemany(
            "INSERT INTO eq (id, x, y) VALUES (?, ?, ?)",
            [(i, x, y) for i, (x, y) in enumerate(rows)],
        )
        db.execute("UPDATE eq SET x = x + ?", (delta,))
        db.execute("UPDATE eq SET y = ? WHERE id = 0", (42,))
    queries = [
        "SELECT SUM(x), SUM(y), AVG(x), AVG(y), COUNT(*) FROM eq",
        "SELECT id, x, y FROM eq ORDER BY id",
    ]
    for sql in queries:
        plain.execute(sql)
        assert _rows(packed, sql) == plain.fetchall()
    conn.close()
