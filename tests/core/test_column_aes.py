"""Column-shaped AES work goes through the batched kernel, and stays countable.

A result column or an ``executemany`` batch is hundreds of AES blocks under
one key; they must reach :meth:`AES.encrypt_blocks` / ``decrypt_blocks`` as
columns (zero per-block calls), while input shorter than the crossover keeps
the single-block cipher.  Batched blocks are reported by ``cache_stats()``
(``aes_batched_blocks`` / ``aes_batch_calls``), so per-block calls plus
batched blocks always add up to the blocks the per-block path would have
processed: the work is batched, not dropped.
"""

import hashlib
import itertools

import pytest

from repro.core.onion import EncryptionScheme, Onion
from repro.crypto import aes
from repro.crypto import rnd as rnd_module
from repro.crypto import search as search_module
from repro.crypto.aes import AES
from repro.crypto.det import DET
from repro.crypto.rnd import RND
from repro.errors import CryptoError


@pytest.fixture()
def block_calls(monkeypatch):
    """Counts ``AES.encrypt_block`` / ``decrypt_block`` calls (one block each)."""
    calls = {"encrypt_block": 0, "decrypt_block": 0}
    for name in calls:
        original = getattr(AES, name)

        def counted(self, block, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, block)

        monkeypatch.setattr(AES, name, counted)
    return calls


def _load(proxy, rows=80):
    proxy.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
    proxy.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(i, f"employee-{i}", 1000 + i) for i in range(rows)],
    )
    return proxy


def test_an_80_row_rnd_column_makes_no_per_block_decrypt_call(make_proxy, block_calls):
    proxy = _load(make_proxy())
    proxy.stats.reset()
    block_calls.update(encrypt_block=0, decrypt_block=0)
    rows = proxy.execute("SELECT id, name FROM emp").rows
    assert sorted(rows) == [(i, f"employee-{i}") for i in range(80)]
    assert block_calls == {"encrypt_block": 0, "decrypt_block": 0}
    stats = proxy.stats.cache_stats()
    # Two columns, three layers each (RND, DET, DET-JOIN): at least one pass
    # per layer, and every stored block of both columns went through one.
    assert stats.aes_batch_calls >= 6
    assert stats.aes_batched_blocks >= 2 * 80 * 6


def test_a_one_row_column_below_the_crossover_makes_exactly_its_block_count(
    make_proxy, block_calls
):
    proxy = _load(make_proxy(), rows=1)
    column = proxy.schema.column("emp", "id")
    encryptor = proxy.encryptor
    (join_ct,) = encryptor.encrypt_constants_many(column, Onion.EQ, EncryptionScheme.JOIN, [0])
    proxy.cache.clear()
    proxy.stats.reset()
    block_calls.update(encrypt_block=0, decrypt_block=0)
    assert encryptor.decrypt_column(column, Onion.EQ, EncryptionScheme.JOIN, [join_ct]) == [0]
    # The DET-JOIN component of an integer is one block; CMC decrypts it twice.
    assert block_calls == {"encrypt_block": 0, "decrypt_block": 2}
    assert proxy.stats.cache_stats().aes_batched_blocks == 0


def test_a_50_row_executemany_makes_no_per_block_call_for_the_rnd_layer(
    make_proxy, block_calls, monkeypatch
):
    proxy = make_proxy()
    proxy.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
    rnd_layer = {"columns": 0, "per_block": 0}
    original = RND.encrypt_bytes_many

    def watched(self, plaintexts, ivs):
        before = block_calls["encrypt_block"]
        out = original(self, plaintexts, ivs)
        rnd_layer["columns"] += 1
        rnd_layer["per_block"] += block_calls["encrypt_block"] - before
        return out

    monkeypatch.setattr(RND, "encrypt_bytes_many", watched)
    proxy.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(i, f"employee-{i}", 1000 + i) for i in range(50)],
    )
    assert rnd_layer == {"columns": 3, "per_block": 0}
    assert proxy.execute("SELECT COUNT(*) FROM emp WHERE name = ?", ("employee-7",)).scalar() == 1


STATEMENTS = [
    ("SELECT id, name FROM emp WHERE salary = ?", (1003,)),
    ("SELECT name FROM emp WHERE id > ? ORDER BY id", (30,)),
    ("INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)", (99, "late", 5)),
    ("SELECT e.name, d.dname FROM emp e JOIN dept d ON e.id = d.eid", ()),
    ("UPDATE emp SET name = ? WHERE id = ?", ("renamed", 2)),
    ("SELECT id, name, salary FROM emp", ()),
]


def _stored_cells(proxy):
    """Every backend cell except the Paillier ones (their randomness is fresh)."""
    return {
        name: [
            {column: cell for column, cell in row.items() if not column.endswith("_Add")}
            for _, row in proxy.db.table(name).scan()
        ]
        for name in proxy.db.table_names()
    }


def _aes_work(make_proxy, block_calls, monkeypatch):
    """(per-block calls, batched blocks, answers, stored cells) of the statement list.

    IVs and SEARCH salts come from a fixed stream, so two runs must store the
    same bytes.
    """
    stream = itertools.count()

    def fixed_bytes(n):
        blocks = [hashlib.sha256(b"iv-%d" % next(stream)).digest() for _ in range(-(-n // 32))]
        return b"".join(blocks)[:n]

    monkeypatch.setattr(rnd_module, "random_bytes", fixed_bytes)
    monkeypatch.setattr(search_module, "random_bytes", fixed_bytes)
    proxy = _load(make_proxy(), rows=40)
    proxy.execute("CREATE TABLE dept (eid int, dname varchar(20))")
    proxy.executemany(
        "INSERT INTO dept (eid, dname) VALUES (?, ?)", [(i, f"dept-{i % 4}") for i in range(10)]
    )
    proxy.stats.reset()
    block_calls.update(encrypt_block=0, decrypt_block=0)
    answers = [proxy.execute(sql, params).rows for sql, params in STATEMENTS]
    per_block = block_calls["encrypt_block"] + block_calls["decrypt_block"]
    batched = proxy.stats.cache_stats().aes_batched_blocks
    return per_block, batched, answers, _stored_cells(proxy)


def test_batched_blocks_plus_per_block_calls_equal_the_per_block_path(
    make_proxy, block_calls, monkeypatch
):
    """The batch counters account for every block the T-table loop would run,
    and batching changes no stored byte."""
    per_block, batched, answers, stored = _aes_work(make_proxy, block_calls, monkeypatch)
    assert batched > 10 * per_block > 0  # the list exercises both sides
    # The parent's behaviour: the same modes with every block through
    # encrypt_block / decrypt_block (no input is long enough to batch).
    monkeypatch.setattr(aes, "BATCH_MIN_BLOCKS", 1 << 60)
    loop_per_block, loop_batched, loop_answers, loop_stored = _aes_work(
        make_proxy, block_calls, monkeypatch
    )
    assert loop_batched == 0
    assert per_block + batched == loop_per_block
    assert [sorted(rows) for rows in answers] == [sorted(rows) for rows in loop_answers]
    # Same IVs, same keys: the backend holds the same bytes either way.
    assert stored == loop_stored


def test_reset_clears_the_batch_counters_without_touching_the_process_tally(make_proxy):
    proxy = _load(make_proxy())
    assert proxy.stats.cache_stats().aes_batched_blocks > 0
    tally = aes.BATCH_TALLY.snapshot()
    proxy.stats.reset()
    stats = proxy.stats.cache_stats()
    assert (stats.aes_batched_blocks, stats.aes_batch_calls) == (0, 0)
    assert aes.BATCH_TALLY.snapshot() == tally


# -- error semantics of a batch, at the memo level -----------------------------
def test_a_malformed_cell_fails_the_column_and_leaves_the_decrypt_memo_untouched(make_proxy):
    proxy = _load(make_proxy(), rows=20)
    column = proxy.schema.column("emp", "name")
    encryptor = proxy.encryptor
    good = encryptor.encrypt_constants_many(
        column, Onion.EQ, EncryptionScheme.DET, [f"employee-{i}" for i in range(20)]
    )
    proxy.cache.clear()
    memo = proxy.cache.eq_decrypt_memo("emp", "name")
    for bad in (good[4][:-1], b"", good[4][:16] + bytes(len(good[4]) - 16)):
        cells = list(good)
        cells[11] = bad
        with pytest.raises(CryptoError):
            encryptor.decrypt_column(column, Onion.EQ, EncryptionScheme.DET, cells)
        assert memo == {}
    cells = list(good)
    cells[11] = None  # NULLs pass through
    decrypted = encryptor.decrypt_column(column, Onion.EQ, EncryptionScheme.DET, cells)
    assert decrypted[11] is None and decrypted[12] == "employee-12"
    assert len(memo) == 19


def test_a_missing_iv_fails_the_rnd_column_with_a_crypto_error(make_proxy):
    proxy = _load(make_proxy(), rows=5)
    column = proxy.schema.column("emp", "name")
    cells = proxy.encryptor.encrypt_column_values(column, [f"n{i}" for i in range(5)])
    eq = cells[column.onion_state(Onion.EQ).anon_name]
    ivs = list(cells[column.iv_column])
    rnd = RND(proxy.encryptor.layer_key(column, Onion.EQ, EncryptionScheme.RND))
    for bad_iv in (None, ivs[2][:8]):
        broken = ivs[:2] + [bad_iv] + ivs[3:]
        with pytest.raises(CryptoError):
            proxy.encryptor.decrypt_column(column, Onion.EQ, EncryptionScheme.RND, eq, broken)
        with pytest.raises(CryptoError):
            rnd.decrypt_bytes_many(eq, broken)
    assert proxy.encryptor.decrypt_column(
        column, Onion.EQ, EncryptionScheme.RND, eq, ivs
    ) == [f"n{i}" for i in range(5)]


def test_a_failure_in_the_det_layer_leaves_the_encrypt_memo_untouched(make_proxy, monkeypatch):
    proxy = _load(make_proxy(), rows=1)
    column = proxy.schema.column("emp", "name")
    encryptor = proxy.encryptor
    proxy.cache.clear()
    memo = proxy.cache.eq_encrypt_memo("emp", "name", False)
    original = DET.encrypt_bytes_many
    calls = {"count": 0}

    def fail_on_the_outer_layer(self, plaintexts):
        calls["count"] += 1
        if calls["count"] == 2:  # DET-JOIN succeeded; the DET layer dies
            raise CryptoError("interrupted between layers")
        return original(self, plaintexts)

    with monkeypatch.context() as patched:
        patched.setattr(DET, "encrypt_bytes_many", fail_on_the_outer_layer)
        with pytest.raises(CryptoError):
            encryptor.encrypt_constants_many(
                column, Onion.EQ, EncryptionScheme.DET, ["x", "y", "x"]
            )
    assert memo == {}
    cells = encryptor.encrypt_constants_many(column, Onion.EQ, EncryptionScheme.DET, ["x", "y", "x"])
    assert cells[0] == cells[2] != cells[1] and len(memo) == 2
