"""One Paillier decryption path and its memo (§3.5.2 for HOM answers).

``Encryptor.hom_plaintexts`` is the only caller of
``PaillierKeyPair.decrypt`` in the proxy.  It splits PSUM blobs into their
chunks, decrypts each distinct ciphertext once per call, and -- unless the
cache is disabled (Figure 12's Proxy*) -- answers a ciphertext it has seen
before from the cache's bounded HOM decryption memo.  A SUM over rows nobody
has written since is the same product of stored cells, so the same
ciphertext; a write gives a new one, which misses.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import cache as cache_module
from repro.core.cache import CryptoCache, HomDecryptMemo, deep_size
from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.paillier import (
    PACKING,
    PaillierKeyPair,
    decode_partial_sums,
    encode_partial_sums,
    is_partial_sum_blob,
)


@pytest.fixture()
def decrypt_calls(monkeypatch):
    """Counts every ``PaillierKeyPair.decrypt`` made in this process."""
    calls = []
    original = PaillierKeyPair.decrypt

    def counting(self, ciphertext):
        calls.append(ciphertext)
        return original(self, ciphertext)

    monkeypatch.setattr(PaillierKeyPair, "decrypt", counting)
    return calls


def _encryptor(keypair, enabled=True):
    master = MasterKey.from_passphrase("hom-decrypt-memo")
    return Encryptor(
        KeyManager(master),
        JoinManager(master.material),
        keypair,
        PACKING,
        cache=CryptoCache(keypair, enabled=enabled),
    )


def _hom_stats(proxy):
    stats = proxy.stats.cache_stats()
    return stats.hom_decrypt_hits, stats.hom_decrypt_misses, stats.hom_decrypt_entries


_ROW = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(2**40), max_value=2**40)),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.lists(
        st.one_of(
            st.none(),
            st.tuples(_ROW),  # one packed cell
            st.lists(_ROW, min_size=2, max_size=3),  # a multi-chunk PSUM blob
        ),
        min_size=1,
        max_size=5,
    )
)
def test_memoised_and_direct_decryption_agree(paillier_keypair, values):
    encrypt = paillier_keypair.encrypt
    encoded = []
    for value in values:
        if value is None:
            encoded.append(None)
            continue
        cells = [encrypt(PACKING.encode_cell(row)) for row in value]
        encoded.append(cells[0] if len(cells) == 1 else encode_partial_sums(cells))
    # Repeat every value so the batch holds duplicates as well.
    encoded = encoded + encoded
    direct = [
        None if value is None
        else tuple(paillier_keypair.decrypt(cell) for cell in _chunks(value))
        for value in encoded
    ]
    encryptor = _encryptor(paillier_keypair)
    first = encryptor.hom_plaintexts(encoded)
    second = encryptor.hom_plaintexts(encoded)  # every chunk now hits
    proxy_star = _encryptor(paillier_keypair, enabled=False).hom_plaintexts(encoded)
    assert first == second == proxy_star == direct
    assert encryptor.cache.hom_decrypt_misses == len(
        {cell for value in encoded if value is not None for cell in _chunks(value)}
    )


def _chunks(value):
    return decode_partial_sums(value) if is_partial_sum_blob(value) else [value]


def test_repeated_sum_hits_and_a_write_misses(proxy, decrypt_calls):
    proxy.execute("CREATE TABLE o (id INT, qty INT, amount DECIMAL(8,2))")
    proxy.executemany(
        "INSERT INTO o (id, qty, amount) VALUES (?, ?, ?)",
        [(i, i % 4, i * 1.25) for i in range(12)],
    )
    proxy.stats.reset()
    decrypt_calls.clear()
    query = "SELECT SUM(qty), AVG(amount) FROM o WHERE id < ?"
    assert proxy.execute(query, (6,)).rows == [(7, 3.125)]
    assert len(decrypt_calls) == 1  # both aggregates read one HOM group cell
    assert _hom_stats(proxy)[:2] == (1, 1)
    assert proxy.execute(query, (6,)).rows == [(7, 3.125)]
    assert len(decrypt_calls) == 1
    assert _hom_stats(proxy)[:2] == (3, 1)
    proxy.execute("UPDATE o SET qty = qty + 1 WHERE id = 2")
    assert proxy.execute(query, (6,)).rows == [(8, 3.125)]
    assert len(decrypt_calls) == 2  # the written row changed the aggregate
    assert _hom_stats(proxy)[:2] == (4, 2)


def test_two_sums_over_one_group_make_one_decryption(proxy, decrypt_calls):
    proxy.execute("CREATE TABLE g2 (id INT, a INT, b INT)")
    proxy.executemany(
        "INSERT INTO g2 (id, a, b) VALUES (?, ?, ?)", [(1, 10, 5), (2, 20, None)]
    )
    decrypt_calls.clear()
    assert proxy.execute("SELECT SUM(a), SUM(b) FROM g2").rows == [(30, 5)]
    assert len(decrypt_calls) == 1


def test_proxy_star_decrypts_each_distinct_ciphertext_once_per_call(
    make_proxy, paillier_keypair, decrypt_calls
):
    fresh = PaillierKeyPair(paillier_keypair.public, paillier_keypair.private)
    star = make_proxy(paillier=fresh, use_ciphertext_cache=False, hom_precompute=0)
    assert star.cache.hom_decrypt_memo() is None
    star.execute("CREATE TABLE s (id INT, a INT, b INT)")
    star.execute("INSERT INTO s (id, a, b) VALUES (1, 3, 4), (2, 5, 6)")
    decrypt_calls.clear()
    for _ in range(2):
        assert star.execute("SELECT SUM(a), SUM(b) FROM s").rows == [(8, 10)]
    # Nothing is memoised across statements: each SUM item decrypts anew.
    assert len(decrypt_calls) == 4
    assert _hom_stats(star) == (0, 0, 0)
    # Within one call each distinct ciphertext is decrypted once.
    cell = fresh.encrypt(PACKING.encode_cell([7]))
    other = fresh.encrypt(PACKING.encode_cell([9]))
    decrypt_calls.clear()
    star.encryptor.hom_plaintexts([cell, cell, encode_partial_sums([cell, other]), None])
    assert sorted(decrypt_calls) == sorted([cell, other])


def test_repeated_sum_over_three_shards_hits_the_memo(make_proxy, decrypt_calls):
    from repro.shard import ShardedBackend

    backend = ShardedBackend(shards=3)
    sharded = make_proxy(db=backend)
    sharded.execute("CREATE TABLE sh (id INT, v INT)")
    sharded.executemany("INSERT INTO sh (id, v) VALUES (?, ?)", [(i, i) for i in range(30)])
    shards_with_rows = sum(1 for shard in backend.backends if any(shard.row_counts().values()))
    assert shards_with_rows == 3
    sharded.stats.reset()
    decrypt_calls.clear()
    assert sharded.execute("SELECT SUM(v) FROM sh").rows == [(435,)]
    assert len(decrypt_calls) == 3  # one partial per shard, merged keylessly
    assert sharded.execute("SELECT SUM(v) FROM sh").rows == [(435,)]
    assert len(decrypt_calls) == 3
    hits, misses, _ = _hom_stats(sharded)
    assert (hits, misses) == (3, 3)
    backend.close()


def test_reset_zeroes_hits_and_misses_but_keeps_entries(proxy):
    proxy.execute("CREATE TABLE r (id INT, v INT)")
    proxy.execute("INSERT INTO r (id, v) VALUES (1, 2), (2, 3)")
    proxy.execute("SELECT SUM(v) FROM r")
    proxy.execute("SELECT SUM(v) FROM r")
    hits, misses, entries = _hom_stats(proxy)
    assert hits >= 1 and misses >= 1 and entries >= 1
    assert proxy.stats.cache_stats().as_dict()["hom_decrypt_entries"] == entries
    proxy.stats.reset()
    assert _hom_stats(proxy) == (0, 0, entries)


def test_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(cache_module, "HOM_DECRYPT_MEMO_ENTRIES", 4)
    memo = HomDecryptMemo()
    for ciphertext in range(10, 14):
        memo.put(ciphertext, ciphertext * 2)
    assert memo.get(10) == 20  # refreshed: now the most recently used
    memo.put(14, 28)
    memo.put(15, 30)
    assert len(memo) == 4
    assert memo.get(11) is None and memo.get(12) is None
    assert [memo.get(c) for c in (10, 13, 14, 15)] == [20, 26, 28, 30]


def test_full_memo_stays_under_half_a_mebibyte():
    """At the real bound, with full-width entries of a 1024-bit key."""
    memo = HomDecryptMemo()
    n = (1 << 1023) | 1
    for i in range(cache_module.HOM_DECRYPT_MEMO_ENTRIES + 100):
        memo.put(n * n - 1 - i, n - 1 - i)
    assert len(memo) == cache_module.HOM_DECRYPT_MEMO_ENTRIES
    assert memo.nbytes == deep_size(memo.entries)
    assert memo.nbytes < 512 * 1024
    assert sys.getsizeof(n * n - 1) == sys.getsizeof(next(iter(memo.entries)))
