"""Byte-budgeted cache eviction and the measured ``estimated_bytes``.

The paper sizes its OPE cache in megabytes (§8.4.1); our cache now reports
a *measured* footprint (``sys.getsizeof`` walk over every memo container
and the HOM randomness pool) and, when the proxy is constructed with
``cache_budget_bytes``, evicts least-recently-used memo units after every
statement until the measurement fits.  Accuracy is pinned against an
independent walk over the raw containers; eviction is pinned by counters
and by the footprint staying at (or under) the configured ceiling.
"""

import sys

from repro.core.cache import CryptoCache, deep_size


def _walk(obj, seen):
    """Independent getsizeof walk (dict/list/tuple/set), one count per object."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += _walk(key, seen) + _walk(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += _walk(item, seen)
    return total


def _true_bytes(proxy):
    """Ground truth: walk every live cache container the proxy holds."""
    cache = proxy.cache
    seen: set = set()
    total = 0
    for memos in (cache._eq_encrypt_memos, cache._eq_decrypt_memos):
        for memo in memos.values():
            total += _walk(memo, seen)
    for scheme in cache._ope_schemes + cache._search_schemes:
        for container in scheme.cache_objects():
            total += _walk(container, seen)
    total += _walk(cache._hom_decrypt_memo.entries, seen)
    pool = proxy.paillier._randomness_pool
    total += sys.getsizeof(pool) + sum(sys.getsizeof(f) for f in pool)
    fixed_base = proxy.paillier._fixed_base
    if fixed_base is not None:
        # The fixed-base randomness table is resident pre-computation too.
        total += _walk([tables for _, tables in fixed_base.parts], seen)
    return total


def _seeded_workload(proxy, rows=40):
    proxy.execute(
        "CREATE TABLE w (id INT, qty INT, name VARCHAR(30), notes TEXT)"
    )
    proxy.executemany(
        "INSERT INTO w (id, qty, name, notes) VALUES (?, ?, ?, ?)",
        [(i, i % 7, f"name-{i % 11}", f"note words {i % 5}") for i in range(rows)],
    )
    proxy.execute("SELECT * FROM w WHERE qty > 2")
    proxy.execute("SELECT id, name FROM w WHERE name = 'name-3'")
    proxy.execute("SELECT id FROM w WHERE notes LIKE '%words%'")
    proxy.execute("SELECT id, qty FROM w ORDER BY qty")


def test_estimated_bytes_within_10_percent_of_truth(make_proxy):
    proxy = make_proxy(hom_precompute=16)
    _seeded_workload(proxy)
    estimated = proxy.stats.cache_stats().estimated_bytes
    truth = _true_bytes(proxy)
    assert truth > 0
    assert abs(estimated - truth) <= truth * 0.10, (estimated, truth)


def test_estimated_bytes_counts_the_hom_decrypt_memo(make_proxy):
    proxy = make_proxy(hom_precompute=16)
    _seeded_workload(proxy)
    before = proxy.stats.cache_stats().estimated_bytes
    for bound in range(1, 41):
        proxy.execute("SELECT SUM(qty), AVG(qty) FROM w WHERE id < ?", (bound,))
    stats = proxy.stats.cache_stats()
    assert stats.hom_decrypt_entries == 40
    assert stats.estimated_bytes > before
    truth = _true_bytes(proxy)
    assert abs(stats.estimated_bytes - truth) <= truth * 0.10, (stats.estimated_bytes, truth)


def test_budget_evicts_the_hom_decrypt_memo_before_the_randomness(paillier_keypair):
    from repro.crypto.paillier import PaillierKeyPair

    keys = PaillierKeyPair(paillier_keypair.public, paillier_keypair.private)
    cache = CryptoCache(keys)
    cache.precompute_hom(4)
    memo = cache.hom_decrypt_memo()
    for i in range(8):
        memo.put(10**300 + i, i)
    randomness, memo_bytes = keys.randomness_pool_bytes, memo.nbytes
    assert cache.statistics().estimated_bytes == randomness + memo_bytes
    cache.budget_bytes = randomness
    cache.enforce_budget()
    stats = cache.statistics()
    assert stats.hom_decrypt_entries == 0
    assert (stats.evictions, stats.evicted_bytes) == (1, memo_bytes)
    assert keys.randomness_pool_bytes == randomness
    assert stats.estimated_bytes == randomness


def test_estimated_bytes_counts_the_fixed_base_table(paillier_keypair, make_proxy):
    """The table is real resident memory: reported, capped and sheddable."""
    from repro.crypto.paillier import FIXED_BASE_TABLE_BYTES, PaillierKeyPair

    def fresh_keys():
        # Same key numbers, none of the session key pair's pre-computation.
        return PaillierKeyPair(paillier_keypair.public, paillier_keypair.private)

    without = make_proxy(paillier=fresh_keys(), hom_precompute=0)
    assert without.paillier._fixed_base is None
    baseline = without.stats.cache_stats().estimated_bytes
    proxy = make_proxy(paillier=fresh_keys(), hom_precompute=4)
    table_bytes = proxy.paillier._fixed_base.nbytes
    assert 0 < table_bytes <= FIXED_BASE_TABLE_BYTES
    assert proxy.paillier.randomness_pool_bytes > table_bytes
    assert proxy.stats.cache_stats().estimated_bytes >= baseline + table_bytes
    # A budget below the table's size sheds it (after the pooled factors);
    # encryption then pays the full r^n again but stays correct.
    proxy.cache.budget_bytes = table_bytes // 2
    proxy.cache.enforce_budget()
    assert proxy.paillier._fixed_base is None
    assert proxy.paillier.randomness_pool_size == 0
    assert proxy.stats.cache_stats().estimated_bytes <= table_bytes // 2
    assert proxy.paillier.decrypt(proxy.paillier.encrypt(41)) == 41


def test_estimated_bytes_tracks_growth(make_proxy):
    proxy = make_proxy(hom_precompute=0)
    proxy.execute("CREATE TABLE g (id INT, name VARCHAR(20))")
    before = proxy.stats.cache_stats().estimated_bytes
    proxy.executemany(
        "INSERT INTO g (id, name) VALUES (?, ?)",
        [(i, f"value-{i}") for i in range(50)],
    )
    after = proxy.stats.cache_stats().estimated_bytes
    assert after > before


def test_budget_evicts_and_counts(make_proxy):
    budget = 8 * 1024
    proxy = make_proxy(cache_budget_bytes=budget, hom_precompute=0)
    _seeded_workload(proxy, rows=120)
    stats = proxy.stats.cache_stats()
    assert stats.budget_bytes == budget
    assert stats.evictions > 0
    assert stats.evicted_bytes > 0
    assert stats.estimated_bytes <= budget


def test_no_budget_never_evicts(make_proxy):
    proxy = make_proxy(hom_precompute=0)
    _seeded_workload(proxy, rows=60)
    stats = proxy.stats.cache_stats()
    assert stats.evictions == 0
    assert stats.budget_bytes == 0


def test_hom_pool_trimmed_last(paillier_keypair, make_proxy):
    proxy = make_proxy(hom_precompute=0)
    proxy.cache.budget_bytes = 1  # everything must go
    proxy.cache.precompute_hom(8)
    _seeded_workload(proxy, rows=10)
    proxy.cache.enforce_budget()
    stats = proxy.stats.cache_stats()
    # Memos gone, and the pre-computed randomness was shed as well.
    assert stats.det_entries == 0
    assert stats.hom_pool_remaining == 0
    assert stats.evictions > 0


def test_eviction_keeps_answers_correct(make_proxy):
    tight = make_proxy(cache_budget_bytes=4 * 1024, hom_precompute=0)
    roomy = make_proxy(hom_precompute=0)
    for proxy in (tight, roomy):
        _seeded_workload(proxy, rows=80)
    for sql in (
        "SELECT id, qty, name FROM w ORDER BY id",
        "SELECT SUM(qty), AVG(qty) FROM w",
        "SELECT id FROM w WHERE name = 'name-7' ORDER BY id",
    ):
        assert tight.execute(sql).rows == roomy.execute(sql).rows
    assert tight.stats.cache_stats().evictions > 0


def test_deep_size_counts_shared_objects_once():
    shared = b"x" * 100
    container = {"a": shared, "b": shared}
    unshared = {"a": b"x" * 100, "b": b"y" * 100}
    assert deep_size(container) < deep_size(unshared)


def test_reset_counters_clears_eviction_totals(make_proxy):
    proxy = make_proxy(cache_budget_bytes=2 * 1024, hom_precompute=0)
    _seeded_workload(proxy)
    assert proxy.stats.cache_stats().evictions > 0
    proxy.stats.reset()
    stats = proxy.stats.cache_stats()
    assert stats.evictions == 0 and stats.evicted_bytes == 0


def test_lru_prefers_cold_memos(paillier_keypair):
    cache = CryptoCache(paillier_keypair, budget_bytes=None)
    cold = cache.eq_encrypt_memo("t", "cold", False)
    hot = cache.eq_encrypt_memo("t", "hot", False)
    for i in range(20):
        cold[b"c%d" % i] = b"d" * 48
        hot[b"h%d" % i] = b"d" * 48
    assert cache.eq_encrypt_memo("t", "cold", False) is cold
    assert cache.eq_encrypt_memo("t", "hot", False) is hot  # touched last
    cache.budget_bytes = cache.statistics().estimated_bytes - 1
    cache.enforce_budget()
    assert ("t", "cold") not in cache._eq_encrypt_memos
    assert ("t", "hot") in cache._eq_encrypt_memos
    assert cache.evictions == 1


def test_eq_encrypt_memo_restarts_when_the_layer_flips(paillier_keypair):
    """One ciphertext per value: the memo follows the column's Eq layer."""
    cache = CryptoCache(paillier_keypair)
    det = cache.eq_encrypt_memo("t", "c", join_layer=False)
    det[b"v"] = b"det-layer ciphertext"
    assert cache.eq_encrypt_memo("t", "c", join_layer=False) is det
    join = cache.eq_encrypt_memo("t", "c", join_layer=True)    # onion lowered
    assert join == {} and join is not det
    join[b"v"] = b"join-layer ciphertext"
    assert cache.eq_encrypt_memo("t", "c", join_layer=False) == {}  # e.g. ROLLBACK
    assert cache.statistics().det_entries == 0
