"""Single-statement binding goes through the memoised columnar kernels.

§3.5.2: a constant or row value bound a second time costs a dictionary
lookup, not a JOIN-ADJ curve multiplication and two CMC passes.  The memo
must be dropped whenever the ciphertexts a column stores change (JOIN-ADJ
re-keying, ROLLBACK), and with ``use_ciphertext_cache=False`` (Figure 12's
Proxy*) nothing may be memoised at all.
"""

import pytest

from repro.crypto import join_adj, paillier
from repro.crypto.paillier import PaillierKeyPair


@pytest.fixture()
def ecc_calls(monkeypatch):
    """Counts plaintexts hashed by JOIN-ADJ (one curve multiply each)."""
    calls = {"values": 0}
    hash_value, hash_values = join_adj.JoinAdj.hash_value, join_adj.JoinAdj.hash_values

    def counted_value(self, value):
        calls["values"] += 1
        return hash_value(self, value)

    def counted_values(self, values):
        calls["values"] += len(values)
        return hash_values(self, values)

    monkeypatch.setattr(join_adj.JoinAdj, "hash_value", counted_value)
    monkeypatch.setattr(join_adj.JoinAdj, "hash_values", counted_values)
    return calls


def _load(proxy):
    proxy.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
    proxy.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(1, "Alice", 70000), (2, "Bob", 50000), (3, "Carol", 90000)],
    )
    return proxy


def test_repeated_select_constant_is_one_lookup(make_proxy, ecc_calls):
    proxy = _load(make_proxy())
    sql = "SELECT id FROM emp WHERE name = ?"
    assert proxy.execute(sql, ("Dave",)).rows == []       # first sight: one multiply
    after_first = ecc_calls["values"]
    hits_before = proxy.stats.cache_stats().det_hits
    assert proxy.execute(sql, ("Dave",)).rows == []
    assert proxy.execute(sql, ("Alice",)).rows == [(1,)]  # loaded by executemany
    assert ecc_calls["values"] == after_first
    assert proxy.stats.cache_stats().det_hits >= hits_before + 2


def test_repeated_insert_value_is_memoised_but_randomised(make_proxy, ecc_calls):
    proxy = _load(make_proxy())
    sql = "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)"
    proxy.execute(sql, (4, "Erin", 1234))
    after_first = ecc_calls["values"]
    proxy.execute(sql, (4, "Erin", 1234))
    assert ecc_calls["values"] == after_first
    # The deterministic layers were reused; the stored cells were not.
    rows = [row for _, row in proxy.db.table("table1").scan()][-2:]
    for part in ("C1_Eq", "C2_Eq", "C3_Eq", "C1_IV"):
        assert rows[0][part] != rows[1][part]
    assert rows[0]["H0_Add"] != rows[1]["H0_Add"]
    assert proxy.execute("SELECT COUNT(*) FROM emp WHERE name = ?", ("Erin",)).scalar() == 2


def test_join_rekey_between_executions_forces_reencryption(make_proxy, ecc_calls):
    proxy = _load(make_proxy())
    sql = "SELECT name FROM emp WHERE id = ?"
    assert proxy.execute(sql, (3,)).rows == [("Carol",)]
    assert proxy.execute(sql, (3,)).rows == [("Carol",)]
    proxy.execute("CREATE TABLE dept (eid int, dname varchar(20))")
    proxy.executemany(
        "INSERT INTO dept (eid, dname) VALUES (?, ?)", [(1, "sales"), (3, "eng")]
    )
    # dept.eid sorts before emp.id, so emp.id is re-keyed onto it.
    assert sorted(
        proxy.execute("SELECT name, dname FROM emp JOIN dept ON id = eid").rows
    ) == [("Alice", "sales"), ("Carol", "eng")]
    before = ecc_calls["values"]
    assert proxy.execute(sql, (3,)).rows == [("Carol",)]   # stale memo would miss
    assert ecc_calls["values"] == before + 1
    assert proxy.execute(sql, (3,)).rows == [("Carol",)]
    assert ecc_calls["values"] == before + 1


def test_rollback_of_a_rekey_forces_reencryption(make_proxy, ecc_calls):
    proxy = _load(make_proxy())
    proxy.execute("CREATE TABLE dept (eid int, dname varchar(20))")
    proxy.executemany(
        "INSERT INTO dept (eid, dname) VALUES (?, ?)", [(1, "sales"), (3, "eng")]
    )
    sql = "SELECT name FROM emp WHERE id = ?"
    assert proxy.execute(sql, (1,)).rows == [("Alice",)]
    proxy.execute("BEGIN")
    assert len(proxy.execute("SELECT name, dname FROM emp JOIN dept ON id = eid").rows) == 2
    assert proxy.execute(sql, (1,)).rows == [("Alice",)]   # memoised under the new key
    proxy.execute("ROLLBACK")
    before = ecc_calls["values"]
    assert proxy.execute(sql, (1,)).rows == [("Alice",)]   # back under the old key
    assert ecc_calls["values"] == before + 1


def test_proxy_star_pays_full_price_every_time(paillier_keypair, make_proxy, ecc_calls, monkeypatch):
    """Figure 12's ablation: no memo, no table, full-width r^n, by count."""
    keys = PaillierKeyPair(paillier_keypair.public, paillier_keypair.private)
    proxy = _load(make_proxy(paillier=keys, use_ciphertext_cache=False, hom_precompute=0))
    assert keys._fixed_base is None and keys.randomness_pool_size == 0

    full_width = {"calls": 0}
    pow_to_n = paillier._CrtContext.pow_to_n

    def counted_pow(self, r, n, n_squared):
        assert r.bit_length() > n.bit_length() // 2     # a full-width r, not h_s^x
        full_width["calls"] += 1
        return pow_to_n(self, r, n, n_squared)

    monkeypatch.setattr(paillier._CrtContext, "pow_to_n", counted_pow)

    sql = "SELECT id FROM emp WHERE name = ?"
    for _ in range(3):
        before = ecc_calls["values"]
        assert proxy.execute(sql, ("Alice",)).rows == [(1,)]
        assert ecc_calls["values"] == before + 1          # an ECC multiply each time
    for _ in range(2):
        before = full_width["calls"]
        proxy.execute("UPDATE emp SET salary = salary + ? WHERE id = ?", (5, 2))
        assert full_width["calls"] == before + 1          # one r^n per HOM encryption
    assert proxy.execute("SELECT salary FROM emp WHERE id = ?", (2,)).rows == [(50010,)]
    stats = proxy.stats.cache_stats()
    assert stats.det_entries == 0 and stats.det_hits == 0 and stats.det_misses == 0
    assert keys._fixed_base is None and stats.hom_pool_hits == 0


def test_literal_increment_plan_is_cached_with_fresh_randomness(make_proxy):
    proxy = _load(make_proxy())
    sql = "UPDATE emp SET salary = salary + 1 WHERE id = ?"
    proxy.execute(sql, (1,))
    rewrites, hits = proxy.stats.queries_rewritten, proxy.stats.plan_cache_hits
    prepared = proxy.prepare(sql)
    (delta_slot,) = [slot for slot in prepared.plan.param_slots if slot.kind == "hom_delta"]
    seen = set()
    for _ in range(3):
        proxy.execute(sql, (1,))
        seen.add(delta_slot.target.value)
    assert proxy.stats.queries_rewritten == rewrites       # never re-rewritten
    assert proxy.stats.plan_cache_hits == hits + 4         # prepare() + 3 executes
    assert len(seen) == 3                                  # a fresh ciphertext each time
    assert all(proxy.paillier.decrypt(ct) != 0 for ct in seen)
    assert proxy.execute("SELECT salary FROM emp WHERE id = ?", (1,)).rows == [(70004,)]
    # No parameters at all: the literal slot still binds on every execution.
    proxy.execute("UPDATE emp SET salary = salary - 4")
    proxy.execute("UPDATE emp SET salary = salary - 4")
    assert proxy.execute("SELECT salary FROM emp ORDER BY id").rows == [
        (69996,), (49992,), (89992,)
    ]
    # And through executemany, where the literal rides every row of the batch.
    proxy.executemany(sql, [(2,), (2,), (3,)])
    assert proxy.execute("SELECT salary FROM emp ORDER BY id").rows == [
        (69996,), (49994,), (89993,)
    ]
