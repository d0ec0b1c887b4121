"""Rewrite-plan cache: hits, invalidation on onion adjustment, statistics."""

import pytest

from repro.errors import ProxyError
from repro.sql.parameters import normalize_statement_text


@pytest.fixture()
def loaded(make_proxy):
    proxy = make_proxy()
    proxy.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
    proxy.executemany(
        "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
        [(1, "Alice", 70000), (2, "Bob", 50000), (3, "Carol", 90000)],
    )
    return proxy


def test_repeated_shape_hits_cache_and_skips_rewrite(loaded):
    proxy = loaded
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))  # miss + adjust
    proxy.execute("SELECT name FROM emp WHERE id = ?", (2,))  # miss (adjusted)
    rewrites_before = proxy.stats.queries_rewritten
    hits_before = proxy.stats.plan_cache_hits
    for key in (3, 1, 2):
        assert proxy.execute("SELECT name FROM emp WHERE id = ?", (key,)).rows
    assert proxy.stats.plan_cache_hits == hits_before + 3
    assert proxy.stats.queries_rewritten == rewrites_before  # no re-rewrites


def test_cache_key_is_shape_not_spelling(loaded):
    proxy = loaded
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    hits_before = proxy.stats.plan_cache_hits
    # Different whitespace and keyword case, same normalized shape.
    result = proxy.execute("select   name\nFROM emp   where id = ?", (3,))
    assert result.rows == [("Carol",)]
    assert proxy.stats.plan_cache_hits == hits_before + 1
    assert normalize_statement_text("select  a from t") == normalize_statement_text(
        "SELECT a FROM t"
    )


def test_onion_adjustment_invalidates_cached_plans(loaded):
    proxy = loaded
    # Cache an equality plan bound to the Eq onion's DET layer.
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    proxy.execute("SELECT name FROM emp WHERE id = ?", (2,))
    assert proxy.stats.plan_cache_hits >= 1

    # A join against a second table lowers emp.id all the way to JOIN and
    # re-keys its JOIN-ADJ component: the cached DET-level plan is now wrong.
    proxy.execute("CREATE TABLE dept (eid int, dname varchar(20))")
    proxy.executemany(
        "INSERT INTO dept (eid, dname) VALUES (?, ?)", [(1, "sales"), (3, "eng")]
    )
    proxy.execute("SELECT name, dname FROM emp JOIN dept ON id = eid")

    invalidations_before = proxy.stats.plan_cache_invalidations
    # Same shape again: must be re-rewritten at the JOIN layer, and still
    # return correct results (a stale plan would silently match nothing).
    result = proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    assert result.rows == [("Alice",)]
    assert proxy.stats.plan_cache_invalidations == invalidations_before + 1


def test_mid_session_range_adjustment_invalidates(loaded):
    proxy = loaded
    proxy.execute("SELECT salary FROM emp WHERE id = ?", (1,))
    proxy.execute("SELECT salary FROM emp WHERE id = ?", (2,))
    hits_before = proxy.stats.plan_cache_hits
    # Lowering salary's Ord onion mid-session bumps the schema version.
    proxy.execute("SELECT id FROM emp WHERE salary > ?", (60000,))
    result = proxy.execute("SELECT salary FROM emp WHERE id = ?", (3,))
    assert result.rows == [(90000,)]
    # The projection plan was discarded (version change), not served stale.
    assert proxy.stats.plan_cache_invalidations >= 1
    assert proxy.stats.plan_cache_hits >= hits_before


def test_hom_increment_invalidates_projection_plans(loaded):
    proxy = loaded
    assert proxy.execute("SELECT salary FROM emp WHERE id = ?", (2,)).rows == [(50000,)]
    proxy.execute("UPDATE emp SET salary = salary + ?", (7,))
    # The cached projection read the Eq onion; after the increment only the
    # Add onion is fresh, so the plan must be rebuilt, not replayed.
    assert proxy.execute("SELECT salary FROM emp WHERE id = ?", (2,)).rows == [(50007,)]


def test_results_identical_with_cache_disabled(make_proxy):
    queries = [
        ("SELECT name FROM emp WHERE id = ?", (1,)),
        ("SELECT name FROM emp WHERE id = ?", (2,)),
        ("SELECT id FROM emp WHERE salary BETWEEN ? AND ? ORDER BY id", (40000, 80000)),
        ("SELECT id FROM emp WHERE salary BETWEEN ? AND ? ORDER BY id", (80000, 99000)),
        ("SELECT SUM(salary) FROM emp", ()),
    ]

    def run(plan_cache_size):
        proxy = make_proxy(plan_cache_size=plan_cache_size)
        proxy.execute("CREATE TABLE emp (id int, name varchar(50), salary int)")
        proxy.executemany(
            "INSERT INTO emp (id, name, salary) VALUES (?, ?, ?)",
            [(1, "Alice", 70000), (2, "Bob", 50000), (3, "Carol", 90000)],
        )
        return [proxy.execute(sql, params).rows for sql, params in queries]

    cached = run(plan_cache_size=256)
    uncached = run(plan_cache_size=0)
    assert cached == uncached


def test_literal_write_plans_are_cached_with_fresh_randomness(loaded):
    """A literal binds like a ``?``: the plan is cached, IVs stay fresh."""
    proxy = loaded
    sql = "INSERT INTO emp (id, name, salary) VALUES (9, 'Zed', 1)"
    proxy.execute(sql)
    rewrites_before = proxy.stats.queries_rewritten
    proxy.execute("INSERT INTO emp (id, name, salary) VALUES (9, 'Zed', 1)")
    assert proxy.stats.queries_rewritten == rewrites_before  # one rewrite, cached
    eq_cells = set()
    for _, row in proxy.db.table("table1").scan():
        eq_cells.add(bytes(row["C2_Eq"]))
    # Same plaintext inserted twice still produced distinct RND ciphertexts.
    assert proxy.execute("SELECT COUNT(*) FROM emp WHERE name = ?", ("Zed",)).scalar() == 2
    assert len(eq_cells) == 5


def test_cache_capacity_is_bounded(make_proxy):
    proxy = make_proxy(plan_cache_size=4)
    proxy.execute("CREATE TABLE t (a int)")
    proxy.execute("INSERT INTO t (a) VALUES (?)", (1,))
    for i in range(10):
        proxy.execute(f"SELECT a FROM t WHERE a = {i}")
    assert len(proxy.plan_cache) <= 4


def test_parameter_count_enforced(loaded):
    with pytest.raises(ProxyError):
        loaded.execute("SELECT name FROM emp WHERE id = ?", (1, 2))
    prepared = loaded.prepare("SELECT name FROM emp WHERE id = ?")
    with pytest.raises(ProxyError):
        loaded.execute_prepared(prepared, ())


def test_per_type_timings_are_running_totals(loaded):
    """One [count, seconds] pair per kind however many statements run; an
    N-row executemany counts N statements."""
    proxy = loaded
    for _ in range(40):
        proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    totals = proxy.stats.per_query_type_totals
    assert sorted(totals) == ["CREATE TABLE", "INSERT", "SELECT"]
    assert all(len(entry) == 2 for entry in totals.values())
    summary = proxy.stats.query_type_summary()
    assert summary["SELECT"]["count"] == 40
    assert summary["INSERT"]["count"] == 3
    assert summary["SELECT"]["total_seconds"] == pytest.approx(
        summary["SELECT"]["mean_ms"] * 40 / 1000
    )


def test_stats_reset_and_per_type_timings(loaded):
    proxy = loaded
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    proxy.execute("DELETE FROM emp WHERE id = ?", (3,))
    summary = proxy.stats.query_type_summary()
    assert summary["SELECT"]["count"] >= 1
    assert summary["INSERT"]["count"] >= 1  # from the fixture's executemany
    assert summary["DELETE"]["count"] == 1
    assert summary["SELECT"]["mean_ms"] > 0
    assert proxy.stats.plan_cache_misses > 0

    proxy.stats.reset()
    assert proxy.stats.queries_processed == 0
    assert proxy.stats.plan_cache_hits == 0
    assert proxy.stats.plan_cache_misses == 0
    assert proxy.stats.per_query_type_totals == {}
    assert proxy.stats.query_type_summary() == {}
    assert proxy.stats.proxy_time_seconds == 0.0
    # The proxy keeps working (and counting) after a reset.
    proxy.execute("SELECT name FROM emp WHERE id = ?", (1,))
    assert proxy.stats.queries_processed == 1
