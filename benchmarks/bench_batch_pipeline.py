"""Columnar batch pipeline: scalar vs batched bulk load, hash vs nested join.

PR 1 made ``executemany`` reuse one rewrite plan but still executed (and
encrypted) row by row.  The batched pipeline encrypts parameter batches
column-at-a-time -- deduplicating the deterministic DET/JOIN/OPE/SEARCH
layers through the unified ciphertext cache (§3.5.2) -- and forwards a
single multi-row INSERT to the DBMS.  The engine, in turn, hash-joins on
DET-JOIN ciphertexts (``ADJ_PART(...) = ADJ_PART(...)``) instead of
evaluating the UDF pair per candidate row pair.

This benchmark drives both paths with the Figure-10 TPC-C generators:

* bulk load: per-row ``execute`` loop vs one ``executemany`` per table,
  asserting the batched path is never slower (the execute loop binds through
  the same memoised kernels since the one-bind-path change, so the former
  1.5x gap is gone by design) and that the two databases are
  indistinguishable to the application (identical decrypted results under
  the same master key);
* equi-join: the hash join vs the nested loop (ablated by disabling the
  hash-join term extraction), asserting identical rows and a measurable
  speedup.

Headline numbers land in ``BENCH_batch_pipeline.json`` at the repo root.
Set ``BENCH_QUICK=1`` (CI smoke) for a small scale with relaxed asserts.
"""

import os
import time

import pytest

import repro
import repro.sql.executor as executor_module
from repro.crypto.keys import MasterKey
from repro.durability import WriteAheadLog, replay_records
from repro.workloads.tpcc import TPCCWorkload

from conftest import BENCH_QUICK, print_table, record_bench

if BENCH_QUICK:
    _SCALE = dict(warehouses=1, districts_per_warehouse=1,
                  customers_per_district=4, items=5, orders_per_district=3)
    _HOM_POOL = 500
    _MIN_LOAD_SPEEDUP = 0.8  # "not slower", with room for a 32-row sample's noise
    _MIN_JOIN_SPEEDUP = 0.8  # smoke mode checks correctness, not scale
else:
    _SCALE = dict(warehouses=1, districts_per_warehouse=2,
                  customers_per_district=24, items=14, orders_per_district=8)
    _HOM_POOL = 3400
    # executemany must never be slower than the execute() loop.  It used to
    # be required to be 1.5-3x faster, but since the single-statement bind
    # path runs the same memoised columnar kernels on a batch of one (one
    # bind path), the scalar loop gets every ciphertext-cache hit the batch
    # gets; what batching still saves is one plan lookup per row, the
    # multi-row INSERT and the shared curve inversions -- a few percent.
    _MIN_LOAD_SPEEDUP = 0.9
    _MIN_JOIN_SPEEDUP = 1.2

_RESULTS: dict = {}


def _connect(small_paillier):
    # Identical configuration for both systems: same master key (so the
    # deterministic layers agree byte-for-byte), same idle-time HOM pool.
    return repro.connect(
        paillier=small_paillier,
        master_key=MasterKey.from_passphrase("batch-pipeline-bench"),
        hom_precompute=_HOM_POOL,
    )


def _load(connection, batched: bool) -> tuple[int, float]:
    workload = TPCCWorkload(**_SCALE)
    cursor = connection.cursor()
    for statement in workload.schema_statements():
        cursor.execute(statement)
    start = time.perf_counter()
    total = 0
    for table, _columns, rows in workload.load_rows():
        sql = workload.insert_statement(table)
        if batched:
            cursor.executemany(sql, rows)
            total += len(rows)
        else:
            for row in rows:
                cursor.execute(sql, row)
                total += 1
    return total, time.perf_counter() - start


@pytest.fixture(scope="module")
def loaded_systems(small_paillier):
    scalar_conn = _connect(small_paillier)
    rows, scalar_seconds = _load(scalar_conn, batched=False)
    batched_conn = _connect(small_paillier)
    _, batched_seconds = _load(batched_conn, batched=True)
    return scalar_conn, batched_conn, rows, scalar_seconds, batched_seconds


_CHECK_QUERIES = [
    ("SELECT c_id, c_d_id, c_first, c_last, c_balance FROM customer "
     "WHERE c_w_id = ? ORDER BY c_d_id, c_id", (1,)),
    ("SELECT o_id, o_c_id, o_ol_cnt FROM orders WHERE o_d_id = ? "
     "ORDER BY o_id", (1,)),
    ("SELECT i_id, i_name, i_price FROM item WHERE i_price > ? ORDER BY i_id", (10,)),
    ("SELECT SUM(ol_amount) FROM order_line WHERE ol_d_id = ?", (1,)),
]


def test_bulk_load_batched_vs_scalar(benchmark, loaded_systems):
    scalar_conn, batched_conn, rows, scalar_seconds, batched_seconds = loaded_systems
    speedup = scalar_seconds / batched_seconds
    cache = batched_conn.proxy.stats.cache_stats()
    stats_rows = [
        {"path": "scalar execute() loop", "rows": rows,
         "seconds": round(scalar_seconds, 2),
         "rows/s": round(rows / scalar_seconds, 1)},
        {"path": "batched executemany()", "rows": rows,
         "seconds": round(batched_seconds, 2),
         "rows/s": round(rows / batched_seconds, 1)},
    ]
    print_table("TPC-C bulk load: scalar vs batched pipeline", stats_rows)
    print(f"speedup: {speedup:.2f}x  cache: det {cache.det_hits}h/{cache.det_misses}m, "
          f"ope {cache.ope_hits}h/{cache.ope_misses}m, "
          f"search {cache.search_hits}h/{cache.search_misses}m, "
          f"hom pool {cache.hom_pool_hits}h/{cache.hom_pool_misses}m")

    # The application cannot tell the two systems apart: every query
    # decrypts to byte-identical results.
    for sql, params in _CHECK_QUERIES:
        scalar_result = scalar_conn.execute(sql, params).fetchall()
        batched_result = batched_conn.execute(sql, params).fetchall()
        assert scalar_result == batched_result, sql
        assert scalar_result, f"check query returned no rows: {sql}"

    _RESULTS["bulk_load"] = {
        "rows": rows,
        "scalar_seconds": round(scalar_seconds, 3),
        "batched_seconds": round(batched_seconds, 3),
        "scalar_rows_per_s": round(rows / scalar_seconds, 2),
        "batched_rows_per_s": round(rows / batched_seconds, 2),
        "speedup": round(speedup, 2),
        "results_identical": True,
        "cache": cache.as_dict(),
    }
    record_bench("batch_pipeline", _RESULTS)
    assert speedup >= _MIN_LOAD_SPEEDUP
    assert batched_conn.proxy.stats.batched_statements > 0

    workload = TPCCWorkload(**_SCALE)
    cursor = batched_conn.cursor()
    benchmark(lambda: cursor.execute(*workload.query_params("Equality")))


_JOIN_QUERIES = [
    ("SELECT COUNT(*) FROM orders JOIN customer ON o_c_id = c_id "
     "WHERE o_w_id = ?", (1,)),
    ("SELECT COUNT(*) FROM order_line JOIN item ON ol_i_id = i_id "
     "WHERE ol_quantity > ?", (0,)),
    ("SELECT o_id, c_last FROM orders JOIN customer ON o_c_id = c_id "
     "WHERE o_d_id = ? ORDER BY o_id", (1,)),
]


def test_equi_join_hash_vs_nested_loop(loaded_systems, monkeypatch):
    _scalar, conn, _rows, _s, _b = loaded_systems
    # Warm plans and onion adjustments so both timed paths run steady-state.
    for sql, params in _JOIN_QUERIES:
        conn.execute(sql, params)

    def run_all():
        start = time.perf_counter()
        results = [conn.execute(sql, params).fetchall() for sql, params in _JOIN_QUERIES]
        return results, time.perf_counter() - start

    hash_results, hash_seconds = run_all()
    # Ablation: with no hash-joinable term every join falls back to the
    # nested loop, which is exactly the pre-refactor execution path.
    monkeypatch.setattr(executor_module, "_hash_join_candidates", lambda condition: [])
    nested_results, nested_seconds = run_all()
    monkeypatch.undo()

    assert [sorted(r) for r in hash_results] == [sorted(r) for r in nested_results]
    assert any(result for result in hash_results)
    speedup = nested_seconds / hash_seconds
    print_table("Equi-join: DET-JOIN hash join vs nested loop", [
        {"path": "hash join (ADJ_PART buckets)", "ms": round(hash_seconds * 1000, 1)},
        {"path": "nested loop (ablated)", "ms": round(nested_seconds * 1000, 1)},
    ])
    print(f"join speedup: {speedup:.2f}x")
    _RESULTS["equi_join"] = {
        "hash_seconds": round(hash_seconds, 4),
        "nested_loop_seconds": round(nested_seconds, 4),
        "speedup": round(speedup, 2),
        "results_identical": True,
    }
    record_bench("batch_pipeline", _RESULTS)
    assert speedup >= _MIN_JOIN_SPEEDUP


_CACHE_BUDGET = 128 * 1024 if BENCH_QUICK else 256 * 1024


def test_cache_budget_holds_under_load(small_paillier, loaded_systems):
    """A byte-budgeted proxy stays under its ceiling by evicting LRU units.

    The unbudgeted bulk-load run above reports its cache footprint in
    ``_RESULTS["bulk_load"]["cache"]``; this run loads the same TPC-C data
    through a proxy capped well below that footprint and asserts the proxy
    sheds memo units (counters > 0) while the measured ``estimated_bytes``
    never ends a statement over budget -- the §8.4.1 "proxy fits in a fixed
    memory slice" deployment story.
    """
    _scalar, unbudgeted, _rows, _s, _b = loaded_systems
    unbudgeted_bytes = unbudgeted.proxy.stats.cache_stats().estimated_bytes

    conn = repro.connect(
        paillier=small_paillier,
        master_key=MasterKey.from_passphrase("batch-pipeline-bench"),
        hom_precompute=_HOM_POOL,
        cache_budget_bytes=_CACHE_BUDGET,
    )
    try:
        _load(conn, batched=True)
        for sql, params in _CHECK_QUERIES:
            assert conn.execute(sql, params).fetchall()
        stats = conn.proxy.stats.cache_stats()
        print_table("Cache under a byte budget", [{
            "budget": _CACHE_BUDGET,
            "estimated_bytes": stats.estimated_bytes,
            "unbudgeted_bytes": unbudgeted_bytes,
            "evictions": stats.evictions,
            "evicted_bytes": stats.evicted_bytes,
        }])
        _RESULTS["cache_budget"] = {
            "budget_bytes": _CACHE_BUDGET,
            "estimated_bytes": stats.estimated_bytes,
            "unbudgeted_estimated_bytes": unbudgeted_bytes,
            "evictions": stats.evictions,
            "evicted_bytes": stats.evicted_bytes,
        }
        record_bench("batch_pipeline", _RESULTS)
        assert stats.estimated_bytes <= _CACHE_BUDGET
        assert stats.evictions > 0 and stats.evicted_bytes > 0
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# WAL overhead + recovery time (the durable metadata catalog)
# ---------------------------------------------------------------------------
_WAL_STEADY_STATEMENTS = 150 if BENCH_QUICK else 600
_WAL_TARGET_RECORDS = 2_000 if BENCH_QUICK else 10_000
_WAL_KWARGS = dict(hom_precompute=32)


def _steady_state_run(conn, statements: int) -> float:
    """One warmed-up DML/SELECT mix; returns the timed-loop seconds.

    Warmup creates the schema, settles every onion adjustment and caches
    every plan shape, so the timed loop measures pure steady state -- the
    regime where the catalog should write (almost) nothing.
    """
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE ledger (id INT, qty INT, note TEXT)")
    cursor.executemany(
        "INSERT INTO ledger (id, qty, note) VALUES (?, ?, ?)",
        [(i, i * 3, f"n{i}") for i in range(8)],
    )
    cursor.execute("SELECT qty FROM ledger WHERE id = ?", (1,))
    cursor.execute("SELECT id FROM ledger WHERE qty > ?", (5,))
    cursor.execute("UPDATE ledger SET note = ? WHERE id = ?", ("w", 1))
    start = time.perf_counter()
    for i in range(statements):
        step = i % 4
        if step == 0:
            cursor.execute(
                "INSERT INTO ledger (id, qty, note) VALUES (?, ?, ?)",
                (100 + i, i, f"s{i}"),
            )
        elif step == 1:
            cursor.execute("SELECT qty FROM ledger WHERE id = ?", (100 + i - 1,))
        elif step == 2:
            cursor.execute(
                "UPDATE ledger SET note = ? WHERE id = ?", (f"u{i}", 100 + i - 2)
            )
        else:
            cursor.execute("SELECT id FROM ledger WHERE qty > ?", (i,))
    return time.perf_counter() - start


def test_wal_overhead_and_recovery_time(small_paillier, tmp_path):
    """Catalog write-through overhead and snapshot+WAL recovery time.

    Steady state: the same warmed DML/SELECT mix runs against two
    file-backed SQLite deployments -- one plain, one writing its metadata
    through the durable catalog -- twice each (best-of-two shaves timer
    noise); ``check_bench_regression.py`` holds the overhead under 5%,
    the durability issue's bar.  Recovery: the catalog's WAL is then grown
    to ~10k records (2k in quick mode) and one cold ``connect(catalog=...)``
    is timed end to end -- load, checksum-verify, replay, proxy rebuild.
    """

    def one_run(tag: str, attempt: int) -> float:
        kwargs = {}
        if tag == "catalog":
            kwargs["catalog"] = os.fspath(tmp_path / f"{tag}{attempt}.wal")
        conn = repro.connect(
            os.fspath(tmp_path / f"{tag}{attempt}.db"),
            master_key=MasterKey.from_passphrase("batch-pipeline-bench"),
            paillier=small_paillier,
            **_WAL_KWARGS,
            **kwargs,
        )
        try:
            return _steady_state_run(conn, _WAL_STEADY_STATEMENTS)
        finally:
            conn.close()

    # Paired rounds, lanes alternating inside each: the overhead guard uses
    # the *best ratio across rounds*, so a scheduler hiccup inflating one
    # lane in one round cannot fail CI, while a real per-statement cost
    # (say, an accidental record append on every DML) inflates every round
    # alike and is still caught.
    times = {"plain": float("inf"), "catalog": float("inf")}
    ratios = []
    for attempt in range(3):
        round_times = {tag: one_run(tag, attempt) for tag in ("plain", "catalog")}
        ratios.append(round_times["catalog"] / round_times["plain"])
        for tag, seconds in round_times.items():
            times[tag] = min(times[tag], seconds)
    plain_seconds, catalog_seconds = times["plain"], times["catalog"]
    overhead_pct = (min(ratios) - 1.0) * 100.0

    # Grow the surviving WAL to the target record count, then time one cold
    # restart from it.  The filler records are shaped like real metadata
    # diffs (what a long-lived proxy accumulates between compactions).
    db_path = os.fspath(tmp_path / "catalog1.db")
    wal_path = os.fspath(tmp_path / "catalog1.wal")
    wal = WriteAheadLog(wal_path)
    existing = wal.load()
    version = replay_records(existing).version
    for _ in range(max(0, _WAL_TARGET_RECORDS - len(existing))):
        wal.append({"t": "meta", "version": version})
    wal.sync()
    wal.close()
    wal_records = len(WriteAheadLog(wal_path).load())
    wal_bytes = os.path.getsize(wal_path)

    start = time.perf_counter()
    conn = repro.connect(
        db_path,
        catalog=wal_path,
        master_key=MasterKey.from_passphrase("batch-pipeline-bench"),
        paillier=small_paillier,
        **_WAL_KWARGS,
    )
    recover_seconds = time.perf_counter() - start
    try:
        rows = conn.execute("SELECT COUNT(*) FROM ledger").fetchall()
        assert rows and rows[0][0] > 0
    finally:
        conn.close()

    statements = _WAL_STEADY_STATEMENTS
    print_table("Durable catalog: steady-state WAL overhead", [
        {"lane": "plain sqlite", "seconds": round(plain_seconds, 3),
         "stmts/s": round(statements / plain_seconds, 1)},
        {"lane": "sqlite + catalog", "seconds": round(catalog_seconds, 3),
         "stmts/s": round(statements / catalog_seconds, 1)},
    ])
    print(f"catalog overhead: {overhead_pct:.2f}%  "
          f"recovery: {wal_records} records ({wal_bytes} bytes) "
          f"replayed in {recover_seconds * 1000:.1f} ms")
    record_bench("recovery", {
        "steady_state": {
            "statements": statements,
            "plain_seconds": round(plain_seconds, 4),
            "catalog_seconds": round(catalog_seconds, 4),
            "plain_stmts_per_s": round(statements / plain_seconds, 2),
            "catalog_stmts_per_s": round(statements / catalog_seconds, 2),
            "overhead_pct": round(overhead_pct, 2),
        },
        "recovery": {
            "wal_records": wal_records,
            "wal_bytes": wal_bytes,
            "recover_seconds": round(recover_seconds, 4),
            "records_per_s": round(wal_records / recover_seconds, 1),
        },
    })
    # The hard <5% bar lives in check_bench_regression.py (it sees the
    # recorded JSON); here we only demand the catalog lane didn't collapse.
    assert catalog_seconds < plain_seconds * 2.0
