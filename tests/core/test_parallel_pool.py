"""The crypto worker pool: equivalence, counter merging, lifecycle.

Parallel offload is a pure throughput optimisation: every deterministic
kernel must produce byte-identical ciphertexts to the serial path (same
derived keys, same IVs), the probabilistic ones must decrypt identically,
and the per-worker cache counters must merge into ``cache_stats()`` without
double-counting across pool restarts or surviving ``stats.reset()``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.proxy import CryptDBProxy
from repro.crypto.keys import MasterKey
from repro.parallel import CryptoWorkerPool, ParallelConfig
from repro.parallel.jobs import HomDecryptJob, HomEncryptJob
from repro.sql.engine import Database

#: Aggressive config so even small test batches exercise the pool.
SMALL_BATCHES = ParallelConfig(workers=2, chunk_threshold=4)


@pytest.fixture()
def parallel_proxy(paillier_keypair):
    proxy = CryptDBProxy(
        db=Database(),
        master_key=MasterKey.from_passphrase("parallel-tests"),
        paillier=paillier_keypair,
        parallelism=SMALL_BATCHES,
        hom_precompute=4,
    )
    yield proxy
    proxy.close()


@pytest.fixture()
def serial_proxy(paillier_keypair):
    return CryptDBProxy(
        db=Database(),
        master_key=MasterKey.from_passphrase("parallel-tests"),
        paillier=paillier_keypair,
        hom_precompute=4,
    )


def _load(proxy: CryptDBProxy, rows: int = 40) -> None:
    proxy.execute("CREATE TABLE t (id INT, name VARCHAR(30), qty INT)")
    proxy.executemany(
        "INSERT INTO t (id, name, qty) VALUES (?, ?, ?)",
        [(i, f"name-{i % 9}", 10 * (i % 5)) for i in range(rows)],
    )


# ---------------------------------------------------------------------------
# parallel-vs-serial equivalence
# ---------------------------------------------------------------------------
def test_parallel_and_serial_proxies_agree(parallel_proxy, serial_proxy):
    """Same master key, same statements: identical decrypted results."""
    for proxy in (parallel_proxy, serial_proxy):
        _load(proxy)
    queries = [
        ("SELECT id, name, qty FROM t WHERE name = ?", ("name-3",)),
        ("SELECT id FROM t WHERE qty > ? ORDER BY id ASC", (20,)),
        ("SELECT COUNT(*), SUM(qty) FROM t", ()),
        ("SELECT name, SUM(qty) FROM t GROUP BY name ORDER BY name ASC", ()),
    ]
    for sql, params in queries:
        parallel_rows = parallel_proxy.execute(sql, params).rows
        serial_rows = serial_proxy.execute(sql, params).rows
        assert parallel_rows == serial_rows, sql
    # HOM increments stay exact through worker-side Paillier encryption.
    for proxy in (parallel_proxy, serial_proxy):
        proxy.execute("UPDATE t SET qty = qty + ?", (7,))
    assert (
        parallel_proxy.execute("SELECT SUM(qty) FROM t").rows
        == serial_proxy.execute("SELECT SUM(qty) FROM t").rows
    )
    assert parallel_proxy.stats.cache_stats().parallel_jobs > 0


def test_deterministic_layers_are_byte_identical(parallel_proxy, serial_proxy):
    """Offloaded Eq layers equal the serial ciphertexts bit for bit."""
    for proxy in (parallel_proxy, serial_proxy):
        proxy.execute("CREATE TABLE d (v VARCHAR(20))")
    column_p = parallel_proxy.schema.column("d", "v")
    column_s = serial_proxy.schema.column("d", "v")
    values = [f"value-{i % 11}" for i in range(48)]
    from repro.core.onion import EncryptionScheme, Onion

    parallel_cts = parallel_proxy.encryptor._eq_deterministic_many(
        column_p, values, EncryptionScheme.DET
    )
    serial_cts = serial_proxy.encryptor._eq_deterministic_many(
        column_s, values, EncryptionScheme.DET
    )
    assert parallel_cts == serial_cts
    # And the decrypt path (offloaded on the parallel side) round-trips.
    decoded = parallel_proxy.encryptor.decrypt_column(
        column_p, Onion.EQ, EncryptionScheme.DET, parallel_cts
    )
    assert decoded == values


def test_hom_jobs_roundtrip(parallel_proxy):
    """Worker-side Paillier encryption decrypts correctly (and vice versa)."""
    pool = parallel_proxy.pool
    values = list(range(64))
    ciphertexts = pool.scatter(values, lambda chunk: HomEncryptJob(values=chunk))
    assert [parallel_proxy.paillier.decrypt(ct) for ct in ciphertexts] == values
    plains = pool.scatter(ciphertexts, lambda chunk: HomDecryptJob(ciphertexts=chunk))
    assert plains == values


# ---------------------------------------------------------------------------
# serial fallback semantics
# ---------------------------------------------------------------------------
def test_workers_zero_has_no_pool(serial_proxy):
    assert serial_proxy.pool is None
    _load(serial_proxy)
    stats = serial_proxy.stats.cache_stats()
    assert stats.parallel_jobs == 0
    assert stats.worker_det_hits == 0 and stats.worker_det_misses == 0


_IMPORT_PROBE = """
import sys

import repro
from repro.shard import ShardedBackend

def pool_modules():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("multiprocessing", "concurrent")
    )

for backend in (None, ShardedBackend(3, base="sqlite")):
    conn = repro.connect(backend=backend, paillier_bits=512)
    conn.cursor().execute("CREATE TABLE t (id INT, v INT)")
    conn.cursor().execute("INSERT INTO t (id, v) VALUES (1, 2)")
    assert conn.cursor().execute("SELECT v FROM t").fetchall() == [(2,)]
    conn.close()
assert pool_modules() == [], pool_modules()

conn = repro.connect(workers=2, paillier_bits=512)
conn.cursor().execute("CREATE TABLE t (id INT)")
assert conn.proxy.pool is not None and "multiprocessing" in pool_modules()
conn.close()
print("ok")
"""


def test_serial_proxies_never_import_process_or_thread_pools():
    """A default proxy -- in-memory, or sqlite shards with their serial
    fan-out -- loads neither ``multiprocessing`` nor ``concurrent.futures``;
    ``connect(workers=2)`` still builds its pool."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_small_batches_stay_serial(paillier_keypair):
    proxy = CryptDBProxy(
        db=Database(),
        paillier=paillier_keypair,
        parallelism=ParallelConfig(workers=2, chunk_threshold=10_000),
        hom_precompute=0,
    )
    try:
        _load(proxy)
        assert proxy.execute("SELECT COUNT(*) FROM t").rows == [(40,)]
        assert proxy.stats.cache_stats().parallel_jobs == 0
    finally:
        proxy.close()


def test_broken_pool_falls_back_to_serial(parallel_proxy):
    _load(parallel_proxy, rows=20)
    parallel_proxy.pool.close()
    parallel_proxy.executemany(
        "INSERT INTO t (id, name, qty) VALUES (?, ?, ?)",
        [(100 + i, f"late-{i % 3}", i) for i in range(20)],
    )
    rows = parallel_proxy.execute("SELECT COUNT(*) FROM t").rows
    assert rows == [(40,)]


# ---------------------------------------------------------------------------
# counter merging (regression: reset + restart)
# ---------------------------------------------------------------------------
def test_worker_counters_merge_and_reset(parallel_proxy):
    _load(parallel_proxy)
    stats = parallel_proxy.stats.cache_stats()
    assert stats.parallel_jobs > 0
    assert stats.worker_det_misses > 0
    assert stats.det_hits_total == stats.det_hits + stats.worker_det_hits
    # reset() zeroes the per-worker counters with everything else.
    parallel_proxy.stats.reset()
    stats = parallel_proxy.stats.cache_stats()
    assert stats.parallel_jobs == 0
    assert stats.worker_det_hits == 0 and stats.worker_det_misses == 0
    assert stats.det_hits == 0 and stats.det_misses == 0


def test_pool_restart_does_not_double_count(parallel_proxy):
    """Counters accumulate as deltas, so a restart cannot replay totals."""
    _load(parallel_proxy)
    before = parallel_proxy.stats.cache_stats()
    parallel_proxy.pool.restart()
    middle = parallel_proxy.stats.cache_stats()
    assert middle.worker_det_hits == before.worker_det_hits
    assert middle.worker_det_misses == before.worker_det_misses
    assert middle.parallel_jobs == before.parallel_jobs
    # More work after the restart adds only the new deltas (fresh worker
    # memos: the re-sent values count as worker misses, not replayed totals).
    parallel_proxy.executemany(
        "INSERT INTO t (id, name, qty) VALUES (?, ?, ?)",
        [(200 + i, f"name-{i % 9}", i) for i in range(16)],
    )
    after = parallel_proxy.stats.cache_stats()
    assert after.parallel_jobs > middle.parallel_jobs
    assert after.worker_det_misses >= middle.worker_det_misses
    assert parallel_proxy.execute("SELECT COUNT(*) FROM t").rows == [(56,)]


# ---------------------------------------------------------------------------
# asynchronous HOM pool refill
# ---------------------------------------------------------------------------
def test_hom_pool_async_refill(wait_until):
    # A private key pair: the session-scoped fixture's randomness pool is
    # shared across tests and may already sit far above the watermark.
    from repro.crypto.paillier import PaillierKeyPair

    proxy = CryptDBProxy(
        db=Database(),
        paillier=PaillierKeyPair.generate(256),
        parallelism=ParallelConfig(
            workers=2, chunk_threshold=4, hom_low_watermark=64, hom_refill_batch=32
        ),
        hom_precompute=2,
    )
    try:
        # Drain the (tiny) pre-computed pool through the scalar path;
        # dropping through the watermark must schedule a background refill
        # instead of blocking the inserts.
        proxy.execute("CREATE TABLE h (v INT)")
        for i in range(8):
            proxy.execute("INSERT INTO h (v) VALUES (?)", (i,))
        proxy.pool.drain_async()
        wait_until(
            lambda: proxy.stats.cache_stats().hom_pool_async_refills > 0,
            message="background HOM refill to land",
        )
        stats = proxy.stats.cache_stats()
        assert stats.hom_pool_async_refills >= 1
        assert proxy.paillier.randomness_pool_size > 0
        # The refilled factors must be usable: SUM still decrypts exactly.
        assert proxy.execute("SELECT SUM(v) FROM h").rows == [(28,)]
        # reset() zeroes the refill counter too.
        proxy.stats.reset()
        assert proxy.stats.cache_stats().hom_pool_async_refills == 0
    finally:
        proxy.close()


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------
def test_connection_close_terminates_pool(paillier_keypair):
    import repro

    conn = repro.connect(paillier=paillier_keypair, parallelism=SMALL_BATCHES)
    proxy = conn.proxy
    assert proxy.pool is not None
    conn.close()
    assert proxy.pool is None
    assert proxy.paillier.refill_hook is None


def test_proxy_close_is_idempotent_and_leaves_proxy_usable(parallel_proxy):
    _load(parallel_proxy, rows=8)
    parallel_proxy.close()
    parallel_proxy.close()
    assert parallel_proxy.pool is None
    # Serial execution continues to work after the pool is gone.
    assert parallel_proxy.execute("SELECT COUNT(*) FROM t").rows == [(8,)]


def test_workers_shorthand_builds_config():
    pool_config = ParallelConfig(workers=3)
    assert pool_config.enabled
    assert not ParallelConfig().enabled
    with pytest.raises(ValueError):
        CryptoWorkerPool(ParallelConfig(workers=0), None)


def test_chunk_threshold_auto_sizes_from_cpu_count(monkeypatch):
    """On a single-core box the sync offload path must never engage.

    The Figure-10 pool_offload section regressed to ~2x *slower* than
    serial when a 2-worker pool ran on 1 CPU: the same crypto on the same
    lone core, plus IPC.  ``chunk_threshold=None`` (the default) now
    resolves against ``os.cpu_count()`` so that configuration is inert.
    """
    import sys as _sys

    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
    assert ParallelConfig(workers=2).resolved_chunk_threshold() == _sys.maxsize

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 8)
    assert (
        ParallelConfig(workers=2).resolved_chunk_threshold()
        == ParallelConfig.AUTO_CHUNK_THRESHOLD
    )

    # Explicit values are always honoured (the conformance lanes rely on a
    # tiny threshold so generated batches actually offload).
    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
    assert ParallelConfig(workers=2, chunk_threshold=4).resolved_chunk_threshold() == 4
    assert ParallelConfig(chunk_threshold=0).resolved_chunk_threshold() == 1


def test_auto_threshold_pool_stays_serial_on_one_cpu(monkeypatch, paillier_keypair):
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
    pool = CryptoWorkerPool(ParallelConfig(workers=2), paillier_keypair)
    try:
        # No batch is ever big enough for sync offload, but the pool itself
        # is alive for asynchronous background HOM refills.
        assert not pool.usable(10**9)
        assert not pool.broken and not pool.closed
    finally:
        pool.close()
