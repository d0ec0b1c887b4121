"""The persistent crypto worker pool: multi-core scale-out for the proxy.

A single Python proxy process is GIL-bound: the per-query crypto breakdown
of the Figure-10 benchmark shows AES and the JOIN-ADJ curve hash dominating,
all serialized on one core.  :class:`CryptoWorkerPool` moves the batch
crypto kernels onto a pool of long-lived worker processes, spawned **once**
per proxy: each worker rebuilds the Paillier key pair and warms the
import-time ECC comb / AES T-tables in its initializer, then serves
:mod:`repro.parallel.jobs` descriptors for the proxy's lifetime.

Batches are *chunked* across the workers and the results spliced back in
input order, so callers observe exactly the semantics of the serial batch
APIs (byte-identical ciphertexts for the deterministic schemes, since jobs
carry the same derived keys and IVs the serial path would use).  Batches
below :attr:`ParallelConfig.chunk_threshold` never touch the pool -- the
IPC round-trip would cost more than the crypto -- and ``workers=0`` disables
the subsystem entirely; both fall back to the unchanged in-process code.

Worker cache counters come back as per-job *deltas* and are absorbed into
the parent's :class:`~repro.core.cache.CryptoCache` through ``stats_sink``.
Delta absorption makes the accounting restart-proof: killing and respawning
the pool (or a worker crash flipping the pool to broken-serial mode) can
never double-count, because nothing is ever re-read from a worker.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import faults
from repro.errors import ReproError
from repro.parallel import jobs as jobs_mod


class ParallelUnavailable(ReproError):
    """The pool infrastructure failed; callers should fall back to serial.

    Raised for transport-level failures (dead worker, unpicklable payload,
    closed pool) -- never for crypto errors, which propagate unchanged so
    parallel and serial execution refuse identically.
    """


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs for the proxy's crypto worker pool.

    ``workers=0`` (the default) keeps the proxy fully serial.  Batches
    smaller than ``chunk_threshold`` items run serially even with a pool
    attached; larger ones are split into at most ``workers`` chunks of at
    least ``chunk_threshold // 2`` items each.  ``chunk_threshold=None``
    (the default) auto-sizes from the machine: on a box without at least
    two cores the synchronous scatter path can never beat the serial code
    -- the same crypto runs on the same lone core plus IPC -- so it is
    disabled outright (asynchronous HOM refills still run; they overlap
    idle time rather than competing with a query).  ``start_method``
    defaults to ``fork`` where available (workers inherit the warmed
    interpreter) and ``spawn`` elsewhere.  ``hom_low_watermark``/
    ``hom_refill_batch`` govern the asynchronous Paillier randomness
    refill; ``profile_dir`` makes every worker dump a cProfile at exit
    (used by ``profile_hotpaths --workers``).
    """

    #: sync-offload break-even batch size on a machine with real parallelism
    #: (measured on the Figure-10 workload: below ~2 dozen values the IPC
    #: round-trip and chunk splicing cost more than the crypto saved).
    AUTO_CHUNK_THRESHOLD = 24

    workers: int = 0
    chunk_threshold: Optional[int] = None
    start_method: Optional[str] = None
    hom_low_watermark: int = 16
    hom_refill_batch: int = 128
    profile_dir: Optional[str] = None
    #: Ceiling on one scatter round trip; a worker that died mid-batch (the
    #: stdlib Pool loses its in-flight task forever) surfaces as a bounded
    #: ParallelUnavailable instead of a wedged proxy.
    scatter_timeout: Optional[float] = 60.0
    #: Self-healing: a transport failure restarts the workers in place --
    #: unless ``max_pool_failures`` failures land within ``failure_window``
    #: seconds, which opens the circuit breaker: the pool reports unusable
    #: (callers run serial crypto) until ``circuit_cooldown`` elapses, then
    #: the next ``usable()`` probe respawns the workers and closes it.
    auto_restart: bool = True
    max_pool_failures: int = 3
    failure_window: float = 30.0
    circuit_cooldown: float = 5.0
    #: Ceiling on tearing the old workers down during restart()/close().
    #: A worker SIGKILLed while blocked on the task queue dies holding the
    #: queue's reader lock, and ``Pool.terminate()`` deadlocks trying to
    #: drain it -- the teardown runs in a bounded reaper thread instead.
    terminate_timeout: float = 5.0

    @property
    def enabled(self) -> bool:
        return self.workers > 0

    def resolved_chunk_threshold(self) -> int:
        """The effective sync-offload threshold (auto-sized when None)."""
        if self.chunk_threshold is not None:
            return max(1, self.chunk_threshold)
        if (os.cpu_count() or 1) < 2:
            return sys.maxsize
        return self.AUTO_CHUNK_THRESHOLD


class CryptoWorkerPool:
    """A spawn-once pool of crypto worker processes with ordered splicing."""

    def __init__(
        self,
        config: ParallelConfig,
        paillier,
        stats_sink: Optional[Callable[[dict], None]] = None,
    ):
        if config.workers <= 0:
            raise ValueError("CryptoWorkerPool requires workers >= 1")
        self.config = config
        self.workers = config.workers
        self.chunk_threshold = config.resolved_chunk_threshold()
        self.stats_sink = stats_sink
        self._init = jobs_mod.WorkerInit.from_keypair(
            paillier, profile_dir=config.profile_dir
        )
        self._pool = None
        self._broken = False
        self._closed = False
        self._pending_async: list = []
        self.generation = 0
        # Self-healing state: lifetime counters (read by cache_stats()), the
        # rolling failure window, and the circuit-breaker deadline.  The
        # lifecycle lock serialises heal/restart between the executor thread
        # and the pool's result-handler thread marking the pool broken.
        self.restarts = 0
        self.failures = 0
        self.circuit_opens = 0
        self._failure_times: deque = deque()
        self._circuit_open_until = 0.0
        self._lifecycle_lock = threading.Lock()
        self._spawn()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        # Imported here, not at module level: a serial proxy (workers=0)
        # never pays for loading multiprocessing.
        import multiprocessing

        method = self.config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        context = multiprocessing.get_context(method)
        self._pool = context.Pool(
            processes=self.workers,
            initializer=jobs_mod.initialize_worker,
            initargs=(self._init,),
        )
        self._broken = False
        # Bumped on every (re)spawn; async submitters record it so a job
        # whose callbacks died with the old workers is recognisably stale.
        self.generation += 1

    def restart(self) -> None:
        """Tear the workers down and respawn them (fresh worker caches).

        Counter accounting survives restarts without double-counting: the
        parent only ever accumulates per-job deltas, never worker totals.
        """
        self._terminate()
        self._spawn()
        self._closed = False
        self.restarts += 1

    def close(self) -> None:
        """Terminate the workers; the pool cannot be used afterwards."""
        self._terminate()
        self._closed = True

    def _terminate(self) -> None:
        pool, self._pool = self._pool, None
        self._pending_async = []
        if pool is None:
            return
        if self.config.profile_dir:
            # Graceful shutdown so each worker's exit finalizer runs and
            # dumps its cProfile (terminate() would kill them first).
            pool.close()
            pool.join()
            return
        # Pool.terminate() drains the task queue under the queue's reader
        # lock -- the very lock a worker holds while blocked waiting for
        # work.  If that worker was SIGKILLed, the (POSIX-semaphore) lock is
        # orphaned in the acquired state and terminate() deadlocks, so the
        # teardown runs in a bounded reaper.  On timeout, kill the remaining
        # workers outright, force-release the orphaned lock to unwedge the
        # drain, and as a last resort abandon the daemonic handler threads:
        # no worker process survives either way.
        reaper = threading.Thread(
            target=self._reap, args=(pool,), daemon=True
        )
        reaper.start()
        reaper.join(self.config.terminate_timeout)
        if not reaper.is_alive():
            return
        for process in list(getattr(pool, "_pool", ()) or ()):
            if process.is_alive():
                try:
                    process.kill()
                except OSError:
                    pass
        try:
            pool._inqueue._rlock.release()
        except Exception:
            pass
        reaper.join(self.config.terminate_timeout)

    @staticmethod
    def _reap(pool) -> None:
        pool.terminate()
        pool.join()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        return self._broken

    @property
    def circuit_open(self) -> bool:
        return time.monotonic() < self._circuit_open_until

    def usable(self, batch_size: int) -> bool:
        """True when a batch of this size should be offloaded.

        A broken pool self-heals here: unless the circuit breaker is open,
        the workers are respawned in place and the batch proceeds parallel.
        While the circuit is open every caller gets ``False`` (serial
        crypto); the first call after the cooldown re-probes by respawning.
        """
        if batch_size < self.chunk_threshold or self._closed:
            return False
        if self._pool is not None and not self._broken:
            return True
        return self._heal()

    def _heal(self) -> bool:
        """Respawn a broken pool unless the circuit breaker says not to."""
        with self._lifecycle_lock:
            if self._closed:
                return False
            if self._pool is not None and not self._broken:
                return True  # another thread healed it first
            if not self.config.auto_restart:
                return False
            if time.monotonic() < self._circuit_open_until:
                return False
            try:
                self.restart()
            except Exception:
                return False
            return True

    def _note_failure(self) -> None:
        """Record one transport failure; open the circuit on a burst."""
        now = time.monotonic()
        with self._lifecycle_lock:
            self.failures += 1
            window = self.config.failure_window
            self._failure_times.append(now)
            while self._failure_times and now - self._failure_times[0] > window:
                self._failure_times.popleft()
            if (
                len(self._failure_times) >= self.config.max_pool_failures
                and now >= self._circuit_open_until
            ):
                self.circuit_opens += 1
                self._circuit_open_until = now + self.config.circuit_cooldown
                self._failure_times.clear()

    def reset_counters(self) -> None:
        self.restarts = 0
        self.failures = 0
        self.circuit_opens = 0

    # ------------------------------------------------------------------
    # synchronous scatter/gather
    # ------------------------------------------------------------------
    def _chunks(self, items: Sequence) -> list[list]:
        min_chunk = max(1, self.chunk_threshold // 2)
        count = min(self.workers, max(1, len(items) // min_chunk))
        base, extra = divmod(len(items), count)
        chunks = []
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunks.append(list(items[start : start + size]))
            start += size
        return chunks

    def scatter(self, items: Sequence, make_job: Callable[[list], object]) -> list:
        """Run ``make_job(chunk)`` across the workers; splice results in order.

        Crypto errors raised inside a job propagate unchanged.  Transport
        failures mark the pool broken and raise :class:`ParallelUnavailable`
        so the caller can re-run the batch serially.
        """
        if self._pool is None:
            raise ParallelUnavailable("worker pool is closed")
        if faults.INJECTOR is not None:
            faults.INJECTOR.fire("pool.scatter", target=self, items=len(items))
        chunks = self._chunks(items)
        try:
            handle = self._pool.map_async(
                jobs_mod.run_job, [make_job(chunk) for chunk in chunks], chunksize=1
            )
            # A worker that dies mid-batch loses its task forever in the
            # stdlib Pool; the bounded get() turns that hang into a failure.
            results = handle.get(self.config.scatter_timeout)
        except ReproError:
            raise
        except Exception as exc:
            self._broken = True
            self._note_failure()
            raise ParallelUnavailable(f"worker pool failed: {exc}") from exc
        spliced: list = []
        jobs_delta = 0
        merged: dict[str, int] = {}
        for payload, counters in results:
            jobs_delta += 1
            for key, value in counters.items():
                merged[key] = merged.get(key, 0) + value
            spliced.extend(payload)
        merged["jobs"] = jobs_delta
        if self.stats_sink is not None:
            self.stats_sink(merged)
        return spliced

    # ------------------------------------------------------------------
    # asynchronous submission (background HOM refill)
    # ------------------------------------------------------------------
    def submit_async(
        self,
        job,
        callback: Callable[[list], None],
        error_callback: Optional[Callable[[BaseException], None]] = None,
    ):
        """Run one job without blocking; ``callback(payload)`` on completion.

        The callback runs on the pool's result-handler thread; keep it tiny
        (append to a list, bump a counter).  Counter deltas are absorbed
        through ``stats_sink`` exactly like synchronous jobs.
        """
        if self._pool is None or self._broken:
            raise ParallelUnavailable("worker pool is not running")

        def on_done(result):
            payload, counters = result
            if self.stats_sink is not None:
                counters = dict(counters)
                counters["jobs"] = 1
                self.stats_sink(counters)
            callback(payload)

        def on_error(exc):
            # Same contract as scatter(): crypto errors never break the
            # pool, only transport-level failures do.
            if not isinstance(exc, ReproError):
                self._broken = True
                self._note_failure()
            if error_callback is not None:
                error_callback(exc)

        handle = self._pool.apply_async(
            jobs_mod.run_job, (job,), callback=on_done, error_callback=on_error
        )
        # Prune settled handles so a long-lived proxy's background refills
        # don't accumulate result objects for its whole lifetime.
        self._pending_async = [h for h in self._pending_async if not h.ready()]
        self._pending_async.append(handle)
        return handle

    def drain_async(self, timeout: float = 30.0) -> None:
        """Block until every outstanding async job has completed (tests)."""
        pending, self._pending_async = self._pending_async, []
        for handle in pending:
            handle.wait(timeout)
