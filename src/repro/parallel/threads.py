"""Thread fan-out: the scatter primitive for in-process backend shards.

The process pool in :mod:`repro.parallel.pool` is the right tool for crypto
kernels (pure-Python math, GIL-bound), but backend shards are a different
shape: each shard holds mutable state (an engine or a sqlite3 handle) that
cannot cross a process boundary, and the per-statement work regularly
releases the GIL (sqlite3) or is small enough that spawn cost dominates.
:class:`ThreadFanout` is the matching scatter primitive -- a lazily created
thread pool that maps one callable over shard indexes, preserves shard
order in the results, and degrades to serial execution when concurrency is
unavailable (single shard, ``threads=False``, or an injected
``pool.scatter`` fault downgrading the scatter path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.parallel.pool import ParallelUnavailable

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["ThreadFanout", "ParallelUnavailable"]


class ThreadFanout:
    """Map a callable over N shard indexes, results in shard order.

    The executor is created on first concurrent use and reused for the
    fanout's lifetime (one pool per sharded backend, not per statement).
    Exceptions propagate like serial execution: the failure of the
    lowest-indexed shard is raised, so an error that would hit every shard
    (e.g. a semantically invalid statement) surfaces deterministically.
    """

    def __init__(self, max_workers: int, threads: bool = True):
        self.max_workers = max(1, int(max_workers))
        self.threads = bool(threads) and self.max_workers > 1
        self._executor: Optional[ThreadPoolExecutor] = None

    def map(self, fn: Callable[[int], Any], count: int) -> list:
        """Run ``fn(0) .. fn(count - 1)``, concurrently when possible."""
        if count <= 0:
            return []
        if not self.threads or count == 1:
            return [fn(index) for index in range(count)]
        if self._executor is None:
            # Imported on first concurrent use: serial fan-outs (sqlite
            # shards, threads=False) never load concurrent.futures.
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="shard-fanout",
            )
        futures = [self._executor.submit(fn, index) for index in range(count)]
        results: list = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def serial_map(self, fn: Callable[[int], Any], count: int) -> list:
        """The degraded path: same contract, calling thread only."""
        return [fn(index) for index in range(count)]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
