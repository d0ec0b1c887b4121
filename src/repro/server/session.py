"""Per-connection sessions multiplexed onto one shared CryptDB proxy.

The server holds exactly one proxy (one master key, one plan cache, one
crypto worker pool) for all connected applications -- the paper's Figure 1
topology.  Two pieces of state cannot be shared freely:

* **Statement execution.**  The pure-Python engine and the proxy's onion
  metadata are not thread-safe, so all statements run on a single executor
  thread, admitted one at a time through an :class:`asyncio.Lock`.
* **Transactions.**  The backend has one transaction context.  A session
  that opens a transaction *keeps the execution lock* until it commits,
  rolls back, or disconnects; other sessions' statements queue behind it.
  That gives every connection serializable transaction semantics without
  the engine growing MVCC.

Backpressure is bounded at both layers: per connection the peer can have at
most one statement in flight (the protocol is request/response) and slow
readers block only their own response writer; globally, at most
``max_pending_statements`` sessions may queue for the execution lock --
beyond that the server answers ``OperationalError: server busy`` instead of
growing an unbounded queue.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Optional

from repro import faults
from repro.api import exceptions
from repro.api.exceptions import wrap_error
from repro.errors import ReproError
from repro.server.protocol import FrameType, WireProtocolError, expect_payload_dict
from repro.sql.executor import ResultSet

#: Per-session cap on parked server-side cursors; oldest are evicted.
MAX_CURSORS_PER_SESSION = 32


class SessionManager:
    """Admission control for the shared proxy: one statement at a time."""

    def __init__(
        self,
        proxy,
        loop: asyncio.AbstractEventLoop,
        executor,
        max_pending_statements: int = 256,
        statement_timeout: Optional[float] = None,
    ):
        self.proxy = proxy
        self._loop = loop
        self._executor = executor
        self._lock = asyncio.Lock()
        self._txn_owner: Optional[int] = None
        self._pending = 0
        self._max_pending = max_pending_statements
        self.statement_timeout = statement_timeout
        #: Robustness counters, exposed over the STATS frame's "server"
        #: block: statements refused at admission (queue full) and
        #: statements abandoned by the per-statement timeout.
        self.counters: dict[str, int] = {
            "statements_shed": 0,
            "statements_timed_out": 0,
        }

    def in_transaction(self) -> bool:
        transactions = getattr(self.proxy.db, "transactions", None)
        return bool(transactions is not None and transactions.in_transaction)

    async def execute(
        self,
        session_id: int,
        fn: Callable[[], Any],
        head: Optional[str] = None,
    ) -> tuple[Any, bool]:
        """Run ``fn`` on the executor under the shared-proxy protocol.

        Returns ``(result, in_transaction)``.  If the statement leaves a
        transaction open, this session keeps the lock (it owns the backend's
        transaction context) and its subsequent statements re-enter without
        re-acquiring; any other session queues until the transaction ends.

        Faults injected at ``server.session.execute`` fire *before* the
        statement is admitted, so an injected failure is always a clean
        no-side-effects refusal.  With ``statement_timeout`` set, a
        statement that outlives it is answered with a retryable
        ``OperationalError`` while it keeps running on the executor thread
        (threads cannot be killed); the admission lock is only released once
        it actually finishes, so the shared proxy stays serialized.
        """
        if faults.INJECTOR is not None:
            faults.INJECTOR.fire(
                "server.session.execute",
                target=self,
                head=head,
                session=session_id,
            )
        owns_lock_already = self._txn_owner == session_id
        if not owns_lock_already:
            if self._pending >= self._max_pending:
                self.counters["statements_shed"] += 1
                raise exceptions.OperationalError(
                    "server busy: statement queue is full (retry later)"
                )
            self._pending += 1
            try:
                await self._lock.acquire()
            finally:
                self._pending -= 1
        future = self._loop.run_in_executor(self._executor, fn)
        try:
            if self.statement_timeout is not None:
                result = await asyncio.wait_for(
                    asyncio.shield(future), self.statement_timeout
                )
            else:
                result = await future
        except asyncio.TimeoutError:
            self.counters["statements_timed_out"] += 1
            future.add_done_callback(
                lambda done: self._abandon(session_id, done)
            )
            raise exceptions.OperationalError(
                f"statement timed out after {self.statement_timeout:g}s; "
                "it may still be executing (retry later)"
            ) from None
        except BaseException:
            self._settle(session_id)
            raise
        self._settle(session_id)
        return result, self._txn_owner == session_id

    async def run_on_executor(self, fn: Callable[[], Any]) -> Any:
        """Run a read-only ``fn`` on the statement thread, skipping admission.

        The single executor thread serialises it with statements, which is
        all backend handles need (sqlite3 connections are thread-pinned).
        """
        return await self._loop.run_in_executor(self._executor, fn)

    def _abandon(self, session_id: int, future) -> None:
        """A timed-out statement finally finished; release its admission."""
        if not future.cancelled():
            future.exception()  # retrieved: no "exception never consumed" noise
        self._settle(session_id)

    def _settle(self, session_id: int) -> None:
        """After a statement: keep or release the lock per transaction state."""
        if self.in_transaction():
            self._txn_owner = session_id
        else:
            self._txn_owner = None
            if self._lock.locked():
                self._lock.release()

    async def release_session(self, session_id: int) -> None:
        """Disconnect cleanup: roll back and release an owned transaction."""
        if self._txn_owner != session_id:
            return
        try:
            await self._loop.run_in_executor(
                self._executor, lambda: self.proxy.execute("ROLLBACK")
            )
        except Exception:
            pass  # the rollback is best-effort; the lock must be freed anyway
        self._txn_owner = None
        if self._lock.locked():
            self._lock.release()


class Session:
    """One client connection: frame dispatch, cursors, transaction state."""

    _ids = itertools.count(1)

    def __init__(self, manager: SessionManager, default_fetch: int = 0):
        self.id = next(Session._ids)
        self.manager = manager
        self.default_fetch = max(0, default_fetch)
        self._cursors: dict[int, list[tuple]] = {}
        self._next_cursor = itertools.count(1)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(self, frame_type: FrameType, payload) -> tuple[FrameType, dict]:
        """Process one request frame; returns the response frame.

        SQL-level failures (bad statements, unsupported queries, integrity
        errors) come back as ERROR frames and leave the session healthy;
        protocol-level problems raise and drop the session.
        """
        try:
            handler = self._HANDLERS[frame_type]
        except KeyError:
            raise WireProtocolError(
                f"frame {frame_type.name} is not a valid client request"
            ) from None
        try:
            return await handler(self, expect_payload_dict(payload, frame_type))
        except exceptions.Error as exc:
            return self._error_response(exc)
        except ReproError as exc:
            if isinstance(exc, WireProtocolError):
                raise
            return self._error_response(wrap_error(exc))

    def _error_response(self, exc: exceptions.Error) -> tuple[FrameType, dict]:
        return FrameType.ERROR, {
            "error": type(exc).__name__,
            "message": str(exc),
            "in_txn": self.manager.in_transaction(),
        }

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    async def _handle_execute(self, payload: dict) -> tuple[FrameType, dict]:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise WireProtocolError("EXECUTE payload needs a 'sql' string")
        params = payload.get("params")
        if params is not None and not isinstance(params, (list, tuple)):
            raise WireProtocolError("EXECUTE params must be a sequence or null")
        fetch = payload.get("fetch", self.default_fetch)
        if not isinstance(fetch, int) or fetch < 0:
            raise WireProtocolError("EXECUTE fetch must be a non-negative integer")
        proxy = self.manager.proxy
        head = None
        if faults.INJECTOR is not None:
            stripped = sql.strip()
            head = stripped.split(None, 1)[0].upper() if stripped else ""
        result, in_txn = await self.manager.execute(
            self.id,
            lambda: proxy.execute(sql, tuple(params) if params else None),
            head=head,
        )
        return self._result_response(result, fetch, in_txn)

    async def _handle_executemany(self, payload: dict) -> tuple[FrameType, dict]:
        sql = payload.get("sql")
        rows = payload.get("rows")
        if not isinstance(sql, str) or not isinstance(rows, (list, tuple)):
            raise WireProtocolError("EXECUTEMANY payload needs 'sql' and 'rows'")
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise WireProtocolError("EXECUTEMANY rows must be sequences")
        proxy = self.manager.proxy
        total, in_txn = await self.manager.execute(
            self.id,
            lambda: proxy.executemany(sql, [tuple(row) for row in rows]),
            head="EXECUTEMANY",
        )
        return FrameType.OK, {"rowcount": total, "in_txn": in_txn}

    async def _handle_prepare(self, payload: dict) -> tuple[FrameType, dict]:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise WireProtocolError("PREPARE payload needs a 'sql' string")
        proxy = self.manager.proxy
        prepared, in_txn = await self.manager.execute(
            self.id, lambda: proxy.prepare(sql), head="PREPARE"
        )
        return FrameType.PREPARED, {
            "param_count": prepared.param_count,
            "kind": prepared.kind,
            "in_txn": in_txn,
        }

    def _result_response(
        self, result: ResultSet, fetch: int, in_txn: bool
    ) -> tuple[FrameType, dict]:
        if not result.columns:
            return FrameType.OK, {"rowcount": result.rowcount, "in_txn": in_txn}
        rows = [tuple(row) for row in result.rows]
        response = {
            "columns": list(result.columns),
            "rowcount": result.rowcount,
            "total": len(rows),
            "in_txn": in_txn,
            "cursor": None,
        }
        if fetch and len(rows) > fetch:
            cursor_id = next(self._next_cursor)
            self._cursors[cursor_id] = rows[fetch:]
            while len(self._cursors) > MAX_CURSORS_PER_SESSION:
                self._cursors.pop(next(iter(self._cursors)))
            response["cursor"] = cursor_id
            rows = rows[:fetch]
        response["rows"] = rows
        return FrameType.ROWS, response

    async def _handle_fetch(self, payload: dict) -> tuple[FrameType, dict]:
        cursor_id = payload.get("cursor")
        count = payload.get("count", self.default_fetch)
        if not isinstance(cursor_id, int) or not isinstance(count, int) or count < 0:
            raise WireProtocolError("FETCH payload needs 'cursor' and 'count' ints")
        parked = self._cursors.get(cursor_id)
        if parked is None:
            return self._error_response(
                exceptions.InterfaceError(f"unknown or exhausted cursor {cursor_id}")
            )
        chunk = parked[:count] if count else parked
        remainder = parked[len(chunk):]
        if remainder:
            self._cursors[cursor_id] = remainder
        else:
            del self._cursors[cursor_id]
        return FrameType.ROWS, {
            "rows": chunk,
            "cursor": cursor_id if remainder else None,
            "in_txn": self.manager.in_transaction(),
        }

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    async def _handle_txn(self, sql: str) -> tuple[FrameType, dict]:
        proxy = self.manager.proxy
        _result, in_txn = await self.manager.execute(
            self.id, lambda: proxy.execute(sql), head=sql
        )
        return FrameType.OK, {"rowcount": 0, "in_txn": in_txn}

    async def _handle_begin(self, payload: dict) -> tuple[FrameType, dict]:
        return await self._handle_txn("BEGIN")

    async def _handle_commit(self, payload: dict) -> tuple[FrameType, dict]:
        return await self._handle_txn("COMMIT")

    async def _handle_rollback(self, payload: dict) -> tuple[FrameType, dict]:
        return await self._handle_txn("ROLLBACK")

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    async def _handle_stats(self, payload: dict) -> tuple[FrameType, dict]:
        proxy = self.manager.proxy
        stats = proxy.stats
        # Measured on request, on the executor thread that owns the backend
        # handles; no admission: STATS must not queue behind a transaction.
        storage_bytes = await self.manager.run_on_executor(proxy.storage_bytes)
        response = {
            "proxy": {
                "queries_processed": stats.queries_processed,
                "queries_rewritten": stats.queries_rewritten,
                "unsupported_queries": stats.unsupported_queries,
                "plan_cache_hits": stats.plan_cache_hits,
                "plan_cache_misses": stats.plan_cache_misses,
                "plan_cache_invalidations": stats.plan_cache_invalidations,
                "batched_statements": stats.batched_statements,
                "batched_rows": stats.batched_rows,
            },
            "cache": stats.cache_stats().as_dict(),
            "server": dict(self.manager.counters),
            "storage_bytes": storage_bytes,
            "in_txn": self.manager.in_transaction(),
        }
        if stats.shard is not None:
            response["shard"] = stats.shard.stats()
        if payload.get("reset"):
            # Snapshot first, then zero: the caller sees the final counts of
            # the epoch it is closing.  reset() cascades into the cache, the
            # crypto pool and the sharded backend's scatter/merge counters;
            # the server-level shed/timeout counters are part of the same
            # epoch and clear with it.
            stats.reset()
            for key in self.manager.counters:
                self.manager.counters[key] = 0
        return FrameType.STATS_RESULT, response

    async def close(self) -> None:
        """Disconnect cleanup: park nothing, roll back an owned transaction."""
        self._cursors.clear()
        await self.manager.release_session(self.id)

    _HANDLERS = {
        FrameType.EXECUTE: _handle_execute,
        FrameType.EXECUTEMANY: _handle_executemany,
        FrameType.PREPARE: _handle_prepare,
        FrameType.FETCH: _handle_fetch,
        FrameType.BEGIN: _handle_begin,
        FrameType.COMMIT: _handle_commit,
        FrameType.ROLLBACK: _handle_rollback,
        FrameType.STATS: _handle_stats,
    }
