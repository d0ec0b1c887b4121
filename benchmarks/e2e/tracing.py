"""Tracing from outside: spans around the layers' public functions.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces the
entry points listed in :func:`layer_targets` with timing wrappers (the
``_scheme_breakdown`` monkeypatch idiom of ``bench_fig10``, generalised) and
restores them afterwards.  Every call becomes a span
``{name, start_ns, end_ns, parent, stmt_id}``; a span's *self time* is its
duration minus the time its child spans cover, so the self times of one
statement's spans add up to the statement's wall time exactly.

Spans are aggregated as they close (per phase, name and parent name) and are
additionally kept in memory -- and written out by :meth:`Tracer.write_jsonl`
-- only when the caller asked for a trace file.  Hot leaves (an AES block, an
OPE call) are aggregated but never kept: a bulk load makes millions of them.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` becomes a span called ``name``."""

    owner: Any
    attr: str
    name: str
    #: Aggregated only (never kept as a span record): hot crypto leaves.
    leaf: bool = False
    #: Work items of one call, from its arguments; one when None.
    items: Optional[Callable[[tuple], int]] = None
    #: Rows of one call's result, from the returned value; not counted when None.
    rows: Optional[Callable[[Any], int]] = None


def _second_arg_len(args: tuple) -> int:
    return len(args[1])


def _result_rows(result: Any) -> int:
    return len(result.rows)


def layer_targets() -> list[Target]:
    """The layer boundaries, by module name (imports ``repro`` lazily)."""
    from repro.api import remote_backend, sqlite_backend
    from repro.api.backends import InMemoryBackend
    from repro.api.cursor import Cursor
    from repro.core import plan_cache, results
    from repro.core.encryptor import Encryptor
    from repro.core.proxy import CryptDBProxy
    from repro.core.rewriter import Rewriter
    from repro.crypto import join_adj
    from repro.crypto.aes import AES
    from repro.crypto.ope import OPE
    from repro.crypto.paillier import PaillierKeyPair
    from repro.durability.wal import WriteAheadLog
    from repro.parallel.pool import CryptoWorkerPool
    from repro.server import framing, protocol
    from repro.server.transport import SecureChannel
    from repro.shard.backend import ShardedBackend
    from repro.sql import parameters, parser
    from repro.sql.engine import Database

    return [
        Target(Cursor, "execute", "api.cursor"),
        Target(Cursor, "executemany", "api.cursor"),
        Target(remote_backend.RemoteProxyClient, "execute", "api.remote"),
        Target(remote_backend.RemoteProxyClient, "executemany", "api.remote"),
        Target(CryptDBProxy, "execute", "core.proxy"),
        Target(CryptDBProxy, "executemany", "core.proxy"),
        Target(CryptDBProxy, "prepare", "core.prepare"),
        Target(parameters, "normalize_statement_text", "sql.normalize", leaf=True),
        Target(parser, "parse_sql", "sql.parse"),
        Target(plan_cache.PlanCache, "get", "core.plan_cache", leaf=True),
        Target(Rewriter, "rewrite", "core.rewriter"),
        Target(plan_cache, "bind_parameters", "core.encryptor.bind"),
        Target(plan_cache, "bind_parameters_batch", "core.encryptor.batch",
               items=_second_arg_len),
        Target(Encryptor, "hom_group_rewrite", "core.encryptor.bind"),
        Target(results, "decrypt_results", "core.results",
               items=lambda args: len(args[1].rows)),
        Target(AES, "encrypt_block", "crypto.aes", leaf=True),
        Target(AES, "decrypt_block", "crypto.aes", leaf=True),
        Target(join_adj.JoinAdj, "hash_value", "crypto.ecc", leaf=True),
        Target(join_adj.JoinAdj, "hash_values", "crypto.ecc", leaf=True,
               items=_second_arg_len),
        Target(join_adj, "adjust", "crypto.ecc", leaf=True),
        Target(join_adj, "adjust_many", "crypto.ecc", leaf=True,
               items=lambda args: len(args[0])),
        Target(OPE, "encrypt", "crypto.ope", leaf=True),
        Target(OPE, "decrypt", "crypto.ope", leaf=True),
        Target(PaillierKeyPair, "encrypt", "crypto.paillier", leaf=True),
        Target(PaillierKeyPair, "decrypt", "crypto.paillier", leaf=True),
        Target(PaillierKeyPair, "precompute_randomness", "crypto.paillier",
               leaf=True, items=lambda args: args[1]),
        Target(InMemoryBackend, "execute", "backend.execute", rows=_result_rows),
        Target(sqlite_backend.SQLiteBackend, "execute", "backend.execute",
               rows=_result_rows),
        Target(Database, "execute", "sql.engine"),
        Target(ShardedBackend, "execute", "shard", rows=_result_rows),
        Target(CryptoWorkerPool, "scatter", "parallel.pool", items=_second_arg_len),
        Target(WriteAheadLog, "append", "durability.append", leaf=True),
        Target(WriteAheadLog, "sync", "durability.sync", leaf=True),
        Target(SecureChannel, "seal", "server.client_frame", leaf=True),
        Target(SecureChannel, "open", "server.client_frame", leaf=True),
        Target(protocol, "encode_frame", "server.client_frame", leaf=True),
        Target(protocol, "decode_frame", "server.client_frame", leaf=True),
        Target(framing, "send_record", "server.send", leaf=True),
        Target(framing, "recv_record", "server.wait", leaf=True),
    ]


class Tracer:
    """Installs the wrappers, holds the open-span stack, aggregates spans.

    The stack is per tracer, not per thread: only calls made on the thread
    that installed the tracer are recorded (the two-connection wire phase
    therefore traces connection 0, which runs on the main thread).
    """

    ROOT = "client.stmt"

    def __init__(self, keep_spans: bool = False):
        self.active = False
        self.phase = "setup"
        self.stmt_id = -1
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        #: (phase, name, parent name) -> [calls, items, rows, total_ns, self_ns]
        self.totals: dict[tuple[str, str, str], list] = {}
        #: Open spans: [name, span id, child_ns].
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any]] = []
        self._thread: Optional[int] = None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        name, items_of, rows_of = target.name, target.items, target.rows
        keep = not target.leaf
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._thread:
                return original(*args, **kwargs)
            frame = tracer._open(name)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                tracer._close(
                    frame, start, end, keep,
                    1 if items_of is None else items_of(args),
                    0 if rows_of is None or result is None else rows_of(result),
                )

        traced.__wrapped__ = original
        return traced

    def _open(self, name: str) -> list:
        frame = [name, self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int, keep: bool,
               items: int, rows: int) -> None:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        parent = stack[-1] if stack else None
        parent_name = parent[0] if parent is not None else ""
        if parent is not None:
            parent[2] += elapsed
        entry = self.totals.get((self.phase, frame[0], parent_name))
        if entry is None:
            entry = self.totals[(self.phase, frame[0], parent_name)] = [0, 0, 0, 0, 0]
        entry[0] += 1
        entry[1] += items
        entry[2] += rows
        entry[3] += elapsed
        entry[4] += elapsed - frame[2]
        if keep and self.keep_spans:
            self.spans.append(
                (frame[0], start, end, parent[1] if parent is not None else None,
                 self.stmt_id, frame[1])
            )

    # -- statement root spans (opened by the harness) ----------------------
    def begin_statement(self, stmt_id: int) -> tuple[list, int]:
        self.stmt_id = stmt_id
        return self._open(self.ROOT), time.perf_counter_ns()

    def end_statement(self, token: tuple[list, int]) -> None:
        frame, start = token
        self._close(frame, start, time.perf_counter_ns(), True, 1, 0)

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        """Patch every target (and every by-name import of it under ``repro``)."""
        self._thread = threading.get_ident()
        for target in layer_targets():
            original = target.owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            setattr(target.owner, target.attr, wrapper)
            self._installed.append((target.owner, target.attr, original))
            if not isinstance(target.owner, type):
                # ``from module import func`` copies: patch those globals too.
                for module_name, module in list(sys.modules.items()):
                    if not module_name.startswith("repro") or module is target.owner:
                        continue
                    if module.__dict__.get(target.attr) is original:
                        setattr(module, target.attr, wrapper)
                        self._installed.append((module, target.attr, original))
        self.active = True

    def pause(self) -> None:
        """Stop recording and put the original functions back."""
        self.active = False
        for owner, attr, original in self._installed:
            setattr(owner, attr, original)
        self._installed = []

    # -- reading the aggregate ---------------------------------------------
    def total(self, name: str, phases: tuple[str, ...] = ("timed",),
              parent: Optional[str] = None) -> dict[str, int]:
        """Summed calls/items/rows/total_ns/self_ns of one span name."""
        out = [0, 0, 0, 0, 0]
        for (phase, span_name, parent_name), entry in self.totals.items():
            if span_name != name or phase not in phases:
                continue
            if parent is not None and parent_name != parent:
                continue
            for index, value in enumerate(entry):
                out[index] += value
        return dict(zip(("calls", "items", "rows", "total_ns", "self_ns"), out))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, stmt_id, span_id in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "stmt_id": stmt_id,
                }) + "\n")
