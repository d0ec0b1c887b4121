"""Prepared statements and the rewrite-plan cache.

Rewriting dominates the proxy's per-query cost (§8.4, Figures 9-10): every
statement is parsed, analysed against the onion schema and anonymised.  That
work is identical across executions, so the proxy rewrites each *shape* once
and keeps the result as a :class:`PreparedStatement`:

* the cache key is the statement's normalized text (whitespace/keyword-case
  insensitive, literals re-escaped), computed with a single tokenizer pass;
* entries record the :class:`~repro.core.schema.ProxySchema` version they
  were rewritten under.  Any onion adjustment, HOM staleness mark, CREATE
  or DROP bumps that version, so stale plans -- whose slot levels no longer
  match the server's columns -- are discarded on the next lookup;
* executing a cached plan only *binds* values: each ``?`` value, and each
  literal the rewriter lifted into :attr:`~repro.core.rewriter.RewritePlan.literals`,
  is encrypted for exactly the onion/layer recorded in its
  :class:`~repro.core.rewriter.ParamSlot` and written into the rewritten
  statement's literal nodes in place.  ``execute`` binds a batch of one
  through the same columnar kernels (and memos) as ``executemany``.

No plan embeds a ciphertext, so every plan is reusable and every execution
draws fresh RND IVs and Paillier randomness, literals included.  A JOIN-ADJ
re-key therefore needs no new plans, only fresh Eq encryptions (the cache
drops the column's Eq memo).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.encryptor import Encryptor
from repro.core.rewriter import RewritePlan
from repro.errors import ProxyError
from repro.sql import ast_nodes as ast

#: Statement kinds used for per-type statistics and cache bookkeeping.
_KIND_BY_TYPE = {
    ast.Select: "SELECT",
    ast.Insert: "INSERT",
    ast.Update: "UPDATE",
    ast.Delete: "DELETE",
    ast.CreateTable: "CREATE TABLE",
    ast.CreateIndex: "CREATE INDEX",
    ast.DropTable: "DROP TABLE",
    ast.Begin: "BEGIN",
    ast.Commit: "COMMIT",
    ast.Rollback: "ROLLBACK",
}


def statement_kind(statement: ast.Statement) -> str:
    return _KIND_BY_TYPE.get(type(statement), type(statement).__name__.upper())


@dataclass
class PreparedStatement:
    """One rewritten statement shape, executable many times with parameters."""

    statement: ast.Statement           # the original (application) statement
    plan: Optional[RewritePlan]        # None for DDL handled by the proxy itself
    param_count: int
    schema_version: int
    kind: str
    sql_key: Optional[str] = None      # normalized text; None when prepared from an AST

    @property
    def is_ddl(self) -> bool:
        return self.plan is None


def _bind_slot_columns(
    plan: RewritePlan, rows: Sequence[Sequence[Any]], encryptor: Encryptor
) -> list[list[Any]]:
    """Encrypt value rows column-wise: one list of bound values per slot.

    Each row holds the statement's ``?`` values followed by its lifted
    literals.  For every :class:`~repro.core.rewriter.ParamSlot` the values
    of all rows are gathered into one column and encrypted in a single batch
    call, so the deterministic layers of repeated values are computed once
    (and, through the encryptor's memos, once across statements).
    """
    slot_columns: list[list[Any]] = []
    row_value_parts: dict[int, dict[str, list]] = {}
    for slot in plan.param_slots:
        values = [row[slot.index] for row in rows]
        if slot.kind == "plain":
            slot_columns.append(values)
        elif slot.kind == "constant":
            slot_columns.append(
                encryptor.encrypt_constants_many(
                    slot.column, slot.onion, slot.level, values
                )
            )
        elif slot.kind == "row_value":
            parts = row_value_parts.get(slot.index)
            if parts is None:
                parts = row_value_parts[slot.index] = encryptor.encrypt_column_values(
                    slot.column, values
                )
            slot_columns.append(parts.get(slot.part) or [None] * len(rows))
        elif slot.kind == "hom_delta":
            for index, value in enumerate(values):
                if not isinstance(value, (int, float)):
                    raise ProxyError(
                        f"parameter {slot.index} feeds a homomorphic increment and "
                        f"must be numeric, got {type(value).__name__} (row {index})"
                    )
            slot_columns.append(
                encryptor.hom_delta_many(slot.column, [slot.sign * v for v in values])
            )
        elif slot.kind == "hom_pack":
            slot_columns.append(
                encryptor.encrypt_hom_group_many(
                    [column for column, _ in slot.pack],
                    [[row[index] for _, index in slot.pack] for row in rows],
                )
            )
        else:  # pragma: no cover - slots are only created with known kinds
            raise ProxyError(f"unknown parameter slot kind {slot.kind}")
    return slot_columns


def bind_parameters(
    plan: RewritePlan, params: Sequence[Any], encryptor: Encryptor
) -> None:
    """Encrypt one row of values into the plan's literal slots, in place.

    ``params`` is the statement's ``?`` values followed by ``plan.literals``;
    a batch of one through the same columnar kernels ``executemany`` uses.
    """
    for slot, column in zip(
        plan.param_slots, _bind_slot_columns(plan, [params], encryptor)
    ):
        slot.target.value = column[0]


def bind_parameters_batch(
    plan: RewritePlan, rows: Sequence[Sequence[Any]], encryptor: Encryptor
) -> list[list[Any]]:
    """Encrypt many value rows (``?`` values, then literals); one list per row.

    Each row's list is aligned with ``plan.param_slots``; the caller writes
    its values into the slot targets just before executing the row.
    """
    slot_columns = _bind_slot_columns(plan, rows, encryptor)
    return [
        [column[row_index] for column in slot_columns]
        for row_index in range(len(rows))
    ]


class PlanCache:
    """LRU cache of :class:`PreparedStatement` keyed on normalized SQL text."""

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, schema_version: int, stats) -> Optional[PreparedStatement]:
        """A valid cached plan, or None (counting the hit/miss/invalidation)."""
        entry = self._entries.get(key)
        if entry is not None and entry.schema_version != schema_version:
            del self._entries[key]
            stats.plan_cache_invalidations += 1
            entry = None
        if entry is None:
            stats.plan_cache_misses += 1
            return None
        self._entries.move_to_end(key)
        stats.plan_cache_hits += 1
        return entry

    def put(self, prepared: PreparedStatement) -> None:
        if not self.enabled or prepared.sql_key is None:
            return
        self._entries[prepared.sql_key] = prepared
        self._entries.move_to_end(prepared.sql_key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
