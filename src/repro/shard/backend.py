"""Horizontal sharding: one BackendAdapter fronting N backend instances.

:class:`ShardedBackend` satisfies the same protocol as
:class:`~repro.api.backends.InMemoryBackend`, so the proxy needs no special
casing for most statements -- it hands the adapter rewritten (encrypted)
ASTs and gets merged :class:`ResultSet`\\ s back.  Internally:

* DDL, index creation, UDF registration and transaction control broadcast
  to every shard (recorded for scratch replay).
* INSERT rows route to exactly one shard via the declared
  :class:`~repro.shard.router.ShardRouter` over the shard-key ciphertext.
* UPDATE/DELETE broadcast (each row lives on one shard, so the summed
  rowcounts match a single backend).
* SELECT scatters to every shard and merges at this layer (see
  :mod:`repro.shard.merge`): k-way heap merge for ordered rows with the
  OFFSET applied only post-merge, ``CRYPTDB_HOM_SUM`` partials pooled into
  one packed-chunk blob with no key and no decrypt, COUNT/MIN/MAX
  recombined arithmetically.  Statements a faithful scatter cannot serve (joins,
  HAVING, DISTINCT aggregates, LIMIT without a total order) fall back to a
  **broadcast scratch**: gather the referenced columns of every referenced
  table into a fresh single-node engine and run the original statement
  there.  Each scratch table is the recorded DDL filtered to the column
  names the statement mentions (whole under ``*`` / ``t.*``, at least one
  column otherwise), so a LEFT JOIN whose right side lives entirely on
  other shards still null-extends from the schema template, and name
  resolution sees the same candidates as with the full schema.

The scatter fan-out fires the ``pool.scatter`` fault site before spreading
work across threads; an injected :class:`ParallelUnavailable` degrades that
statement to serial per-shard execution, mirroring the crypto pool's
fallback semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro import faults
from repro.errors import ReproError
from repro.parallel import ParallelUnavailable, ThreadFanout
from repro.shard import merge as shard_merge
from repro.shard.router import ShardRouter, ShardRoutingError
from repro.sql import ast_nodes as ast
from repro.sql.engine import Database
from repro.sql.executor import ResultSet
from repro.sql.parser import parse_sql
from repro.sql.types import ColumnDef


class ShardedBackendError(ReproError):
    """The sharded adapter was configured or driven inconsistently."""


def _fresh_counters() -> dict[str, int]:
    return {
        "scatter_selects": 0,
        "broadcast_selects": 0,
        "aggregate_merges": 0,
        "rows_merged": 0,
        "routed_inserts": 0,
        "broadcast_writes": 0,
        "scatter_fallbacks": 0,
        #: Cells (rows x columns) gathered into broadcast scratch engines.
        "broadcast_cells": 0,
    }


class _ShardTableView:
    """Broadcasting stand-in for ``backend.table(name)``.

    Index creation replays on every shard; size queries aggregate; anything
    else reads shard 0 (all shards share one schema, so per-shard metadata
    is identical).
    """

    def __init__(self, owner: "ShardedBackend", name: str):
        self._owner = owner
        self._name = name

    def create_index(self, column: str, ordered: bool = False) -> None:
        for shard in self._owner.backends:
            shard.table(self._name).create_index(column, ordered=ordered)

    def storage_bytes(self) -> int:
        return sum(s.table(self._name).storage_bytes() for s in self._owner.backends)

    def row_count(self) -> int:
        return sum(s.table(self._name).row_count() for s in self._owner.backends)

    def __getattr__(self, item: str):
        return getattr(self._owner.backends[0].table(self._name), item)


class ShardedBackend:
    """N-way horizontally sharded backend with scatter-gather execution."""

    is_sharded = True

    def __init__(
        self,
        shards: int = 2,
        base: str = "memory",
        mode: str = "det-hash",
        paths: Optional[list[str]] = None,
        threads: bool = True,
        shard_key: Optional[str] = None,
        allow_existing: bool = False,
    ):
        if shards < 1:
            raise ShardedBackendError(f"shard count must be >= 1, got {shards}")
        from repro.api.backends import create_backend  # avoid import cycle

        self.shard_count = shards
        self.base = base
        self.mode = mode
        #: Preferred logical shard-key column name (proxy hint); the proxy
        #: falls back to each table's first column when absent.
        self.shard_key = shard_key
        normalized = base.lower()
        self.backends = []
        for index in range(shards):
            if normalized in ("sqlite", "sqlite3"):
                path = paths[index] if paths else ":memory:"
                self.backends.append(
                    create_backend(base, path=path, allow_existing=allow_existing)
                )
            else:
                self.backends.append(create_backend(base))
        # sqlite3 connections are opened for serialised use by one caller
        # at a time, so only in-memory engine shards fan out across threads.
        threaded = threads and normalized not in ("sqlite", "sqlite3")
        self._fanout = ThreadFanout(max_workers=shards, threads=threaded)

        #: anon table name -> (anon shard-key column, router)
        self._routing: dict[str, tuple[str, ShardRouter]] = {}
        #: Recorded DDL for scratch replay and * column-order resolution.
        self._ddl: dict[str, ast.CreateTable] = {}
        self._ddl_order: list[str] = []
        self._scalar_udfs: list[tuple] = []
        self._aggregate_udfs: list[tuple] = []
        self.counters = _fresh_counters()

    # ------------------------------------------------------------------
    # proxy-facing configuration
    # ------------------------------------------------------------------
    def declare_routing(
        self, table: str, column: str, mode: Optional[str] = None
    ) -> None:
        """Declare ``table``'s (anonymized) shard-key column."""
        self._routing[table] = (
            column,
            ShardRouter(self.shard_count, mode=mode or self.mode),
        )

    def routing_catalog(self) -> dict[str, tuple[str, str]]:
        """``anon table -> (anon shard-key column, mode)`` for the catalog."""
        return {
            table: (column, router.mode)
            for table, (column, router) in self._routing.items()
        }

    def adopt_ddl(self, statement: ast.CreateTable) -> None:
        """Record a table's anonymised layout without executing any DDL.

        Catalog recovery re-registers the layouts of tables the shard files
        already contain, so broadcast-scratch plans (joins, LIMIT without an
        order, ...) can replay the schemas exactly as a fresh run would.
        """
        if statement.table not in self._ddl:
            self._ddl_order.append(statement.table)
        self._ddl[statement.table] = statement

    # ------------------------------------------------------------------
    # BackendAdapter protocol
    # ------------------------------------------------------------------
    def execute(self, statement) -> ResultSet:
        if isinstance(statement, str):
            statement = parse_sql(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return self._broadcast_serial(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, (ast.Update, ast.Delete)):
            return self._execute_write_broadcast(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        # CreateIndex and anything else: broadcast, report shard 0's view.
        return self._broadcast_serial(statement)

    def table(self, name: str) -> _ShardTableView:
        return _ShardTableView(self, name)

    def has_table(self, name: str) -> bool:
        return self.backends[0].has_table(name)

    def table_names(self) -> list[str]:
        return self.backends[0].table_names()

    def register_scalar_udf(
        self,
        name: str,
        func: Callable[..., Any],
        batch: Optional[Callable[..., list]] = None,
    ) -> None:
        self._scalar_udfs.append((name, func, batch))
        for shard in self.backends:
            shard.register_scalar_udf(name, func, batch=batch)

    def register_aggregate_udf(self, name, initial, step, finalize) -> None:
        self._aggregate_udfs.append((name, initial, step, finalize))
        for shard in self.backends:
            shard.register_aggregate_udf(name, initial, step, finalize)

    def storage_bytes(self) -> int:
        return sum(shard.storage_bytes() for shard in self.backends)

    @property
    def transactions(self):
        # Transaction control broadcasts, so every shard's state agrees;
        # shard 0 answers ``in_transaction`` for all of them.
        return self.backends[0].transactions

    def row_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for shard in self.backends:
            for name, count in shard.row_counts().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def close(self) -> None:
        self._fanout.close()
        for shard in self.backends:
            close = getattr(shard, "close", None)
            if callable(close):
                close()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The STATS-frame ``shard`` block."""
        payload: dict[str, Any] = {
            "shards": self.shard_count,
            "mode": self.mode,
            "rows_per_shard": [
                sum(shard.row_counts().values()) for shard in self.backends
            ],
        }
        payload.update(self.counters)
        return payload

    def reset_counters(self) -> None:
        self.counters = _fresh_counters()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        if statement.table not in self._ddl:
            self._ddl_order.append(statement.table)
        self._ddl[statement.table] = statement
        return self._broadcast_serial(statement)

    def _execute_drop_table(self, statement: ast.DropTable) -> ResultSet:
        self._ddl.pop(statement.table, None)
        if statement.table in self._ddl_order:
            self._ddl_order.remove(statement.table)
        self._routing.pop(statement.table, None)
        return self._broadcast_serial(statement)

    def _broadcast_serial(self, statement) -> ResultSet:
        result = None
        for shard in self.backends:
            result = shard.execute(statement)
        return result if result is not None else ResultSet([], [], 0)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        routing = self._routing.get(statement.table)
        key_index = None
        router = None
        if routing is not None:
            column, router = routing
            if column in statement.columns:
                key_index = statement.columns.index(column)
        buckets: dict[int, list[list[ast.Expression]]] = {}
        for row in statement.rows:
            if key_index is None or router is None:
                shard_index = 0
            else:
                expr = row[key_index]
                if isinstance(expr, ast.Literal):
                    shard_index = router.route(expr.value)
                else:
                    # Unbound expression (should not happen post-rewrite):
                    # hash its SQL text so placement stays deterministic.
                    shard_index = router.route(expr.to_sql())
            buckets.setdefault(shard_index, []).append(row)
        total = 0
        for shard_index, rows in sorted(buckets.items()):
            sub = ast.Insert(statement.table, statement.columns, rows)
            total += self.backends[shard_index].execute(sub).rowcount
        self.counters["routed_inserts"] += 1
        return ResultSet([], [], total)

    def _execute_write_broadcast(self, statement) -> ResultSet:
        self.counters["broadcast_writes"] += 1
        results = self._scatter(lambda index: self.backends[index].execute(statement))
        return ResultSet([], [], sum(result.rowcount for result in results))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _execute_select(self, statement: ast.Select) -> ResultSet:
        if statement.from_clause is None:
            # Table-less SELECT: scattering would multiply the row.
            return self.backends[0].execute(statement)
        if isinstance(statement.from_clause, ast.Join):
            return self._broadcast_select(statement)
        if shard_merge.is_aggregate_select(statement):
            return self._scatter_aggregate(statement)
        return self._scatter_rows(statement)

    def _scatter_rows(self, statement: ast.Select) -> ResultSet:
        plan = shard_merge.plan_row_scatter(statement, self._star_columns(statement))
        if plan is None:
            return self._broadcast_select(statement)
        self.counters["scatter_selects"] += 1
        results = self._scatter(
            lambda index: self.backends[index].execute(plan.per_shard)
        )
        merged = shard_merge.merge_row_results(plan, results)
        self.counters["rows_merged"] += len(merged.rows)
        return merged

    def _scatter_aggregate(self, statement: ast.Select) -> ResultSet:
        specs = self._aggregate_specs(statement)
        if specs is None:
            return self._broadcast_select(statement)
        self.counters["scatter_selects"] += 1
        self.counters["aggregate_merges"] += 1
        results = self._scatter(
            lambda index: self.backends[index].execute(statement)
        )
        return shard_merge.merge_aggregate_results(statement, specs, results)

    def _aggregate_specs(self, statement: ast.Select) -> Optional[list[Optional[str]]]:
        """Column specs when this aggregate SELECT merges; None to broadcast."""
        if (
            statement.having is not None
            or statement.order_by
            or statement.limit is not None
            or statement.offset is not None
            or statement.distinct
        ):
            # HAVING filters partial groups; ORDER/LIMIT windows them.
            return None
        specs = shard_merge.classify_aggregate_items(statement)
        if specs is None:
            return None
        # Every non-aggregate item must be a GROUP BY key (or a constant):
        # a bare projected column -- including a rewriter-appended IV column
        # -- takes an arbitrary per-shard representative value, which would
        # split merged groups.
        group_names = {
            expr.name for expr in statement.group_by if isinstance(expr, ast.ColumnRef)
        }
        for item, spec in zip(statement.items, specs):
            if spec is not None:
                continue
            expr = item.expr
            if isinstance(expr, ast.Literal):
                continue
            if isinstance(expr, ast.ColumnRef) and expr.name in group_names:
                continue
            return None
        return specs

    def _star_columns(self, statement: ast.Select) -> Optional[list[str]]:
        clause = statement.from_clause
        if not isinstance(clause, ast.TableRef):
            return None
        ddl = self._ddl.get(clause.name)
        if ddl is None:
            return None
        return [column.name for column in ddl.columns]

    # ------------------------------------------------------------------
    # broadcast fallback: gather what the statement reads, run on a scratch
    # ------------------------------------------------------------------
    def _broadcast_select(self, statement: ast.Select) -> ResultSet:
        self.counters["broadcast_selects"] += 1
        scratch = Database()
        for name, func, batch in self._scalar_udfs:
            scratch.register_scalar_udf(name, func, batch=batch)
        for name, initial, step, finalize in self._aggregate_udfs:
            scratch.register_aggregate_udf(name, initial, step, finalize)
        for table, columns in self._broadcast_layout(statement):
            # The table exists even when every shard returns nothing: the
            # executor builds a LEFT JOIN's null-extension template from it.
            target = scratch.create_table(table, columns)
            names = [column.name for column in columns]
            gather = ast.Select(
                [ast.SelectItem(ast.ColumnRef(name)) for name in names],
                ast.TableRef(table),
            )
            shard_rows = self._scatter(
                lambda index, g=gather: self.backends[index].execute(g).rows
            )
            for rows in shard_rows:
                for row in rows:
                    target.insert(dict(zip(names, row)))
                self.counters["broadcast_cells"] += len(rows) * len(names)
        return scratch.execute(statement)

    def _broadcast_layout(
        self, statement: ast.Select
    ) -> list[tuple[str, list[ColumnDef]]]:
        """Each table ``statement`` reads, with the recorded columns it needs.

        Tables come in DDL order, columns in their recorded order.  An
        unqualified name is kept in every referenced table that has it, so
        the scratch engine meets the same ambiguity as with the full schema;
        ``t.x`` is kept in the table whose alias (or name, when unaliased)
        is ``t``, the only table the engine resolves it against.  A ``*`` /
        ``t.*`` projection keeps its tables whole; a table none of whose
        columns is named keeps its first one, so ``COUNT(*)`` and join
        multiplicity still see every row.
        """
        refs = shard_merge.referenced_tables(statement.from_clause)
        bare: set[str] = set()
        qualified: set[tuple[str, str]] = set()
        for top in ast.statement_expressions(statement):
            for node in ast.walk_expression(top):
                if isinstance(node, ast.ColumnRef):
                    if node.table is None:
                        bare.add(node.name)
                    else:
                        qualified.add((node.table, node.name))
        stars = [
            item.expr for item in statement.items if isinstance(item.expr, ast.Star)
        ]
        # physical table -> the names it must carry, or None for every column
        wanted: dict[str, Optional[set[str]]] = {}
        for ref in refs:
            alias = ref.effective_name
            if any(star.table in (None, alias) for star in stars):
                wanted[ref.name] = None
            elif wanted.get(ref.name, set()) is not None:
                names = wanted.setdefault(ref.name, set(bare))
                names.update(name for table, name in qualified if table == alias)
        layout = []
        for table in self._ddl_order:
            if table not in wanted:
                continue
            columns = self._ddl[table].columns
            names = wanted[table]
            if names is not None:
                columns = [c for c in columns if c.name in names] or columns[:1]
            layout.append((table, columns))
        return layout

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def _scatter(self, fn: Callable[[int], Any]) -> list:
        count = self.shard_count
        use_threads = self._fanout.threads
        if faults.INJECTOR is not None:
            try:
                faults.INJECTOR.fire("pool.scatter", target=self, items=count)
            except ParallelUnavailable:
                # Injected scatter failure: degrade this statement to the
                # serial path instead of failing it.
                self.counters["scatter_fallbacks"] += 1
                use_threads = False
        if use_threads:
            return self._fanout.map(fn, count)
        return self._fanout.serial_map(fn, count)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedBackend(shards={self.shard_count}, base={self.base!r}, "
            f"mode={self.mode!r})"
        )


__all__ = ["ShardedBackend", "ShardedBackendError", "ShardRoutingError"]
