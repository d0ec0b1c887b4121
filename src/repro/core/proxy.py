"""The CryptDB database proxy (single-principal mode, threat 1).

The proxy intercepts every SQL statement the application issues, rewrites it
to execute over encrypted data, forwards it (together with any onion
adjustment UPDATEs) to the unmodified DBMS, and decrypts the results.  It
holds the master key MK, the plaintext schema, and the current onion level of
every column; the DBMS only ever sees anonymised identifiers, ciphertexts and
CryptDB's UDFs (Figure 1).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence, Union

from repro import faults
from repro.core import udfs
from repro.core.cache import CacheStatistics, CryptoCache
from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.core.onion import EncryptionScheme, Onion, SecurityLevel
from repro.core.plan_cache import (
    PlanCache,
    PreparedStatement,
    bind_parameters,
    bind_parameters_batch,
    statement_kind,
)
from repro.core.rewriter import RewritePlan, Rewriter
from repro.core.results import decrypt_results
from repro.core.schema import ProxySchema
from repro.core.training import TrainingReport, build_report
from repro.crypto import paillier as paillier_scheme
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.paillier import PaillierKeyPair
from repro.durability import CatalogState, MetadataCatalog, tag_value, untag_value
from repro.errors import (
    CatalogError,
    ProxyError,
    ReproError,
    SimulatedCrash,
    UnsupportedQueryError,
)
from repro.parallel.jobs import HomRandomnessJob
from repro.parallel.pool import CryptoWorkerPool, ParallelConfig, ParallelUnavailable
from repro.sql import ast_nodes as ast
from repro.sql.engine import Database
from repro.sql.executor import ResultSet
from repro.sql.parameters import normalize_statement_text
from repro.sql.parser import parse_sql

# A modest default keeps pure-Python Paillier fast; the paper uses 1024-bit
# moduli (2048-bit ciphertexts), which callers can request explicitly.
DEFAULT_PAILLIER_BITS = 1024


@dataclass
class ProxyStatistics:
    """Operational counters exposed for the evaluation benchmarks."""

    queries_processed: int = 0
    queries_rewritten: int = 0
    onion_adjustments: int = 0
    unsupported_queries: int = 0
    proxy_time_seconds: float = 0.0
    server_time_seconds: float = 0.0
    #: Time spent parsing + rewriting statement shapes (the prepare phase);
    #: plan-cache hits skip this entirely.
    prepare_time_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    #: Statements executed through the batched executemany pipeline, and how
    #: many parameter rows they covered.
    batched_statements: int = 0
    batched_rows: int = 0
    #: End-to-end wall time per statement kind ("SELECT", "INSERT", ...) as
    #: a running ``[statements, total seconds]``, updated by every execute()
    #: call: constant size however long the proxy runs.
    per_query_type_totals: dict[str, list] = field(default_factory=dict)
    #: The proxy's unified ciphertext cache (DET/OPE/SEARCH memos, HOM pool);
    #: set by the proxy, excluded from reset()'s zeroing.
    cache: Optional[CryptoCache] = None
    #: The proxy's crypto worker pool (None when serial); set by the proxy,
    #: excluded from reset()'s zeroing.  Its health counters are merged into
    #: cache_stats() so they travel the STATS frame with the cache block.
    pool: Optional[Any] = None
    #: The sharded backend (None when single-node); set by the proxy,
    #: excluded from reset()'s zeroing like cache/pool -- reset() asks it to
    #: zero its own scatter/merge counters instead.
    shard: Optional[Any] = None

    def cache_stats(self) -> CacheStatistics:
        """DET/OPE/SEARCH memo hit/miss counters and the HOM pool state."""
        stats = CacheStatistics() if self.cache is None else self.cache.statistics()
        if self.pool is not None:
            stats.pool_restarts = self.pool.restarts
            stats.pool_failures = self.pool.failures
            stats.pool_circuit_opens = self.pool.circuit_opens
            stats.pool_circuit_open = int(self.pool.circuit_open)
        return stats

    def record_query_type(self, kind: str, seconds: float, rows: int = 1) -> None:
        """Add ``seconds`` spent on ``rows`` statements of one kind.

        An N-row executemany counts as N statements, so count and total line
        up with the scalar path and the mean stays per-statement.
        """
        entry = self.per_query_type_totals.setdefault(kind, [0, 0.0])
        entry[0] += max(rows, 1)
        entry[1] += seconds

    def query_type_summary(self) -> dict[str, dict[str, float]]:
        """Per-statement-type count/total/mean, for the benchmark reports."""
        return {
            kind: {
                "count": count,
                "total_seconds": total,
                "mean_ms": (total / count) * 1000,
            }
            for kind, (count, total) in sorted(self.per_query_type_totals.items())
        }

    def reset(self) -> None:
        """Zero every counter (timing series and cache hit/miss included).

        Cached ciphertext entries and the HOM pool survive a reset -- only
        the counters are cleared.
        """
        fresh = ProxyStatistics()
        for name, value in vars(fresh).items():
            if name in ("cache", "pool", "shard"):
                continue
            setattr(self, name, value)
        if self.cache is not None:
            self.cache.reset_counters()
        if self.pool is not None:
            self.pool.reset_counters()
        if self.shard is not None:
            self.shard.reset_counters()

    def shard_stats(self) -> Optional[dict]:
        """The sharded backend's scatter/merge counters, or None."""
        return self.shard.stats() if self.shard is not None else None


class CryptDBProxy:
    """Single-principal CryptDB proxy in front of an (unmodified) DBMS."""

    def __init__(
        self,
        db: Optional[Database] = None,
        master_key: Optional[MasterKey] = None,
        paillier_bits: int = DEFAULT_PAILLIER_BITS,
        paillier: Optional[PaillierKeyPair] = None,
        anonymize_names: bool = True,
        in_proxy_processing: bool = False,
        use_ciphertext_cache: bool = True,
        hom_precompute: int = 256,
        plan_cache_size: int = 256,
        workers: int = 0,
        parallelism: Optional[ParallelConfig] = None,
        cache_budget_bytes: Optional[int] = None,
        catalog: Optional[Union[str, MetadataCatalog]] = None,
    ):
        self.db = db if db is not None else Database()
        self.master_key = master_key if master_key is not None else MasterKey.generate()
        self.keys = KeyManager(self.master_key)
        self.paillier = paillier if paillier is not None else PaillierKeyPair.generate(paillier_bits)
        # Every Add onion lives in a slot of a packed Paillier ciphertext
        # (§8.4).  A modulus too small for one slot is refused here, before
        # any worker process or backend state exists.
        packing = paillier_scheme.PACKING
        hom_slots = packing.slots_for(self.paillier.public.n)
        self.joins = JoinManager(self.master_key.material)
        self.cache = CryptoCache(
            self.paillier,
            enabled=use_ciphertext_cache,
            budget_bytes=cache_budget_bytes,
        )
        # ``workers=N`` is shorthand for ``parallelism=ParallelConfig(workers=N)``;
        # an explicit config wins, with a bare ``workers`` overriding its count.
        if parallelism is None:
            parallelism = ParallelConfig(workers=workers)
        elif workers and parallelism.workers != workers:
            parallelism = replace(parallelism, workers=workers)
        self.parallelism = parallelism
        self.pool: Optional[CryptoWorkerPool] = None
        if parallelism.enabled:
            self.pool = CryptoWorkerPool(
                parallelism, self.paillier, stats_sink=self.cache.absorb_worker_counters
            )
        self.encryptor = Encryptor(
            self.keys,
            self.joins,
            self.paillier,
            packing,
            use_ope_cache=use_ciphertext_cache,
            cache=self.cache,
            pool=self.pool,
        )
        self.schema = ProxySchema(hom_slots, anonymize_names=anonymize_names)
        self.rewriter = Rewriter(
            self.schema, self.encryptor, self.joins, in_proxy_processing=in_proxy_processing
        )
        if use_ciphertext_cache and hom_precompute:
            self.cache.precompute_hom(hom_precompute)
        # Background HOM pool refill: when the randomness pool runs low the
        # Paillier key pair pings this proxy, which hands a precompute batch
        # to a crypto worker instead of letting the next INSERT burst stall
        # on inline ``r^n`` exponentiations.
        # Pool generation of the refill currently in flight, or None.  Keyed
        # on the generation so a restart that killed the job's callbacks
        # (they never fire after terminate) cannot wedge refills forever.
        self._hom_refill_inflight: Optional[int] = None
        self._hom_refill_hook = self._schedule_hom_refill
        if self.pool is not None and use_ciphertext_cache:
            self.paillier.refill_watermark = parallelism.hom_low_watermark
            self.paillier.refill_hook = self._hom_refill_hook
        self.stats = ProxyStatistics(cache=self.cache, pool=self.pool)
        self.plan_cache = PlanCache(plan_cache_size)
        self._onion_snapshot: Optional[tuple] = None
        self._computation_log: dict[tuple[str, str], set] = {}
        self._unsupported_log: list[str] = []
        self._training = False
        udfs.install_udfs(self.db, self.paillier.public, packing)
        if getattr(self.db, "is_sharded", False):
            self.stats.shard = self.db
        # Durable metadata catalog: the proxy writes a WAL record through at
        # every metadata mutation, and a catalog with history rebuilds this
        # proxy's state (schema, onion levels, JOIN-ADJ groups, routing,
        # schema version) against the existing backend -- the restart path.
        self.catalog: Optional[MetadataCatalog] = None
        #: Adjustment intents whose resolution rides an open application
        #: transaction: COMMIT logs their commit records, ROLLBACK aborts.
        self._txn_pending_intents: list[int] = []
        if catalog is not None:
            self._attach_catalog(catalog)

    # ------------------------------------------------------------------
    # parallel crypto lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release proxy resources: flushes the catalog, terminates the pool.

        The durable catalog is flushed and fsynced *first*, before any other
        resource is released, so buffered metadata records cannot be lost by
        a clean shutdown.  Idempotent -- including after a flush failure: the
        catalog reference is detached before flushing, so a failed fsync
        surfaces exactly once and a second close() is a no-op.  The proxy
        remains usable afterwards (batch kernels simply run serially), but
        without its catalog attached.
        """
        catalog, self.catalog = self.catalog, None
        try:
            if catalog is not None:
                catalog.close()
        finally:
            if self.paillier.refill_hook is self._hom_refill_hook:
                self.paillier.refill_hook = None
            if self.pool is not None:
                self.pool.close()
                self.pool = None
                self.encryptor.pool = None

    def _schedule_hom_refill(self) -> None:
        """Hand one Paillier randomness precompute batch to the worker pool."""
        pool = self.pool
        if pool is None or pool.broken or pool.closed:
            return
        if self._hom_refill_inflight == pool.generation:
            return  # one refill per pool generation at a time
        if faults.INJECTOR is not None:
            try:
                faults.INJECTOR.fire("paillier.refill", target=self)
            except ReproError:
                # An injected refill failure skips this batch; the next
                # encryption that drops through the watermark re-triggers,
                # and correctness never depends on pooled randomness.
                return
        self._hom_refill_inflight = pool.generation

        def on_done(factors: list) -> None:
            # Runs on the pool's result-handler thread; list.extend is a
            # single C-level call, and the counter bump goes through the
            # cache's lock-protected merge.
            self.paillier._randomness_pool.extend(factors)
            self.cache.note_async_refill()
            self._hom_refill_inflight = None

        def on_error(_exc: BaseException) -> None:
            self._hom_refill_inflight = None

        try:
            pool.submit_async(
                HomRandomnessJob(self.parallelism.hom_refill_batch), on_done, on_error
            )
        except ParallelUnavailable:
            self._hom_refill_inflight = None

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def create_table(
        self,
        sql_or_statement: Union[str, ast.CreateTable],
        plaintext_columns: Optional[Iterable[str]] = None,
        sensitive_columns: Optional[Iterable[str]] = None,
        minimum_levels: Optional[dict[str, SecurityLevel]] = None,
    ) -> None:
        """Create an application table; the DBMS receives the anonymised layout.

        ``plaintext_columns`` implements the §3.5.2 developer annotation that
        leaves non-sensitive fields unencrypted; ``minimum_levels`` implements
        the §3.5.1 minimum-onion-layer constraint; ``sensitive_columns`` only
        tags columns for the security analysis.
        """
        statement = (
            parse_sql(sql_or_statement) if isinstance(sql_or_statement, str) else sql_or_statement
        )
        if not isinstance(statement, ast.CreateTable):
            raise ProxyError("create_table expects a CREATE TABLE statement")
        table_meta = self.schema.add_table(
            statement.table,
            statement.columns,
            plaintext_columns=set(plaintext_columns or ()),
            sensitive_columns=set(sensitive_columns or ()),
            minimum_levels=dict(minimum_levels or {}),
        )
        for column_def in statement.columns:
            column = table_meta.column(column_def.name)
            if not column.plaintext:
                self.joins.register_column(column.table, column.name)
        if self.catalog is not None:
            # Write-ahead: the record must be durable before the backend DDL
            # runs, so a crash between the two leaves a catalog that knows
            # the table and a recovery that completes the missing DDL.
            record = self.schema.describe_table(statement.table)
            record["t"] = "create_table"
            record["version"] = self.schema.version
            self.catalog.append(record, sync=True)
        anon_columns = self._anonymized_columns(statement)
        self.db.execute(ast.CreateTable(table_meta.anon_name, anon_columns, statement.if_not_exists))
        if getattr(self.db, "is_sharded", False):
            rewind = (self.schema.snapshot_levels(), self.joins.snapshot(), self.schema.version)
            declared = self._declare_shard_key(statement.table)
            if self.catalog is not None:
                meta = self._catalog_meta_diff(rewind) or {}
                if declared is not None:
                    meta["routing"] = [list(declared)]
                if meta:
                    self.catalog.append(dict(meta, t="meta"), sync=True)

    def _declare_shard_key(self, table: str) -> Optional[tuple[str, str, str]]:
        """Tell a sharded backend which anonymised column routes inserts.

        The shard key's routing onion is peeled ahead of time -- DET for
        det-hash routing, OPE for ope-range -- so equal/ordered plaintexts
        land on predictable shards.  The table is empty here, so the peel is
        metadata-only (no server-side UPDATEs), and it is the same §3.5.1
        static trade-off as any pre-lowered column: the shard key leaks
        equality (or order) to the DBMS from the start instead of after the
        first query that needs it.  Routing stays placement-only, so a key
        whose onion later adjusts further (e.g. JOIN-ADJ re-keying) never
        breaks reads.
        """
        table_meta = self.schema.table(table)
        preferred = getattr(self.db, "shard_key", None)
        names = table_meta.column_names()
        key = preferred if preferred in names else names[0]
        column = table_meta.column(key)
        mode = getattr(self.db, "mode", "det-hash")
        if column.plaintext:
            self.db.declare_routing(table_meta.anon_name, column.name, mode=mode)
            return (table_meta.anon_name, column.name, mode)
        if mode == "ope-range" and column.has_onion(Onion.ORD):
            self.schema.lower_onion(table, key, Onion.ORD, EncryptionScheme.OPE)
            anon = column.onion_state(Onion.ORD).anon_name
            self.db.declare_routing(table_meta.anon_name, anon, mode="ope-range")
            return (table_meta.anon_name, anon, "ope-range")
        if column.has_onion(Onion.EQ):
            self.schema.lower_onion(table, key, Onion.EQ, EncryptionScheme.DET)
            anon = column.onion_state(Onion.EQ).anon_name
            self.db.declare_routing(table_meta.anon_name, anon, mode="det-hash")
            return (table_meta.anon_name, anon, "det-hash")
        # No usable onion: the table stays undeclared and all rows pin to
        # shard 0 -- correct, just not distributed.
        return None

    def _anonymized_columns(self, statement: ast.CreateTable):
        from repro.sql.types import BIGINT, BLOB, ColumnDef

        table_meta = self.schema.table(statement.table)
        anon_columns: list[ColumnDef] = []
        for column_def in statement.columns:
            column = table_meta.column(column_def.name)
            if column.plaintext:
                anon_columns.append(ColumnDef(column_def.name, column_def.data_type))
                continue
            for onion, state in column.onions.items():
                if onion in (Onion.EQ, Onion.SEARCH):
                    anon_columns.append(ColumnDef(state.anon_name, BLOB()))
                elif onion is Onion.ORD:
                    anon_columns.append(ColumnDef(state.anon_name, BIGINT()))
                # Add onions are stored once per group, below.
            anon_columns.append(ColumnDef(column.iv_column, BLOB()))
        for group in table_meta.hom_groups:
            # One shared packed-Add ciphertext column per group (§8.4).
            anon_columns.append(ColumnDef(group.anon_name, BLOB()))
        return anon_columns

    def create_index(self, table: str, column: str) -> None:
        """Create indexes over the column's DET/JOIN and OPE onions (§3.3)."""
        column_meta = self.schema.column(table, column)
        anon_table = self.db.table(self.schema.table(table).anon_name)
        if column_meta.plaintext:
            anon_table.create_index(column)
            return
        if column_meta.has_onion(Onion.EQ):
            anon_table.create_index(column_meta.onion_state(Onion.EQ).anon_name)
        if column_meta.has_onion(Onion.ORD):
            anon_table.create_index(column_meta.onion_state(Onion.ORD).anon_name, ordered=True)

    def declare_range_join(self, columns: list[tuple[str, str]], group: str = "default") -> None:
        """Declare ahead of time that columns will be range-joined (§3.4).

        All declared columns share one OPE key; must be called before data is
        inserted into those columns.
        """
        for table, column in columns:
            self.schema.column(table, column).ope_join_group = group
        if self.catalog is not None:
            self.catalog.append(
                {"t": "meta", "ope_groups": [[t, c, group] for t, c in columns]},
                sync=True,
            )

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        sql_or_statement: Union[str, ast.Statement],
        params: Optional[Sequence[Any]] = None,
    ) -> ResultSet:
        """Execute one application statement over encrypted data.

        ``params`` binds ``?`` placeholders (DB-API *qmark* style).  SQL text
        goes through the rewrite-plan cache, so repeated executions of the
        same parameterized shape skip re-parsing and re-rewriting and only
        pay for encrypting the bound parameters.
        """
        if isinstance(sql_or_statement, str):
            prepared = self.prepare(sql_or_statement)
        else:
            prepared = self._prepare_statement(sql_or_statement, cache_key=None)
        return self.execute_prepared(prepared, params)

    def executemany(
        self, sql: str, seq_of_params: Iterable[Sequence[Any]]
    ) -> int:
        """Execute one statement shape for every parameter tuple.

        A fully parameterized shape is prepared (rewritten) exactly once and
        then executed through the **batched pipeline**: all parameter rows
        are encrypted column-at-a-time through the plan's deferred slots
        (deterministic layers deduplicated via the ciphertext cache), and a
        single-row INSERT shape is forwarded to the DBMS as one multi-row
        INSERT.  Shapes that bake per-execution randomness into the plan
        (literal values written to encrypted columns) fall back to per-row
        re-rewriting so RND IVs and HOM ciphertexts are never replayed.
        Returns the total affected rowcount.
        """
        rows = [tuple(params) for params in seq_of_params]
        if not rows:
            # PEP 249: an empty parameter sequence is a pure no-op.  Not even
            # prepare() runs -- preparing has side effects (onion-adjustment
            # UPDATEs, plan-cache population) that a no-op must not trigger,
            # and a bad shape will still fail loudly on first real use.
            return 0
        prepared = self.prepare(sql)
        plan = prepared.plan
        # A row with the wrong parameter count fails the whole batch before
        # any row is written -- on the per-row fallback path too.
        for index, params in enumerate(rows):
            if len(params) != prepared.param_count:
                raise ProxyError(
                    f"statement expects {prepared.param_count} parameters, "
                    f"got {len(params)} (row {index})"
                )
        batchable = (
            not prepared.is_ddl
            and not plan.passthrough
            and plan.cacheable
            and prepared.param_count > 0
        )
        if batchable:
            return self._execute_prepared_batch(prepared, rows)
        reusable = (
            prepared.is_ddl or plan.passthrough or plan.cacheable
        )
        total = 0
        for params in rows:
            total += self.execute_prepared(prepared, params).rowcount
            if not reusable:
                prepared = self.prepare(sql)
        return total

    def _execute_prepared_batch(
        self, prepared: PreparedStatement, rows: list[tuple]
    ) -> int:
        """Run one cacheable statement shape over a batch of parameter rows."""
        plan = prepared.plan
        total_start = time.perf_counter()
        self.stats.queries_processed += len(rows)
        try:
            bind_start = time.perf_counter()
            bound_rows = bind_parameters_batch(plan, rows, self.encryptor)
            bind_time = time.perf_counter() - bind_start

            statement = plan.statement
            slots = plan.param_slots
            server_start = time.perf_counter()
            if (
                isinstance(statement, ast.Insert)
                and len(statement.rows) == 1
                and all(isinstance(expr, ast.Literal) for expr in statement.rows[0])
            ):
                # One multi-row INSERT: bind each row into the template and
                # snapshot the literals, so the server executes a single
                # statement for the whole batch.
                template = statement.rows[0]
                insert_rows = []
                for bound in bound_rows:
                    for slot, value in zip(slots, bound):
                        slot.target.value = value
                    insert_rows.append([ast.Literal(expr.value) for expr in template])
                total = self.db.execute(
                    ast.Insert(statement.table, statement.columns, insert_rows)
                ).rowcount
            else:
                total = 0
                for row_index, bound in enumerate(bound_rows):
                    for slot, value in zip(slots, bound):
                        slot.target.value = value
                    if plan.hom_rmw:
                        total += self._execute_with_rmw(
                            plan, rows[row_index]
                        ).rowcount
                    else:
                        total += self.db.execute(statement).rowcount
            server_time = time.perf_counter() - server_start

            self.stats.proxy_time_seconds += bind_time
            self.stats.server_time_seconds += server_time
            self.stats.batched_statements += 1
            self.stats.batched_rows += len(rows)
            return total
        finally:
            self.stats.record_query_type(
                prepared.kind, time.perf_counter() - total_start, len(rows)
            )
            self.cache.enforce_budget()

    #: Statement heads that never produce a cacheable rewrite plan; prepare()
    #: skips the cache for them so hit/miss counters reflect only real plans.
    _UNCACHED_HEADS = frozenset({"CREATE", "DROP", "BEGIN", "COMMIT", "ROLLBACK", "START"})

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse + rewrite a statement shape once, via the plan cache."""
        key = normalize_statement_text(sql)
        if key.split(" ", 1)[0] in self._UNCACHED_HEADS:
            return self._prepare_statement(parse_sql(sql), cache_key=None)
        cached = self.plan_cache.get(key, self.schema.version, self.stats)
        if cached is not None:
            return cached
        return self._prepare_statement(parse_sql(sql), cache_key=key)

    def _prepare_statement(
        self, statement: ast.Statement, cache_key: Optional[str]
    ) -> PreparedStatement:
        """Rewrite a parsed statement, run its onion adjustments, maybe cache."""
        kind = statement_kind(statement)
        param_count = ast.count_placeholders(statement)
        if isinstance(statement, (ast.CreateTable, ast.CreateIndex, ast.DropTable)):
            if param_count:
                raise ProxyError("DDL statements cannot take ? parameters")
            return PreparedStatement(statement, None, 0, self.schema.version, kind)

        prepare_start = time.perf_counter()
        # Rewriting mutates onion metadata (lower_onion, JOIN re-keying) as
        # clauses are analysed, but the matching adjustment UPDATEs only run
        # after the whole statement rewrites successfully.  If a later clause
        # turns out to be unsupported, the metadata must be rewound or the
        # schema would claim levels the stored ciphertexts never reached --
        # and every subsequent range query would silently compare garbage
        # (found by the differential conformance harness).
        rewind = (self.schema.snapshot_levels(), self.joins.snapshot(), self.schema.version)
        try:
            plan = self.rewriter.rewrite(statement)
            if not plan.passthrough:
                bound_indices = {
                    slot.index for slot in plan.param_slots if slot.index is not None
                }
                if bound_indices != set(range(param_count)):
                    raise UnsupportedQueryError(
                        "a ? placeholder appears in a position that cannot be bound "
                        "over encrypted data"
                    )
        except UnsupportedQueryError as exc:
            self._restore_onion_state(rewind)
            self.stats.unsupported_queries += 1
            self._unsupported_log.append(str(exc))
            raise
        except Exception:
            self._restore_onion_state(rewind)
            raise
        self.stats.queries_rewritten += 1
        self.stats.onion_adjustments = self.rewriter.onion_adjustments
        self.record_computations(plan)
        rewrite_time = time.perf_counter() - prepare_start
        self.stats.proxy_time_seconds += rewrite_time
        self.stats.prepare_time_seconds += rewrite_time

        # Any metadata the rewrite mutated (onion lowers, JOIN re-keys, HOM
        # staleness, version bumps) as one state-setting catalog diff.
        meta_diff = (
            self._catalog_meta_diff(rewind) if self.catalog is not None else None
        )

        # Onion adjustments run inside a transaction so concurrent readers
        # never observe a half-adjusted column (§3.2).  They run once, here at
        # prepare time; the stored plan is adjustment-free afterwards.  A
        # server failure mid-adjustment (real DBMS backends can fail) rolls
        # the data back and rewinds the metadata, so schema levels never
        # claim layers the stored ciphertexts did not reach.
        #
        # With a catalog attached the adjustment is two-phase crash
        # consistent: a durable INTENT (ops + metadata diff + one canary
        # ciphertext) precedes the backend UPDATEs, and a COMMIT record
        # follows the backend commit.  A crash anywhere in between leaves an
        # in-doubt intent that recovery resolves idempotently by probing the
        # canary.  The ``adjust.*`` crash points bracket every phase edge.
        if plan.adjustments:
            adjust_start = time.perf_counter()
            own_transaction = not self.db.transactions.in_transaction
            intent_id: Optional[int] = None
            if self.catalog is not None:
                intent_id = self.catalog.begin_adjustment(
                    [list(op) for op in plan.adjustment_meta],
                    meta_diff or {},
                    self._sample_canary(plan.adjustment_meta),
                )
                if not own_transaction:
                    # Inside an application transaction the intent's fate is
                    # the transaction's: COMMIT/ROLLBACK logs its resolution.
                    self._txn_pending_intents.append(intent_id)
                if faults.INJECTOR is not None:
                    faults.INJECTOR.fire("adjust.intent", target=self, intent=intent_id)
            try:
                if own_transaction:
                    self.db.execute(ast.Begin())
                for adjustment in plan.adjustments:
                    self.db.execute(adjustment)
                if faults.INJECTOR is not None and intent_id is not None:
                    faults.INJECTOR.fire("adjust.applied", target=self, intent=intent_id)
                if own_transaction:
                    self.db.execute(ast.Commit())
                if faults.INJECTOR is not None and intent_id is not None:
                    faults.INJECTOR.fire("adjust.commit", target=self, intent=intent_id)
            except SimulatedCrash:
                # Process death: no rollback, no rewind, no abort record --
                # the intent stays in doubt and recovery alone resolves it.
                raise
            except Exception:
                if own_transaction:
                    self.db.execute(ast.Rollback())
                    self._restore_onion_state(rewind)
                    if intent_id is not None:
                        self.catalog.abort_adjustment(intent_id)
                else:
                    # Inside an application transaction there is no savepoint
                    # to unwind just the adjustments, and some strips may
                    # already be applied -- rewinding only the metadata would
                    # make the next query re-strip stripped ciphertexts.
                    # Abort the whole transaction instead: data and onion
                    # metadata rewind together to the BEGIN snapshot (which
                    # also logs abort records for the pending intents).
                    self._execute_transaction_control(ast.Rollback())
                raise
            if intent_id is not None and own_transaction:
                self.catalog.commit_adjustment(intent_id)
            plan.adjustments = []
            plan.adjustment_meta = []
            self.stats.server_time_seconds += time.perf_counter() - adjust_start
        elif meta_diff:
            # Metadata-only mutations (OPE -> OPE-JOIN policy changes, HOM
            # staleness marks, plan-version bumps) have no backend write to
            # anchor a two-phase protocol to; one synced meta record is
            # enough because replaying it is a pure state assignment.
            self.catalog.append(dict(meta_diff, t="meta"), sync=True)

        prepared = PreparedStatement(
            statement, plan, param_count, self.schema.version, kind, sql_key=cache_key
        )
        if plan.cacheable and not plan.passthrough:
            self.plan_cache.put(prepared)
        return prepared

    def execute_prepared(
        self, prepared: PreparedStatement, params: Optional[Sequence[Any]] = None
    ) -> ResultSet:
        """Execute a prepared statement with the given parameter values."""
        params = tuple(params) if params is not None else ()
        self.stats.queries_processed += 1
        total_start = time.perf_counter()
        try:
            if prepared.is_ddl:
                return self._execute_ddl(prepared.statement)

            plan = prepared.plan
            if plan.passthrough:
                return self._execute_transaction_control(plan.statement)

            if len(params) != prepared.param_count:
                raise ProxyError(
                    f"statement expects {prepared.param_count} parameters, "
                    f"got {len(params)}"
                )
            bind_start = time.perf_counter()
            if plan.param_slots:
                bind_parameters(plan, params, self.encryptor)
            bind_time = time.perf_counter() - bind_start

            server_start = time.perf_counter()
            if plan.hom_rmw:
                server_result = self._execute_with_rmw(plan, params)
            else:
                server_result = self.db.execute(plan.statement)
            server_time = time.perf_counter() - server_start

            decrypt_start = time.perf_counter()
            if isinstance(prepared.statement, ast.Select):
                result = decrypt_results(plan, server_result, self.encryptor)
            else:
                result = ResultSet([], [], server_result.rowcount)
            decrypt_time = time.perf_counter() - decrypt_start

            self.stats.proxy_time_seconds += bind_time + decrypt_time
            self.stats.server_time_seconds += server_time
            return result
        finally:
            self.stats.record_query_type(
                prepared.kind, time.perf_counter() - total_start
            )
            self.cache.enforce_budget()

    def _execute_with_rmw(
        self, plan: RewritePlan, params: Sequence[Any]
    ) -> ResultSet:
        """Run the packed-cell RMW pre-writes and the main statement atomically.

        The RMW splices packed HOM cells with separate UPDATEs *before* the
        main statement; a backend failure between the two would otherwise
        persist the spliced cells while the non-HOM onions keep their old
        values -- a row the proxy can never again read consistently.  The
        same own-transaction discipline as onion adjustments applies: wrap
        the pair when no application transaction is open, and abort the
        whole application transaction otherwise (no savepoints to unwind
        just the pre-writes).
        """
        own_transaction = not self.db.transactions.in_transaction
        try:
            if own_transaction:
                self.db.execute(ast.Begin())
            self._run_hom_rmw(plan, params)
            result = self.db.execute(plan.statement)
            if own_transaction:
                self.db.execute(ast.Commit())
            return result
        except Exception:
            if own_transaction:
                self.db.execute(ast.Rollback())
            else:
                # Data and onion metadata rewind together to BEGIN.
                self._execute_transaction_control(ast.Rollback())
            raise

    def _run_hom_rmw(self, plan: RewritePlan, params: Sequence[Any]) -> None:
        """Rewrite packed group cells for an UPDATE's absolute assignments.

        §3.3's SELECT-then-UPDATE strategy, applied per packed group: read
        the packed cells of the rows matching the (already bound) WHERE
        clause, splice the reassigned slots in plaintext, and write each
        fresh ciphertext back keyed on the old cell value.  Runs *before*
        the main UPDATE so the predicate still evaluates against pre-update
        onion state; untouched slots -- including pending homomorphic
        increments -- survive bit-exactly.  Paillier cells are probabilistic,
        so two rows share a cell only when a previous RMW made them
        identical, in which case they remain interchangeable here too.
        """
        where = plan.statement.where
        for spec in plan.hom_rmw:
            select = ast.Select(
                items=[ast.SelectItem(ast.ColumnRef(spec.group_anon_name), None)],
                from_clause=ast.TableRef(spec.anon_table, None),
                where=where,
            )
            old_cells = {
                row[0] for row in self.db.execute(select).rows if row[0] is not None
            }
            if not old_cells:
                continue
            assignments = [
                (column, params[index] if index is not None else value)
                for column, index, value in spec.assignments
            ]
            for old_cell in old_cells:
                new_cell = self.encryptor.hom_group_rewrite(assignments, old_cell)
                match = ast.BinaryOp(
                    "=", ast.ColumnRef(spec.group_anon_name), ast.Literal(old_cell)
                )
                condition = match if where is None else ast.BinaryOp("AND", where, match)
                self.db.execute(
                    ast.Update(
                        spec.anon_table,
                        [(spec.group_anon_name, ast.Literal(new_cell))],
                        condition,
                    )
                )

    def _restore_onion_state(self, snapshot: tuple) -> None:
        """Rewind onion levels, JOIN-ADJ key state and the schema version.

        Used when a prepare fails before its effects became visible: the
        restored state is identical to what every cached plan was built
        against, so the version counter rewinds too (lower_onion bumped it
        mid-rewrite) and the plan cache survives -- nothing can have been
        cached during the failed prepare.  If the JOIN-ADJ keys really
        moved, stay conservative and invalidate.
        """
        levels, join_state, version = snapshot
        self.schema.restore_levels(levels, bump_version=False)
        self.schema.version = version
        if self.joins.restore(join_state):
            # Cached plans with baked JOIN-ADJ constants are stale, and so
            # are memoised Eq encryptions (same contract as ROLLBACK).
            self.schema.bump_version()
            self.cache.invalidate_eq()

    def _execute_transaction_control(self, statement: ast.Statement) -> ResultSet:
        """BEGIN/COMMIT/ROLLBACK, keeping onion metadata transactional too.

        Onion-adjustment UPDATEs issued while an application transaction is
        open are rolled back with it, so the proxy snapshots every onion
        level at BEGIN and rewinds its schema metadata (invalidating cached
        plans) when the transaction aborts.
        """
        if isinstance(statement, ast.Begin) and not self.db.transactions.in_transaction:
            self._onion_snapshot = (
                self.schema.snapshot_levels(),
                self.joins.snapshot(),
            )
        pre_rollback = (
            (self.schema.snapshot_levels(), self.joins.snapshot(), self.schema.version)
            if isinstance(statement, ast.Rollback) and self.catalog is not None
            else None
        )
        result = self.db.execute(statement)
        if isinstance(statement, ast.Commit):
            self._onion_snapshot = None
            if self.catalog is not None:
                # The backend made the adjustments durable with this COMMIT;
                # resolve every intent that rode the transaction.
                for intent_id in self._txn_pending_intents:
                    self.catalog.commit_adjustment(intent_id)
            self._txn_pending_intents = []
        elif isinstance(statement, ast.Rollback):
            if self._onion_snapshot is not None:
                levels, join_state = self._onion_snapshot
                self.schema.restore_levels(levels)
                if self.joins.restore(join_state):
                    # Cached plans with baked JOIN-ADJ constants are stale,
                    # and so are memoised Eq encryptions.
                    self.schema.bump_version()
                    self.cache.invalidate_eq()
            self._onion_snapshot = None
            if self.catalog is not None:
                for intent_id in self._txn_pending_intents:
                    self.catalog.abort_adjustment(intent_id)
                self._txn_pending_intents = []
                # Metadata-only records logged inside the transaction are
                # already durable; one corrective diff rewinds the replayed
                # state to the BEGIN snapshot the proxy just restored to.
                correction = self._catalog_meta_diff(pre_rollback)
                if correction:
                    self.catalog.append(dict(correction, t="meta"), sync=True)
            self._txn_pending_intents = []
        return result

    def _execute_ddl(self, statement: ast.Statement) -> ResultSet:
        """CREATE/DROP statements the proxy handles outside the rewriter."""
        if isinstance(statement, ast.CreateTable):
            self.create_table(statement)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.CreateIndex):
            for column in statement.columns:
                self.create_index(statement.table, column)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.DropTable):
            if self.schema.has_table(statement.table):
                meta = self.schema.drop_table(statement.table)
                if self.catalog is not None:
                    # Write-ahead: with the record durable first, a crash
                    # before the backend drop leaves an orphaned anonymised
                    # table that recovery removes.
                    self.catalog.append(
                        {
                            "t": "drop_table",
                            "table": statement.table,
                            "anon": meta.anon_name,
                            "version": self.schema.version,
                        },
                        sync=True,
                    )
                return self.db.execute(ast.DropTable(meta.anon_name, statement.if_exists))
            return self.db.execute(statement)
        raise ProxyError(f"unexpected DDL statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    # durable metadata catalog: write-through, recovery, compaction
    # ------------------------------------------------------------------
    def _attach_catalog(self, catalog: Union[str, os.PathLike, MetadataCatalog]) -> None:
        if not isinstance(catalog, MetadataCatalog):
            catalog = MetadataCatalog(os.fspath(catalog))
        self.catalog = catalog
        if catalog.has_history:
            self._recover_from_catalog(catalog)
        # Installed after recovery so no compaction can fire mid-rebuild.
        catalog.snapshot_source = self._snapshot_record

    def _catalog_meta_diff(self, rewind: tuple) -> Optional[dict]:
        """The state-setting ``meta`` payload for changes since ``rewind``.

        ``rewind`` is the (levels, joins, version) triple `_prepare_statement`
        snapshots before rewriting.  Only deltas are logged -- onion levels
        that moved, HOM columns whose staleness flipped, JOIN-ADJ columns
        whose group base changed -- so steady-state DML appends nothing.
        """
        old_levels, (_, old_bases), old_version = rewind
        meta: dict = {}
        levels: list[list] = []
        hom_stale: list[list] = []
        for (table, column), (onions, stale) in self.schema.snapshot_levels().items():
            old = old_levels.get((table, column))
            for onion, level in onions.items():
                if old is None or old[0].get(onion) is not level:
                    levels.append([table, column, onion.value, level.value])
            if stale != (old[1] if old is not None else False):
                hom_stale.append([table, column, stale])
        bases: list[list] = []
        for column_id, base in self.joins.snapshot()[1].items():
            if old_bases.get(column_id, column_id) != base:
                bases.append([column_id[0], column_id[1], base[0], base[1]])
        if levels:
            meta["levels"] = levels
        if hom_stale:
            meta["hom_stale"] = hom_stale
        if bases:
            meta["joins"] = {"bases": bases}
        if self.schema.version != old_version:
            meta["version"] = self.schema.version
        return meta or None

    def _sample_canary(self, ops: list) -> Optional[dict]:
        """One stored ciphertext plus its expected post-adjustment value.

        Recovery probes the pair to decide whether an in-doubt adjustment's
        UPDATEs reached the backend: the pre-value still stored means they
        did not, the post-value means they committed.  The expected value is
        computed with the same UDF implementations the server runs, under
        keys re-derived from the master key.  Returns None when every
        adjusted column stores only NULLs -- re-running the strips is then a
        no-op either way, because the UDFs pass NULL through.
        """
        targets: list[tuple] = []
        for op in ops:
            target = (op[1], op[2], Onion(op[3]) if op[0] == "strip" else Onion.EQ)
            if target not in targets:
                targets.append(target)
        for table, column_name, onion in targets:
            column = self.schema.column(table, column_name)
            state = column.onion_state(onion)
            anon_table = self.schema.table(table).anon_name
            sample = ast.Select(
                items=[
                    ast.SelectItem(ast.ColumnRef(state.anon_name), None),
                    ast.SelectItem(ast.ColumnRef(column.iv_column), None),
                ],
                from_clause=ast.TableRef(anon_table, None),
                limit=16,
            )
            for row in self.db.execute(sample).rows:
                if row[0] is None:
                    continue
                post = self._canary_post_value(row[0], row[1], column, onion, ops)
                return {
                    "anon_table": anon_table,
                    "anon_column": state.anon_name,
                    "pre": tag_value(row[0]),
                    "post": tag_value(post),
                }
        return None

    def _canary_post_value(
        self, value: Any, iv: Any, column: Any, onion: Onion, ops: list
    ) -> Any:
        """Apply the ops targeting one column, exactly as the server would."""
        for op in ops:
            if (op[1], op[2]) != (column.table, column.name):
                continue
            if op[0] == "strip" and Onion(op[3]) is onion:
                layer = EncryptionScheme(op[4])
                key = self.encryptor.layer_key(column, onion, layer)
                if layer is EncryptionScheme.RND:
                    if onion is Onion.EQ:
                        value = udfs._decrypt_rnd_eq(key, value, iv)
                    else:
                        value = udfs._decrypt_rnd_ord(key, value, iv)
                elif layer is EncryptionScheme.DET:
                    value = udfs._decrypt_det_eq(key, value)
            elif op[0] == "join" and onion is Onion.EQ:
                value = udfs._join_adjust(value, int(op[3]).to_bytes(32, "big"))
        return value

    def _canary_present(self, anon_table: str, anon_column: str, value: Any) -> bool:
        probe = ast.Select(
            items=[ast.SelectItem(ast.ColumnRef(anon_column), None)],
            from_clause=ast.TableRef(anon_table, None),
            where=ast.BinaryOp("=", ast.ColumnRef(anon_column), ast.Literal(value)),
        )
        return bool(self.db.execute(probe).rows)

    def _recover_from_catalog(self, catalog: MetadataCatalog) -> None:
        """Rebuild proxy metadata from snapshot+WAL, reconcile the backend.

        Column keys are never logged; they re-derive from the master key as
        each table restores, after which the recorded onion levels, JOIN-ADJ
        group structure, OPE join groups, shard routing and schema version
        overlay the freshly-built defaults.  The backend is then reconciled
        with the log: DDL that was recorded but never executed is completed,
        anonymised tables orphaned by an interrupted DROP are removed, and
        every in-doubt adjustment intent is resolved by probing its canary
        ciphertext -- completing exactly the work whose commit record the
        crash swallowed, never re-stripping already-stripped rows.
        """
        from repro.sql.types import ColumnDef, DataType

        state = catalog.state
        sharded = getattr(self.db, "is_sharded", False)
        backend_tables = set(self.db.table_names())
        for payload in state.tables:
            meta = self.schema.restore_table(payload)
            for column in meta.columns.values():
                if not column.plaintext:
                    self.joins.register_column(column.table, column.name)
            columns = [
                ColumnDef(name, DataType(type_name, length))
                for name, type_name, length in payload["columns"]
            ]
            anon_ddl = ast.CreateTable(
                meta.anon_name,
                self._anonymized_columns(ast.CreateTable(meta.name, columns)),
            )
            if sharded:
                # Re-register the anonymised layout for scratch-replay plans.
                self.db.adopt_ddl(anon_ddl)
            if meta.anon_name not in backend_tables:
                # create_table record synced, crash hit before the DDL ran.
                self.db.execute(anon_ddl)
        live_anon = {payload["anon"] for payload in state.tables}
        for orphan in sorted(backend_tables - live_anon):
            # drop_table record synced, crash hit before the backend drop.
            self.db.execute(ast.DropTable(orphan, if_exists=True))
        for (table, column_name, onion), level in state.levels.items():
            column = self._recovered_column(table, column_name)
            if column is None:
                continue
            onion_state = column.onions.get(Onion(onion))
            if onion_state is not None:
                onion_state.level = EncryptionScheme(level)
        for (table, column_name), stale in state.hom_stale.items():
            column = self._recovered_column(table, column_name)
            if column is not None:
                column.hom_stale_others = bool(stale)
        for (table, column_name), group in state.ope_groups.items():
            column = self._recovered_column(table, column_name)
            if column is not None:
                column.ope_join_group = group
        for column_id, base in state.join_bases.items():
            self.joins.restore_group(tuple(column_id), tuple(base))
        if sharded:
            for anon_table, (anon_column, mode) in state.routing.items():
                self.db.declare_routing(anon_table, anon_column, mode=mode)
        # Restored last: every cached-plan consumer keys on this counter, so
        # prepared-statement semantics survive the restart unchanged.
        self.schema.version = state.version
        for intent_id in sorted(state.in_doubt):
            self._resolve_in_doubt(state.in_doubt[intent_id])
            catalog.commit_adjustment(intent_id)

    def _recovered_column(self, table: str, column: str) -> Optional[Any]:
        table_meta = self.schema.tables.get(table)
        if table_meta is None:
            return None
        return table_meta.columns.get(column)

    def _resolve_in_doubt(self, intent: dict) -> None:
        """Verify-and-complete one logged adjustment intent (idempotently).

        The canary distinguishes "the UPDATEs never committed" (its
        pre-value is still stored) from "they committed but the crash beat
        the commit record" (its post-value is stored).  No canary means the
        adjusted columns held only NULLs, so re-running is safe either way.
        """
        rerun = True
        canary = intent.get("canary")
        if canary:
            anon_table, anon_column = canary["anon_table"], canary["anon_column"]
            if self._canary_present(anon_table, anon_column, untag_value(canary["pre"])):
                rerun = True
            elif self._canary_present(anon_table, anon_column, untag_value(canary["post"])):
                rerun = False
            else:
                raise CatalogError(
                    "in-doubt adjustment canary matches neither its pre- nor "
                    "post-adjustment value: the backend does not correspond "
                    "to this catalog"
                )
        if rerun:
            updates = [
                update
                for op in intent["ops"]
                if (update := self._rebuild_adjustment(op)) is not None
            ]
            try:
                self.db.execute(ast.Begin())
                for update in updates:
                    self.db.execute(update)
                self.db.execute(ast.Commit())
            except Exception:
                self.db.execute(ast.Rollback())
                raise
        self._apply_meta_payload(intent.get("meta") or {})

    def _rebuild_adjustment(self, op: list) -> Optional[ast.Statement]:
        """Re-derive the server UPDATE for one logged adjustment op."""
        if op[0] == "strip":
            _, table, column_name, onion_value, layer_value = op
            column = self.schema.column(table, column_name)
            return self.rewriter._adjustment_update(
                column, Onion(onion_value), EncryptionScheme(layer_value)
            )
        if op[0] == "join":
            _, table, column_name, delta = op
            column = self.schema.column(table, column_name)
            eq_state = column.onion_state(Onion.EQ)
            call = ast.FunctionCall(
                udfs.JOIN_ADJUST,
                [
                    ast.ColumnRef(eq_state.anon_name),
                    ast.Literal(int(delta).to_bytes(32, "big")),
                ],
            )
            return ast.Update(
                self.schema.table(table).anon_name,
                [(eq_state.anon_name, call)],
                None,
            )
        raise CatalogError(f"unknown adjustment op {op[0]!r}")

    def _apply_meta_payload(self, meta: dict) -> None:
        """Fold a logged ``meta`` payload into live schema/join state."""
        for table, column_name, onion, level in meta.get("levels", ()):
            column = self._recovered_column(table, column_name)
            if column is None:
                continue
            onion_state = column.onions.get(Onion(onion))
            if onion_state is not None:
                onion_state.level = EncryptionScheme(level)
        for table, column_name, stale in meta.get("hom_stale", ()):
            column = self._recovered_column(table, column_name)
            if column is not None:
                column.hom_stale_others = bool(stale)
        for table, column_name, group in meta.get("ope_groups", ()):
            column = self._recovered_column(table, column_name)
            if column is not None:
                column.ope_join_group = group
        for table, column_name, base_table, base_column in (
            meta.get("joins") or {}
        ).get("bases", ()):
            self.joins.restore_group((table, column_name), (base_table, base_column))
        if "version" in meta:
            self.schema.version = int(meta["version"])

    def _snapshot_record(self) -> dict:
        """Full current metadata as one ``snapshot`` record (compaction)."""
        state = CatalogState()
        state.tables = [
            self.schema.describe_table(name) for name in self.schema.table_names()
        ]
        state.table_counter = self.schema._table_counter
        state.version = self.schema.version
        for table, column, onion, level in self.schema.catalog_levels():
            state.levels[(table, column, onion)] = level
        for table_name, table_meta in self.schema.tables.items():
            for column_name, column in table_meta.columns.items():
                if column.hom_stale_others:
                    state.hom_stale[(table_name, column_name)] = True
                if column.ope_join_group is not None:
                    state.ope_groups[(table_name, column_name)] = column.ope_join_group
        for column_id, base in self.joins.snapshot()[1].items():
            if base != column_id:
                state.join_bases[column_id] = base
        if getattr(self.db, "is_sharded", False):
            state.routing = dict(self.db.routing_catalog())
        if self.catalog is not None:
            state.resolved = set(self.catalog.state.resolved)
        return state.snapshot_payload()

    # ------------------------------------------------------------------
    # training mode (§3.5.1) and reporting
    # ------------------------------------------------------------------
    def train(self, queries: Iterable[Union[str, ast.Statement]]) -> TrainingReport:
        """Replay a trace of queries, adjusting onions, and report the outcome.

        Unsupported queries are collected as warnings instead of being raised,
        exactly as the paper's training mode does.
        """
        self._training = True
        try:
            for query in queries:
                try:
                    self.execute(query)
                except UnsupportedQueryError:
                    continue
        finally:
            self._training = False
        return self.report()

    def report(self) -> TrainingReport:
        """The current steady-state onion levels of every managed column."""
        # The rewriter records computations per plan; the proxy accumulates
        # them into _computation_log as each plan is prepared.
        computations = dict(self._computation_log)
        return build_report(self.schema, computations, self._unsupported_log)

    def record_computations(self, plan: RewritePlan) -> None:
        for key, classes in plan.computations.items():
            self._computation_log.setdefault(key, set()).update(classes)

    # ------------------------------------------------------------------
    # storage / security statistics used by the evaluation
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Total size of the encrypted database (for §8.4.3)."""
        return self.db.storage_bytes()

    def min_enc(self, table: str, column: str) -> SecurityLevel:
        """MinEnc of a column (§8.3)."""
        return self.schema.column(table, column).min_enc()

    def onion_level(self, table: str, column: str, onion: Onion) -> str:
        return self.schema.column(table, column).onion_state(onion).level.value
