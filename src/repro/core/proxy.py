"""The CryptDB database proxy (single-principal mode, threat 1).

The proxy intercepts every SQL statement the application issues, rewrites it
to execute over encrypted data, forwards it (together with any onion
adjustment UPDATEs) to the unmodified DBMS, and decrypts the results.  It
holds the master key MK, the plaintext schema, and the current onion level of
every column; the DBMS only ever sees anonymised identifiers, ciphertexts and
CryptDB's UDFs (Figure 1).
"""

from __future__ import annotations

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
from repro.durability import CatalogState, MetadataCatalog, recovery
from repro.errors import (
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
        #: The metadata image taken at BEGIN, which ROLLBACK rewinds to.
        self._begin_image: Optional[CatalogState] = None
        self._computation_log: dict[tuple[str, str], set] = {}
        self._unsupported_log: list[str] = []
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
            recovery.attach(self, catalog)

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
        self._refuse_ddl_in_transaction()
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
            recovery.log_create_table(self, statement.table)
        self.db.execute(self._anonymized_ddl(statement.table, statement.if_not_exists))
        if getattr(self.db, "is_sharded", False):
            before = recovery.capture(self)
            self._declare_shard_key(statement.table)
            recovery.log_changes(self, before)

    def _declare_shard_key(self, table: str) -> None:
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
        elif mode == "ope-range" and column.has_onion(Onion.ORD):
            self.schema.lower_onion(table, key, Onion.ORD, EncryptionScheme.OPE)
            anon = column.onion_state(Onion.ORD).anon_name
            self.db.declare_routing(table_meta.anon_name, anon, mode="ope-range")
        elif column.has_onion(Onion.EQ):
            self.schema.lower_onion(table, key, Onion.EQ, EncryptionScheme.DET)
            anon = column.onion_state(Onion.EQ).anon_name
            self.db.declare_routing(table_meta.anon_name, anon, mode="det-hash")
        # Otherwise no usable onion: the table stays undeclared and all rows
        # pin to shard 0 -- correct, just not distributed.

    def _anonymized_ddl(self, table: str, if_not_exists: bool = False) -> ast.CreateTable:
        """The CREATE TABLE the DBMS sees for a registered table."""
        from repro.sql.types import BIGINT, BLOB, ColumnDef

        table_meta = self.schema.table(table)
        anon_columns: list[ColumnDef] = []
        for column in table_meta.columns.values():
            if column.plaintext:
                anon_columns.append(ColumnDef(column.name, column.data_type))
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
        return ast.CreateTable(table_meta.anon_name, anon_columns, if_not_exists)

    def create_index(self, table: str, column: str) -> None:
        """Create indexes over the column's DET/JOIN and OPE onions (§3.3)."""
        self._refuse_ddl_in_transaction()
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
        self._refuse_ddl_in_transaction()
        before = recovery.capture(self)
        for table, column in columns:
            self.schema.column(table, column).ope_join_group = group
        recovery.log_changes(self, before)

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

        The shape is prepared (rewritten) exactly once and then executed
        through the **batched pipeline**: all parameter rows, each followed
        by the plan's lifted literals, are encrypted column-at-a-time through
        the plan's slots (deterministic layers deduplicated via the
        ciphertext cache, RND IVs and HOM randomness fresh per row), and a
        single-row INSERT shape is forwarded to the DBMS as one multi-row
        INSERT.  Returns the total affected rowcount.
        """
        rows = [tuple(params) for params in seq_of_params]
        if not rows:
            # PEP 249: an empty parameter sequence is a pure no-op.  Not even
            # prepare() runs -- preparing has side effects (onion-adjustment
            # UPDATEs, plan-cache population) that a no-op must not trigger,
            # and a bad shape will still fail loudly on first real use.
            return 0
        prepared = self.prepare(sql)
        # A row with the wrong parameter count fails the whole batch before
        # any row is written.
        for index, params in enumerate(rows):
            if len(params) != prepared.param_count:
                raise ProxyError(
                    f"statement expects {prepared.param_count} parameters, "
                    f"got {len(params)} (row {index})"
                )
        if prepared.is_ddl or prepared.plan.passthrough:
            return sum(self.execute_prepared(prepared, params).rowcount for params in rows)
        return self._execute_prepared_batch(prepared, rows)

    def _execute_prepared_batch(
        self, prepared: PreparedStatement, rows: list[tuple]
    ) -> int:
        """Run one statement shape over a batch of parameter rows."""
        plan = prepared.plan
        total_start = time.perf_counter()
        self.stats.queries_processed += len(rows)
        try:
            bind_start = time.perf_counter()
            literals = tuple(plan.literals)
            rows = [row + literals for row in rows]
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

    #: Statement heads that never produce a cached rewrite plan; prepare()
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
        before = recovery.capture(self)
        try:
            plan = self.rewriter.rewrite(statement)
            if not plan.passthrough:
                bound_indices = {slot.index for slot in plan.param_slots}
                if not bound_indices.issuperset(range(param_count)):
                    raise UnsupportedQueryError(
                        "a ? placeholder appears in a position that cannot be bound "
                        "over encrypted data"
                    )
        except Exception as exc:
            recovery.rewind(self, before, keep_version=True)
            if isinstance(exc, UnsupportedQueryError):
                self.stats.unsupported_queries += 1
                self._unsupported_log.append(str(exc))
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
            recovery.meta_diff(before, recovery.capture(self))
            if self.catalog is not None
            else None
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
                intent_id = recovery.log_intent(self, plan.adjustments, meta_diff)
                if not own_transaction:
                    # Inside an application transaction the intent's fate is
                    # the transaction's: COMMIT/ROLLBACK logs its resolution.
                    self._txn_pending_intents.append(intent_id)
                if faults.INJECTOR is not None:
                    faults.INJECTOR.fire("adjust.intent", target=self, intent=intent_id)
            try:
                if own_transaction:
                    self.db.execute(ast.Begin())
                for op in plan.adjustments:
                    self.db.execute(self.rewriter.adjustment_update(op))
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
                    recovery.rewind(self, before, keep_version=True)
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
            self.stats.server_time_seconds += time.perf_counter() - adjust_start
        elif meta_diff:
            # Metadata-only mutations (OPE -> OPE-JOIN policy changes, HOM
            # staleness marks, plan-version bumps) have no backend write to
            # anchor a two-phase protocol to; one synced meta record is
            # enough because replaying it is a pure state assignment.
            recovery.log_meta(self, meta_diff)

        prepared = PreparedStatement(
            statement, plan, param_count, self.schema.version, kind, sql_key=cache_key
        )
        if not plan.passthrough:
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
            params += tuple(plan.literals)
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
            assignments = [(column, params[index]) for column, index in spec.assignments]
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

    def _execute_transaction_control(self, statement: ast.Statement) -> ResultSet:
        """BEGIN/COMMIT/ROLLBACK, keeping onion metadata transactional too.

        Onion-adjustment UPDATEs issued while an application transaction is
        open are rolled back with it, so the proxy captures its metadata
        image at BEGIN and rewinds to it (invalidating cached plans) when the
        transaction aborts.
        """
        if isinstance(statement, ast.Begin) and not self.db.transactions.in_transaction:
            self._begin_image = recovery.capture(self)
        result = self.db.execute(statement)
        if isinstance(statement, ast.Commit):
            self._begin_image = None
            if self.catalog is not None:
                # The backend made the adjustments durable with this COMMIT;
                # resolve every intent that rode the transaction.
                for intent_id in self._txn_pending_intents:
                    self.catalog.commit_adjustment(intent_id)
            self._txn_pending_intents = []
        elif isinstance(statement, ast.Rollback):
            image, self._begin_image = self._begin_image, None
            before = (
                recovery.rewind(self, image, keep_version=False) if image is not None else None
            )
            if self.catalog is not None:
                for intent_id in self._txn_pending_intents:
                    self.catalog.abort_adjustment(intent_id)
            self._txn_pending_intents = []
            if before is not None:
                # Metadata-only records logged inside the transaction are
                # already durable; one corrective diff rewinds the replayed
                # state to the BEGIN image the proxy just restored to.
                recovery.log_changes(self, before)
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
            self._refuse_ddl_in_transaction()
            if self.schema.has_table(statement.table):
                meta = self.schema.drop_table(statement.table)
                if self.catalog is not None:
                    # Write-ahead: with the record durable first, a crash
                    # before the backend drop leaves an orphaned anonymised
                    # table that recovery removes.
                    recovery.log_drop_table(self, statement.table, meta.anon_name)
                return self.db.execute(ast.DropTable(meta.anon_name, statement.if_exists))
            return self.db.execute(statement)
        raise ProxyError(f"unexpected DDL statement {type(statement).__name__}")

    def _refuse_ddl_in_transaction(self) -> None:
        """Refuse DDL, by SQL or the Python API, inside an open transaction.

        MySQL commits DDL implicitly and SQLite rolls it back, so no caller
        can rely on it, and the proxy's schema, catalog and backend would
        disagree after either.
        """
        if self.db.transactions.in_transaction:
            raise UnsupportedQueryError("DDL inside an open transaction is not supported")

    # ------------------------------------------------------------------
    # training mode (§3.5.1) and reporting
    # ------------------------------------------------------------------
    def train(self, queries: Iterable[Union[str, ast.Statement]]) -> TrainingReport:
        """Replay a trace of queries, adjusting onions, and report the outcome.

        Unsupported queries are collected as warnings instead of being raised,
        exactly as the paper's training mode does.
        """
        for query in queries:
            try:
                self.execute(query)
            except UnsupportedQueryError:
                continue
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
