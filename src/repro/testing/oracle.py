"""The differential oracle: replay one stream over several lanes, compare.

A *lane* is a :class:`repro.api.Connection`: plaintext over the in-memory
engine, plaintext over SQLite, or the encrypted proxy over either backend.
Every statement of a stream runs on every lane and the outcomes must agree:

* identical decrypted rows for SELECTs -- compared as sequences when the
  generator guaranteed a total ORDER BY, as multisets otherwise;
* identical affected-row counts for DML;
* identical error *class* when a statement fails everywhere.

The proxy is allowed one asymmetry, straight from the paper's Figure 9: it
may *refuse* a side-effect-free SELECT (``NotSupportedError``, e.g. an
equality predicate over a HOM-stale onion) that plaintext lanes can answer.
It may never return a different answer.  Refusals must agree across both
encrypted lanes and are counted, not failed.

Floats are compared with a tolerance: the encrypted lane recomputes
DECIMAL aggregates from exactly-scaled integers while plaintext lanes
accumulate IEEE floats, so the two can differ in the last ulps.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro import faults
from repro.api import exceptions
from repro.api.connection import Connection, connect
from repro.errors import ReproError, SimulatedCrash, UnsupportedQueryError
from repro.testing.generator import GeneratedStatement

LaneFactory = Callable[[], dict[str, Connection]]

#: Lanes whose names start with this prefix hold an encrypting proxy.
ENCRYPTED_PREFIX = "enc-"


def default_lane_factory(
    parallel_workers: int = 0,
    parallel_chunk_threshold: int = 4,
    remote: bool = False,
    remote_fetch_chunk: int = 64,
    sharded: int = 0,
    sharded_mode: str = "det-hash",
    **proxy_kwargs: Any,
) -> LaneFactory:
    """Fresh plaintext + encrypted connections over both backends.

    ``proxy_kwargs`` (``paillier``, ``master_key``, ...) are forwarded to the
    encrypted lanes so test suites can share one session key pair.

    ``parallel_workers > 0`` adds a fifth lane, ``enc-parallel``: the same
    encrypted proxy over the in-memory backend but with a crypto worker pool
    of that many processes (and an aggressively low chunk threshold so small
    generated batches actually offload).  The lane must decrypt to
    byte-identical results *and* refuse exactly the statements the serial
    encrypted lanes refuse -- parallel offload may never change behaviour.

    ``sharded=N`` (N >= 2) adds an ``enc-sharded`` lane: the same encrypted
    proxy over a :class:`~repro.shard.ShardedBackend` of N in-memory shards
    (``sharded_mode`` picks det-hash or ope-range placement).  Scatter-gather
    execution -- routed inserts, k-way ordered merges, homomorphic partial-
    sum recombination, broadcast fallbacks -- must match the single-backend
    lanes answer for answer and refusal for refusal on every stream.

    ``remote=True`` adds a sixth lane, ``enc-remote``: every statement of
    the stream crosses a real TCP connection to an embedded
    :class:`~repro.server.loopback.LoopbackServer` -- ECDH handshake, AEAD
    framing, session multiplexing, server-side cursor chunking (a small
    ``remote_fetch_chunk`` so multi-chunk FETCH paths actually run) -- and
    must agree, answer for answer and refusal for refusal, with the
    in-process encrypted lanes.
    """

    def factory() -> dict[str, Connection]:
        lanes = {
            "plain-memory": connect(encrypted=False, backend="memory"),
            "plain-sqlite": connect(encrypted=False, backend="sqlite"),
            "enc-memory": connect(backend="memory", **proxy_kwargs),
            "enc-sqlite": connect(backend="sqlite", **proxy_kwargs),
        }
        if parallel_workers > 0:
            from repro.parallel import ParallelConfig

            lanes["enc-parallel"] = connect(
                backend="memory",
                parallelism=ParallelConfig(
                    workers=parallel_workers,
                    chunk_threshold=parallel_chunk_threshold,
                ),
                **proxy_kwargs,
            )
        if sharded > 1:
            from repro.shard import ShardedBackend

            lanes["enc-sharded"] = connect(
                backend=ShardedBackend(shards=sharded, mode=sharded_mode),
                **proxy_kwargs,
            )
        if remote:
            from repro.server.loopback import connect_loopback

            lanes["enc-remote"] = connect_loopback(
                fetch_chunk=remote_fetch_chunk, backend="memory", **proxy_kwargs
            )
        return lanes

    return factory


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------
@dataclass
class LaneOutcome:
    """What one lane did with one statement."""

    error: Optional[str] = None  # None | "unsupported" | "error"
    error_detail: str = ""
    rows: Optional[list[tuple]] = None
    rowcount: int = 0

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.error}({self.error_detail})"
        if self.rows is not None:
            return f"{len(self.rows)} rows"
        return f"rowcount={self.rowcount}"


@dataclass
class Divergence:
    """The first observed disagreement between lanes."""

    index: int
    statement: GeneratedStatement
    reason: str
    outcomes: dict[str, str]

    def describe(self) -> str:
        lanes = "\n".join(f"    {name}: {out}" for name, out in self.outcomes.items())
        return (
            f"statement #{self.index}: {self.statement.describe()}\n"
            f"  {self.reason}\n{lanes}"
        )


@dataclass
class RunReport:
    """Outcome of one stream replay across all lanes."""

    divergence: Optional[Divergence] = None
    statements_executed: int = 0
    selects_compared: int = 0
    refused_by_proxy: int = 0
    minimized: Optional[list[GeneratedStatement]] = None
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.ok:
            return (
                f"conformant: {self.statements_executed} statements, "
                f"{self.selects_compared} SELECT comparisons, "
                f"{self.refused_by_proxy} proxy refusals"
            )
        lines = [f"DIVERGENCE after {self.statements_executed} statements"]
        if self.seed is not None:
            lines.append(f"reproduce with --repro-seed={self.seed}")
        lines.append(self.divergence.describe())
        if self.minimized is not None:
            lines.append(f"minimized reproducer ({len(self.minimized)} statements):")
            lines.extend(f"  {s.describe()}" for s in self.minimized)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# normalization / comparison
# ---------------------------------------------------------------------------
def _canonical_cell(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    return value


def _cells_match(a: Any, b: Any) -> bool:
    a, b = _canonical_cell(a), _canonical_cell(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _rows_match(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        if not all(_cells_match(x, y) for x, y in zip(row_a, row_b)):
            return False
    return True


def _sort_key(row: tuple) -> tuple:
    key = []
    for value in row:
        value = _canonical_cell(value)
        if value is None:
            key.append((0, ""))
        elif isinstance(value, (int, float)):
            # Round for ordering only, so float noise cannot interleave rows
            # differently across lanes; equality is checked with isclose.
            key.append((1, "", round(float(value), 7)))
        elif isinstance(value, str):
            key.append((2, value))
        elif isinstance(value, bytes):
            key.append((3, value.hex()))
        else:
            key.append((4, repr(value)))
    return tuple(key)


def _normalize(rows: Sequence[tuple], ordered: bool) -> list[tuple]:
    normalized = [tuple(row) for row in rows]
    if not ordered:
        normalized.sort(key=_sort_key)
    return normalized


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class DifferentialRunner:
    """Replays statement streams over fresh lanes and compares outcomes."""

    def __init__(self, lane_factory: LaneFactory):
        self.lane_factory = lane_factory

    # -- execution -------------------------------------------------------
    @staticmethod
    def _run_statement(
        connection: Connection, statement: GeneratedStatement
    ) -> LaneOutcome:
        try:
            cursor = connection.cursor()
            cursor.execute(statement.sql, statement.params)
        except exceptions.NotSupportedError as exc:
            return LaneOutcome(error="unsupported", error_detail=str(exc)[:120])
        except exceptions.Error as exc:
            return LaneOutcome(
                error="error", error_detail=f"{type(exc).__name__}: {str(exc)[:120]}"
            )
        if cursor.description is not None:
            return LaneOutcome(rows=cursor.fetchall())
        return LaneOutcome(rowcount=max(cursor.rowcount, 0))

    def run(self, statements: Sequence[GeneratedStatement]) -> RunReport:
        """Replay one stream on fresh lanes; stop at the first divergence."""
        lanes = self.lane_factory()
        report = RunReport()
        try:
            for index, statement in enumerate(statements):
                outcomes = {
                    name: self._run_statement(conn, statement)
                    for name, conn in lanes.items()
                }
                report.statements_executed += 1
                divergence = self._compare(index, statement, outcomes, report)
                if divergence is not None:
                    report.divergence = divergence
                    return report
        finally:
            for conn in lanes.values():
                conn.close()
        return report

    # -- comparison ------------------------------------------------------
    def _compare(
        self,
        index: int,
        statement: GeneratedStatement,
        outcomes: dict[str, LaneOutcome],
        report: RunReport,
    ) -> Optional[Divergence]:
        def diverge(reason: str) -> Divergence:
            return Divergence(
                index,
                statement,
                reason,
                {name: out.summary() for name, out in outcomes.items()},
            )

        error_classes = {out.error for out in outcomes.values()}
        if error_classes == {None}:
            pass  # all succeeded
        elif len(error_classes) == 1:
            # Everyone failed the same way; statement had no effect anywhere.
            return None
        else:
            encrypted = {
                name: out for name, out in outcomes.items()
                if name.startswith(ENCRYPTED_PREFIX)
            }
            plaintext = {
                name: out for name, out in outcomes.items()
                if not name.startswith(ENCRYPTED_PREFIX)
            }
            proxy_refused = (
                encrypted
                and all(out.error == "unsupported" for out in encrypted.values())
                and all(out.error is None for out in plaintext.values())
            )
            if (
                proxy_refused
                and statement.kind == "select"
                and statement.may_be_unsupported
            ):
                # Figure 9: the proxy may refuse a read it cannot run over
                # ciphertext -- but only where the generator declared the
                # refusal legitimate.  An unflagged refusal is a divergence,
                # so an over-refusing proxy regression cannot hide behind
                # this branch; plaintext lanes must still agree on the answer.
                report.refused_by_proxy += 1
                outcomes = plaintext
            else:
                return diverge("lanes disagree on success/failure")

        successes = {n: o for n, o in outcomes.items() if o.error is None}
        if not successes:
            return None
        reference_name, reference = next(iter(successes.items()))

        if reference.rows is not None:
            report.selects_compared += 1
            expected = _normalize(reference.rows, statement.ordered)
            for name, outcome in successes.items():
                if outcome.rows is None:
                    return diverge(f"{name} returned no result set")
                actual = _normalize(outcome.rows, statement.ordered)
                if not _rows_match(expected, actual):
                    return diverge(
                        f"result rows differ between {reference_name} and {name}: "
                        f"{expected[:5]!r} vs {actual[:5]!r}"
                    )
            return None

        for name, outcome in successes.items():
            if outcome.rows is not None:
                return diverge(f"{name} unexpectedly returned rows")
            if outcome.rowcount != reference.rowcount:
                return diverge(
                    f"rowcount differs between {reference_name} "
                    f"({reference.rowcount}) and {name} ({outcome.rowcount})"
                )
        return None

    # -- entry point with shrinking --------------------------------------
    def run_with_shrinking(
        self,
        statements: Sequence[GeneratedStatement],
        seed: Optional[int] = None,
        max_probes: int = 400,
    ) -> RunReport:
        """Replay a stream; on divergence, ddmin-minimize it for the report."""
        report = self.run(statements)
        report.seed = seed
        if report.ok:
            return report
        from repro.testing.shrinker import shrink_stream

        def still_fails(candidate: Sequence[GeneratedStatement]) -> bool:
            return not self.run(candidate).ok

        report.minimized = shrink_stream(
            list(statements), still_fails, max_probes=max_probes
        )
        return report


# ---------------------------------------------------------------------------
# the chaos conformance lane
# ---------------------------------------------------------------------------
#: Frames/heads a ``transport.recv`` fault may interrupt without making the
#: statement's server-side effect ambiguous: reads never mutate state, and a
#: statement inside an explicit transaction is rolled back wholesale by the
#: server when the session drops.
_READ_ONLY_HEADS = frozenset({"SELECT", "FETCH", "PREPARE", "STATS"})

#: Sites whose context carries a ``target`` the runner scopes to the chaos
#: stack, so the fault-free shadow lane can never be hit by the same plan.
_SCOPE_TARGETS: dict[str, Callable[[Any], Any]] = {
    "backend.execute": lambda server: server.proxy.db,
    "server.session.execute": lambda server: server.manager,
    "pool.scatter": lambda server: server.proxy.pool,
    "paillier.refill": lambda server: server.proxy,
}

#: Sentinel: a probe the encrypted proxy refused (NotSupportedError).
_REFUSED = object()


def conformance_problems(plan: "faults.FaultPlan") -> list[str]:
    """Why ``plan`` is unsound for answer-for-answer conformance, if at all.

    Every instrumented site except ``transport.recv`` faults *before* the
    guarded work happens, so a clean client-visible error implies the
    statement was never applied and the shadow lane can simply skip it.  A
    ``transport.recv`` error fires after the server executed and before the
    client learns the answer -- sound only for read-only frames, or inside
    an explicit transaction (the server rolls the whole transaction back on
    disconnect) provided the COMMIT acknowledgement itself is never the
    victim (a lost COMMIT ack leaves the transaction durably committed
    while the client reports it aborted).
    """
    problems = []
    for index, rule in enumerate(plan.rules):
        if rule.site != "transport.recv" or rule.kind != "error":
            continue
        heads = rule.match.get("head")
        if heads is not None and all(h in _READ_ONLY_HEADS for h in heads):
            continue
        excluded = tuple(rule.exclude.get("frame", ())) + tuple(
            rule.exclude.get("head", ())
        )
        if rule.match.get("in_txn") == (True,) and "COMMIT" in excluded:
            continue
        problems.append(
            f"rule #{index}: transport.recv errors must match "
            f"head in {sorted(_READ_ONLY_HEADS)} or match in_txn=(True,) "
            "with frame/head COMMIT excluded; anything else makes the "
            "statement's server-side effect ambiguous"
        )
    return problems


@dataclass
class ChaosReport:
    """Outcome of one stream replayed under an armed fault plan."""

    statements_executed: int = 0
    selects_compared: int = 0
    refused_by_proxy: int = 0
    faults_injected: int = 0
    chaos_errors: int = 0  # statements that failed cleanly on the chaos lane
    transactions_resynced: int = 0
    invariant_checks: int = 0
    invariant_violations: list = field(default_factory=list)
    client_reconnects: int = 0
    client_retries: int = 0
    divergence: Optional[Divergence] = None
    injector_stats: dict = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.invariant_violations

    def describe(self) -> str:
        lines = [
            f"{'conformant' if self.ok else 'FAILED'}: "
            f"{self.statements_executed} statements, "
            f"{self.faults_injected} faults injected, "
            f"{self.chaos_errors} clean chaos errors, "
            f"{self.selects_compared} SELECT comparisons, "
            f"{self.client_reconnects} reconnects, "
            f"{self.client_retries} transparent retries, "
            f"{self.invariant_checks} invariant checks"
        ]
        if self.seed is not None:
            lines.append(f"reproduce with --repro-seed={self.seed}")
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        lines.extend(f"invariant violation: {v}" for v in self.invariant_violations)
        return "\n".join(lines)


class _ProbeStats:
    """Throwaway stats sink for plan-cache probes (keeps real counters clean)."""

    plan_cache_hits = 0
    plan_cache_misses = 0
    plan_cache_invalidations = 0


class ChaosRunner:
    """Replay a stream under an armed fault plan and demand conformance.

    Two lanes run in lockstep: ``enc-chaos`` -- a real TCP connection to an
    embedded :class:`~repro.server.loopback.LoopbackServer` with the fault
    plan armed and scoped to exactly that stack -- and ``shadow``, an
    identical in-process encrypted proxy that never sees a fault.  Every
    statement runs on the chaos lane first:

    * success: the shadow runs it too (injection paused) and the answers
      must match, row for row;
    * clean DB-API failure: the statement was not applied (see
      :func:`conformance_problems`), so the shadow skips it; if the chaos
      lane's transaction aborted, the shadow's is rolled back to match;
    * anything that escapes as a non-DB-API exception propagates -- chaos
      must never produce a dirty crash.

    After every statement during which a fault actually fired, an invariant
    probe (injection paused) asserts the two lanes still agree: identical
    table contents, identical SUM answers on every numeric column -- which
    drives the HOM onion, so a lowered-but-unadjusted onion or a readable
    HOM-stale column surfaces here -- symmetric refusals, and a chaos-side
    plan cache with no stale entry surviving a lookup sweep.
    """

    def __init__(
        self,
        plan: "faults.FaultPlan",
        *,
        server_kwargs: Optional[dict] = None,
        shadow_kwargs: Optional[dict] = None,
        client_kwargs: Optional[dict] = None,
        strict: bool = True,
    ):
        if strict:
            problems = conformance_problems(plan)
            if problems:
                raise ValueError(
                    "fault plan is not conformance-safe:\n  "
                    + "\n  ".join(problems)
                )
        self.plan = plan
        self.server_kwargs = dict(server_kwargs or {})
        self.shadow_kwargs = dict(shadow_kwargs or {})
        self.client_kwargs = {
            # Fast, bounded recovery so injected disconnects heal in
            # milliseconds instead of the production-scale defaults.
            "timeout": 30.0,
            "max_retries": 4,
            "reconnect_attempts": 4,
            "reconnect_backoff": 0.01,
            "reconnect_backoff_cap": 0.1,
            **(client_kwargs or {}),
        }

    # -- plan scoping ----------------------------------------------------
    def _scoped_plan(self, server) -> "faults.FaultPlan":
        """Pin unscoped rules to the chaos server's own objects."""
        rules = []
        for rule in self.plan.rules:
            getter = _SCOPE_TARGETS.get(rule.site)
            if getter is not None and rule.scope is None:
                target = getter(server)
                if target is None:
                    continue  # e.g. a pool rule against a pool-less proxy
                rule = dataclasses.replace(rule, scope=target)
            rules.append(rule)
        return faults.FaultPlan(self.plan.seed, rules)

    # -- the replay loop -------------------------------------------------
    def run(self, statements: Sequence[GeneratedStatement]) -> ChaosReport:
        from repro.server.loopback import connect_loopback

        report = ChaosReport()
        chaos = connect_loopback(
            backend="memory",
            client_kwargs=self.client_kwargs,
            **self.server_kwargs,
        )
        server = chaos.loopback_server.server
        shadow = connect(backend="memory", **self.shadow_kwargs)
        try:
            with faults.armed(self._scoped_plan(server)) as injector:
                for index, statement in enumerate(statements):
                    fired_before = injector.fired_count
                    chaos_out = DifferentialRunner._run_statement(
                        chaos, statement
                    )
                    report.statements_executed += 1
                    if chaos_out.error is not None:
                        # The chaos lane failed cleanly; the statement was
                        # not applied there, so the shadow skips it -- but a
                        # refusal (NotSupportedError) is proxy behaviour,
                        # not a fault, and must be symmetric.
                        with faults.paused():
                            if chaos_out.error == "unsupported":
                                shadow_out = DifferentialRunner._run_statement(
                                    shadow, statement
                                )
                                if shadow_out.error != "unsupported":
                                    report.divergence = self._diverge(
                                        index,
                                        statement,
                                        chaos_out,
                                        shadow_out,
                                        "chaos lane refused a statement the "
                                        "fault-free shadow accepts",
                                    )
                                    break
                                report.refused_by_proxy += 1
                            else:
                                report.chaos_errors += 1
                                self._resync_transactions(
                                    chaos, shadow, report
                                )
                    else:
                        with faults.paused():
                            shadow_out = DifferentialRunner._run_statement(
                                shadow, statement
                            )
                        divergence = self._compare(
                            index, statement, chaos_out, shadow_out, report
                        )
                        if divergence is not None:
                            report.divergence = divergence
                            break
                    if injector.fired_count > fired_before:
                        report.faults_injected += (
                            injector.fired_count - fired_before
                        )
                        with faults.paused():
                            violation = self._check_invariants(
                                chaos, shadow, server
                            )
                        report.invariant_checks += 1
                        if violation is not None:
                            report.invariant_violations.append(
                                f"after statement #{index} "
                                f"({statement.describe()}): {violation}"
                            )
                            break
                report.injector_stats = injector.stats()
        finally:
            client = chaos.proxy
            report.client_reconnects = client.reconnects
            report.client_retries = client.retries
            shadow.close()
            chaos.close()
        return report

    # -- lockstep comparison ---------------------------------------------
    @staticmethod
    def _diverge(index, statement, chaos_out, shadow_out, reason) -> Divergence:
        return Divergence(
            index,
            statement,
            reason,
            {"enc-chaos": chaos_out.summary(), "shadow": shadow_out.summary()},
        )

    def _compare(
        self,
        index: int,
        statement: GeneratedStatement,
        chaos_out: LaneOutcome,
        shadow_out: LaneOutcome,
        report: ChaosReport,
    ) -> Optional[Divergence]:
        if shadow_out.error is not None:
            return self._diverge(
                index, statement, chaos_out, shadow_out,
                "shadow failed a statement the chaos lane ran",
            )
        if chaos_out.rows is not None:
            if shadow_out.rows is None:
                return self._diverge(
                    index, statement, chaos_out, shadow_out,
                    "shadow returned no result set",
                )
            report.selects_compared += 1
            expected = _normalize(shadow_out.rows, statement.ordered)
            actual = _normalize(chaos_out.rows, statement.ordered)
            if not _rows_match(expected, actual):
                return self._diverge(
                    index, statement, chaos_out, shadow_out,
                    f"result rows differ under faults: "
                    f"{expected[:5]!r} vs {actual[:5]!r}",
                )
            return None
        if shadow_out.rows is not None:
            return self._diverge(
                index, statement, chaos_out, shadow_out,
                "shadow unexpectedly returned rows",
            )
        if chaos_out.rowcount != shadow_out.rowcount:
            return self._diverge(
                index, statement, chaos_out, shadow_out,
                f"rowcount differs under faults "
                f"({chaos_out.rowcount} vs {shadow_out.rowcount})",
            )
        return None

    def _resync_transactions(
        self, chaos: Connection, shadow: Connection, report: ChaosReport
    ) -> None:
        """Mirror a chaos-side transaction abort onto the shadow.

        When a fault kills the connection mid-transaction the server rolls
        the whole transaction back; the shadow must roll back too or the
        lanes' visible states drift apart.
        """
        if shadow._in_transaction() and not chaos._in_transaction():
            shadow.cursor().execute("ROLLBACK")
            report.transactions_resynced += 1

    # -- invariants -------------------------------------------------------
    def _probe(self, connection: Connection, sql: str):
        """Run one probe; rows, ``_REFUSED``, or an error string."""
        try:
            cursor = connection.cursor()
            cursor.execute(sql)
            return [tuple(row) for row in cursor.fetchall()]
        except exceptions.NotSupportedError:
            return _REFUSED
        except exceptions.Error as exc:
            return f"{type(exc).__name__}: {exc}"

    def _check_invariants(
        self, chaos: Connection, shadow: Connection, server
    ) -> Optional[str]:
        """Proxy-metadata <-> backend consistency, probed through both lanes.

        Called with injection paused.  Returns a description of the first
        violated invariant, or None.
        """
        shadow_proxy = shadow.proxy
        tables = sorted(
            set(shadow_proxy.schema.tables) | set(server.proxy.schema.tables)
        )
        for table in tables:
            chaos_rows = self._probe(chaos, f"SELECT * FROM {table}")
            shadow_rows = self._probe(shadow, f"SELECT * FROM {table}")
            if isinstance(chaos_rows, str) or isinstance(shadow_rows, str):
                return (
                    f"probing table {table} failed "
                    f"(chaos: {chaos_rows!r:.120}, shadow: {shadow_rows!r:.120})"
                )
            if (chaos_rows is _REFUSED) != (shadow_rows is _REFUSED):
                return f"asymmetric refusal reading table {table}"
            if chaos_rows is _REFUSED:
                continue
            if not _rows_match(
                _normalize(shadow_rows, ordered=False),
                _normalize(chaos_rows, ordered=False),
            ):
                return (
                    f"table {table} diverged: shadow has {len(shadow_rows)} "
                    f"row(s), chaos lane has {len(chaos_rows)}"
                )
            violation = self._check_sums(chaos, shadow, table, shadow_rows)
            if violation is not None:
                return violation
        return self._check_plan_cache(server)

    def _check_sums(
        self,
        chaos: Connection,
        shadow: Connection,
        table: str,
        shadow_rows: list,
    ) -> Optional[str]:
        """SUM every numeric column through both proxies vs. a Python sum.

        The SQL SUM rides the HOM (Paillier) onion, so this is the probe
        that catches a column whose metadata and ciphertext state fell out
        of step -- a lowered-but-unadjusted onion or a readable HOM-stale
        slot yields a sum that disagrees with the plaintext recomputation.
        """
        cursor = shadow.cursor()
        cursor.execute(f"SELECT * FROM {table}")
        cursor.fetchall()
        names = [col[0] for col in cursor.description or []]
        for col_index, name in enumerate(names):
            values = [
                row[col_index]
                for row in shadow_rows
                if row[col_index] is not None
            ]
            if not values or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                continue
            sql = f"SELECT SUM({name}) FROM {table}"
            chaos_sum = self._probe(chaos, sql)
            shadow_sum = self._probe(shadow, sql)
            if isinstance(chaos_sum, str) or isinstance(shadow_sum, str):
                return (
                    f"SUM probe on {table}.{name} failed "
                    f"(chaos: {chaos_sum!r:.120}, shadow: {shadow_sum!r:.120})"
                )
            if (chaos_sum is _REFUSED) != (shadow_sum is _REFUSED):
                return f"asymmetric SUM refusal on {table}.{name}"
            if chaos_sum is _REFUSED:
                continue
            expected = sum(values)
            for lane, got in (("chaos", chaos_sum), ("shadow", shadow_sum)):
                answer = got[0][0] if got and got[0] else None
                if answer is None or not _cells_match(answer, expected):
                    return (
                        f"SUM({table}.{name}) on the {lane} lane is "
                        f"{answer!r}, plaintext recomputation says "
                        f"{expected!r}"
                    )
        return None

    @staticmethod
    def _check_plan_cache(server) -> Optional[str]:
        """Sweep the chaos proxy's plan cache; no stale plan may survive."""
        proxy = server.proxy
        cache = proxy.plan_cache
        version = proxy.schema.version
        sink = _ProbeStats()
        for key in list(cache._entries):
            cache.get(key, version, sink)
        for key, entry in cache._entries.items():
            if entry.schema_version != version:
                return (
                    f"plan cache kept a stale plan for {key!r} "
                    f"(planned at schema v{entry.schema_version}, "
                    f"current v{version})"
                )
        return None


# ---------------------------------------------------------------------------
# the crash-recovery lane
# ---------------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """Outcome of one stream with a simulated crash and catalog recovery."""

    crash_site: Optional[str] = None
    statements_executed: int = 0
    selects_compared: int = 0
    refused: int = 0
    crashed: bool = False
    crash_index: Optional[int] = None
    recoveries: int = 0
    #: Adjustment intents that were neither committed nor aborted when the
    #: proxy "died" and had to be resolved (via the canary) on recovery.
    in_doubt_resolved: int = 0
    transactions_resynced: int = 0
    divergence: Optional[Divergence] = None
    metadata_mismatches: list = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.metadata_mismatches

    def describe(self) -> str:
        lines = [
            f"{'conformant' if self.ok else 'FAILED'}: "
            f"{self.statements_executed} statements, "
            f"crash at {self.crash_site} "
            f"({'statement #%s' % self.crash_index if self.crashed else 'never fired'}), "
            f"{self.recoveries} recoveries, "
            f"{self.in_doubt_resolved} in-doubt adjustments resolved, "
            f"{self.selects_compared} SELECT comparisons, "
            f"{self.refused} symmetric refusals"
        ]
        if self.seed is not None:
            lines.append(f"reproduce with --repro-seed={self.seed}")
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        lines.extend(f"metadata mismatch: {m}" for m in self.metadata_mismatches)
        return "\n".join(lines)


class RecoveryRunner:
    """Kill the proxy at a named crash point mid-stream and demand recovery.

    Two encrypted proxies run the same stream in lockstep, sharing one
    master key and Paillier key pair:

    * ``enc-recovery`` -- a proxy over *file-backed* storage (one SQLite
      database, or N sharded SQLite files) writing every metadata mutation
      through a :class:`~repro.durability.MetadataCatalog`, with a one-shot
      :func:`faults.crash` rule armed at one of :data:`faults.CRASH_SITES`;
    * ``shadow`` -- an identical in-memory proxy with no catalog and no
      faults, the uninterrupted reference.

    When the crash fires, the harness simulates process death -- unsynced
    WAL records are abandoned, the backend connection drops (rolling back
    any open transaction) -- then rebuilds the proxy from snapshot+WAL
    against the surviving database files.  The crashed statement replays,
    the stream resumes, and at the end the two proxies must agree on every
    answer *and* on all recovered metadata: onion levels, HOM staleness,
    OPE range-join groups, JOIN-ADJ transitivity groups and effective
    scalars (re-derived from the master key, never logged), shard routing
    and the plan-cache schema version.  Any in-doubt two-phase adjustment
    must be resolved during recovery -- none may survive.
    """

    #: ``mode`` -> proxy/backend flavour of the primary lane.
    MODES = ("packed", "sharded")

    def __init__(
        self,
        workdir: str,
        crash_site: str,
        *,
        mode: str = "packed",
        at_hit: int = 1,
        shards: int = 3,
        sharded_mode: str = "det-hash",
        snapshot_every: int = 8,
        seed: int = 0,
        **proxy_kwargs: Any,
    ):
        if crash_site not in faults.CRASH_SITES:
            raise ValueError(
                f"{crash_site!r} is not a crash point (one of {faults.CRASH_SITES})"
            )
        if mode not in self.MODES:
            raise ValueError(f"unknown recovery mode {mode!r} (one of {self.MODES})")
        self.workdir = os.fspath(workdir)
        self.crash_site = crash_site
        self.mode = mode
        self.at_hit = at_hit
        self.shards = shards
        self.sharded_mode = sharded_mode
        self.snapshot_every = snapshot_every
        self.seed = seed
        kwargs = dict(proxy_kwargs)
        kwargs.setdefault("hom_precompute", 8)
        self.proxy_kwargs = kwargs
        self._wal_path = os.path.join(self.workdir, "catalog.wal")
        self._db_path = os.path.join(self.workdir, "primary.db")
        self._shard_paths = [
            os.path.join(self.workdir, f"primary.shard{i}") for i in range(shards)
        ]

    # -- lane construction -------------------------------------------------
    def _build_backend(self, allow_existing: bool):
        if self.mode == "sharded":
            from repro.shard.backend import ShardedBackend

            return ShardedBackend(
                shards=self.shards,
                base="sqlite",
                mode=self.sharded_mode,
                paths=self._shard_paths,
                allow_existing=allow_existing,
            )
        from repro.api.sqlite_backend import SQLiteBackend

        return SQLiteBackend(path=self._db_path, allow_existing=allow_existing)

    def _build_primary(self, allow_existing: bool):
        from repro.core.proxy import CryptDBProxy
        from repro.durability import MetadataCatalog

        return CryptDBProxy(
            db=self._build_backend(allow_existing),
            catalog=MetadataCatalog(self._wal_path, snapshot_every=self.snapshot_every),
            **self.proxy_kwargs,
        )

    def _build_shadow(self):
        from repro.core.proxy import CryptDBProxy

        db = None
        if self.mode == "sharded":
            from repro.shard.backend import ShardedBackend

            db = ShardedBackend(shards=self.shards, mode=self.sharded_mode)
        return CryptDBProxy(db=db, **self.proxy_kwargs)

    @staticmethod
    def _close_backend(backend) -> None:
        close = getattr(backend, "close", None)
        if close is not None:
            close()

    # -- statement execution ----------------------------------------------
    @staticmethod
    def _run_statement(proxy, statement: GeneratedStatement) -> LaneOutcome:
        try:
            result = proxy.execute(statement.sql, statement.params)
        except SimulatedCrash:
            raise
        except UnsupportedQueryError as exc:
            return LaneOutcome(error="unsupported", error_detail=str(exc)[:120])
        except ReproError as exc:
            return LaneOutcome(
                error="error", error_detail=f"{type(exc).__name__}: {str(exc)[:120]}"
            )
        if statement.kind == "select":
            return LaneOutcome(rows=[tuple(row) for row in result.rows])
        return LaneOutcome(rowcount=max(result.rowcount, 0))

    # -- the replay loop ---------------------------------------------------
    def run(self, statements: Sequence[GeneratedStatement]) -> RecoveryReport:
        report = RecoveryReport(crash_site=self.crash_site, seed=self.seed)
        primary = self._build_primary(allow_existing=False)
        shadow = self._build_shadow()
        plan = faults.FaultPlan(
            self.seed, [faults.crash(self.crash_site, at_hit=self.at_hit)]
        )
        try:
            with faults.armed(plan):
                for index, statement in enumerate(statements):
                    try:
                        primary_out = self._run_statement(primary, statement)
                    except SimulatedCrash:
                        report.crashed = True
                        report.crash_index = index
                        primary = self._recover(primary, report)
                        primary_out = self._resume(primary, shadow, statement, report)
                        if primary_out is None:
                            report.statements_executed += 1
                            continue
                    report.statements_executed += 1
                    with faults.paused():
                        shadow_out = self._run_statement(shadow, statement)
                    divergence = self._compare(
                        index, statement, primary_out, shadow_out, report
                    )
                    if divergence is not None:
                        report.divergence = divergence
                        return report
            report.metadata_mismatches.extend(
                self._metadata_mismatches(primary, shadow)
            )
        finally:
            shadow.close()
            primary.close()
            self._close_backend(primary.db)
        return report

    # -- crash + recovery --------------------------------------------------
    def _recover(self, primary, report: RecoveryReport):
        """Simulate process death, then rebuild the proxy from the catalog."""
        # The process is gone: unsynced WAL records vanish, the backend
        # connection drops (sqlite rolls back any open transaction), and no
        # in-memory metadata survives.
        if primary.catalog is not None:
            primary.catalog.abandon()
        primary.close()
        self._close_backend(primary.db)
        report.in_doubt_resolved += self._pending_in_doubt()
        rebuilt = self._build_primary(allow_existing=True)
        report.recoveries += 1
        if rebuilt.catalog.state.in_doubt:
            report.metadata_mismatches.append(
                "in-doubt intents survived recovery: "
                f"{sorted(rebuilt.catalog.state.in_doubt)}"
            )
        return rebuilt

    def _pending_in_doubt(self) -> int:
        """In-doubt intents the durable log holds at the moment of death."""
        if not os.path.exists(self._wal_path):
            return 0
        from repro.durability import decode_records, replay_records

        with open(self._wal_path, "rb") as handle:
            records, _ = decode_records(handle.read())
        return len(replay_records(records).in_doubt)

    def _resume(
        self,
        primary,
        shadow,
        statement: GeneratedStatement,
        report: RecoveryReport,
    ) -> Optional[LaneOutcome]:
        """Replay the statement the crash interrupted; None when done.

        Crash points fire only around catalog writes, which order the
        possibilities: a crashed COMMIT/ROLLBACK already ran at the backend
        (its catalog records follow the backend call), so the shadow simply
        completes the same control statement; a crashed CREATE whose record
        reached the WAL was finished *by recovery* (the missing anon DDL is
        completed from the catalog), so only the shadow still runs it; any
        other statement never took effect and replays on both lanes -- after
        rolling the shadow's open transaction back, because the primary's
        died with the process.
        """
        if statement.kind == "txn":
            with faults.paused():
                self._run_statement(shadow, statement)
            return None
        if shadow.db.transactions.in_transaction:
            with faults.paused():
                shadow.execute("ROLLBACK")
            report.transactions_resynced += 1
        if statement.kind == "ddl":
            words = statement.sql.split()
            if (
                len(words) >= 3
                and words[0].upper() == "CREATE"
                and words[1].upper() == "TABLE"
                and primary.schema.has_table(words[2])
            ):
                return LaneOutcome(rowcount=0)
        return self._run_statement(primary, statement)

    # -- comparison --------------------------------------------------------
    def _compare(
        self,
        index: int,
        statement: GeneratedStatement,
        primary_out: LaneOutcome,
        shadow_out: LaneOutcome,
        report: RecoveryReport,
    ) -> Optional[Divergence]:
        def diverge(reason: str) -> Divergence:
            return Divergence(
                index,
                statement,
                reason,
                {
                    "enc-recovery": primary_out.summary(),
                    "shadow": shadow_out.summary(),
                },
            )

        if primary_out.error != shadow_out.error:
            return diverge("lanes disagree on success/failure after recovery")
        if primary_out.error == "unsupported":
            report.refused += 1
            return None
        if primary_out.error is not None:
            return None
        if primary_out.rows is not None:
            if shadow_out.rows is None:
                return diverge("shadow returned no result set")
            report.selects_compared += 1
            expected = _normalize(shadow_out.rows, statement.ordered)
            actual = _normalize(primary_out.rows, statement.ordered)
            if not _rows_match(expected, actual):
                return diverge(
                    f"result rows differ after recovery: "
                    f"{expected[:5]!r} vs {actual[:5]!r}"
                )
            return None
        if shadow_out.rows is not None:
            return diverge("shadow unexpectedly returned rows")
        if primary_out.rowcount != shadow_out.rowcount:
            return diverge(
                f"rowcount differs after recovery "
                f"({primary_out.rowcount} vs {shadow_out.rowcount})"
            )
        return None

    # -- metadata equivalence ----------------------------------------------
    def _metadata_mismatches(self, primary, shadow) -> list[str]:
        """Recovered metadata vs. the never-crashed shadow, field by field.

        The plan-cache schema *version* is deliberately absent: it is a
        monotonic invalidation counter whose absolute value is
        path-dependent -- an adjustment lowered and then rolled back inside
        a transaction bumps the live counter twice while replaying the log
        correctly collapses the round-trip to a no-op.  Recovery restores
        the logged version and the rebuilt proxy starts with an empty plan
        cache, so only the *semantic* state below has to agree.
        """
        mine = self._fingerprint(primary)
        theirs = self._fingerprint(shadow)
        return [
            f"{key} diverged after recovery: {mine[key]!r} != {theirs[key]!r}"
            for key in mine
            if mine[key] != theirs[key]
        ]

    @staticmethod
    def _fingerprint(proxy) -> dict:
        schema = proxy.schema
        stale, ope_groups = [], []
        for table_name, table_meta in schema.tables.items():
            for column_name, column in table_meta.columns.items():
                if column.hom_stale_others:
                    stale.append((table_name, column_name))
                if column.ope_join_group is not None:
                    ope_groups.append(
                        (table_name, column_name, column.ope_join_group)
                    )
        join_state = {
            column_id: (
                proxy.joins.base_of(*column_id),
                proxy.joins.effective_scalar(*column_id),
            )
            for column_id in sorted(proxy.joins.snapshot()[0])
        }
        fingerprint = {
            "onion levels": sorted(tuple(row) for row in schema.catalog_levels()),
            "HOM-stale columns": sorted(stale),
            "OPE range-join groups": sorted(ope_groups),
            "JOIN-ADJ state": join_state,
        }
        if getattr(proxy.db, "is_sharded", False):
            fingerprint["shard routing"] = dict(proxy.db.routing_catalog())
        return fingerprint
