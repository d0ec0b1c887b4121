"""The conformance oracle: replay one stream over several lanes in lockstep.

A *lane* is a :class:`repro.api.Connection`: plaintext over the in-memory
engine, plaintext over SQLite, or an encrypted proxy (lanes named ``enc-*``)
over either backend, a worker pool, a shard set, the wire, or durable
storage.  Every statement of a stream runs on every lane and the outcomes
must agree:

* identical decrypted rows for SELECTs -- compared as sequences when the
  generator guaranteed a total ORDER BY, as multisets otherwise;
* identical affected-row counts for DML;
* identical error *class* when a statement fails everywhere.

The proxy is allowed one asymmetry, straight from the paper's Figure 9: it
may *refuse* a side-effect-free SELECT (``NotSupportedError``, e.g. an
equality predicate over a HOM-stale onion) that plaintext lanes can answer.
It may never return a different answer.  Refusals must agree across every
encrypted lane and are counted, not failed.

Floats are compared with a tolerance: the encrypted lane recomputes
DECIMAL aggregates from exactly-scaled integers while plaintext lanes
accumulate IEEE floats, so the two can differ in the last ulps.

One core, :class:`LockstepRunner`, owns the replay loop, the statement
runner (:func:`run_statement`), the comparator (:func:`compare`), the
report and ddmin shrinking.  The runners are plug-ins that supply lanes,
an armed context, a per-statement step and extra checks:

* :class:`DifferentialRunner` -- lanes from a factory, no perturbation;
* :class:`ChaosRunner` -- a loopback server under a scoped fault plan, with
  an invariant probe after every statement during which a fault fired;
* :class:`RecoveryRunner` -- a catalog-backed proxy killed at a crash
  point and rebuilt from snapshot+WAL, with a metadata fingerprint check at
  the end of the stream.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Optional, Sequence

from repro import faults
from repro.api import exceptions
from repro.api.connection import Connection, connect
from repro.errors import SimulatedCrash
from repro.testing.generator import GeneratedStatement
from repro.testing.shrinker import shrink_stream

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
# outcomes and reports
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
    #: Failed runner-specific checks (invariant probes, recovered metadata).
    violations: list = field(default_factory=list)
    minimized: Optional[list[GeneratedStatement]] = None
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.violations

    def summary(self) -> str:
        return (
            f"{self.statements_executed} statements, "
            f"{self.selects_compared} SELECT comparisons, "
            f"{self.refused_by_proxy} proxy refusals"
        )

    def describe(self) -> str:
        lines = [f"{'conformant' if self.ok else 'FAILED'}: {self.summary()}"]
        if self.ok:
            return lines[0]
        if self.seed is not None:
            lines.append(f"reproduce with --repro-seed={self.seed}")
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        lines.extend(f"violation: {v}" for v in self.violations)
        if self.minimized is not None:
            lines.append(f"minimized reproducer ({len(self.minimized)} statements):")
            lines.extend(f"  {s.describe()}" for s in self.minimized)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the statement runner and the comparator
# ---------------------------------------------------------------------------
def run_statement(connection: Connection, statement: GeneratedStatement) -> LaneOutcome:
    """Run one statement on one lane through the DB-API.

    :class:`~repro.errors.SimulatedCrash` is not a DB-API error and
    propagates: the lane's process is dead, not failed.
    """
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


def compare(
    index: int,
    statement: GeneratedStatement,
    outcomes: dict[str, LaneOutcome],
    report: RunReport,
) -> Optional[Divergence]:
    """Compare one statement's outcomes across all lanes (N-way)."""

    def diverge(reason: str) -> Divergence:
        return Divergence(
            index,
            statement,
            reason,
            {name: out.summary() for name, out in outcomes.items()},
        )

    encrypted = {
        name: out for name, out in outcomes.items()
        if name.startswith(ENCRYPTED_PREFIX)
    }
    plaintext = {
        name: out for name, out in outcomes.items()
        if not name.startswith(ENCRYPTED_PREFIX)
    }
    error_classes = {out.error for out in outcomes.values()}
    if (
        encrypted
        and all(out.error == "unsupported" for out in encrypted.values())
        and all(out.error is None for out in plaintext.values())
    ):
        # Figure 9: the proxy may refuse a read it cannot run over
        # ciphertext -- but where a plaintext lane answered, only if the
        # generator declared the refusal legitimate.  An unflagged refusal
        # is a divergence, so an over-refusing proxy regression cannot hide
        # behind this branch; plaintext lanes must still agree on the answer.
        if plaintext and not (
            statement.kind == "select" and statement.may_be_unsupported
        ):
            return diverge("lanes disagree on success/failure")
        report.refused_by_proxy += 1
        outcomes = plaintext
    elif error_classes == {None}:
        pass  # all succeeded
    elif len(error_classes) == 1:
        # Everyone failed the same way; statement had no effect anywhere.
        return None
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


def _resync_shadow(lanes: dict[str, Connection], lane: str, report) -> None:
    """Mirror an aborted transaction on ``lane`` onto the ``enc-shadow`` lane.

    When a fault or a crash kills a lane's transaction, its backend rolls
    the whole transaction back; the shadow must roll back too or the lanes'
    visible states drift apart.
    """
    shadow = lanes["enc-shadow"]
    if shadow._in_transaction() and not lanes[lane]._in_transaction():
        with faults.paused():
            shadow.rollback()
        report.transactions_resynced += 1


# ---------------------------------------------------------------------------
# the lockstep core
# ---------------------------------------------------------------------------
class LockstepRunner:
    """The one replay loop; subclasses plug in lanes and perturbations.

    Per statement: :meth:`_step` runs it on the lanes (returning None skips
    the comparison), :func:`compare` checks the outcomes, then
    :meth:`_after_step` may report an invariant violation.  The loop stops
    at the first failure; a stream that completes gets :meth:`_at_end`'s
    checks.  The armed context (:meth:`_armed`) wraps the loop, and lanes
    close outside it.
    """

    def _new_report(self) -> RunReport:
        return RunReport()

    def _open_lanes(self) -> dict[str, Connection]:
        raise NotImplementedError

    def _armed(self, lanes: dict[str, Connection], report: RunReport) -> ContextManager:
        return contextlib.nullcontext()

    def _step(self, index, statement, lanes, report) -> Optional[dict[str, LaneOutcome]]:
        return {name: run_statement(conn, statement) for name, conn in lanes.items()}

    def _after_step(self, lanes: dict[str, Connection], report: RunReport) -> Optional[str]:
        return None

    def _at_end(self, lanes: dict[str, Connection]) -> list[str]:
        return []

    def _close_lanes(self, lanes: dict[str, Connection], report: RunReport) -> None:
        for conn in lanes.values():
            conn.close()

    def run(self, statements: Sequence[GeneratedStatement]) -> RunReport:
        """Replay one stream on fresh lanes; stop at the first failure."""
        report = self._new_report()
        lanes = self._open_lanes()
        try:
            with self._armed(lanes, report):
                for index, statement in enumerate(statements):
                    outcomes = self._step(index, statement, lanes, report)
                    report.statements_executed += 1
                    if outcomes is not None:
                        report.divergence = compare(index, statement, outcomes, report)
                    if report.divergence is None:
                        violation = self._after_step(lanes, report)
                        if violation is not None:
                            report.violations.append(
                                f"after statement #{index} "
                                f"({statement.describe()}): {violation}"
                            )
                    if not report.ok:
                        break
                else:
                    report.violations.extend(self._at_end(lanes))
        finally:
            self._close_lanes(lanes, report)
        return report

    def run_with_shrinking(
        self,
        statements: Sequence[GeneratedStatement],
        seed: Optional[int] = None,
        max_probes: int = 400,
    ) -> RunReport:
        """Replay a stream; on failure, ddmin-minimize it for the report."""
        report = self.run(statements)
        if seed is not None:
            report.seed = seed
        if report.ok:
            return report

        def still_fails(candidate: Sequence[GeneratedStatement]) -> bool:
            return not self.run(candidate).ok

        report.minimized = shrink_stream(
            list(statements), still_fails, max_probes=max_probes
        )
        return report


class DifferentialRunner(LockstepRunner):
    """Replays statement streams over fresh lanes and compares outcomes."""

    def __init__(self, lane_factory: LaneFactory):
        self.lane_factory = lane_factory

    def _open_lanes(self) -> dict[str, Connection]:
        return self.lane_factory()


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
class ChaosReport(RunReport):
    """Outcome of one stream replayed under an armed fault plan."""

    faults_injected: int = 0
    chaos_errors: int = 0  # statements that failed cleanly on the chaos lane
    transactions_resynced: int = 0
    invariant_checks: int = 0
    client_reconnects: int = 0
    client_retries: int = 0
    injector_stats: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{super().summary()}, "
            f"{self.faults_injected} faults injected, "
            f"{self.chaos_errors} clean chaos errors, "
            f"{self.client_reconnects} reconnects, "
            f"{self.client_retries} transparent retries, "
            f"{self.invariant_checks} invariant checks"
        )


class _ProbeStats:
    """Throwaway stats sink for plan-cache probes (keeps real counters clean)."""

    plan_cache_hits = 0
    plan_cache_misses = 0
    plan_cache_invalidations = 0


class ChaosRunner(LockstepRunner):
    """Replay a stream under an armed fault plan and demand conformance.

    Two lanes run in lockstep: ``enc-chaos`` -- a real TCP connection to an
    embedded :class:`~repro.server.loopback.LoopbackServer` with the fault
    plan armed and scoped to exactly that stack -- and ``enc-shadow``, an
    identical in-process encrypted proxy that never sees a fault.  Every
    statement runs on the chaos lane first:

    * success or refusal: the shadow runs it too (injection paused) and the
      outcomes must match, row for row and refusal for refusal;
    * any other clean DB-API failure: the statement was not applied (see
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

    # -- lockstep plug-in ------------------------------------------------
    def _new_report(self) -> ChaosReport:
        return ChaosReport()

    def _open_lanes(self) -> dict[str, Connection]:
        from repro.server.loopback import connect_loopback

        return {
            "enc-chaos": connect_loopback(
                backend="memory", client_kwargs=self.client_kwargs, **self.server_kwargs
            ),
            "enc-shadow": connect(backend="memory", **self.shadow_kwargs),
        }

    @contextlib.contextmanager
    def _armed(self, lanes, report):
        server = lanes["enc-chaos"].loopback_server.server
        with faults.armed(self._scoped_plan(server)) as self._injector:
            yield
            report.injector_stats = self._injector.stats()

    def _step(self, index, statement, lanes, report):
        self._fired_before = self._injector.fired_count
        chaos_out = run_statement(lanes["enc-chaos"], statement)
        with faults.paused():
            if chaos_out.error == "error":
                # The chaos lane failed cleanly; the statement was not
                # applied there, so the shadow skips it.  A refusal is
                # proxy behaviour, not a fault, and is compared instead.
                report.chaos_errors += 1
                _resync_shadow(lanes, "enc-chaos", report)
                return None
            return {
                "enc-chaos": chaos_out,
                "enc-shadow": run_statement(lanes["enc-shadow"], statement),
            }

    def _after_step(self, lanes, report) -> Optional[str]:
        fired = self._injector.fired_count - self._fired_before
        if not fired:
            return None
        report.faults_injected += fired
        report.invariant_checks += 1
        with faults.paused():
            return self._check_invariants(lanes["enc-chaos"], lanes["enc-shadow"])

    def _close_lanes(self, lanes, report) -> None:
        client = lanes["enc-chaos"].proxy
        report.client_reconnects = client.reconnects
        report.client_retries = client.retries
        super()._close_lanes(lanes, report)

    # -- invariants -------------------------------------------------------
    @staticmethod
    def _probe_both(chaos: Connection, shadow: Connection, sql: str):
        """One probe on both lanes: (chaos, shadow) outcomes, or a failure."""
        probe = GeneratedStatement(sql, kind="select")
        chaos_out = run_statement(chaos, probe)
        shadow_out = run_statement(shadow, probe)
        if "error" in (chaos_out.error, shadow_out.error):
            return None, (
                f"failed (chaos: {chaos_out.summary():.120}, "
                f"shadow: {shadow_out.summary():.120})"
            )
        if chaos_out.error != shadow_out.error:
            return None, "asymmetric refusal"
        return (chaos_out, shadow_out), None

    def _check_invariants(self, chaos: Connection, shadow: Connection) -> Optional[str]:
        """Proxy-metadata <-> backend consistency, probed through both lanes.

        Called with injection paused.  Returns a description of the first
        violated invariant, or None.
        """
        server = chaos.loopback_server.server
        shadow_schema = shadow.proxy.schema
        tables = sorted(set(shadow_schema.tables) | set(server.proxy.schema.tables))
        for table in tables:
            outs, problem = self._probe_both(chaos, shadow, f"SELECT * FROM {table}")
            if problem is not None:
                return f"probe of table {table}: {problem}"
            chaos_out, shadow_out = outs
            if chaos_out.error is not None:
                continue  # refused on both lanes
            if not _rows_match(
                _normalize(shadow_out.rows, ordered=False),
                _normalize(chaos_out.rows, ordered=False),
            ):
                return (
                    f"table {table} diverged: shadow has {len(shadow_out.rows)} "
                    f"row(s), chaos lane has {len(chaos_out.rows)}"
                )
            names = shadow_schema.tables[table].column_names()
            violation = self._check_sums(chaos, shadow, table, names, shadow_out.rows)
            if violation is not None:
                return violation
        return self._check_plan_cache(server)

    def _check_sums(self, chaos, shadow, table, names, shadow_rows) -> Optional[str]:
        """SUM every numeric column through both proxies vs. a Python sum.

        The SQL SUM rides the HOM (Paillier) onion, so this is the probe
        that catches a column whose metadata and ciphertext state fell out
        of step -- a lowered-but-unadjusted onion or a readable HOM-stale
        slot yields a sum that disagrees with the plaintext recomputation.
        """
        for col_index, name in enumerate(names):
            values = [row[col_index] for row in shadow_rows if row[col_index] is not None]
            if not values or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                continue
            outs, problem = self._probe_both(
                chaos, shadow, f"SELECT SUM({name}) FROM {table}"
            )
            if problem is not None:
                return f"SUM probe on {table}.{name}: {problem}"
            if outs[0].error is not None:
                continue  # refused on both lanes
            expected = sum(values)
            for lane, out in zip(("chaos", "shadow"), outs):
                answer = out.rows[0][0] if out.rows and out.rows[0] else None
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
class RecoveryReport(RunReport):
    """Outcome of one stream with a simulated crash and catalog recovery."""

    crash_site: Optional[str] = None
    crashed: bool = False
    crash_index: Optional[int] = None
    recoveries: int = 0
    #: Adjustment intents that were neither committed nor aborted when the
    #: proxy "died" and had to be resolved (via the canary) on recovery.
    in_doubt_resolved: int = 0
    transactions_resynced: int = 0

    def summary(self) -> str:
        fired = f"statement #{self.crash_index}" if self.crashed else "never fired"
        return (
            f"{super().summary()}, crash at {self.crash_site} ({fired}), "
            f"{self.recoveries} recoveries, "
            f"{self.in_doubt_resolved} in-doubt adjustments resolved"
        )


class RecoveryRunner(LockstepRunner):
    """Kill the proxy at a named crash point mid-stream and demand recovery.

    Two encrypted proxies run the same stream in lockstep, sharing one
    master key and Paillier key pair:

    * ``enc-recovery`` -- a proxy over *file-backed* storage (one SQLite
      database, or N sharded SQLite files) writing every metadata mutation
      through a :class:`~repro.durability.MetadataCatalog`, with a one-shot
      :func:`faults.crash` rule armed at one of :data:`faults.CRASH_SITES`;
    * ``enc-shadow`` -- an identical in-memory proxy with no catalog and no
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

    Each :meth:`run` works in a fresh subdirectory of ``workdir``, so one
    runner can replay many streams (as :meth:`run_with_shrinking` does).
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

    # -- lane construction -------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self._run_dir, name)

    def _build_primary(self, allow_existing: bool) -> Connection:
        from repro.core.proxy import CryptDBProxy
        from repro.durability import MetadataCatalog

        if self.mode == "sharded":
            from repro.shard.backend import ShardedBackend

            backend = ShardedBackend(
                shards=self.shards,
                base="sqlite",
                mode=self.sharded_mode,
                paths=[self._path(f"primary.shard{i}") for i in range(self.shards)],
                allow_existing=allow_existing,
            )
        else:
            from repro.api.sqlite_backend import SQLiteBackend

            backend = SQLiteBackend(
                path=self._path("primary.db"), allow_existing=allow_existing
            )
        proxy = CryptDBProxy(
            db=backend,
            catalog=MetadataCatalog(
                self._path("catalog.wal"), snapshot_every=self.snapshot_every
            ),
            **self.proxy_kwargs,
        )
        return Connection(proxy, owns_backend=True, owns_proxy=True)

    def _build_shadow(self) -> Connection:
        from repro.core.proxy import CryptDBProxy

        db = None
        if self.mode == "sharded":
            from repro.shard.backend import ShardedBackend

            db = ShardedBackend(shards=self.shards, mode=self.sharded_mode)
        return Connection(CryptDBProxy(db=db, **self.proxy_kwargs), owns_proxy=True)

    # -- lockstep plug-in --------------------------------------------------
    def _new_report(self) -> RecoveryReport:
        return RecoveryReport(crash_site=self.crash_site, seed=self.seed)

    def _open_lanes(self) -> dict[str, Connection]:
        self._run_dir = tempfile.mkdtemp(prefix="run-", dir=self.workdir)
        return {
            "enc-recovery": self._build_primary(allow_existing=False),
            "enc-shadow": self._build_shadow(),
        }

    def _armed(self, lanes, report):
        return faults.armed(
            faults.FaultPlan(
                self.seed, [faults.crash(self.crash_site, at_hit=self.at_hit)]
            )
        )

    def _step(self, index, statement, lanes, report):
        try:
            primary_out = run_statement(lanes["enc-recovery"], statement)
        except SimulatedCrash:
            report.crashed = True
            report.crash_index = index
            self._recover(lanes, report)
            primary_out = self._resume(lanes, statement, report)
            if primary_out is None:
                return None
        with faults.paused():
            shadow_out = run_statement(lanes["enc-shadow"], statement)
        return {"enc-recovery": primary_out, "enc-shadow": shadow_out}

    def _at_end(self, lanes) -> list[str]:
        """Recovered metadata vs. the never-crashed shadow, field by field.

        The plan-cache schema *version* is deliberately absent: it is a
        monotonic invalidation counter whose absolute value is
        path-dependent -- an adjustment lowered and then rolled back inside
        a transaction bumps the live counter twice while replaying the log
        correctly collapses the round-trip to a no-op.  Recovery restores
        the logged version and the rebuilt proxy starts with an empty plan
        cache, so only the *semantic* state below has to agree.
        """
        mine = self._fingerprint(lanes["enc-recovery"].proxy)
        theirs = self._fingerprint(lanes["enc-shadow"].proxy)
        return [
            f"{key} diverged after recovery: {mine[key]!r} != {theirs[key]!r}"
            for key in mine
            if mine[key] != theirs[key]
        ]

    # -- crash + recovery --------------------------------------------------
    def _recover(self, lanes: dict[str, Connection], report: RecoveryReport) -> None:
        """Simulate process death, then rebuild the proxy from the catalog."""
        # The process is gone: unsynced WAL records vanish, the backend
        # connection drops (sqlite rolls back any open transaction), and no
        # in-memory metadata survives -- so no rollback runs through the
        # dead connection.
        dead = lanes["enc-recovery"].proxy
        if dead.catalog is not None:
            dead.catalog.abandon()
        dead.close()
        dead.db.close()
        report.in_doubt_resolved += self._pending_in_doubt()
        lanes["enc-recovery"] = rebuilt = self._build_primary(allow_existing=True)
        report.recoveries += 1
        if rebuilt.proxy.catalog.state.in_doubt:
            report.violations.append(
                "in-doubt intents survived recovery: "
                f"{sorted(rebuilt.proxy.catalog.state.in_doubt)}"
            )

    def _pending_in_doubt(self) -> int:
        """In-doubt intents the durable log holds at the moment of death."""
        wal_path = self._path("catalog.wal")
        if not os.path.exists(wal_path):
            return 0
        from repro.durability import decode_records, replay_records

        with open(wal_path, "rb") as handle:
            records, _ = decode_records(handle.read())
        return len(replay_records(records).in_doubt)

    def _resume(self, lanes, statement, report) -> Optional[LaneOutcome]:
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
                run_statement(lanes["enc-shadow"], statement)
            return None
        _resync_shadow(lanes, "enc-recovery", report)
        primary = lanes["enc-recovery"]
        if statement.kind == "ddl":
            words = statement.sql.split()
            if (
                len(words) >= 3
                and words[0].upper() == "CREATE"
                and words[1].upper() == "TABLE"
                and primary.proxy.schema.has_table(words[2])
            ):
                return LaneOutcome(rowcount=0)
        return run_statement(primary, statement)

    # -- metadata equivalence ----------------------------------------------
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
