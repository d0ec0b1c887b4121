"""One run of one workload: set-up, warm-up, timed section, plaintext twin, verify.

``run_workload`` is what ``run.py --workload W`` executes.  With tracing off
it yields the end-to-end metrics; with tracing on it yields the per-layer
metrics (an untraced and a traced half of the timed section, so the tracing
overhead is measured in the same process on the same data).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.errors import ReproError
from repro.workloads.tpcc import QUERY_TYPES

from tracing import Tracer
from workloads import WORKLOADS, Op, Workload

#: Set-ups (each followed by its own cold pass) per untraced run.  ``setup_s``
#: is their median.  ``warmup_s`` adds up, over the cold statements, each one's
#: fastest execution among the passes: a pass is 0.04 to 0.9 s of deterministic
#: CPU work, which the sandbox can only make slower, one statement at a time.
SETUP_REPEATS = 3
#: Plaintext twins per untraced run (see ``_replay_on_twins``).
TWIN_REPEATS = 4
_ALL_PHASES = ("setup", "warmup", "timed")
_clock = time.perf_counter_ns


# ---------------------------------------------------------------------------
# executing and recording statements
# ---------------------------------------------------------------------------
def _execute(cursor: Any, op: Op) -> Any:
    """Run one statement and *consume* its answer inside the caller's timer."""
    if op.many:
        cursor.executemany(op.sql, op.params)
        return cursor.rowcount
    cursor.execute(op.sql, op.params)
    if op.is_select:
        return cursor.fetchall()
    return None if op.kind == "Ddl" else cursor.rowcount


def _run_ops(cursor: Any, ops: list[Op], records: list, tracer: Optional[Tracer]) -> None:
    """Append ``(op, latency_ns, answer-or-exception)`` for every statement."""
    for op in ops:
        token = tracer.begin_statement(len(records)) if tracer is not None else None
        start = _clock()
        try:
            outcome = _execute(cursor, op)
        except ReproError as exc:   # a refusal or failure is a failed operation
            outcome = exc
        end = _clock()
        if token is not None:
            tracer.end_statement(token)
        records.append((op, end - start, outcome))


class Section:
    """A closed loop over every client's stream until the deadline (or count)."""

    def __init__(self, workload: Workload, streams: list[Iterator[list[Op]]]):
        self.workload = workload
        self.streams = streams

    def run(self, seconds: float, units: Optional[int], clients: int,
            tracer: Optional[Tracer] = None) -> "SectionResult":
        """``units`` fixes the unit count per client instead of the duration."""
        records: list[list] = [[] for _ in range(clients)]
        unit_ends: list[list[int]] = [[] for _ in range(clients)]
        spans: list[tuple[int, int]] = [(0, 0)] * clients
        barrier = threading.Barrier(clients)

        def client(index: int) -> None:
            cursor = self.workload.conns[index].cursor()
            stream = self.streams[index]
            # Only the main thread's calls are traced (see tracing.Tracer).
            mine = tracer if index == 0 else None
            barrier.wait()
            start = _clock()
            deadline = start + int(seconds * 1e9)
            done = 0
            while (done < units) if units is not None else (_clock() < deadline):
                _run_ops(cursor, next(stream), records[index], mine)
                unit_ends[index].append(len(records[index]))
                done += 1
            spans[index] = (start, _clock())

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(1, clients)
        ]
        for thread in threads:
            thread.start()
        client(0)
        for thread in threads:
            thread.join()
        elapsed_ns = max(end for _, end in spans) - min(start for start, _ in spans)
        return SectionResult(self.workload, records, unit_ends, elapsed_ns / 1e9)


class SectionResult:
    def __init__(self, workload: Workload, records: list[list],
                 unit_ends: list[list[int]], elapsed_s: float):
        self.workload = workload
        self.records = records          # per client: (op, latency_ns, answer)
        self.unit_ends = unit_ends      # per client: record count after each unit
        self.elapsed_s = elapsed_s
        self.flat = [record for client in records for record in client]

    def ops(self, records: Optional[list] = None) -> int:
        records = self.flat if records is None else records
        if not self.workload.ops_are_rows:
            return len(records)
        return sum(_row_ops(op, outcome) for op, _, outcome in records)

    @property
    def ops_per_s(self) -> float:
        return self.ops() / self.elapsed_s

    def latencies_ms(self, kind: Optional[str] = None) -> list[float]:
        return [
            latency / 1e6 for op, latency, _ in self.flat
            if kind is None or op.kind == kind
        ]

    def blocks(self) -> list[tuple[int, int]]:
        """Index ranges into :attr:`flat` of every complete block of
        ``block_units`` units of one client (the whole section when it is
        shorter than one block, as under ``--quick``)."""
        ranges, offset = [], 0
        size = self.workload.block_units
        for records, ends in zip(self.records, self.unit_ends):
            edges = [0] + ends[size - 1::size]
            ranges += [(offset + low, offset + high) for low, high in zip(edges, edges[1:])]
            offset += len(records)
        return ranges or [(0, offset)]


def _row_ops(op: Op, outcome: Any) -> int:
    if op.many:
        return len(op.params)
    return len(outcome) if isinstance(outcome, list) else 0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# the plaintext twin and the correctness gate
# ---------------------------------------------------------------------------
def _cell_equal(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        try:
            return math.isclose(float(left), float(right), rel_tol=1e-9, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    return left == right


def _sort_key(row: tuple) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, (str, bytes)):
            key.append((2, str(value)))
        else:
            key.append((1, round(float(value), 6)))
    return tuple(key)


def answers_match(op: Op, encrypted: Any, plain: Any) -> bool:
    """Rows order-sensitive only under ORDER BY, floats to 1e-9, rowcounts exact."""
    if isinstance(encrypted, Exception) or isinstance(plain, Exception):
        return False
    if not isinstance(encrypted, list):
        return encrypted == plain
    if not isinstance(plain, list) or len(encrypted) != len(plain):
        return False
    if not op.ordered:
        encrypted = sorted(encrypted, key=_sort_key)
        plain = sorted(plain, key=_sort_key)
    return all(
        len(a) == len(b) and all(_cell_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(encrypted, plain)
    )


class Twin:
    """Replays the encrypted run's exact statement list on a plaintext twin."""

    def __init__(self, workload: Workload):
        self.conn = workload.plain_twin()
        self.cursor = self.conn.cursor()
        self.attempted = 0
        self.failures: list[dict] = []
        self.storage = 0        # plaintext bytes at the end of the replay

    def replay(self, phase: str, records: list) -> list[int]:
        """Run and compare; returns the twin's latency (ns) of every statement."""
        replayed: list = []
        _run_ops(self.cursor, [op for op, _, _ in records], replayed, None)
        for index, ((op, _, encrypted), (_, _, plain)) in enumerate(zip(records, replayed)):
            self.attempted += 1
            if not answers_match(op, encrypted, plain):
                self.failures.append({
                    "phase": phase, "index": index, "kind": op.kind, "sql": op.sql,
                    "params": repr(op.params)[:200],
                    "encrypted": repr(encrypted)[:300], "plain": repr(plain)[:300],
                })
        return [latency for _, latency, _ in replayed]

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# counters the layers already keep
# ---------------------------------------------------------------------------
def _counters(workload: Workload) -> dict:
    """One snapshot of the layers' public counters, same shape for all workloads."""
    proxy = workload.proxy
    if proxy is None:
        remote = workload.conns[0].proxy.server_stats()
        return {
            "plan": remote["proxy"], "cache": remote["cache"],
            "server": remote["server"], "shard": None, "wal": None,
        }
    stats = proxy.stats
    wal = proxy.catalog.wal if proxy.catalog is not None else None
    return {
        "plan": {
            "plan_cache_hits": stats.plan_cache_hits,
            "plan_cache_misses": stats.plan_cache_misses,
            "plan_cache_invalidations": stats.plan_cache_invalidations,
        },
        "cache": stats.cache_stats().as_dict(),
        "server": {},
        "shard": stats.shard_stats(),
        "wal": None if wal is None else {"appends": wal.appends, "syncs": wal.syncs},
    }


def _delta(after: Optional[dict], before: Optional[dict], key: str) -> float:
    if not after or not before:
        return 0
    return after.get(key, 0) - before.get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _process_cpu_s(pid: int) -> float:
    """utime + stime of another process, from /proc (0.0 where there is none)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest waited-for child (the server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _start(workload: Workload, tracer: Optional[Tracer],
           setup_s: list[float], cold_ns: list[list[int]]) -> list:
    """Set up and run the cold pass, timing both; returns the cold records."""
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    start = _clock()
    workload.setup()
    setup_s.append((_clock() - start) / 1e9)
    if tracer is not None:
        tracer.phase = "warmup"
    cold: list = []
    _run_ops(workload.conns[0].cursor(), workload.cold_ops(), cold, tracer)
    cold_ns.append([latency for _, latency, _ in cold])
    return cold


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path,
    out_dir: Optional[Path] = None, quick: bool = False,
    units: Optional[int] = None,
) -> dict:
    """Run one workload once; returns the contract's result object (plus the
    first mismatches and the timed sample count, for printing)."""
    tracer = Tracer(keep_spans=out_dir is not None) if trace else None
    setup_s: list[float] = []
    cold_ns: list[list[int]] = []       # per set-up: latency of every cold statement
    workload = WORKLOADS[name](seed, workdir)
    try:
        cold = _start(workload, tracer, setup_s, cold_ns)
        for _ in range(0 if (trace or quick) else SETUP_REPEATS - 1):
            workload.teardown()
            workload = WORKLOADS[name](seed, workdir)
            cold = _start(workload, tracer, setup_s, cold_ns)
        section = Section(workload, [workload.stream(i) for i in range(workload.clients)])
        warm_units = min(workload.warm_units, 10) if quick else workload.warm_units
        warm = section.run(0, warm_units, workload.clients, tracer).flat
        if trace:
            tracer.pause()
            parts = _traced_sections(workload, section, tracer, seconds, units)
            metrics = _per_layer(workload, tracer, parts, _counters(workload))
            timed = [(phase, parts[phase]) for phase in ("single", "untraced", "timed")
                     if phase in parts]
            twin, _ = _replay_on_twins(workload, cold + warm, timed, 1)
        else:
            timed = [("timed", section.run(seconds, units, workload.clients))]
            twin, plain_ns = _replay_on_twins(
                workload, cold + warm, timed, 1 if quick else TWIN_REPEATS)
            metrics = {
                "setup_s": _metric(statistics.median(setup_s), "s"),
                "warmup_s": _metric(sum(map(min, zip(*cold_ns))) / 1e9, "s"),
                **_block_summary(timed[0][1], plain_ns),
                "storage_expansion_x": _metric(
                    workload.stored().proxy.storage_bytes() / twin.storage, "x"),
            }
    finally:
        workload.teardown()
    if not trace:
        # After teardown: the server child has been waited for by then.
        metrics["peak_rss_mb"] = _metric(peak_rss_mib(), "MiB")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if tracer is not None:
            tracer.write_jsonl(str(out_dir / f"trace_{name}.jsonl"))
        if twin.failures:
            with open(out_dir / "failures.jsonl", "a", encoding="utf-8") as handle:
                for failure in twin.failures:
                    handle.write(json.dumps(dict(failure, workload=name)) + "\n")
    return {
        "correct": not twin.failures,
        "attempted": twin.attempted,
        "failed": len(twin.failures),
        "metrics": metrics,
        "failures": twin.failures[:5],
        "samples": len(timed[-1][1].flat),
    }


def _replay_on_twins(workload: Workload, untimed: list, timed: list,
                     repeats: int) -> tuple[Twin, list[int]]:
    """Replay the run, in order, on ``repeats`` fresh plaintext twins.

    The first twin is the correctness gate.  Returns it and, for the
    statements of the last timed part, each statement's fastest twin latency:
    plaintext work is deterministic, so the minimum is its cost without the
    sandbox's stalls.
    """
    first: Optional[Twin] = None
    fastest: list[int] = []
    for _ in range(repeats):
        twin = Twin(workload)
        try:
            twin.replay("warmup", untimed)
            for phase, part in timed:
                plain_ns = twin.replay(phase, part.flat)
            twin.storage = twin.conn.backend.storage_bytes()
        finally:
            twin.close()
        fastest = list(map(min, fastest, plain_ns)) if fastest else plain_ns
        first = first or twin
    return first, fastest


def _block_summary(timed: SectionResult, plain_ns: list[int]) -> dict[str, dict]:
    """Throughput, latency percentiles and slow-down, each summarised over blocks.

    A block is ``block_units`` consecutive units of one client, so every block
    holds the same statement mix, and within a block both sides of the
    slow-down ran the identical statements.  The sandbox's stalls only ever add
    time to a block (the twin's side of the slow-down is already each
    statement's fastest of ``TWIN_REPEATS`` replays), so every metric is the
    quartile of its block values on the fast side -- what the system does in a
    stretch the host left alone -- where a whole-run p95 would belong to the
    stalls.  A client's latencies overlap the other clients', hence the factor
    ``clients``.
    """
    flat = timed.flat
    clients = len(timed.records)
    rates, p50s, p95s, slowdowns = [], [], [], []
    for low, high in timed.blocks():
        latencies = [latency for _, latency, _ in flat[low:high]]
        seconds = sum(latencies) / 1e9
        rates.append(timed.ops(flat[low:high]) / seconds)
        p50s.append(percentile(latencies, 0.50) / 1e6)
        p95s.append(percentile(latencies, 0.95) / 1e6)
        slowdowns.append(seconds * 1e9 / (sum(plain_ns[low:high]) * clients))
    return {
        "throughput_ops_s": _metric(percentile(rates, 0.75) * clients, "ops/s"),
        "latency_p50_ms": _metric(percentile(p50s, 0.25), "ms"),
        "latency_p95_ms": _metric(percentile(p95s, 0.25), "ms"),
        "slowdown_vs_plain_x": _metric(percentile(slowdowns, 0.25), "x"),
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------
def _traced_sections(workload: Workload, section: Section, tracer: Tracer,
                     seconds: float, units: Optional[int]) -> dict:
    """Untraced then traced windows of equal length (one-connection first on
    the wire workload), with the layers' counters snapshotted before them."""
    result: dict[str, Any] = {}
    windows = 3 if workload.clients > 1 else 2
    share = seconds / windows
    result["before"] = _counters(workload)
    if workload.clients > 1:
        result["single"] = section.run(share, units, 1)
    server = workload.server
    cpu_before = _process_cpu_s(server.pid) if server is not None else 0.0
    result["untraced"] = section.run(share, units, workload.clients)
    result["server_cpu_s"] = (
        _process_cpu_s(server.pid) - cpu_before if server is not None else 0.0
    )
    tracer.phase = "timed"
    tracer.install()
    try:
        result["timed"] = section.run(share, units, workload.clients, tracer)
    finally:
        tracer.pause()
    return result


def _per_layer(workload: Workload, tracer: Tracer, result: dict, after: dict) -> dict:
    before = result["before"]
    untraced: SectionResult = result["untraced"]
    traced: SectionResult = result["timed"]
    single: Optional[SectionResult] = result.get("single")
    traced_records = traced.records[0]          # the traced (main-thread) client
    stmts = len(traced_records)
    # crypto.* is per row where an operation is a row (bulk_load_scan).
    work = traced.ops(traced_records) if workload.ops_are_rows else stmts
    all_stmts = sum(len(part.flat) for part in (single, untraced, traced) if part)

    def span(name: str, phases: tuple = ("timed",), parent: Optional[str] = None) -> dict:
        return tracer.total(name, phases, parent)

    def us(ns: float, per: float) -> float:
        return _ratio(ns / 1e3, per)

    values: dict[str, tuple[float, str]] = {}
    for kind in QUERY_TYPES:
        key = kind.lower().replace(". ", "_")
        values[f"client.{key}_p50_ms"] = (percentile(untraced.latencies_ms(kind), 0.5), "ms")
    root = span(Tracer.ROOT)
    values["client.latency_p99_ms"] = (percentile(untraced.latencies_ms(), 0.99), "ms")
    values["client.trace_overhead_x"] = (_ratio(untraced.ops_per_s, traced.ops_per_s), "x")
    values["client.untraced_share"] = (_ratio(root["self_ns"], root["total_ns"]), "share")

    values["api.cursor_self_us_per_stmt"] = (us(span("api.cursor")["self_ns"], stmts), "us")
    values["api.remote_request_us_per_stmt"] = (us(span("api.remote")["total_ns"], stmts), "us")

    parse = span("sql.parse", _ALL_PHASES)
    values["sql.parse_calls"] = (parse["calls"], "count")
    values["sql.parse_us_per_call"] = (us(parse["total_ns"], parse["calls"]), "us")
    values["sql.normalize_us_per_stmt"] = (us(span("sql.normalize")["total_ns"], stmts), "us")
    values["sql.engine_execute_us_per_stmt"] = (us(span("sql.engine")["self_ns"], stmts), "us")
    values["core.proxy.self_us_per_stmt"] = (
        us(span("core.proxy")["self_ns"] + span("core.prepare")["self_ns"], stmts), "us")

    hits = _delta(after["plan"], before["plan"], "plan_cache_hits")
    misses = _delta(after["plan"], before["plan"], "plan_cache_misses")
    values["core.plan_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    values["core.plan_cache.invalidations"] = (
        _delta(after["plan"], before["plan"], "plan_cache_invalidations"), "count")

    rewrite = span("core.rewriter", _ALL_PHASES)
    values["core.rewriter.calls"] = (rewrite["calls"], "count")
    values["core.rewriter.self_ms_per_call"] = (
        _ratio(rewrite["self_ns"] / 1e6, rewrite["calls"]), "ms")
    proxy = workload.proxy
    values["core.rewriter.onion_adjustments"] = (
        proxy.rewriter.onion_adjustments if proxy is not None else 0, "count")
    # Adjustment UPDATEs are the backend calls made from inside prepare().
    adjust_ns = sum(
        span(name, _ALL_PHASES, parent="core.prepare")["total_ns"]
        for name in ("backend.execute", "shard")
    )
    values["core.rewriter.adjust_ms_total"] = (adjust_ns / 1e6, "ms")

    values["core.encryptor.bind_us_per_stmt"] = (
        us(span("core.encryptor.bind")["self_ns"], stmts), "us")
    batch = span("core.encryptor.batch", _ALL_PHASES)
    values["core.encryptor.batch_encrypt_us_per_row"] = (
        us(batch["self_ns"], batch["items"]), "us")
    decrypt = span("core.results")
    values["core.results.decrypt_us_per_row"] = (us(decrypt["self_ns"], decrypt["items"]), "us")
    values["core.results.rows_decrypted"] = (decrypt["items"], "count")

    cache_after, cache_before = after["cache"], before["cache"]
    for scheme in ("det", "ope"):
        scheme_hits = _delta(cache_after, cache_before, f"{scheme}_hits")
        scheme_misses = _delta(cache_after, cache_before, f"{scheme}_misses")
        values[f"core.cache.{scheme}_hit_ratio"] = (
            _ratio(scheme_hits, scheme_hits + scheme_misses), "ratio")
    values["core.cache.hom_pool_refills"] = (cache_after["hom_pool_async_refills"], "count")
    values["core.cache.evictions"] = (cache_after["evictions"], "count")
    values["core.cache.estimated_bytes"] = (cache_after["estimated_bytes"], "bytes")

    for scheme, count_name in (("aes", "blocks"), ("ecc", "calls"),
                               ("ope", "calls"), ("paillier", "calls")):
        leaf = span(f"crypto.{scheme}")
        values[f"crypto.{scheme}_{count_name}_per_stmt"] = (_ratio(leaf["items"], work), "count")
        values[f"crypto.{scheme}_us_per_stmt"] = (us(leaf["self_ns"], work), "us")

    backend = span("backend.execute")
    values["backend.execute_calls_per_stmt"] = (_ratio(backend["calls"], stmts), "count")
    values["backend.execute_us_per_stmt"] = (us(backend["total_ns"], stmts), "us")
    values["backend.rows_returned_per_stmt"] = (_ratio(backend["rows"], stmts), "count")
    stored = workload.stored().proxy
    values["backend.bytes_per_row"] = (
        _ratio(stored.storage_bytes(), sum(stored.db.row_counts().values())), "bytes")

    shard_after, shard_before = after["shard"], before["shard"]
    values["shard.self_us_per_stmt"] = (us(span("shard")["self_ns"], stmts), "us")
    values["shard.scatter_share"] = (
        _ratio(_delta(shard_after, shard_before, "scatter_selects"), all_stmts), "share")
    values["shard.broadcast_share"] = (
        _ratio(_delta(shard_after, shard_before, "broadcast_selects")
               + _delta(shard_after, shard_before, "broadcast_writes"), all_stmts), "share")
    values["shard.rows_merged_per_stmt"] = (
        _ratio(_delta(shard_after, shard_before, "rows_merged"), all_stmts), "count")
    values["shard.scatter_fallbacks"] = (
        _delta(shard_after, shard_before, "scatter_fallbacks"), "count")
    per_shard = shard_after["rows_per_shard"] if shard_after else []
    values["shard.row_skew"] = (
        _ratio(max(per_shard, default=0), statistics.fmean(per_shard) if per_shard else 0), "x")

    wal = after["wal"] or {}
    values["durability.wal_appends"] = (wal.get("appends", 0), "count")
    values["durability.wal_syncs"] = (wal.get("syncs", 0), "count")
    values["durability.wal_bytes"] = (
        os.path.getsize(proxy.catalog.path)
        if proxy is not None and proxy.catalog is not None else 0, "bytes")
    values["durability.sync_ms_total"] = (
        span("durability.sync", _ALL_PHASES)["total_ns"] / 1e6, "ms")
    values["durability.steady_appends_per_kstmt"] = (
        _ratio(_delta(after["wal"], before["wal"], "appends") * 1000.0, all_stmts), "count")

    values.update(_server_metrics(workload, tracer, result, after, stmts))

    values["parallel.pool_jobs"] = (cache_after["parallel_jobs"], "count")
    values["parallel.pool_busy_s"] = (span("parallel.pool", _ALL_PHASES)["total_ns"] / 1e9, "s")

    share = 1.0 - values["client.untraced_share"][0]
    if stmts and share < 0.90:
        print(f"warning: only {share:.1%} of statement wall time is inside a layer span")
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def _server_metrics(workload: Workload, tracer: Tracer, result: dict,
                    after: dict, stmts: int) -> dict:
    names = ("rtt_1conn_p50_ms", "wire_overhead_ms", "queueing_ms", "concurrency_gain_x",
             "cpu_s_per_kstmt", "client_frame_us_per_stmt", "shed", "timeouts")
    units = ("ms", "ms", "ms", "x", "s", "us", "count", "count")
    values = {f"server.{name}": (0.0, unit) for name, unit in zip(names, units)}
    if workload.server is None:
        return values
    untraced: SectionResult = result["untraced"]
    single: SectionResult = result.get("single") or untraced
    rtt = percentile(single.latencies_ms(), 0.5)
    # The same statements without the wire: an in-process proxy over the same table.
    local: list = []
    cursor = workload.stored().cursor()
    _run_ops(cursor, workload.cold_ops(), [], None)
    _run_ops(cursor, [op for op, _, _ in single.flat[:400]], local, None)
    in_process = percentile([latency / 1e6 for _, latency, _ in local], 0.5)
    values["server.rtt_1conn_p50_ms"] = (rtt, "ms")
    values["server.wire_overhead_ms"] = (rtt - in_process, "ms")
    values["server.queueing_ms"] = (percentile(untraced.latencies_ms(), 0.5) - rtt, "ms")
    values["server.concurrency_gain_x"] = (_ratio(untraced.ops_per_s, single.ops_per_s), "x")
    values["server.cpu_s_per_kstmt"] = (
        _ratio(result["server_cpu_s"] * 1000.0, len(untraced.flat)), "s")
    values["server.client_frame_us_per_stmt"] = (
        _ratio(tracer.total("server.client_frame")["self_ns"] / 1e3, stmts), "us")
    values["server.shed"] = (after["server"].get("statements_shed", 0), "count")
    values["server.timeouts"] = (after["server"].get("statements_timed_out", 0), "count")
    return values
