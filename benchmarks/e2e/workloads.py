"""The four workloads: inputs from ``random.Random(seed)``, set-up, teardown.

A workload hands the harness *units* -- lists of :class:`Op` that are run to
the end once started -- so the deadline of a timed section only ever falls
between units.  A unit is one statement for the point workloads and one whole
load-and-scan round for ``bulk_load_scan``.  Every statement list depends on
the seed alone, never on timing: how far a run gets decides only how many
units of the fixed sequence it executes.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

import repro
from repro.crypto.keys import MasterKey
from repro.shard import ShardedBackend
from repro.workloads.tpcc import QUERY_TYPES, TPCCWorkload

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@dataclass
class Op:
    """One statement: what to run and how to compare its answer."""

    kind: str
    sql: str
    params: Any = None          # a tuple, or a list of tuples when ``many``
    many: bool = False
    ordered: bool = False       # SELECT ... ORDER BY: row order is part of the answer

    @property
    def is_select(self) -> bool:
        return self.sql.startswith("SELECT")


def _master_key(seed: int) -> MasterKey:
    # Seed-derived, so DET/OPE ciphertexts -- and with them shard placement
    # and every memo's contents -- repeat for a seed.
    return MasterKey.from_passphrase(f"e2e-bench-{seed}")


class Workload:
    """Base: one client, an operation is a statement."""

    name = ""
    clients = 1
    ops_are_rows = False
    #: Untimed steady-state statements (units) after the cold pass.
    warm_units = 100
    #: Units per block; the timing metrics are quartiles over blocks.
    block_units = 50
    #: The server subprocess, where the proxy does not live in this process.
    server: Optional[subprocess.Popen] = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.conns: list[Any] = []

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        """Key generation, connect / server start, DDL, bulk load (``setup_s``)."""
        raise NotImplementedError

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def plain_twin(self) -> Any:
        """A plaintext connection loaded with the identical data."""
        raise NotImplementedError

    # -- inputs ------------------------------------------------------------
    def cold_ops(self) -> list[Op]:
        """The first execution of every statement shape (``warmup_s``)."""
        raise NotImplementedError

    def stream(self, client: int) -> Iterator[list[Op]]:
        """The endless, seed-determined sequence of units of one client."""
        raise NotImplementedError

    # -- views the harness reads counters through ---------------------------
    @property
    def proxy(self) -> Optional[Any]:
        """The in-process proxy, or None when it lives in a server process."""
        return self.conns[0].proxy

    def stored(self) -> Any:
        """An in-process encrypted connection over what the backend stores."""
        return self.conns[0]


# ---------------------------------------------------------------------------
# tpcc_mix / tpcc_sharded
# ---------------------------------------------------------------------------
_TPCC_SCALE = dict(
    warehouses=1, districts_per_warehouse=2, customers_per_district=20,
    items=40, orders_per_district=20,
)
#: The fig10 mix as exact counts per block of 50 statements (30/8/12/8/6/14/
#: 10/12 %).  Blocks are shuffled by the seed; exact proportions keep the
#: share of each kind -- and so p50/p95 -- from wandering with the seed.
_TPCC_BLOCK = {
    "Equality": 15, "Join": 4, "Range": 6, "Sum": 4,
    "Delete": 3, "Insert": 7, "Upd. set": 5, "Upd. inc": 6,
}


class TpccMix(Workload):
    name = "tpcc_mix"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.data = TPCCWorkload(**_TPCC_SCALE, seed=seed)

    def _connect(self) -> Any:
        return repro.connect(master_key=_master_key(self.seed))

    def setup(self) -> None:
        conn = self._connect()
        self.conns = [conn]
        self.data.load_into(conn)

    def plain_twin(self) -> Any:
        plain = repro.connect(encrypted=False)
        self.data.load_into(plain)
        return plain

    def _op(self, kind: str, rng: random.Random) -> Op:
        sql, params = self.data.query_params(kind, rng)
        return Op(kind, sql, params, ordered=kind == "Range")

    def cold_ops(self) -> list[Op]:
        rng = random.Random(f"{self.seed}:cold")
        return [self._op(kind, rng) for kind in QUERY_TYPES]

    def stream(self, client: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.seed}:stream:{client}")
        block = [kind for kind, count in _TPCC_BLOCK.items() for _ in range(count)]
        while True:
            rng.shuffle(block)
            for kind in block:
                yield [self._op(kind, rng)]


class TpccSharded(TpccMix):
    """The same statements over three SQLite shards with the WAL catalog on.

    The shards are in-memory SQLite databases.  File-backed shards fsync two
    or three times per written shard and statement, and this sandbox's fsync
    latency changes several-fold from one minute to the next: measured side
    by side, 91-125 ops/s with files against 128-140 without.  The catalog's
    write-ahead log stays a real file; it is written during set-up and
    warm-up only.
    """

    name = "tpcc_sharded"
    shards = 3

    def _connect(self) -> Any:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.backend = ShardedBackend(shards=self.shards, base="sqlite")
        return repro.connect(
            backend=self.backend, catalog=str(self.workdir / "catalog.wal"),
            master_key=_master_key(self.seed),
        )

    def teardown(self) -> None:
        super().teardown()
        self.backend.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# wire_reads
# ---------------------------------------------------------------------------
class WireReads(Workload):
    """Read-only point/range SELECTs against ``python -m repro.server``."""

    name = "wire_reads"
    rows = 240
    range_width = 7
    _DDL = "CREATE TABLE accts (id INT, owner VARCHAR(24), balance INT, region VARCHAR(8))"
    _INDEX = "CREATE INDEX accts_id ON accts (id)"
    _INSERT = "INSERT INTO accts (id, owner, balance, region) VALUES (?, ?, ?, ?)"
    _POINT = "SELECT owner, balance FROM accts WHERE id = ?"
    _RANGE = "SELECT id, balance FROM accts WHERE id >= ? AND id < ?"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.clients = min(2, os.cpu_count() or 1)
        self._stored: Optional[Any] = None
        self._cpus = os.sched_getaffinity(0)
        rng = random.Random(f"{seed}:accts")
        self.table = [
            (i, f"owner-{rng.randrange(10**9):09d}", rng.randrange(10**6), f"r{rng.randrange(8)}")
            for i in range(self.rows)
        ]

    def _start_server(self) -> str:
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED="0")
        # The server gets the last CPU to itself and the clients the others (a
        # child inherits the mask of the thread that starts it), as an operator
        # would with taskset.  Left to the scheduler, the server's event-loop
        # and worker threads hand their GIL to and fro across CPUs: measured
        # side by side, 370-500 ops/s unpinned against 580-650 pinned.
        os.sched_setaffinity(0, {max(self._cpus)})
        try:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.server", "--port", "0", "--backend", "memory",
                 "--master-key", f"e2e-bench-{self.seed}"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
        finally:
            os.sched_setaffinity(0, self._cpus - {max(self._cpus)} or self._cpus)
        # A server that never reports its port must not hang the benchmark.
        ready, _, _ = select.select([self.server.stdout], [], [], 120)
        line = self.server.stdout.readline() if ready else ""
        if "listening on " not in line:
            self.stop_server()
            raise RuntimeError(f"repro.server did not start: {line!r}")
        return line.rsplit("listening on ", 1)[1].strip()

    def stop_server(self) -> None:
        """SIGTERM (graceful drain), wait; kill if it does not go."""
        os.sched_setaffinity(0, self._cpus)
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def _load(self, conn: Any) -> None:
        cursor = conn.cursor()
        cursor.execute(self._DDL)
        cursor.execute(self._INDEX)
        for start in range(0, self.rows, 100):
            cursor.executemany(self._INSERT, self.table[start:start + 100])

    def setup(self) -> None:
        url = self._start_server()
        self.conns = [repro.connect(url=url) for _ in range(self.clients)]
        self._load(self.conns[0])

    def teardown(self) -> None:
        try:
            super().teardown()
            if self._stored is not None:
                self._stored.close()
        finally:
            self.stop_server()

    def plain_twin(self) -> Any:
        plain = repro.connect(encrypted=False)
        self._load(plain)
        return plain

    def stored(self) -> Any:
        """The same table behind an in-process proxy (built on first use):
        the server keeps no storage counter on the wire, and the same rows
        take the same ciphertext bytes; it also gives the statements'
        latency without the wire."""
        if self._stored is None:
            self._stored = repro.connect(master_key=_master_key(self.seed))
            self._load(self._stored)
        return self._stored

    def _point(self, rng: random.Random) -> Op:
        return Op("Equality", self._POINT, (rng.randrange(self.rows),))

    def _range(self, rng: random.Random) -> Op:
        low = rng.randrange(self.rows - self.range_width)
        return Op("Range", self._RANGE, (low, low + self.range_width))

    def cold_ops(self) -> list[Op]:
        rng = random.Random(f"{self.seed}:cold")
        return [self._point(rng), self._range(rng)]

    def stream(self, client: int) -> Iterator[list[Op]]:
        # 90 % point / 10 % range, exact per block of ten: p50 sits inside the
        # point population and p95 inside the range population.
        rng = random.Random(f"{self.seed}:stream:{client}")
        block = [self._point] * 9 + [self._range]
        while True:
            rng.shuffle(block)
            for make in block:
                yield [make(rng)]

    @property
    def proxy(self) -> None:
        return None


# ---------------------------------------------------------------------------
# bulk_load_scan
# ---------------------------------------------------------------------------
class BulkLoadScan(Workload):
    """Rounds of: new table, executemany load, cold queries, scans.

    An operation is a row (rows inserted + rows returned).  Every value is
    unique and high-entropy, so every DET/OPE/SEARCH memo lookup of the load
    is a miss and the memos only grow.
    """

    name = "bulk_load_scan"
    ops_are_rows = True
    warm_units = 2      # two more rounds drain the 256-entry HOM randomness pool
    block_units = 1
    rows_per_round = 100
    batch = 50
    full_scans, range_scans, sums = 2, 6, 6

    def setup(self) -> None:
        self.conns = [repro.connect(master_key=_master_key(self.seed))]

    def plain_twin(self) -> Any:
        return repro.connect(encrypted=False)

    def _round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:round:{index}")
        table = f"m{index}"
        rows = [
            (index * 1_000_000 + i, rng.getrandbits(40), rng.randrange(10**6),
             rng.getrandbits(31), f"{rng.getrandbits(128):032x}")
            for i in range(self.rows_per_round)
        ]
        insert = f"INSERT INTO {table} (id, k, amount, ts, note) VALUES (?, ?, ?, ?, ?)"
        ops = [Op("Ddl", f"CREATE TABLE {table} (id INT, k INT, amount INT, ts INT, note VARCHAR(32))")]
        ops += [
            Op("Insert", insert, rows[start:start + self.batch], many=True)
            for start in range(0, len(rows), self.batch)
        ]
        half = 1 << 30

        def range_scan() -> Op:
            low = rng.randrange(half)      # ts is uniform in [0, 2^31): ~50 % of rows
            return Op("Range", f"SELECT id, ts FROM {table} WHERE ts >= ? AND ts < ?",
                      (low, low + half))

        def sum_scan() -> Op:
            return Op("Sum", f"SELECT SUM(amount) FROM {table} WHERE ts >= ?",
                      (rng.randrange(half),))

        # Cold equality / range / SUM first: onion adjustment over every row.
        ops.append(Op("Equality", f"SELECT id, amount FROM {table} WHERE k = ?",
                      (rng.choice(rows)[1],)))
        ops.append(range_scan())
        ops.append(sum_scan())
        tail = (
            [Op("Scan", f"SELECT id, k, amount, ts, note FROM {table}")] * self.full_scans
            + [range_scan() for _ in range(self.range_scans - 1)]
            + [sum_scan() for _ in range(self.sums - 1)]
        )
        rng.shuffle(tail)
        return ops + tail

    def cold_ops(self) -> list[Op]:
        return self._round(0)

    def stream(self, client: int) -> Iterator[list[Op]]:
        index = 1
        while True:
            yield self._round(index)
            index += 1


WORKLOADS = {cls.name: cls for cls in (TpccMix, TpccSharded, WireReads, BulkLoadScan)}
