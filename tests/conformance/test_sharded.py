"""Differential conformance for the enc-sharded lane (scatter-gather).

A 3-shard :class:`~repro.shard.ShardedBackend` behind the encrypted proxy
answers the same generated streams as the single-backend lanes: routed
inserts, k-way ordered merges with post-merge OFFSET, homomorphic
partial-sum recombination and broadcast fallbacks may change the execution
topology but never the answers -- including while a ``pool.scatter`` fault
plan is degrading scatters to serial execution mid-stream.

``CONFORMANCE_STATEMENTS`` scales the stream; CI's sharded-quick job runs
500 across 3 shards per the acceptance bar.
"""

from __future__ import annotations

import os

from repro import faults
from repro.api.connection import connect
from repro.crypto.keys import MasterKey
from repro.shard import ShardedBackend
from repro.testing import DifferentialRunner, StatementGenerator

QUICK_STATEMENTS = int(os.environ.get("CONFORMANCE_STATEMENTS", "520"))
SHARDS = int(os.environ.get("CONFORMANCE_SHARDS", "3"))


def _factory(paillier_keypair, capture: list, mode: str = "det-hash"):
    """Slim three-lane factory: ground truth, single encrypted, sharded."""
    shared = dict(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("sharded-conformance"),
        hom_precompute=8,
    )

    def factory():
        backend = ShardedBackend(shards=SHARDS, mode=mode)
        capture.clear()
        capture.append(backend)
        return {
            "plain-memory": connect(encrypted=False, backend="memory"),
            "enc-memory": connect(backend="memory", **shared),
            "enc-sharded": connect(backend=backend, **shared),
        }

    return factory


def test_sharded_lane_is_wired_through_default_factory(paillier_keypair):
    from repro.testing import default_lane_factory

    lanes = default_lane_factory(
        sharded=3,
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("lane-wiring"),
        hom_precompute=4,
    )()
    try:
        assert "enc-sharded" in lanes
        backend = lanes["enc-sharded"].proxy.db
        assert backend.is_sharded and backend.shard_count == 3
        # HOM partials merge by pooling packed chunks: the merge layer holds
        # no Paillier key at all, not even the public one.
        from repro.crypto.paillier import PaillierKeyPair, PaillierPublicKey

        assert not any(
            isinstance(value, (PaillierKeyPair, PaillierPublicKey))
            for value in vars(backend).values()
        )
        assert lanes["enc-sharded"].proxy.stats.shard is backend
    finally:
        for conn in lanes.values():
            conn.close()


def test_sharded_conformance_quick_mode(paillier_keypair, repro_seed):
    capture: list = []
    runner = DifferentialRunner(_factory(paillier_keypair, capture))
    stream = StatementGenerator(seed=repro_seed, tables=3).generate_stream(
        QUICK_STATEMENTS
    )
    report = runner.run_with_shrinking(stream, seed=repro_seed)
    assert report.ok, report.describe()
    assert report.statements_executed >= QUICK_STATEMENTS
    assert report.selects_compared >= QUICK_STATEMENTS // 5
    backend = capture[0]
    # The lane must genuinely shard and scatter, not degenerate to one node.
    assert backend.shard_count == SHARDS
    assert backend.counters["scatter_selects"] > 0
    assert backend.counters["routed_inserts"] > 0
    occupied = sum(1 for rows in backend.stats()["rows_per_shard"] if rows)
    assert occupied > 1, "generated data must spread over several shards"


def test_sharded_conformance_under_scatter_faults(paillier_keypair, repro_seed):
    """The acceptance bar's fault run: a pool.scatter plan forces scatter
    degradation mid-stream and the lane must still match answer for answer."""
    capture: list = []
    runner = DifferentialRunner(_factory(paillier_keypair, capture))
    stream = StatementGenerator(seed=repro_seed + 1, tables=2).generate_stream(
        max(QUICK_STATEMENTS // 4, 80)
    )
    plan = faults.FaultPlan(
        repro_seed, [faults.FaultRule("pool.scatter", probability=0.25)]
    )
    with faults.armed(plan) as injector:
        report = runner.run(stream)
    assert report.ok, report.describe()
    backend = capture[0]
    fired = sum(1 for f in injector.fired if f.site == "pool.scatter")
    assert fired > 0, "the plan must actually have injected scatter faults"
    assert backend.counters["scatter_fallbacks"] > 0
    # Degraded statements still merged: fallbacks never became refusals.
    assert report.refused_by_proxy == 0 or report.ok


def test_ope_range_mode_conforms(paillier_keypair, repro_seed):
    """Range placement (contiguous OPE slices) answers identically too."""
    capture: list = []
    runner = DifferentialRunner(
        _factory(paillier_keypair, capture, mode="ope-range")
    )
    stream = StatementGenerator(seed=repro_seed + 2, tables=2).generate_stream(
        max(QUICK_STATEMENTS // 4, 80)
    )
    report = runner.run_with_shrinking(stream, seed=repro_seed + 2)
    assert report.ok, report.describe()
    assert capture[0].mode == "ope-range"


def test_cross_shard_left_join_stream(paillier_keypair, repro_seed):
    """Satellite regression, lane level: LEFT JOINs whose right side lives
    on other shards (or nowhere at all) must null-extend like one backend."""
    from repro.testing.generator import GeneratedStatement as S

    capture: list = []
    runner = DifferentialRunner(_factory(paillier_keypair, capture))
    stream = [
        S("CREATE TABLE orders (id INT, cust INT, total INT)", kind="ddl"),
        S("CREATE TABLE custs (id INT, name VARCHAR(16))", kind="ddl"),
        S("CREATE TABLE ghosts (id INT, note VARCHAR(16))", kind="ddl"),
        S(
            "INSERT INTO orders (id, cust, total) VALUES "
            + ", ".join(f"({i}, {i % 4}, {i * 7})" for i in range(1, 13))
        ),
        # A single customer row: it lives on exactly one shard, while the
        # orders probing it are spread across all three.
        S("INSERT INTO custs (id, name) VALUES (2, 'solo')"),
        S(
            "SELECT orders.id, custs.name FROM orders "
            "LEFT JOIN custs ON orders.cust = custs.id "
            "ORDER BY orders.id ASC",
            kind="select",
            ordered=True,
        ),
        # ghosts is empty everywhere: every left row must null-extend.
        S(
            "SELECT orders.id, ghosts.note FROM orders "
            "LEFT JOIN ghosts ON orders.id = ghosts.id "
            "ORDER BY orders.id ASC",
            kind="select",
            ordered=True,
        ),
        S("SELECT COUNT(*) FROM orders", kind="select"),
    ]
    report = runner.run(stream)
    assert report.ok, report.describe()
    backend = capture[0]
    assert backend.counters["broadcast_selects"] >= 2
    occupied = sum(1 for rows in backend.stats()["rows_per_shard"] if rows)
    assert occupied > 1
