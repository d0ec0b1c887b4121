"""Quick-mode differential conformance: the §3/§8 transparency guarantee.

One seeded stream of generated statements (schema DDL, multi-row and
parameterized INSERTs, predicate-rich SELECTs, joins, aggregates, HOM
increments, transactions with ROLLBACK) replays over six lanes --
plaintext in-memory, plaintext SQLite, encrypted proxy over each backend,
the encrypted proxy with a two-process crypto worker pool
(``workers=2``), and ``enc-remote``: the same encrypted proxy behind a
real loopback :mod:`repro.server` (TCP, ECDH handshake, AEAD frames,
chunked FETCH) -- and every decrypted result must agree.  The parallel
and remote lanes must also refuse exactly the statements the serial
encrypted lanes refuse: process-pool offload and the wire protocol may
never change behaviour, only throughput and deployment shape.  A
divergence fails the test with an auto-minimized reproducer and the seed
to replay it.

``CONFORMANCE_STATEMENTS`` scales the stream (CI quick mode runs the
default; nightly-style runs can crank it up).
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.keys import MasterKey
from repro.testing import DifferentialRunner, StatementGenerator, default_lane_factory

#: Body statements per stream; schema DDL and closing audits come on top, so
#: the acceptance floor of >=500 executed statements per backend pair holds.
QUICK_STATEMENTS = int(os.environ.get("CONFORMANCE_STATEMENTS", "520"))


@pytest.fixture(scope="module")
def runner(paillier_keypair) -> DifferentialRunner:
    factory = default_lane_factory(
        parallel_workers=2,
        remote=True,
        remote_fetch_chunk=64,
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("conformance-harness"),
        hom_precompute=8,
    )
    return DifferentialRunner(factory)


def test_parallel_lane_present(runner):
    """The fifth (workers=2) lane is part of every conformance replay."""
    lanes = runner.lane_factory()
    try:
        assert "enc-parallel" in lanes
        proxy = lanes["enc-parallel"].proxy
        assert proxy.pool is not None and proxy.parallelism.workers == 2
    finally:
        for conn in lanes.values():
            conn.close()


def test_remote_lane_present(runner):
    """The sixth lane really is remote: a socket client, not an in-process proxy."""
    lanes = runner.lane_factory()
    try:
        assert "enc-remote" in lanes
        client = lanes["enc-remote"].proxy
        assert getattr(client, "is_remote", False)
        # Small chunks force the multi-frame FETCH path through the stream.
        assert client.fetch_chunk == 64
    finally:
        for conn in lanes.values():
            conn.close()


def test_sum_heavy_tiny_headroom_stream(paillier_keypair, repro_seed, monkeypatch):
    """SUM-dominated streams against a 4-row chunk budget (slot headroom).

    ``headroom_bits=2`` closes the packed-SUM running product every 4 rows,
    so aggregates over the seeded tables constantly emit multi-chunk
    partial-sum blobs and read them back -- the overflow machinery a
    production-sized headroom (2^16 rows) would never hit under test loads.
    """
    from repro.crypto import paillier

    monkeypatch.setattr(
        paillier, "PACKING", paillier.PackingConfig(value_bits=32, headroom_bits=2)
    )
    factory = default_lane_factory(
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("conformance-headroom"),
        hom_precompute=8,
    )
    generator = StatementGenerator(seed=repro_seed, tables=2, sum_heavy=True)
    stream = generator.generate_stream(max(QUICK_STATEMENTS // 4, 60))
    report = DifferentialRunner(factory).run_with_shrinking(stream, seed=repro_seed)
    assert report.ok, report.describe()
    assert report.selects_compared >= len(stream) // 6


def test_differential_conformance_quick_mode(runner, repro_seed):
    generator = StatementGenerator(seed=repro_seed, tables=3)
    stream = generator.generate_stream(QUICK_STATEMENTS)
    report = runner.run_with_shrinking(stream, seed=repro_seed)
    assert report.ok, report.describe()
    # Floors scale with the knob: the default (520) satisfies the CI
    # acceptance criterion of >=500 statements per backend pair, while
    # smaller local runs still assert full-stream execution.
    assert report.statements_executed >= QUICK_STATEMENTS
    # The stream must actually exercise the comparison machinery.
    assert report.selects_compared >= QUICK_STATEMENTS // 5


def test_transaction_rollback_stream(runner, repro_seed):
    """A hand-written stream hammering BEGIN/ROLLBACK onion snapshots."""
    from repro.testing.generator import GeneratedStatement as S

    stream = [
        S("CREATE TABLE acct (id INT, balance INT, owner VARCHAR(20))", kind="ddl"),
        S("INSERT INTO acct (id, balance, owner) VALUES (1, 100, 'alpha'), "
          "(2, 200, 'bravo'), (3, NULL, NULL)"),
        S("BEGIN", kind="txn"),
        S("UPDATE acct SET balance = balance + 50 WHERE id = 1"),
        S("DELETE FROM acct WHERE id = 2"),
        S("INSERT INTO acct (id, balance, owner) VALUES (4, 400, 'delta')"),
        S("SELECT * FROM acct ORDER BY id ASC", kind="select", ordered=True),
        S("ROLLBACK", kind="txn"),
        S("SELECT * FROM acct ORDER BY id ASC", kind="select", ordered=True),
        S("SELECT COUNT(*), SUM(balance) FROM acct", kind="select"),
        S("BEGIN", kind="txn"),
        S("UPDATE acct SET owner = 'echo' WHERE balance >= 200"),
        S("COMMIT", kind="txn"),
        S("SELECT id, owner FROM acct ORDER BY id ASC", kind="select", ordered=True),
    ]
    report = runner.run(stream)
    assert report.ok, report.describe()


def test_seeded_streams_are_reproducible(repro_seed):
    first = StatementGenerator(seed=repro_seed).generate_stream(40)
    second = StatementGenerator(seed=repro_seed).generate_stream(40)
    assert [s.describe() for s in first] == [s.describe() for s in second]
    different = StatementGenerator(seed=repro_seed + 1).generate_stream(40)
    assert [s.describe() for s in first] != [s.describe() for s in different]


def test_proxy_may_refuse_but_never_lies(runner):
    """A stale-onion SELECT is refused by the proxy, not answered wrongly."""
    from repro.testing.generator import GeneratedStatement as S

    stream = [
        S("CREATE TABLE s (id INT, v INT)", kind="ddl"),
        S("INSERT INTO s (id, v) VALUES (1, 10), (2, 20)"),
        S("UPDATE s SET v = v + 5"),
        # Equality over the now-stale Eq onion: plaintext lanes answer,
        # encrypted lanes must refuse (not return pre-increment matches).
        S("SELECT id FROM s WHERE v = 15", kind="select", may_be_unsupported=True),
        # SUM reads the Add onion and must remain exact.
        S("SELECT SUM(v) FROM s", kind="select"),
    ]
    report = runner.run(stream)
    assert report.ok, report.describe()
    assert report.refused_by_proxy == 1


def test_unflagged_refusal_is_a_divergence(runner):
    """The same refusal where the generator did not allow one must fail."""
    from repro.testing.generator import GeneratedStatement as S

    stream = [
        S("CREATE TABLE s (id INT, v INT)", kind="ddl"),
        S("INSERT INTO s (id, v) VALUES (1, 10), (2, 20)"),
        S("UPDATE s SET v = v + 5"),
        S("SELECT id FROM s WHERE v = 15", kind="select", may_be_unsupported=False),
        S("SELECT SUM(v) FROM s", kind="select"),
    ]
    report = runner.run(stream)
    assert not report.ok
    assert report.divergence.index == 3
    assert "lanes disagree on success/failure" in report.describe()
    assert report.refused_by_proxy == 0
