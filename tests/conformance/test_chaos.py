"""The chaos conformance lane: differential testing under injected faults.

One seeded statement stream replays through :class:`ChaosRunner`: a real
loopback ``repro.server`` stack with a deterministic fault plan armed
(:mod:`repro.faults`) against an identical fault-free shadow proxy.  The
acceptance bar, straight from the robustness issue:

* every statement produces the fault-free answer or fails with a *clean*
  DB-API error -- never a dirty crash, never a silently wrong answer;
* after every injected fault an invariant probe asserts proxy metadata and
  backend state still agree (table contents, HOM-driven SUMs, symmetric
  refusals, no stale plan-cache entry surviving a lookup sweep).

Three plans cover the three layers: the encrypted wire (send/recv faults,
forcing client reconnects and transparent SELECT retries), the server and
backend (admission and execution errors plus sabotaged Paillier refills),
and the crypto worker pool (scatter failures falling back to serial).

``CHAOS_STATEMENTS`` scales each stream (CI's chaos-quick job runs 300).  A
failing stream is ddmin-minimized before it is reported, on a small probe
budget because every probe starts a fresh loopback server.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.crypto.keys import MasterKey
from repro.parallel import ParallelConfig
from repro.testing import ChaosRunner, StatementGenerator, conformance_problems

CHAOS_STATEMENTS = int(os.environ.get("CHAOS_STATEMENTS", "120"))

#: Shrinker probes per failing stream (each one replays on a new server).
SHRINK_PROBES = 24


def _stream(seed: int, offset: int):
    return StatementGenerator(seed + offset, tables=2).generate_stream(
        CHAOS_STATEMENTS
    )


def _runner(plan, paillier_keypair, **server_kwargs) -> ChaosRunner:
    shared = dict(
        paillier=paillier_keypair,
        hom_precompute=8,
    )
    return ChaosRunner(
        plan,
        server_kwargs={
            "master_key": MasterKey.from_passphrase("chaos-lane"),
            **shared,
            **server_kwargs,
        },
        shadow_kwargs={
            "master_key": MasterKey.from_passphrase("chaos-shadow"),
            **shared,
        },
    )


def _assert_conformant(report):
    assert report.ok, report.describe()
    # The plan must have actually exercised the machinery, not idled.
    assert report.faults_injected > 0, report.describe()
    assert report.invariant_checks > 0
    assert report.selects_compared > 0


# ---------------------------------------------------------------------------
# plan 1: the encrypted wire
# ---------------------------------------------------------------------------
def transport_plan(seed: int) -> faults.FaultPlan:
    return faults.FaultPlan(
        seed,
        [
            # Pre-send failures: nothing reached the server, any frame is a
            # safe victim.  The client reconnects and either retries
            # (SELECT) or reports the statement unapplied.
            faults.FaultRule(
                "transport.send", probability=0.04, match={"role": ("client",)}
            ),
            # Post-execution failures are only conformance-safe on reads...
            faults.FaultRule(
                "transport.recv",
                probability=0.10,
                match={"head": ("SELECT", "FETCH", "PREPARE", "STATS")},
            ),
            # ...or inside an explicit transaction (server-side rollback on
            # disconnect), as long as the COMMIT ack is never the victim.
            faults.FaultRule(
                "transport.recv",
                probability=0.08,
                match={"in_txn": (True,)},
                exclude={"frame": ("COMMIT",)},
            ),
        ],
    )


def test_chaos_transport(repro_seed, paillier_keypair):
    runner = _runner(transport_plan(repro_seed), paillier_keypair)
    report = runner.run_with_shrinking(
        _stream(repro_seed, offset=1), seed=repro_seed, max_probes=SHRINK_PROBES
    )
    _assert_conformant(report)
    # Wire faults must have forced the self-healing client into action.
    assert report.client_reconnects > 0, report.describe()


# ---------------------------------------------------------------------------
# plan 2: server admission + backend execution + paillier refill
# ---------------------------------------------------------------------------
def server_backend_plan(seed: int) -> faults.FaultPlan:
    return faults.FaultPlan(
        seed,
        [
            faults.FaultRule("server.session.execute", probability=0.05),
            faults.FaultRule("backend.execute", probability=0.04),
            faults.FaultRule("paillier.refill", probability=0.5),
        ],
    )


def test_chaos_server_and_backend(repro_seed, paillier_keypair):
    runner = _runner(server_backend_plan(repro_seed), paillier_keypair)
    report = runner.run_with_shrinking(
        _stream(repro_seed, offset=2), seed=repro_seed, max_probes=SHRINK_PROBES
    )
    _assert_conformant(report)
    # These faults surface as clean per-statement errors, not disconnects.
    assert report.chaos_errors > 0, report.describe()


# ---------------------------------------------------------------------------
# plan 3: the crypto worker pool
# ---------------------------------------------------------------------------
def pool_plan(seed: int) -> faults.FaultPlan:
    return faults.FaultPlan(
        seed,
        [
            # Default pool.scatter exception is ParallelUnavailable: the
            # encryptor must fall back to serial crypto and the statement
            # must still succeed with identical ciphertext semantics.
            faults.FaultRule("pool.scatter", every_n=2),
        ],
    )


def test_chaos_pool_scatter(repro_seed, paillier_keypair):
    runner = _runner(
        pool_plan(repro_seed),
        paillier_keypair,
        parallelism=ParallelConfig(
            workers=2, chunk_threshold=4, scatter_timeout=20.0
        ),
    )
    report = runner.run_with_shrinking(
        _stream(repro_seed, offset=3), seed=repro_seed, max_probes=SHRINK_PROBES
    )
    _assert_conformant(report)


# ---------------------------------------------------------------------------
# the verdict itself: silent backend corruption must fail the run
# ---------------------------------------------------------------------------
def _delete_one_stored_row(context) -> None:
    """A ``kind="call"`` action: silently drop one row from the chaos backend."""
    backend = context["target"]
    for name in backend.table_names():
        table = backend.table(name)
        for row_id, _ in table.scan():
            table.delete(row_id)
            return


def test_silent_row_loss_fails_the_invariant_probe(repro_seed, paillier_keypair):
    """A fault that corrupts state without any error is caught by the probe.

    The third backend call on the chaos stack (the second INSERT) first
    deletes a stored row; the statement itself succeeds on both lanes, so
    only the post-fault table probe can notice.
    """
    from repro.testing.generator import GeneratedStatement as S

    plan = faults.FaultPlan(
        repro_seed,
        [
            faults.FaultRule(
                "backend.execute",
                kind="call",
                trigger_hits=(3,),
                action=_delete_one_stored_row,
            )
        ],
    )
    stream = [
        S("CREATE TABLE lost (id INT, v INT)", kind="ddl"),
        S("INSERT INTO lost (id, v) VALUES (1, 10), (2, 20), (3, 30)"),
        S("INSERT INTO lost (id, v) VALUES (4, 40)"),
        S("SELECT COUNT(*) FROM lost", kind="select"),
    ]
    report = _runner(plan, paillier_keypair).run(stream)
    assert not report.ok, report.describe()
    assert report.divergence is None
    assert report.faults_injected == 1
    assert "table lost diverged" in report.describe()


# ---------------------------------------------------------------------------
# plan soundness guard-rails
# ---------------------------------------------------------------------------
def test_unrestricted_recv_plan_rejected(repro_seed):
    """A recv-error rule without head/txn restriction is rejected outright.

    Such a fault fires after the server applied a write but before the
    client learns of it -- the statement's fate is ambiguous and no
    conformance verdict is sound.
    """
    bad = faults.FaultPlan(
        repro_seed, [faults.FaultRule("transport.recv", probability=0.1)]
    )
    assert conformance_problems(bad)
    with pytest.raises(ValueError, match="conformance-safe"):
        ChaosRunner(bad)


def test_conformance_plans_are_safe(repro_seed):
    for plan in (
        transport_plan(repro_seed),
        server_backend_plan(repro_seed),
        pool_plan(repro_seed),
    ):
        assert conformance_problems(plan) == []
