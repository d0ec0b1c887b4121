"""Kill-and-recover at every crash point, on every backend flavour.

One generated statement stream per mode; for each named crash point the
:class:`~repro.testing.oracle.RecoveryRunner` arms a one-shot crash rule,
lets the proxy die mid-stream (unsynced WAL records abandoned, backend
connection dropped), rebuilds it from snapshot+WAL against the surviving
database files, and finishes the stream.  Every answer and every piece of
recovered metadata -- onion levels, HOM staleness, OPE range-join groups,
JOIN-ADJ groups and effective scalars, shard routing -- must match an
uninterrupted in-memory shadow, and no two-phase adjustment may still be
in doubt afterwards.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.crypto.keys import MasterKey
from repro.testing import RecoveryRunner, StatementGenerator

#: Enough statements that every crash site's first hit lands mid-stream
#: (DDL at the head, an Ord/Eq adjustment soon after) while keeping the
#: full 12-combination sweep (6 crash points x 2 modes) fast.
STREAM_LENGTH = 40

MASTER_KEY = MasterKey.from_passphrase("crash-point-tests")


@pytest.fixture()
def stream(repro_seed):
    return StatementGenerator(repro_seed, tables=2).generate_stream(STREAM_LENGTH)


@pytest.mark.parametrize("mode", RecoveryRunner.MODES)
@pytest.mark.parametrize("crash_site", faults.CRASH_SITES)
def test_crash_and_recover_matches_uninterrupted_shadow(
    tmp_path, paillier_keypair, repro_seed, stream, crash_site, mode
):
    runner = RecoveryRunner(
        tmp_path,
        crash_site,
        mode=mode,
        seed=repro_seed,
        master_key=MASTER_KEY,
        paillier=paillier_keypair,
    )
    report = runner.run(stream)
    assert report.crashed, f"{crash_site} never fired in {mode} mode"
    assert report.recoveries == 1
    assert report.ok, report.describe()
    # The lanes really compared real answers, not a wall of refusals.
    assert report.selects_compared > 0
    if crash_site.startswith("adjust."):
        # Dying inside the two-phase window leaves exactly one adjustment
        # intent neither committed nor aborted; recovery must resolve it
        # (and the report must prove it did -- the acceptance criterion).
        assert report.in_doubt_resolved >= 1, report.describe()
    else:
        assert report.in_doubt_resolved == 0, report.describe()


def test_second_hit_crashes_later_in_the_stream(tmp_path, paillier_keypair, repro_seed, stream):
    """``at_hit`` moves the kill deeper into the stream; recovery still holds."""
    (tmp_path / "first").mkdir()
    (tmp_path / "later").mkdir()
    first = RecoveryRunner(
        tmp_path / "first",
        "wal.append",
        mode="packed",
        seed=repro_seed,
        master_key=MASTER_KEY,
        paillier=paillier_keypair,
    ).run(stream)
    later = RecoveryRunner(
        tmp_path / "later",
        "wal.append",
        mode="packed",
        at_hit=12,
        seed=repro_seed,
        master_key=MASTER_KEY,
        paillier=paillier_keypair,
    ).run(stream)
    assert first.ok and later.ok, f"{first.describe()}\n{later.describe()}"
    assert later.crashed
    assert later.crash_index > first.crash_index


def test_unknown_crash_site_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="not a crash point"):
        RecoveryRunner(tmp_path, "adjust.nonsense")
    with pytest.raises(ValueError, match="unknown recovery mode"):
        RecoveryRunner(tmp_path, "wal.append", mode="quantum")


def test_runner_replays_many_streams(tmp_path, paillier_keypair, repro_seed, stream):
    """Each run works in a fresh subdirectory, so a runner is reusable."""
    runner = RecoveryRunner(
        tmp_path,
        "wal.append",
        seed=repro_seed,
        master_key=MASTER_KEY,
        paillier=paillier_keypair,
    )
    first = runner.run(stream)
    second = runner.run(stream)
    assert first.ok and second.ok, f"{first.describe()}\n{second.describe()}"
    assert first.crashed and second.crashed
    assert first.crash_index == second.crash_index


def _levels_only_in_metadata():
    """Onion adjustments that no later statement of the stream reads back.

    The crash hits the CREATE TABLE after the Eq and Ord adjustments, and
    the stream ends there: a recovery that loses the logged levels answers
    every statement correctly, and only the metadata check can tell.
    """
    from repro.testing.generator import GeneratedStatement as S

    return [
        S("CREATE TABLE lv (id INT, v INT)", kind="ddl"),
        S("INSERT INTO lv (id, v) VALUES (1, 10), (2, 20), (3, 30)"),
        S("SELECT id FROM lv WHERE v = 20", kind="select"),
        S("SELECT id FROM lv WHERE v > 15 ORDER BY id ASC", kind="select", ordered=True),
        S("INSERT INTO lv (id, v) VALUES (4, 40)"),
        S("SELECT COUNT(*) FROM lv", kind="select"),
        S("CREATE TABLE lv2 (id INT)", kind="ddl"),
    ]


def test_forgotten_onion_levels_fail_and_minimize(
    tmp_path, paillier_keypair, repro_seed, monkeypatch
):
    from repro.durability.catalog import CatalogState

    apply_meta = CatalogState.apply_meta

    def forget_levels(self, meta):
        apply_meta(self, {key: value for key, value in meta.items() if key != "levels"})

    monkeypatch.setattr(CatalogState, "apply_meta", forget_levels)
    runner = RecoveryRunner(
        tmp_path,
        "wal.append",
        at_hit=6,
        seed=repro_seed,
        master_key=MASTER_KEY,
        paillier=paillier_keypair,
    )
    stream = _levels_only_in_metadata()
    report = runner.run(stream)
    assert report.crashed and report.crash_index == len(stream) - 1
    assert not report.ok
    assert report.divergence is None
    assert "onion levels diverged after recovery" in report.describe()

    shrunk = runner.run_with_shrinking(stream, max_probes=40)
    assert not shrunk.ok
    assert shrunk.minimized is not None
    assert len(shrunk.minimized) < len(stream)
    assert f"--repro-seed={repro_seed}" in shrunk.describe()
