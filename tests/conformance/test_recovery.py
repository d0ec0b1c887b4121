"""The recovery conformance lane: long streams killed at every crash point.

Each test replays one seeded RECOVERY_STATEMENTS-long stream through a
catalog-backed proxy over *file-backed* storage (plain SQLite, and a
3-shard deployment), kills the process at a named crash point -- unsynced
WAL records die, the backend connection drops -- then rebuilds the proxy
from snapshot+WAL against the surviving files and finishes the stream.
The acceptance bar, straight from the durability issue: zero divergence
and zero metadata mismatch against an uninterrupted shadow, and every
in-doubt two-phase onion adjustment resolved during recovery.

``RECOVERY_STATEMENTS`` scales the stream (CI's recovery-quick job
runs 300).  A failing stream is ddmin-minimized before it is reported.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.crypto.keys import MasterKey
from repro.testing import RecoveryRunner, StatementGenerator

RECOVERY_STATEMENTS = int(os.environ.get("RECOVERY_STATEMENTS", "120"))

#: WAL sites fire on every record, so crash deep into the stream -- after
#: snapshots have been taken and adjustments have resolved.  The adjust.*
#: sites fire once per onion transition and snapshot.write once per
#: compaction (a handful per stream each), so only shallow hits are
#: guaranteed to exist for them.
AT_HIT = max(2, RECOVERY_STATEMENTS // 20)

#: Shrinker probes per failing stream (each one is a full crash + recovery).
SHRINK_PROBES = 60


def _at_hit(crash_site: str) -> int:
    if crash_site.startswith("adjust."):
        return 1
    if crash_site == "snapshot.write":
        return 2
    return AT_HIT


@pytest.fixture()
def run_lane(tmp_path, repro_seed, paillier_keypair):
    def run(crash_site: str, mode: str, *, offset: int):
        at_hit = _at_hit(crash_site)
        stream = StatementGenerator(repro_seed + offset, tables=2).generate_stream(
            RECOVERY_STATEMENTS
        )
        runner = RecoveryRunner(
            tmp_path,
            crash_site,
            mode=mode,
            at_hit=at_hit,
            seed=repro_seed,
            master_key=MasterKey.from_passphrase("recovery-lane"),
            paillier=paillier_keypair,
        )
        report = runner.run_with_shrinking(
            stream, seed=repro_seed, max_probes=SHRINK_PROBES
        )
        assert report.crashed, report.describe()
        assert report.ok, report.describe()
        assert report.selects_compared > 0, report.describe()
        return report

    return run


@pytest.mark.parametrize("crash_site", faults.CRASH_SITES)
def test_recovery_lane_sqlite(run_lane, crash_site):
    offset = 10 + list(faults.CRASH_SITES).index(crash_site)
    report = run_lane(crash_site, "packed", offset=offset)
    if crash_site.startswith("adjust."):
        assert report.in_doubt_resolved >= 1, report.describe()


@pytest.mark.parametrize("crash_site", faults.CRASH_SITES)
def test_recovery_lane_sharded(run_lane, crash_site):
    offset = 20 + list(faults.CRASH_SITES).index(crash_site)
    report = run_lane(crash_site, "sharded", offset=offset)
    if crash_site.startswith("adjust."):
        assert report.in_doubt_resolved >= 1, report.describe()
