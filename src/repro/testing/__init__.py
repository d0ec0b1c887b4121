"""Randomized differential conformance testing for the CryptDB proxy.

CryptDB's headline guarantee (§3, §8) is *transparency*: a rewritten query
over onion ciphertexts must decrypt to exactly the answer a stock SQL DBMS
gives on the plaintext.  This package turns that guarantee into an executable
oracle:

* :mod:`repro.testing.generator` produces seeded random schema + DML/SELECT
  statement streams constrained to the SQL surface every lane supports;
* :mod:`repro.testing.oracle` replays one stream over several *lanes*
  (plaintext in-memory engine, plaintext SQLite, encrypted proxy over each
  backend) in lockstep and reports the first result divergence after
  decryption.  One core owns the replay loop, the statement runner, the
  N-way comparator, the report and shrinking; three runners plug into it:
  :class:`~repro.testing.oracle.DifferentialRunner` (lanes from a factory,
  no perturbation), :class:`~repro.testing.oracle.ChaosRunner` (a loopback
  server under an armed :mod:`repro.faults` plan: every statement must give
  the fault-free answer or a clean DB-API error, and after every injected
  fault an invariant probe checks that proxy metadata and backend state
  still agree) and :class:`~repro.testing.oracle.RecoveryRunner` (a
  catalog-backed proxy killed at a named crash point and rebuilt from
  snapshot+WAL; answers and recovered metadata must match an uninterrupted
  ``enc-shadow`` proxy);
* :mod:`repro.testing.shrinker` delta-debugs a failing stream down to a
  minimal reproducer before it is reported.
"""

from repro.testing.generator import GeneratedStatement, StatementGenerator
from repro.testing.oracle import (
    ChaosReport,
    ChaosRunner,
    DifferentialRunner,
    Divergence,
    RecoveryReport,
    RecoveryRunner,
    RunReport,
    conformance_problems,
    default_lane_factory,
)
from repro.testing.shrinker import shrink_stream

__all__ = [
    "GeneratedStatement",
    "StatementGenerator",
    "ChaosReport",
    "ChaosRunner",
    "DifferentialRunner",
    "Divergence",
    "RecoveryReport",
    "RecoveryRunner",
    "RunReport",
    "conformance_problems",
    "default_lane_factory",
    "shrink_stream",
]
