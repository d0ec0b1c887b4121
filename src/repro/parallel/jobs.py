"""Picklable crypto job descriptors and the worker-side executor.

The proxy's hot batch kernels -- the Eq onion's JOIN-ADJ elliptic-curve hash
plus CMC-AES layers, the RND CBC layer, and Paillier encryption/decryption --
are pure functions of (key material, input bytes).  That makes them safe to
ship to another process: each job descriptor below carries the *derived*
per-column keys (never the master key) and a column of inputs, and returns a
column of outputs plus a small counter delta that the parent merges into
:meth:`repro.core.cache.CryptoCache` statistics.

Workers are long-lived: :func:`initialize_worker` runs once per process,
rebuilds the Paillier key pair and warms the import-time precomputations
(the ECC fixed-base comb table, the AES T-tables and the lane masks of the
batched AES kernel, all built when the crypto modules are imported), and
sets up the per-worker ciphertext memos.  Per-worker Eq memos are keyed on
the current JOIN-ADJ scalar, so a server-side re-keying naturally stops
hitting stale entries -- and a transaction rollback that *restores* a previous scalar
starts hitting the old entries again, exactly like the parent-side cache.

Everything here must stay importable without the rest of the proxy loaded:
with the ``spawn`` start method each worker re-imports this module and the
crypto layer from scratch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto import ecc  # noqa: F401  (imported for its comb table)
from repro.crypto.det import DET, distinct_misses
from repro.crypto.join_adj import JoinAdj, decrypt_eq_layers, encrypt_eq_layers
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.rnd import RND

#: Per-worker Eq memos are cleared once they exceed this many entries so a
#: long-lived pool cannot grow without bound (the parent-side memos are the
#: primary cache; worker memos only catch re-sent misses).
MEMO_CAP = 1 << 16


@dataclass(frozen=True)
class WorkerInit:
    """Initialization payload sent to every worker exactly once.

    Carries the Paillier key numbers (the proxy trusts its own workers with
    the factors, enabling the CRT fast paths) and optionally a directory
    into which the worker dumps a cProfile at exit
    (``profile_hotpaths.py --workers N``).
    """

    paillier_n: int
    paillier_g: int
    paillier_lam: int = 0
    paillier_mu: int = 0
    paillier_p: int = 0
    paillier_q: int = 0
    profile_dir: Optional[str] = None

    @classmethod
    def from_keypair(
        cls, keypair: PaillierKeyPair, profile_dir: Optional[str] = None
    ) -> "WorkerInit":
        return cls(
            paillier_n=keypair.public.n,
            paillier_g=keypair.public.g,
            paillier_lam=keypair.private.lam,
            paillier_mu=keypair.private.mu,
            paillier_p=keypair.private.p,
            paillier_q=keypair.private.q,
            profile_dir=profile_dir,
        )


class WorkerState:
    """Everything one worker process keeps across jobs."""

    def __init__(self, init: WorkerInit):
        self.paillier = PaillierKeyPair(
            PaillierPublicKey(init.paillier_n, init.paillier_g),
            PaillierPrivateKey(
                init.paillier_lam, init.paillier_mu, init.paillier_p, init.paillier_q
            ),
        )
        # Build the fixed-base randomness table now (zero pooled factors):
        # offloaded HOM encryptions draw their randomness inline, and without
        # the table a worker would pay ten times what the parent does.
        self.paillier.precompute_randomness(0)
        self._det: dict[bytes, DET] = {}
        self._rnd: dict[bytes, RND] = {}
        # (table, column, adj_scalar, want_det) -> {plaintext: ciphertext}
        self.eq_encrypt_memos: dict[tuple, dict] = {}
        # (table, column) -> {det_layer_ct: plaintext}
        self.eq_decrypt_memos: dict[tuple, dict] = {}

    def det(self, key: bytes) -> DET:
        scheme = self._det.get(key)
        if scheme is None:
            scheme = self._det[key] = DET(key)
        return scheme

    def rnd(self, key: bytes) -> RND:
        scheme = self._rnd.get(key)
        if scheme is None:
            scheme = self._rnd[key] = RND(key)
        return scheme

    def memo(self, memos: dict[tuple, dict], key: tuple) -> dict:
        memo = memos.get(key)
        if memo is None:
            memo = memos[key] = {}
        elif len(memo) > MEMO_CAP:
            memo.clear()
        return memo


_STATE: Optional[WorkerState] = None


def initialize_worker(init: WorkerInit) -> None:
    """Pool initializer: build the per-worker state, optionally profiling."""
    global _STATE
    _STATE = WorkerState(init)
    if init.profile_dir:
        import cProfile

        from multiprocessing import util

        profiler = cProfile.Profile()
        profiler.enable()
        # Workers exit through os._exit (atexit never runs); multiprocessing
        # finalizers do run, so the dump is registered as one.
        util.Finalize(None, _dump_profile, args=(profiler, init.profile_dir),
                      exitpriority=10)


def _dump_profile(profiler, profile_dir: str) -> None:  # pragma: no cover - subprocess
    profiler.disable()
    profiler.dump_stats(os.path.join(profile_dir, f"worker-{os.getpid()}.prof"))


def run_job(job) -> tuple[list, dict]:
    """The mapped entry point: execute one job against the worker state."""
    return job.run(_STATE)


# ---------------------------------------------------------------------------
# job descriptors (one per scheme kernel)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EqEncryptJob:
    """Deterministic Eq-onion layers for a column chunk of plaintext bytes.

    Returns the ciphertexts aligned with ``plaintexts``: the serialised
    ``JOIN-ADJ || DET`` ciphertext or, when ``want_det``, the DET layer over
    it -- composed by the same :func:`encrypt_eq_layers` the serial path
    runs.  The worker memo is keyed on the current JOIN-ADJ scalar (and the
    layer) so re-keyed columns never hit stale entries.
    """

    table: str
    column: str
    adj_scalar: int
    adj_prf_key: bytes
    det_join_key: bytes
    det_key: bytes
    want_det: bool
    use_memo: bool
    plaintexts: list = field(hash=False)

    def run(self, state: WorkerState) -> tuple[list, dict]:
        memo = (
            state.memo(
                state.eq_encrypt_memos,
                (self.table, self.column, self.adj_scalar, self.want_det),
            )
            if self.use_memo
            else {}
        )
        missing = distinct_misses(memo, self.plaintexts)
        if missing:
            encrypt_eq_layers(
                memo,
                missing,
                JoinAdj(self.adj_scalar, self.adj_prf_key),
                state.det(self.det_join_key),
                state.det(self.det_key) if self.want_det else None,
            )
        counters = (
            {"det_hits": len(self.plaintexts) - len(missing), "det_misses": len(missing)}
            if self.use_memo
            else {}
        )
        return [memo[plaintext] for plaintext in self.plaintexts], counters


@dataclass(frozen=True)
class EqDecryptJob:
    """Invert the Eq onion for a column chunk of ciphertexts.

    Strips the per-row RND layer first when ``rnd_key`` is given (``ivs``
    aligned with ``ciphertexts``), then the DET layer when ``strip_det``,
    and finally decrypts the JOIN ciphertext's DET component.  Returns
    ``[(det_layer_ct, plaintext_bytes), ...]`` so the parent can key its own
    decrypt memo exactly as the serial path does (on the post-RND bytes).
    """

    table: str
    column: str
    det_key: bytes
    det_join_key: bytes
    strip_det: bool
    use_memo: bool
    ciphertexts: list = field(hash=False)
    rnd_key: Optional[bytes] = None
    ivs: Optional[list] = None

    def run(self, state: WorkerState) -> tuple[list, dict]:
        data = self.ciphertexts
        if self.rnd_key is not None:
            data = state.rnd(self.rnd_key).decrypt_bytes_many(data, self.ivs)
        memo = (
            state.memo(state.eq_decrypt_memos, (self.table, self.column))
            if self.use_memo
            else {}
        )
        missing = distinct_misses(memo, data)
        if missing:
            memo.update(
                zip(
                    missing,
                    decrypt_eq_layers(
                        missing,
                        state.det(self.det_key) if self.strip_det else None,
                        state.det(self.det_join_key),
                    ),
                )
            )
        counters = (
            {"det_hits": len(data) - len(missing), "det_misses": len(missing)}
            if self.use_memo
            else {}
        )
        return [(ciphertext, memo[ciphertext]) for ciphertext in data], counters


@dataclass(frozen=True)
class RndEncryptJob:
    """Apply the RND CBC layer to ``[(plaintext, iv), ...]`` pairs."""

    key: bytes
    pairs: list = field(hash=False)

    def run(self, state: WorkerState) -> tuple[list, dict]:
        rnd = state.rnd(self.key)
        return (
            rnd.encrypt_bytes_many([p for p, _ in self.pairs], [iv for _, iv in self.pairs]),
            {},
        )


@dataclass(frozen=True)
class HomEncryptJob:
    """Paillier-encrypt a chunk of integers (randomness computed inline).

    Workers keep no pool of ready factors; they draw one per value from
    their fixed-base table.  The parent only offloads when its own pool
    cannot cover the batch, so the serial warm-pool path stays the fast one
    for small batches.
    """

    values: list = field(hash=False)

    def run(self, state: WorkerState) -> tuple[list, dict]:
        return [state.paillier.encrypt(value) for value in self.values], {}


@dataclass(frozen=True)
class HomDecryptJob:
    """Paillier-decrypt a chunk of ciphertext integers (CRT fast path)."""

    ciphertexts: list = field(hash=False)

    def run(self, state: WorkerState) -> tuple[list, dict]:
        return [state.paillier.decrypt(ct) for ct in self.ciphertexts], {}


@dataclass(frozen=True)
class HomRandomnessJob:
    """Pre-compute ``count`` Paillier randomness factors.

    The asynchronous pool-refill satellite: the parent appends the returned
    factors to its own randomness pool, so an INSERT burst after exhaustion
    pays inline randomness only until the background batch lands.
    """

    count: int

    def run(self, state: WorkerState) -> tuple[list, dict]:
        keypair = state.paillier
        keypair.precompute_randomness(self.count)
        factors = list(keypair._randomness_pool)
        keypair._randomness_pool.clear()
        return factors, {}
