"""The unified ciphertext cache subsystem (§3.5.2).

The proxy spends most of its CPU time in deterministic crypto (DET, the
JOIN-ADJ elliptic-curve hash, OPE's lazy function sampling, the SEARCH word
cores) and in Paillier's ``r^n mod n^2`` randomness.  Because DET/OPE/SEARCH
ciphertexts are pure functions of (column key, plaintext), they can be
memoised; HOM randomness can be pre-computed while the proxy is idle.  The
paper sizes the OPE cache at about 3 MB for 30,000 values and reports the
proxy* ablation (Figure 12) with all of this switched off.

:class:`CryptoCache` is the one place all of those caches live:

* the per-column **Eq memos** map plaintext bytes to their JOIN/DET-layer
  ciphertexts (and back), collapsing the expensive deterministic part of the
  Eq onion to one dictionary lookup for repeated values -- for every
  statement: ``execute`` binds a batch of one through the same kernels as
  ``executemany``.  Encrypt memos are invalidated when a JOIN-ADJ re-keying
  (or the ROLLBACK of one) changes the ciphertexts a column stores; decrypt
  memos are pure functions of the ciphertext bytes and stay valid forever;
* the OPE and SEARCH scheme objects created by the encryptor are registered
  here so their cache sizes and hit/miss counters aggregate into one report;
* the **HOM decryption memo** maps a Paillier ciphertext to its packed
  plaintext, so a SUM or AVG over rows nobody has written since -- the same
  product of stored cells, hence the same ciphertext -- is answered with one
  dictionary lookup instead of a CRT decryption.  Like the Eq decrypt memos
  it needs no invalidation: a written row yields a new ciphertext, which
  misses.  It is an LRU of at most :data:`HOM_DECRYPT_MEMO_ENTRIES` entries
  whose byte count is kept as entries come and go;
* the Paillier randomness pool is filled through :meth:`precompute_hom`
  (whose first call also builds the key pair's fixed-base table); pool
  hit/miss counters are reported alongside and both count toward the bytes.

**Byte budget.**  ``estimated_bytes`` is a real measurement: every cache
unit (one per-column memo, one scheme's memo containers, the HOM pool) is
walked with ``sys.getsizeof`` and re-measured only when its entry count has
changed since the last report; the HOM decryption memo, which changes on
every miss, keeps its own running total instead.  When the proxy is
constructed with a ``cache_budget_bytes`` limit, :meth:`enforce_budget` --
called after every statement -- evicts whole units in least-recently-used
order until the measured footprint fits, shedding the HOM pre-computation
last (dropping pooled factors or the fixed-base table costs only future
encryption latency, never a cached ciphertext).  ``evictions``/``evicted_bytes`` count
what was shed.

``proxy.stats`` exposes :meth:`statistics`, and ``proxy.stats.reset()``
clears the counters (never the cached entries themselves).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Optional

from repro.crypto.aes import BATCH_TALLY
from repro.crypto.paillier import PaillierKeyPair

#: Bound on the HOM decryption memo.  A full-width entry under a 1024-bit
#: Paillier key is a 300-byte ciphertext and a 164-byte plaintext, so the
#: full memo stays under 0.5 MiB.
HOM_DECRYPT_MEMO_ENTRIES = 1024


def deep_size(obj, _seen: set | None = None) -> int:
    """Recursive ``sys.getsizeof`` over the container shapes caches hold.

    Walks dicts, lists, tuples, sets and their elements, counting each
    distinct object once (memo values may share key bytes).  This is the
    same walk the accuracy test performs independently over the raw cache
    containers, so ``estimated_bytes`` is measured, not modelled.
    """
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    _seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_size(key, _seen)
            size += deep_size(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_size(item, _seen)
    return size


class HomDecryptMemo:
    """Bounded LRU map from a Paillier ciphertext to its packed plaintext.

    The dict's insertion order is the recency order: a hit moves its entry
    to the end and an insert at the bound drops the first.  ``payload_bytes``
    (keys plus values) is updated on each insert and drop, so measuring the
    memo walks nothing.  Plaintexts are ints, never ``None``, so a ``None``
    lookup result always means a miss.
    """

    __slots__ = ("entries", "payload_bytes")

    def __init__(self) -> None:
        self.entries: dict[int, int] = {}
        self.payload_bytes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, ciphertext: int) -> Optional[int]:
        plaintext = self.entries.pop(ciphertext, None)
        if plaintext is not None:
            self.entries[ciphertext] = plaintext
        return plaintext

    def put(self, ciphertext: int, plaintext: int) -> None:
        """Insert a miss (the caller has just seen ``get`` return None)."""
        entries = self.entries
        if len(entries) >= HOM_DECRYPT_MEMO_ENTRIES:
            oldest = next(iter(entries))
            dropped = entries.pop(oldest)
            self.payload_bytes -= sys.getsizeof(oldest) + sys.getsizeof(dropped)
        entries[ciphertext] = plaintext
        self.payload_bytes += sys.getsizeof(ciphertext) + sys.getsizeof(plaintext)

    @property
    def nbytes(self) -> int:
        return sys.getsizeof(self.entries) + self.payload_bytes

    def clear(self) -> None:
        self.entries.clear()
        self.payload_bytes = 0


@dataclass
class CacheStatistics:
    """Aggregated cache counters reported by the proxy and the benchmarks.

    ``worker_det_hits``/``worker_det_misses`` are the per-worker Eq memo
    counters of the crypto worker pool, merged in as deltas as each parallel
    job completes; ``parallel_jobs`` counts completed pool jobs and
    ``hom_pool_async_refills`` counts background Paillier randomness batches
    that landed in the pool (the asynchronous refill path).
    ``estimated_bytes`` is the measured footprint of all cached entries,
    ``budget_bytes`` the configured ceiling (0 = unlimited), and
    ``evictions``/``evicted_bytes`` what budget enforcement has shed.
    ``hom_decrypt_hits``/``hom_decrypt_misses`` count distinct Paillier
    ciphertexts served by the HOM decryption memo or decrypted, and
    ``hom_decrypt_entries`` is the memo's size.
    """

    det_entries: int = 0
    det_hits: int = 0
    det_misses: int = 0
    ope_entries: int = 0
    ope_hits: int = 0
    ope_misses: int = 0
    search_entries: int = 0
    search_hits: int = 0
    search_misses: int = 0
    hom_pool_remaining: int = 0
    hom_pool_hits: int = 0
    hom_pool_misses: int = 0
    hom_decrypt_entries: int = 0
    hom_decrypt_hits: int = 0
    hom_decrypt_misses: int = 0
    estimated_bytes: int = 0
    budget_bytes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    worker_det_hits: int = 0
    worker_det_misses: int = 0
    parallel_jobs: int = 0
    hom_pool_async_refills: int = 0
    #: Worker-pool health (filled by ProxyStatistics.cache_stats() from the
    #: live pool): lifetime restarts/transport failures/circuit-breaker
    #: openings, and whether the breaker is open right now (serial fallback).
    pool_restarts: int = 0
    pool_failures: int = 0
    pool_circuit_opens: int = 0
    pool_circuit_open: int = 0
    #: AES blocks that went through the column-wide kernel instead of one
    #: ``encrypt_block``/``decrypt_block`` call each, and the kernel passes
    #: that carried them, in this process since the last ``reset()`` (the
    #: in-process DBMS's UDFs and wire channels included; crypto workers are
    #: other processes).  Per-block calls + ``aes_batched_blocks`` is the AES
    #: work done; ``aes_batched_blocks / aes_batch_calls`` the mean pass width.
    aes_batched_blocks: int = 0
    aes_batch_calls: int = 0

    @property
    def det_hits_total(self) -> int:
        """Parent-memo and worker-memo hits combined."""
        return self.det_hits + self.worker_det_hits

    @property
    def det_misses_total(self) -> int:
        return self.det_misses + self.worker_det_misses

    # Legacy field names kept for callers of the pre-unification cache.
    @property
    def ope_cached_values(self) -> int:
        return self.ope_entries

    @property
    def hom_precomputed_remaining(self) -> int:
        return self.hom_pool_remaining

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class CryptoCache:
    """All §3.5.2 ciphertext caches and pre-computation pools of one proxy."""

    def __init__(
        self,
        paillier: PaillierKeyPair,
        enabled: bool = True,
        budget_bytes: Optional[int] = None,
    ):
        self.paillier = paillier
        self.enabled = enabled
        self.budget_bytes = budget_bytes
        self._ope_schemes: list = []
        self._search_schemes: list = []
        #: (table, column) -> (join_layer, {plaintext bytes: ciphertext})
        self._eq_encrypt_memos: dict[tuple[str, str], tuple] = {}
        self._eq_decrypt_memos: dict[tuple[str, str], dict] = {}
        self._hom_decrypt_memo = HomDecryptMemo()
        self.det_hits = 0
        self.det_misses = 0
        self.hom_decrypt_hits = 0
        self.hom_decrypt_misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        # Budget bookkeeping: ``_lru`` orders evictable units (one key per
        # memo dict / scheme) from coldest to hottest; ``_unit_sizes`` maps
        # each unit to its (entry count, measured bytes) at last measurement
        # so an unchanged unit is never re-walked; ``_scheme_activity``
        # snapshots each scheme's hit+miss counter so use between two
        # ``enforce_budget`` calls refreshes its LRU position.
        self._lru: OrderedDict[tuple, None] = OrderedDict()
        self._unit_sizes: dict[tuple, tuple[int, int]] = {}
        self._scheme_activity: dict[tuple, int] = {}
        # Crypto-worker-pool counters, accumulated as per-job deltas (never
        # polled from workers, so pool restarts cannot double-count).  The
        # lock serialises merges from the main thread (scatter) and the
        # pool's result-handler thread (async refills).
        self._worker_counter_lock = threading.Lock()
        self.worker_det_hits = 0
        self.worker_det_misses = 0
        self.parallel_jobs = 0
        self.hom_pool_async_refills = 0
        # The process-wide AES batch tally at the last counter reset.
        self._aes_tally_base = BATCH_TALLY.snapshot()

    # -- scheme registration (done by the encryptor as it creates them) ----
    def register_ope(self, scheme) -> None:
        self._lru[("ope", len(self._ope_schemes))] = None
        self._ope_schemes.append(scheme)

    def register_search(self, scheme) -> None:
        self._lru[("search", len(self._search_schemes))] = None
        self._search_schemes.append(scheme)

    # -- Eq-onion memos ----------------------------------------------------
    def eq_encrypt_memo(self, table: str, column: str, join_layer: bool) -> dict | None:
        """Plaintext-bytes -> ciphertext memo, or None when disabled.

        A column's Eq onion has one deterministic layer in effect at a time
        (DET, or JOIN once a join lowered it -- ``join_layer``), so one
        ciphertext per value is kept; asking for the other layer -- the onion
        was lowered, or a ROLLBACK restored it -- starts the memo afresh.
        """
        if not self.enabled:
            return None
        key = ("eq_enc", table, column)
        entry = self._eq_encrypt_memos.get((table, column))
        if entry is None or entry[0] != join_layer:
            entry = self._eq_encrypt_memos[(table, column)] = (join_layer, {})
            self._unit_sizes.pop(key, None)
        self._lru[key] = None
        self._lru.move_to_end(key)
        return entry[1]

    def eq_decrypt_memo(self, table: str, column: str) -> dict | None:
        """Ciphertext -> decoded-value memo, or None when disabled.

        Decoded values are never ``None`` (NULLs are not encrypted), so a
        ``None`` lookup result always means a miss.
        """
        if not self.enabled:
            return None
        key = ("eq_dec", table, column)
        memo = self._eq_decrypt_memos.get((table, column))
        if memo is None:
            memo = self._eq_decrypt_memos[(table, column)] = {}
        self._lru[key] = None
        self._lru.move_to_end(key)
        return memo

    def hom_decrypt_memo(self) -> HomDecryptMemo | None:
        """Ciphertext -> packed-plaintext memo, or None when disabled."""
        if not self.enabled:
            return None
        key = ("hom_dec",)
        self._lru[key] = None
        self._lru.move_to_end(key)
        return self._hom_decrypt_memo

    def invalidate_eq(self, table: str | None = None, column: str | None = None) -> None:
        """Drop Eq encrypt memos after a JOIN-ADJ re-keying.

        Re-keying rescales the JOIN-ADJ component baked into every stored
        Eq ciphertext, so memoised encryptions no longer match the server's
        data.  Decrypt memos are keyed on the ciphertext bytes themselves
        and remain correct.  With no arguments every column is invalidated
        (used after a transaction rollback rewinds join keys wholesale).
        """
        if table is None:
            self._eq_encrypt_memos.clear()
            for key in [k for k in self._lru if k[0] == "eq_enc"]:
                self._lru.pop(key, None)
                self._unit_sizes.pop(key, None)
            return
        self._eq_encrypt_memos.pop((table, column), None)
        self._lru.pop(("eq_enc", table, column), None)
        self._unit_sizes.pop(("eq_enc", table, column), None)

    # -- HOM pre-computation (§3.5.2) --------------------------------------
    def precompute_hom(self, count: int) -> None:
        """Pre-compute Paillier randomness while the proxy is idle."""
        if self.enabled:
            self.paillier.precompute_randomness(count)

    # -- crypto-worker-pool counter merging --------------------------------
    def absorb_worker_counters(self, delta: dict) -> None:
        """Merge one parallel job's counter delta into the aggregate.

        Called by the worker pool as each job's results are spliced, and --
        for async refill jobs -- from the pool's result-handler thread, so
        the merge takes the counter lock (``+=`` alone is not atomic).
        """
        with self._worker_counter_lock:
            self.worker_det_hits += delta.get("det_hits", 0)
            self.worker_det_misses += delta.get("det_misses", 0)
            self.parallel_jobs += delta.get("jobs", 0)

    def note_async_refill(self) -> None:
        """Count one background HOM refill batch that landed in the pool."""
        with self._worker_counter_lock:
            self.hom_pool_async_refills += 1

    # -- byte accounting and budget enforcement ----------------------------
    def _unit_containers(self, key: tuple) -> tuple[int, tuple]:
        """(entry count, container objects) of one evictable cache unit."""
        kind = key[0]
        if kind == "eq_enc":
            _, memo = self._eq_encrypt_memos.get(key[1:], (False, {}))
            return len(memo), (memo,)
        if kind == "eq_dec":
            memo = self._eq_decrypt_memos.get(key[1:], {})
            return len(memo), (memo,)
        if kind == "hom_dec":
            return len(self._hom_decrypt_memo), (self._hom_decrypt_memo.entries,)
        if kind == "ope":
            scheme = self._ope_schemes[key[1]]
        else:
            scheme = self._search_schemes[key[1]]
        return scheme.cache_size, tuple(scheme.cache_objects())

    def _unit_bytes(self, key: tuple) -> int:
        """Measured bytes of one unit, re-walking only when it grew/shrank."""
        if key[0] == "hom_dec":
            return self._hom_decrypt_memo.nbytes
        count, containers = self._unit_containers(key)
        cached = self._unit_sizes.get(key)
        if cached is not None and cached[0] == count:
            return cached[1]
        seen: set = set()
        size = sum(deep_size(obj, seen) for obj in containers)
        self._unit_sizes[key] = (count, size)
        return size

    def _estimated_bytes(self) -> int:
        total = sum(self._unit_bytes(key) for key in self._lru)
        return total + self.paillier.randomness_pool_bytes

    def _touch_active_schemes(self) -> None:
        """Refresh LRU position of schemes used since the last enforcement.

        The encryptor talks to OPE/SEARCH scheme objects directly, so the
        cache cannot observe their accesses the way it observes Eq memo
        lookups; their hit+miss counters stand in as an activity signal.
        """
        for kind, schemes in (("ope", self._ope_schemes), ("search", self._search_schemes)):
            for index, scheme in enumerate(schemes):
                key = (kind, index)
                activity = scheme.cache_hits + scheme.cache_misses
                if self._scheme_activity.get(key) != activity:
                    self._scheme_activity[key] = activity
                    if key in self._lru:
                        self._lru.move_to_end(key)

    def _evict_unit(self, key: tuple) -> int:
        """Drop one unit's entries; returns the bytes reclaimed."""
        size = self._unit_bytes(key)
        kind = key[0]
        if kind == "eq_enc":
            self._eq_encrypt_memos.pop(key[1:], None)
        elif kind == "eq_dec":
            self._eq_decrypt_memos.pop(key[1:], None)
        elif kind == "hom_dec":
            self._hom_decrypt_memo.clear()
        elif kind == "ope":
            self._ope_schemes[key[1]].clear_cache()
        else:
            self._search_schemes[key[1]].clear_cache()
        if kind in ("ope", "search"):
            # Schemes stay registered (the encryptor holds them); an empty
            # unit re-enters LRU rotation as it refills.
            self._unit_sizes.pop(key, None)
            self._lru.move_to_end(key)
        else:
            self._lru.pop(key, None)
            self._unit_sizes.pop(key, None)
        self.evictions += 1
        self.evicted_bytes += size
        return size

    def enforce_budget(self) -> None:
        """Evict least-recently-used units until the footprint fits.

        Memos go first, coldest unit first; the HOM pre-computation (pooled
        factors, then the fixed-base table) is shed last because dropping it
        never discards a cached ciphertext -- the next INSERTs just pay more
        for their randomness inline.
        """
        if self.budget_bytes is None:
            return
        self._touch_active_schemes()
        total = self._estimated_bytes()
        if total <= self.budget_bytes:
            return
        for key in list(self._lru):
            if total <= self.budget_bytes:
                return
            _, containers = self._unit_containers(key)
            if not any(len(c) for c in containers):
                continue
            total -= self._evict_unit(key)
        excess = total - self.budget_bytes
        if excess > 0:
            released = self.paillier.shed_randomness(excess)
            if released:
                self.evictions += 1
                self.evicted_bytes += released

    # -- reporting ---------------------------------------------------------
    def statistics(self) -> CacheStatistics:
        det_entries = sum(len(m) for _, m in self._eq_encrypt_memos.values())
        det_entries += sum(len(m) for m in self._eq_decrypt_memos.values())
        ope_entries = sum(s.cache_size for s in self._ope_schemes)
        search_entries = sum(s.cache_size for s in self._search_schemes)
        hom_remaining = self.paillier.randomness_pool_size
        batched_blocks, batch_calls = BATCH_TALLY.snapshot()
        return CacheStatistics(
            det_entries=det_entries,
            det_hits=self.det_hits,
            det_misses=self.det_misses,
            ope_entries=ope_entries,
            ope_hits=sum(s.cache_hits for s in self._ope_schemes),
            ope_misses=sum(s.cache_misses for s in self._ope_schemes),
            search_entries=search_entries,
            search_hits=sum(s.cache_hits for s in self._search_schemes),
            search_misses=sum(s.cache_misses for s in self._search_schemes),
            hom_pool_remaining=hom_remaining,
            hom_pool_hits=self.paillier.pool_hits,
            hom_pool_misses=self.paillier.pool_misses,
            hom_decrypt_entries=len(self._hom_decrypt_memo),
            hom_decrypt_hits=self.hom_decrypt_hits,
            hom_decrypt_misses=self.hom_decrypt_misses,
            worker_det_hits=self.worker_det_hits,
            worker_det_misses=self.worker_det_misses,
            parallel_jobs=self.parallel_jobs,
            hom_pool_async_refills=self.hom_pool_async_refills,
            estimated_bytes=self._estimated_bytes(),
            budget_bytes=self.budget_bytes or 0,
            evictions=self.evictions,
            evicted_bytes=self.evicted_bytes,
            aes_batched_blocks=batched_blocks - self._aes_tally_base[0],
            aes_batch_calls=batch_calls - self._aes_tally_base[1],
        )

    def reset_counters(self) -> None:
        """Zero every hit/miss counter (entries and pools are kept).

        The per-worker counters accumulated from the crypto pool are part of
        the aggregate and reset with it; a pool restart afterwards starts
        from zero again because only per-job deltas are ever absorbed.
        Eviction counters are lifetime totals and reset with the rest.
        """
        self.det_hits = 0
        self.det_misses = 0
        self.hom_decrypt_hits = 0
        self.hom_decrypt_misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self._aes_tally_base = BATCH_TALLY.snapshot()
        with self._worker_counter_lock:
            self.worker_det_hits = 0
            self.worker_det_misses = 0
            self.parallel_jobs = 0
            self.hom_pool_async_refills = 0
        for scheme in self._ope_schemes:
            scheme.reset_counters()
        for scheme in self._search_schemes:
            scheme.reset_counters()
        self.paillier.reset_counters()

    def clear(self) -> None:
        """Drop every cached entry (counters are kept; use reset_counters)."""
        self._eq_encrypt_memos.clear()
        self._eq_decrypt_memos.clear()
        self._hom_decrypt_memo.clear()
        self._unit_sizes.clear()
        for key in [k for k in self._lru if k[0] in ("eq_enc", "eq_dec", "hom_dec")]:
            del self._lru[key]
        for scheme in self._ope_schemes:
            scheme.clear_cache()
        for scheme in self._search_schemes:
            scheme.clear_cache()
