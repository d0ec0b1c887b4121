"""Value encoding and layered onion encryption/decryption.

The encryptor turns application values into the per-onion ciphertexts stored
in the anonymised tables (Figure 3) and back.  It owns the per-column crypto
objects (RND, DET, OPE, SEARCH, Paillier, JOIN), all keyed through the key
manager implementing Equation (1), and implements the value encodings:

* integer-kind columns are mapped to unsigned 64-bit values (offset 2^63)
  for RND/DET, to unsigned 32-bit values (offset 2^31) for OPE, and into
  one offset-encoded slot of their table's packed Paillier plaintext for
  HOM (:class:`~repro.crypto.paillier.PackingConfig`);
* text-kind columns are encrypted as UTF-8 bytes; for OPE the first four
  bytes provide a (prefix) order-preserving encoding;
* DECIMAL/FLOAT columns are scaled by 10^4 and treated as integers.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.cache import CryptoCache
from repro.core.joins import JoinManager
from repro.core.onion import EncryptionScheme, Onion
from repro.core.schema import ColumnMeta
from repro.crypto.det import DET, distinct_misses
from repro.crypto.join_adj import (
    ADJ_SIZE,
    JoinCiphertext,
    decrypt_eq_layers,
    encrypt_eq_layers,
)
from repro.crypto.keys import KeyManager
from repro.crypto.ope import OPE
from repro.crypto.paillier import (
    PackingConfig,
    PaillierKeyPair,
    decode_partial_sums,
    is_partial_sum_blob,
)
from repro.crypto.rnd import RND
from repro.crypto.search import SEARCH
from repro.errors import CryptoError, ProxyError
from repro.parallel.jobs import (
    EqDecryptJob,
    EqEncryptJob,
    HomDecryptJob,
    HomEncryptJob,
    RndEncryptJob,
)
from repro.parallel.pool import CryptoWorkerPool, ParallelUnavailable

_INT64_OFFSET = 1 << 63
_INT32_OFFSET = 1 << 31
_DECIMAL_SCALE = 10_000


class Encryptor:
    """Performs all onion-layer encryption and decryption for the proxy.

    There is one encryption path, the column-batch kernels
    (``encrypt_column_values``, ``encrypt_constants_many``,
    ``hom_delta_many``, ``encrypt_hom_group_many``, ``decrypt_column``).
    They compute each distinct value's deterministic layers once through
    the :class:`~repro.core.cache.CryptoCache` memos (§3.5.2), and
    ``execute`` runs them on a batch of one.  A constant or row value bound
    a second time therefore costs one dictionary lookup whether it is a
    ``?`` or a literal, and whether it arrives through ``execute`` or
    ``executemany``; with the cache disabled (Figure 12's Proxy*) both pay
    the full crypto every time.  RND IVs and HOM randomness are always fresh.

    There is one Paillier decryption path, :meth:`hom_plaintexts`: SUM and
    AVG answers, stored Add cells and the old cell of a packed-slot
    rewrite all go through it, so each distinct ciphertext is decrypted at
    most once per call and, with the cache enabled, at most once while it
    stays in the cache's HOM decryption memo.
    """

    def __init__(
        self,
        keys: KeyManager,
        joins: JoinManager,
        paillier: PaillierKeyPair,
        packing: PackingConfig,
        use_ope_cache: bool = True,
        cache: Optional[CryptoCache] = None,
        pool: Optional[CryptoWorkerPool] = None,
    ):
        self.keys = keys
        self.joins = joins
        self.paillier = paillier
        #: Packed-HOM slot layout (§8.4); the schema's ``hom_slots`` is
        #: ``packing.slots_for(n)``.
        self.packing = packing
        self.cache = cache if cache is not None else CryptoCache(paillier, enabled=use_ope_cache)
        self.use_ope_cache = use_ope_cache
        #: Optional crypto worker pool; batch kernels offload through it when
        #: the batch clears the chunk threshold, and fall back to the serial
        #: in-process code otherwise (or when the pool infrastructure fails).
        self.pool = pool
        self._rnd: dict[tuple, RND] = {}
        self._det: dict[tuple, DET] = {}
        self._ope: dict[tuple, OPE] = {}
        self._search: dict[tuple, SEARCH] = {}
        self._det_join: dict[tuple, DET] = {}

    # ------------------------------------------------------------------
    # Per-column crypto objects
    # ------------------------------------------------------------------
    def _rnd_for(self, column: ColumnMeta, onion: Onion) -> RND:
        cache_key = (column.table, column.name, onion)
        if cache_key not in self._rnd:
            key = self.keys.key_for(column.table, column.name, onion.value, "RND")
            self._rnd[cache_key] = RND(key)
        return self._rnd[cache_key]

    def _det_for(self, column: ColumnMeta) -> DET:
        cache_key = (column.table, column.name)
        if cache_key not in self._det:
            key = self.keys.key_for(column.table, column.name, Onion.EQ.value, "DET")
            self._det[cache_key] = DET(key)
        return self._det[cache_key]

    def _det_join_for(self, column: ColumnMeta) -> DET:
        cache_key = (column.table, column.name)
        if cache_key not in self._det_join:
            self._det_join[cache_key] = DET(self.joins.det_key(column.table, column.name))
        return self._det_join[cache_key]

    def _ope_for(self, column: ColumnMeta) -> OPE:
        cache_key = (column.table, column.name)
        if cache_key not in self._ope:
            if column.ope_join_group is not None:
                key = self.keys.key_for(
                    "__ope_join__", column.ope_join_group, Onion.ORD.value, "OPE"
                )
            else:
                key = self.keys.key_for(column.table, column.name, Onion.ORD.value, "OPE")
            ope = OPE(key, cache=self.use_ope_cache)
            self._ope[cache_key] = ope
            self.cache.register_ope(ope)
        return self._ope[cache_key]

    def _search_for(self, column: ColumnMeta) -> SEARCH:
        cache_key = (column.table, column.name)
        if cache_key not in self._search:
            key = self.keys.key_for(column.table, column.name, Onion.SEARCH.value, "SEARCH")
            search = SEARCH(key, cache=self.cache.enabled)
            self._search[cache_key] = search
            self.cache.register_search(search)
        return self._search[cache_key]

    # ------------------------------------------------------------------
    # Value encodings
    # ------------------------------------------------------------------
    @staticmethod
    def _to_int(column: ColumnMeta, value: Any) -> int:
        if isinstance(value, bool):
            return int(value)
        if column.data_type.name in ("DECIMAL", "NUMERIC", "FLOAT", "DOUBLE", "REAL"):
            return int(round(float(value) * _DECIMAL_SCALE))
        return int(value)

    @staticmethod
    def _from_int(column: ColumnMeta, encoded: int) -> Any:
        if column.data_type.name in ("DECIMAL", "NUMERIC", "FLOAT", "DOUBLE", "REAL"):
            return encoded / _DECIMAL_SCALE
        return encoded

    def _to_bytes(self, column: ColumnMeta, value: Any) -> bytes:
        if column.kind == "integer":
            return (self._to_int(column, value) + _INT64_OFFSET).to_bytes(8, "big")
        if isinstance(value, bytes):
            return value
        return str(value).encode("utf-8")

    def _from_bytes(self, column: ColumnMeta, data: bytes) -> Any:
        if column.kind == "integer":
            return self._from_int(column, int.from_bytes(data, "big") - _INT64_OFFSET)
        if column.kind == "binary":
            return data
        return data.decode("utf-8")

    def _to_ope_int(self, column: ColumnMeta, value: Any) -> int:
        if column.kind == "integer":
            encoded = self._to_int(column, value) + _INT32_OFFSET
            return min(max(encoded, 0), (1 << 32) - 1)
        raw = value if isinstance(value, bytes) else str(value).encode("utf-8")
        padded = raw[:4].ljust(4, b"\x00")
        return int.from_bytes(padded, "big")

    def _from_ope_int(self, column: ColumnMeta, encoded: int) -> Any:
        if column.kind == "integer":
            return self._from_int(column, encoded - _INT32_OFFSET)
        return encoded.to_bytes(4, "big").rstrip(b"\x00").decode("utf-8", "replace")

    # ------------------------------------------------------------------
    # Column-batch kernels (every statement; ``execute`` is a batch of one)
    # ------------------------------------------------------------------
    def _eq_deterministic_many(
        self, column: ColumnMeta, values: Sequence[Any], level: EncryptionScheme
    ) -> list:
        """The deterministic part of the Eq onion for a column of values.

        Returns JOIN-layer ciphertexts when ``level`` is JOIN, DET-layer
        ciphertexts otherwise (the RND layer, being probabilistic, is applied
        by the caller).  Each distinct plaintext is computed once; the memo
        persists across batches and statements via the cache subsystem.
        """
        want_join = level is EncryptionScheme.JOIN
        memo = self.cache.eq_encrypt_memo(column.table, column.name, want_join)
        counted = memo is not None  # the Proxy* ablation reports no activity
        local = memo if memo is not None else {}
        plaintexts = [self._to_bytes(column, value) for value in values]
        missing = distinct_misses(local, plaintexts)
        offloaded = False
        if missing:
            offloaded = self._eq_encrypt_parallel(column, missing, local, want_join, counted)
            if not offloaded:
                encrypt_eq_layers(
                    local,
                    missing,
                    self.joins.join_adj_for(column.table, column.name),
                    self._det_join_for(column),
                    None if want_join else self._det_for(column),
                )
        if counted:
            # An offloaded batch's missing values are counted by the workers
            # (as worker hits/misses); counting them here too would make
            # det_misses_total double-count every offloaded value.
            self.cache.det_hits += len(plaintexts) - len(missing)
            if not offloaded:
                self.cache.det_misses += len(missing)
        return [local[plaintext] for plaintext in plaintexts]

    # ------------------------------------------------------------------
    # Worker-pool offload helpers
    # ------------------------------------------------------------------
    def _pool_usable(self, batch_size: int) -> bool:
        return self.pool is not None and self.pool.usable(batch_size)

    def _eq_encrypt_parallel(
        self,
        column: ColumnMeta,
        missing: list[bytes],
        local: dict,
        want_join: bool,
        counted: bool,
    ) -> bool:
        """Offload the deterministic Eq layers of ``missing`` to the pool.

        Fills ``local`` (the shared memo or the per-batch dict) exactly as
        the serial path would and returns True; returns False when the pool
        is absent, the batch is under the chunk threshold, or the pool
        infrastructure failed (the caller then runs the serial path).
        """
        if not self._pool_usable(len(missing)):
            return False
        table, name = column.table, column.name
        adj_scalar = self.joins.effective_scalar(table, name)
        adj_prf_key = self.joins.join_adj_for(table, name).prf_key
        det_join_key = self.joins.det_key(table, name)
        det_key = self.keys.key_for(table, name, Onion.EQ.value, "DET")
        try:
            entries = self.pool.scatter(
                missing,
                lambda chunk: EqEncryptJob(
                    table=table,
                    column=name,
                    adj_scalar=adj_scalar,
                    adj_prf_key=adj_prf_key,
                    det_join_key=det_join_key,
                    det_key=det_key,
                    want_det=not want_join,
                    use_memo=counted,
                    plaintexts=chunk,
                ),
            )
        except ParallelUnavailable:
            return False
        local.update(zip(missing, entries))
        return True

    def _hom_encrypt_many(self, encoded: list[int]) -> list[int]:
        """Paillier-encrypt a dense (NULL-free) column, pool-aware.

        The serial path with a warm randomness pool is a couple of modular
        multiplications per value -- cheaper than any IPC -- so the batch is
        offloaded only when the pre-computed pool cannot cover it and the
        workers would genuinely absorb ``r^n`` exponentiations.
        """
        if (
            self._pool_usable(len(encoded))
            and self.paillier.randomness_pool_size < len(encoded)
        ):
            try:
                return self.pool.scatter(encoded, lambda chunk: HomEncryptJob(values=chunk))
            except ParallelUnavailable:
                pass
        return self.paillier.encrypt_many(encoded)

    def _hom_decrypt_many(self, ciphertexts: list[int]) -> list[int]:
        """Paillier-decrypt distinct ciphertexts, pool-aware."""
        if self._pool_usable(len(ciphertexts)):
            try:
                return self.pool.scatter(
                    ciphertexts, lambda chunk: HomDecryptJob(ciphertexts=chunk)
                )
            except ParallelUnavailable:
                pass
        decrypt = self.paillier.decrypt
        return [decrypt(ciphertext) for ciphertext in ciphertexts]

    def _eq_decrypt_parallel(
        self,
        column: ColumnMeta,
        level: EncryptionScheme,
        dense: list,
        dense_ivs: list,
        local: dict,
        counted: bool,
    ) -> Optional[list]:
        """Offload the Eq decrypt path for a (NULL-free) ciphertext column.

        Returns the decoded plaintext values, or None when the batch should
        run serially.  At the RND level every ciphertext is unique, so the
        whole column ships (the workers strip RND, then memoise on the DET
        bytes, and the parent memo is filled from the returned pairs -- the
        same keys the serial path uses).  At DET/JOIN level only parent-memo
        misses ship, deduplicated.
        """
        if self.pool is None:
            return None
        table, name = column.table, column.name
        det_key = self.keys.key_for(table, name, Onion.EQ.value, "DET")
        det_join_key = self.joins.det_key(table, name)
        if level is EncryptionScheme.RND:
            if not self._pool_usable(len(dense)):
                return None
            if any(iv is None for iv in dense_ivs):
                raise CryptoError("decrypting the RND layer requires the row IV")
            rnd_key = self._rnd_for(column, Onion.EQ).key
            try:
                pairs = self.pool.scatter(
                    list(zip(dense, dense_ivs)),
                    lambda chunk: EqDecryptJob(
                        table=table,
                        column=name,
                        det_key=det_key,
                        det_join_key=det_join_key,
                        strip_det=True,
                        use_memo=counted,
                        ciphertexts=[ct for ct, _ in chunk],
                        rnd_key=rnd_key,
                        ivs=[iv for _, iv in chunk],
                    ),
                )
            except ParallelUnavailable:
                return None
            plains = []
            for det_ct, plaintext in pairs:
                hit = local.get(det_ct)
                if hit is None:
                    hit = local[det_ct] = self._from_bytes(column, plaintext)
                plains.append(hit)
            return plains
        # DET/JOIN level: the parent memo already holds repeated ciphertexts.
        missing = distinct_misses(local, dense)
        if not missing or not self._pool_usable(len(missing)):
            return None
        try:
            pairs = self.pool.scatter(
                missing,
                lambda chunk: EqDecryptJob(
                    table=table,
                    column=name,
                    det_key=det_key,
                    det_join_key=det_join_key,
                    strip_det=level is EncryptionScheme.DET,
                    use_memo=counted,
                    ciphertexts=chunk,
                ),
            )
        except ParallelUnavailable:
            return None
        for det_ct, plaintext in pairs:
            local[det_ct] = self._from_bytes(column, plaintext)
        if counted:
            # Every occurrence not shipped to a worker was served from the
            # parent memo (including duplicates of just-filled entries); the
            # shipped ones are counted worker-side, so hits + misses across
            # both sides still sums to len(dense).
            self.cache.det_hits += len(dense) - len(missing)
        return [local[ciphertext] for ciphertext in dense]

    def encrypt_column_values(
        self, column: ColumnMeta, values: Sequence[Any]
    ) -> dict[str, list]:
        """Encrypt one application column of a row batch into its onion parts.

        Returns ``{anon_column_name: [cell, ...]}`` with one list entry per
        input value (NULLs stay NULL in every part, §3.3; the Add part lives
        in the table's shared group cell, see :meth:`encrypt_hom_group_many`).
        Only the layers not yet stripped from each onion are applied, as in
        §3.3's write queries.  Deterministic layers are deduplicated; RND
        randomness stays fresh per row.
        """
        result: dict[str, list] = {}
        if column.plaintext:
            return result
        count = len(values)
        non_null = [i for i, v in enumerate(values) if v is not None]
        ivs: list = [None] * count
        if column.iv_column:
            for i, iv in zip(non_null, RND.generate_ivs(len(non_null))):
                ivs[i] = iv
            result[column.iv_column] = ivs
        dense = [values[i] for i in non_null]
        for onion, state in column.onions.items():
            if onion is Onion.ADD:
                continue  # produced per group via encrypt_hom_group_many
            cells = self._encrypt_onion_column(
                column, onion, state.level, dense, [ivs[i] for i in non_null]
            )
            sparse: list = [None] * count
            for i, cell in zip(non_null, cells):
                sparse[i] = cell
            result[state.anon_name] = sparse
        return result

    def _encrypt_onion_column(
        self,
        column: ColumnMeta,
        onion: Onion,
        level: EncryptionScheme,
        values: Sequence[Any],
        ivs: Sequence[Optional[bytes]],
    ) -> list:
        """Encrypt a (NULL-free) column of values for one onion at ``level``."""
        if onion is Onion.EQ:
            dets = self._eq_deterministic_many(column, values, level)
            if level is EncryptionScheme.RND:
                if any(iv is None for iv in ivs):
                    raise CryptoError("RND encryption requires an IV")
                rnd = self._rnd_for(column, Onion.EQ)
                if self._pool_usable(len(dets)):
                    try:
                        return self.pool.scatter(
                            list(zip(dets, ivs)),
                            lambda chunk: RndEncryptJob(key=rnd.key, pairs=chunk),
                        )
                    except ParallelUnavailable:
                        pass
                return rnd.encrypt_bytes_many(dets, ivs)
            if level in (EncryptionScheme.DET, EncryptionScheme.JOIN):
                return dets
            raise ProxyError(f"invalid Eq onion level {level}")
        if onion is Onion.ORD:
            ope = self._ope_for(column)
            ope_cts = ope.encrypt_many([self._to_ope_int(column, v) for v in values])
            if level in (EncryptionScheme.OPE, EncryptionScheme.OPE_JOIN):
                return ope_cts
            if level is EncryptionScheme.RND:
                if any(iv is None for iv in ivs):
                    raise CryptoError("RND encryption requires an IV")
                return self._rnd_for(column, Onion.ORD).encrypt_int_many(ope_cts, ivs)
            raise ProxyError(f"invalid Ord onion level {level}")
        if onion is Onion.SEARCH:
            texts = [v if isinstance(v, str) else str(v) for v in values]
            return [
                ct.serialize() for ct in self._search_for(column).encrypt_many(texts)
            ]
        raise ProxyError(f"unknown onion {onion}")

    def encrypt_constants_many(
        self,
        column: ColumnMeta,
        onion: Onion,
        level: EncryptionScheme,
        values: Sequence[Any],
    ) -> list:
        """Encrypt query constants (one per row) for comparison at ``level``."""
        count = len(values)
        non_null = [i for i, v in enumerate(values) if v is not None]
        dense = [values[i] for i in non_null]
        if onion is Onion.EQ:
            if level not in (EncryptionScheme.DET, EncryptionScheme.JOIN):
                raise ProxyError("equality constants require the DET or JOIN layer")
            cells = self._eq_deterministic_many(column, dense, level)
        elif onion is Onion.ORD:
            cells = self._ope_for(column).encrypt_many(
                [self._to_ope_int(column, v) for v in dense]
            )
        else:
            raise ProxyError(f"constants cannot be encrypted for onion {onion}")
        sparse: list = [None] * count
        for i, cell in zip(non_null, cells):
            sparse[i] = cell
        return sparse

    def hom_delta_many(self, column: ColumnMeta, deltas: Sequence[Any]) -> list:
        """Paillier encryptions of the increments of ``SET c = c + k``.

        Each delta is pre-shifted into the column's slot of its group cell.
        """
        n = self.paillier.public.n
        return self._hom_encrypt_many(
            [
                self.packing.encode_delta(self._to_int(column, d), column.hom_slot, n)
                for d in deltas
            ]
        )

    # ------------------------------------------------------------------
    # Packed HOM groups (§8.4): one ciphertext per row per group
    # ------------------------------------------------------------------
    def _encode_group_row(
        self, members: Sequence[ColumnMeta], values: Sequence[Any]
    ) -> int:
        return self.packing.encode_cell(
            [
                None if value is None else self._to_int(column, value)
                for column, value in zip(members, values)
            ]
        )

    def encrypt_hom_group_many(
        self, members: Sequence[ColumnMeta], rows: Sequence[Sequence[Any]]
    ) -> list[int]:
        """Encrypt each row's HOM-group members into a single packed cell.

        A row is slot-ordered and may contain ``None`` (SQL NULL, stored as a
        count-0 slot); the whole group costs one Paillier encryption per row.
        """
        return self._hom_encrypt_many(
            [self._encode_group_row(members, row) for row in rows]
        )

    def hom_group_rewrite(
        self,
        assignments: Sequence[tuple[ColumnMeta, Any]],
        old_ciphertext: int,
    ) -> int:
        """Overwrite some slots of a packed cell, preserving the others.

        The proxy-side half of an absolute ``SET member = v`` on a packed
        column (§3.3's SELECT-then-UPDATE strategy): decrypt the old cell,
        splice the reassigned slots in plaintext, re-encrypt with fresh
        randomness.  Slots not assigned -- including any pending homomorphic
        increments folded into them -- survive bit-exactly.
        """
        config = self.packing
        (plaintext,) = self.hom_plaintexts([old_ciphertext])[0]
        width = config.slot_width
        for column, value in assignments:
            slot = column.hom_slot
            plaintext &= ~(((1 << width) - 1) << (slot * width))
            if value is not None:
                plaintext |= config.encode_cell(
                    [None] * slot + [self._to_int(column, value)]
                )
        return self.paillier.encrypt(plaintext)

    # ------------------------------------------------------------------
    # HOM decryption (the one Paillier decryption path)
    # ------------------------------------------------------------------
    def hom_plaintexts(self, values: Sequence[Any]) -> list:
        """Packed Paillier plaintexts of HOM values, one entry per value.

        A value is NULL, a packed ciphertext, or a multi-chunk PSUM blob of
        them (:func:`~repro.crypto.paillier.encode_partial_sums`); its entry
        is None or the tuple of its chunks' plaintexts.  Each distinct
        ciphertext is looked up in the cache's HOM decryption memo and only
        the misses are decrypted, once each, so a SUM over rows nobody has
        written since costs one dictionary lookup.  With the cache disabled
        (Figure 12's Proxy*) only the dedupe within this call applies.
        """
        chunked = [
            None if value is None
            else decode_partial_sums(bytes(value)) if is_partial_sum_blob(value)
            else (value,)
            for value in values
        ]
        memo = self.cache.hom_decrypt_memo()
        plain: dict[int, Optional[int]] = {}
        missing: list[int] = []
        for chunks in chunked:
            for ciphertext in chunks or ():
                if ciphertext not in plain:
                    hit = None if memo is None else memo.get(ciphertext)
                    plain[ciphertext] = hit
                    if hit is None:
                        missing.append(ciphertext)
        if missing:
            for ciphertext, plaintext in zip(missing, self._hom_decrypt_many(missing)):
                plain[ciphertext] = plaintext
                if memo is not None:
                    memo.put(ciphertext, plaintext)
        if memo is not None:
            self.cache.hom_decrypt_hits += len(plain) - len(missing)
            self.cache.hom_decrypt_misses += len(missing)
        return [
            None if chunks is None else tuple(plain[ciphertext] for ciphertext in chunks)
            for chunks in chunked
        ]

    def _hom_slot_sums(self, column: ColumnMeta, values: Sequence[Any]) -> list:
        """``(count, sum)`` of ``column``'s slot per HOM aggregate, added
        across its chunks; None for a NULL aggregate."""
        decode, slot = self.packing.decode_slot, column.hom_slot
        out = []
        for plaintexts in self.hom_plaintexts(values):
            if plaintexts is None:
                out.append(None)
                continue
            count = total = 0
            for plaintext in plaintexts:
                part_count, part_total = decode(plaintext, slot)
                count += part_count
                total += part_total
            out.append((count, total))
        return out

    def decrypt_hom_sums(self, column: ColumnMeta, ciphertexts: Sequence[Any]) -> list:
        """Decrypt results of the Paillier SUM aggregate UDF, one per row.

        SUM over rows whose member is always NULL is NULL (slot count 0),
        even though the shared packed cells themselves are never NULL.
        """
        return [
            None if sums is None or sums[0] == 0 else self._from_int(column, sums[1])
            for sums in self._hom_slot_sums(column, ciphertexts)
        ]

    def decrypt_hom_avgs(self, column: ColumnMeta, ciphertexts: Sequence[Any]) -> list:
        """AVG results: the divisor comes from the slot.

        ``COUNT(shared_group_column)`` would count rows where *any* member is
        non-NULL, so AVG derives the divisor from the slot's count subfield
        instead of a separate COUNT item.
        """
        return [
            None if sums is None or sums[0] == 0
            else self._from_int(column, sums[1]) / sums[0]
            for sums in self._hom_slot_sums(column, ciphertexts)
        ]

    # ------------------------------------------------------------------
    # SEARCH tokens (query rewrite path)
    # ------------------------------------------------------------------
    def search_token(self, column: ColumnMeta, word: str):
        """Produce the SEARCH token handed to the DBMS for a LIKE keyword."""
        return self._search_for(column).token(word)

    # ------------------------------------------------------------------
    # Decryption (result path)
    # ------------------------------------------------------------------
    def decrypt_value(
        self,
        column: ColumnMeta,
        onion: Onion,
        level: EncryptionScheme,
        ciphertext: Any,
        iv: Optional[bytes] = None,
    ) -> Any:
        """Decrypt a result-set value given the onion level it was read at."""
        if ciphertext is None:
            return None
        if onion is Onion.EQ:
            data = ciphertext
            if level is EncryptionScheme.RND:
                if iv is None:
                    raise CryptoError("decrypting the RND layer requires the row IV")
                data = self._rnd_for(column, Onion.EQ).decrypt_bytes(data, iv)
                level = EncryptionScheme.DET
            if level is EncryptionScheme.DET:
                data = self._det_for(column).decrypt_bytes(data)
                level = EncryptionScheme.JOIN
            join_ct = JoinCiphertext.deserialize(data)
            plaintext = self._det_join_for(column).decrypt_bytes(join_ct.det)
            return self._from_bytes(column, plaintext)
        if onion is Onion.ORD:
            value = ciphertext
            if level is EncryptionScheme.RND:
                if iv is None:
                    raise CryptoError("decrypting the RND layer requires the row IV")
                value = self._rnd_for(column, Onion.ORD).decrypt_int(value, iv)
            return self._from_ope_int(column, self._ope_for(column).decrypt(value))
        if onion is Onion.ADD:
            (plaintext,) = self.hom_plaintexts([ciphertext])[0]
            cell = self.packing.decode_cell(plaintext, column.hom_slot)
            return None if cell is None else self._from_int(column, cell)
        if onion is Onion.SEARCH:
            raise ProxyError("SEARCH ciphertexts cannot be decrypted to plaintext")
        raise ProxyError(f"unknown onion {onion}")

    # ------------------------------------------------------------------
    # Column-batch decryption (bulk result path)
    # ------------------------------------------------------------------
    def decrypt_column(
        self,
        column: ColumnMeta,
        onion: Onion,
        level: EncryptionScheme,
        ciphertexts: Sequence[Any],
        ivs: Optional[Sequence[Optional[bytes]]] = None,
    ) -> list:
        """Decrypt one result column; the batch form of :meth:`decrypt_value`.

        Every layer is decrypted a column at a time: the probabilistic RND
        layer as one batched CBC decryption over all rows, the remaining
        deterministic layers once per distinct ciphertext through the cache
        subsystem's decrypt memos (always safe: decryption is a pure function
        of the ciphertext bytes).
        """
        count = len(ciphertexts)
        if ivs is None:
            ivs = [None] * count
        non_null = [i for i, ct in enumerate(ciphertexts) if ct is not None]
        dense = [ciphertexts[i] for i in non_null]
        dense_ivs = [ivs[i] for i in non_null]
        if onion is Onion.EQ:
            memo = self.cache.eq_decrypt_memo(column.table, column.name)
            counted = memo is not None
            local = memo if memo is not None else {}
            plains = self._eq_decrypt_parallel(
                column, level, dense, dense_ivs, local, counted
            )
            if plains is None:
                if level is EncryptionScheme.RND:
                    if any(iv is None for iv in dense_ivs):
                        raise CryptoError("decrypting the RND layer requires the row IV")
                    dense = self._rnd_for(column, Onion.EQ).decrypt_bytes_many(dense, dense_ivs)
                    level = EncryptionScheme.DET
                # The memo's misses are decrypted as one column per layer
                # and memoised only once all of them decoded.
                missing = distinct_misses(local, dense)
                if missing:
                    decoded = [
                        self._from_bytes(column, plaintext)
                        for plaintext in decrypt_eq_layers(
                            missing,
                            self._det_for(column) if level is EncryptionScheme.DET else None,
                            self._det_join_for(column),
                        )
                    ]
                    local.update(zip(missing, decoded))
                if counted:
                    self.cache.det_misses += len(missing)
                    self.cache.det_hits += len(dense) - len(missing)
                plains = [local[data] for data in dense]
        elif onion is Onion.ORD:
            if level is EncryptionScheme.RND:
                if any(iv is None for iv in dense_ivs):
                    raise CryptoError("decrypting the RND layer requires the row IV")
                dense = self._rnd_for(column, Onion.ORD).decrypt_int_many(dense, dense_ivs)
            decrypted = self._ope_for(column).decrypt_many(dense)
            plains = [self._from_ope_int(column, v) for v in decrypted]
        elif onion is Onion.ADD:
            cells = [
                self.packing.decode_cell(plaintexts[0], column.hom_slot)
                for plaintexts in self.hom_plaintexts(dense)
            ]
            plains = [
                None if cell is None else self._from_int(column, cell)
                for cell in cells
            ]
        elif onion is Onion.SEARCH:
            raise ProxyError("SEARCH ciphertexts cannot be decrypted to plaintext")
        else:
            raise ProxyError(f"unknown onion {onion}")
        sparse: list = [None] * count
        for i, value in zip(non_null, plains):
            sparse[i] = value
        return sparse

    # ------------------------------------------------------------------
    # Server-side layer keys (handed out during onion adjustment)
    # ------------------------------------------------------------------
    def layer_key(self, column: ColumnMeta, onion: Onion, layer: EncryptionScheme) -> bytes:
        """The key the proxy sends to the server to strip ``layer``."""
        return self.keys.key_for(column.table, column.name, onion.value, layer.value)

    @staticmethod
    def adj_prefix_size() -> int:
        """Size of the JOIN-ADJ component inside a JOIN ciphertext."""
        return ADJ_SIZE
