"""Server-side user-defined functions installed by CryptDB in the DBMS.

The DBMS itself is never modified (§7): every server-side cryptographic
operation is a UDF.  The functions here receive any key material explicitly
as arguments embedded in the rewritten query (exactly like the paper's
``DECRYPT_RND(K, C2-Ord, C2-IV)`` example) and therefore hold no secrets of
their own; the Paillier SUM aggregate closes only over the *public* key.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto import join_adj
from repro.crypto.det import DET
from repro.crypto.paillier import (
    PackingConfig,
    PaillierPublicKey,
    encode_partial_sums,
)
from repro.crypto.rnd import RND
from repro.crypto.search import SEARCH, SearchCiphertext, SearchToken
from repro.sql.engine import Database

# UDF names, referenced by the rewriter when it builds queries.
DECRYPT_RND_EQ = "CRYPTDB_DECRYPT_RND_EQ"
DECRYPT_RND_ORD = "CRYPTDB_DECRYPT_RND_ORD"
DECRYPT_DET_EQ = "CRYPTDB_DECRYPT_DET_EQ"
JOIN_ADJUST = "CRYPTDB_JOIN_ADJUST"
ADJ_PART = "CRYPTDB_ADJ_PART"
SEARCH_MATCH = "CRYPTDB_SEARCH_MATCH"
HOM_ADD_PACKED = "CRYPTDB_HOM_ADD_PACKED"
HOM_SUM = "CRYPTDB_HOM_SUM"


def _decrypt_rnd_eq(key: Optional[bytes], ciphertext: Optional[bytes], iv: Optional[bytes]) -> Any:
    """Strip the RND layer of an Eq onion value (bytes ciphertext)."""
    if ciphertext is None:
        return None
    return RND(key).decrypt_bytes(ciphertext, iv)


def _decrypt_rnd_ord(key: Optional[bytes], ciphertext: Optional[int], iv: Optional[bytes]) -> Any:
    """Strip the RND layer of an Ord onion value (64-bit integer ciphertext)."""
    if ciphertext is None:
        return None
    return RND(key).decrypt_int(ciphertext, iv)


def _decrypt_det_eq(key: Optional[bytes], ciphertext: Optional[bytes]) -> Any:
    """Strip the DET layer of an Eq onion value, exposing the JOIN layer."""
    if ciphertext is None:
        return None
    return DET(key).decrypt_bytes(ciphertext)


def _join_adjust(ciphertext: Optional[bytes], delta_bytes: Optional[bytes]) -> Any:
    """Re-key the JOIN-ADJ component of a JOIN-layer ciphertext (§3.4)."""
    if ciphertext is None:
        return None
    parsed = join_adj.JoinCiphertext.deserialize(ciphertext)
    delta = int.from_bytes(delta_bytes, "big")
    adjusted = join_adj.adjust(parsed.adj, delta)
    return join_adj.JoinCiphertext(adjusted, parsed.det).serialize()


def _adj_part(ciphertext: Optional[bytes]) -> Any:
    """Extract the JOIN-ADJ component used for cross-column equality."""
    if ciphertext is None:
        return None
    return ciphertext[: join_adj.ADJ_SIZE]


def _group_by_key(keys: list, ciphertexts: list) -> dict[bytes, list[int]]:
    """Row positions of the non-NULL ciphertexts, grouped by their key."""
    groups: dict[bytes, list[int]] = {}
    for index, (key, ciphertext) in enumerate(zip(keys, ciphertexts)):
        if ciphertext is not None:
            groups.setdefault(key, []).append(index)
    return groups


def _decrypt_rnd_eq_many(keys: list, ciphertexts: list, ivs: list) -> list:
    """Batch variant of the RND-Eq strip: one key schedule per column."""
    out: list = [None] * len(ciphertexts)
    for key, positions in _group_by_key(keys, ciphertexts).items():
        stripped = RND(key).decrypt_bytes_many(
            [ciphertexts[i] for i in positions], [ivs[i] for i in positions]
        )
        for position, plaintext in zip(positions, stripped):
            out[position] = plaintext
    return out


def _decrypt_rnd_ord_many(keys: list, ciphertexts: list, ivs: list) -> list:
    """Batch variant of the RND-Ord strip: one key schedule per column."""
    out: list = [None] * len(ciphertexts)
    for key, positions in _group_by_key(keys, ciphertexts).items():
        stripped = RND(key).decrypt_int_many(
            [ciphertexts[i] for i in positions], [ivs[i] for i in positions]
        )
        for position, value in zip(positions, stripped):
            out[position] = value
    return out


def _decrypt_det_eq_many(keys: list, ciphertexts: list) -> list:
    """Batch variant of the DET-Eq strip.

    One key schedule per column, and -- because DET is deterministic, so
    equal plaintexts stored equal ciphertexts -- each distinct ciphertext is
    decrypted once via :meth:`DET.decrypt_bytes_many`.
    """
    out: list = [None] * len(ciphertexts)
    for key, positions in _group_by_key(keys, ciphertexts).items():
        stripped = DET(key).decrypt_bytes_many([ciphertexts[i] for i in positions])
        for position, plaintext in zip(positions, stripped):
            out[position] = plaintext
    return out


def _join_adjust_many(ciphertexts: list, deltas: list) -> list:
    """Batch variant of the JOIN-ADJ re-keying.

    Rows are grouped per delta (in practice one delta per UPDATE) and handed
    to :func:`join_adj.adjust_many`, which shares the scalar's wNAF expansion
    across the column and converts every re-scaled point back to affine form
    with batched inversions.
    """
    out: list = [None] * len(ciphertexts)
    by_delta: dict[bytes, list[int]] = {}
    for index, (ciphertext, delta_bytes) in enumerate(zip(ciphertexts, deltas)):
        if ciphertext is not None:
            by_delta.setdefault(delta_bytes, []).append(index)
    for delta_bytes, positions in by_delta.items():
        delta = int.from_bytes(delta_bytes, "big")
        parsed = [
            join_adj.JoinCiphertext.deserialize(ciphertexts[i]) for i in positions
        ]
        adjusted = join_adj.adjust_many([c.adj for c in parsed], delta)
        for position, cipher, adj in zip(positions, parsed, adjusted):
            out[position] = join_adj.JoinCiphertext(adj, cipher.det).serialize()
    return out


def _search_match(
    ciphertext: Optional[bytes],
    token_left: Optional[bytes],
    token_right: Optional[bytes],
    prf_key: Optional[bytes],
) -> Any:
    """Check whether any encrypted keyword matches the query token."""
    if ciphertext is None:
        return None
    token = SearchToken(token_left, token_right, prf_key)
    return SEARCH.matches(SearchCiphertext.deserialize(ciphertext), token)


def install_udfs(
    db: Database, public_key: PaillierPublicKey, packing: PackingConfig
) -> None:
    """Install all CryptDB UDFs into a DBMS instance.

    The HOM UDFs work on ``packing``'s slot layout (§8.4): ``HOM_SUM``
    closes its running product every ``chunk_rows`` rows so no slot's count
    subfield can overflow, and ``HOM_ADD_PACKED`` folds a slot-shifted
    delta into a stored group cell.
    """
    n_squared = public_key.n_squared

    def hom_add_packed(
        packed: Optional[int], delta: Optional[int], sentinel: Any
    ) -> Any:
        # ``sentinel`` is the member's Eq-onion cell: NULL exactly when the
        # application value is NULL.  SQL says NULL + k stays NULL, so the
        # packed cell (whose slot already carries count 0) passes through
        # untouched; folding the delta in would fabricate a value.
        if packed is None or delta is None or sentinel is None:
            return packed
        return (packed * delta) % n_squared

    def register(name, func, batch=None):
        if batch is None:
            db.register_scalar_udf(name, func)
            return
        try:
            db.register_scalar_udf(name, func, batch=batch)
        except TypeError:
            # Backend adapters predating vectorized UDFs take no batch
            # argument; the scalar variant alone keeps them correct.
            db.register_scalar_udf(name, func)

    register(DECRYPT_RND_EQ, _decrypt_rnd_eq, _decrypt_rnd_eq_many)
    register(DECRYPT_RND_ORD, _decrypt_rnd_ord, _decrypt_rnd_ord_many)
    register(DECRYPT_DET_EQ, _decrypt_det_eq, _decrypt_det_eq_many)
    register(JOIN_ADJUST, _join_adjust, _join_adjust_many)
    db.register_scalar_udf(ADJ_PART, _adj_part)
    db.register_scalar_udf(SEARCH_MATCH, _search_match)
    db.register_scalar_udf(HOM_ADD_PACKED, hom_add_packed)
    chunk_rows = packing.chunk_rows

    def packed_step(state, value):
        # state: (running product, rows folded into it, closed chunks).
        # Folding more than ``chunk_rows`` rows could carry a slot's count
        # subfield into its neighbour, so the product is closed at exactly
        # that headroom boundary and a fresh chunk starts.
        if state is None:
            state = (1, 0, [])
        product, rows, closed = state
        product = (product * value) % n_squared
        rows += 1
        if rows >= chunk_rows:
            return (1, 0, closed + [product])
        return (product, rows, closed)

    def packed_finalize(state):
        if state is None:
            return None
        product, rows, closed = state
        if rows:
            closed = closed + [product]
        if len(closed) == 1:
            return closed[0]
        return encode_partial_sums(closed)

    # SUM over zero rows is NULL in SQL, not the Paillier encryption of 0:
    # the state stays None until the first (non-NULL) ciphertext is folded
    # in, so the proxy decrypts an empty aggregate to NULL like a stock DBMS.
    db.register_aggregate_udf(
        HOM_SUM,
        initial=lambda: None,
        step=packed_step,
        finalize=packed_finalize,
    )
