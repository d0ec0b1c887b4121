"""JOIN and JOIN-ADJ: the adjustable-join cryptographic primitive (section 3.4).

``JOIN-ADJ_K(v) = (K * PRF_K0(v)) * P`` where ``P`` is a public curve point
and ``K0`` is a PRF key shared across columns (both derived from the master
key).  Two columns with keys ``K`` and ``K'`` can be made joinable by giving
the DBMS server ``delta = K / K' (mod group order)``: the server re-scales
each JOIN-ADJ value of the second column by ``delta`` without ever seeing the
plaintexts, after which equal plaintexts in the two columns have equal
JOIN-ADJ values.

The full JOIN onion layer is ``JOIN(v) = JOIN-ADJ(v) || DET(v)``: the server
compares the JOIN-ADJ component for equality, and the proxy decrypts the DET
component to recover ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto import ecc
from repro.crypto.det import DET
from repro.crypto.numbers import modinv
from repro.crypto.prf import derive_key, prf_int
from repro.errors import CryptoError

ADJ_SIZE = 49  # serialised uncompressed P-192 point


@dataclass(frozen=True)
class JoinCiphertext:
    """The JOIN onion-layer ciphertext: adjustable hash plus DET component."""

    adj: bytes
    det: bytes

    def serialize(self) -> bytes:
        return self.adj + self.det

    @classmethod
    def deserialize(cls, data: bytes) -> "JoinCiphertext":
        if len(data) < ADJ_SIZE:
            raise CryptoError("malformed JOIN ciphertext")
        return cls(data[:ADJ_SIZE], data[ADJ_SIZE:])


class JoinAdj:
    """The adjustable keyed hash component of the JOIN layer."""

    def __init__(self, column_key: int, prf_key: bytes):
        if not 1 <= column_key < ecc.ORDER:
            raise CryptoError("JOIN-ADJ column key out of range")
        self.column_key = column_key
        self._prf_key = prf_key

    @classmethod
    def for_column(cls, master: bytes, table: str, column: str) -> "JoinAdj":
        """Derive the per-column scalar key and the shared PRF key."""
        prf_key = derive_key(master, "join-adj-prf", length=32)
        scalar = derive_scalar(master, table, column)
        return cls(scalar, prf_key)

    @property
    def prf_key(self) -> bytes:
        """The shared PRF key (needed to rebuild this hash in a worker)."""
        return self._prf_key

    def _scalar_for(self, value: bytes) -> int:
        exponent = prf_int(self._prf_key, value, 192) % ecc.ORDER
        if exponent == 0:
            exponent = 1
        return self.column_key * exponent % ecc.ORDER

    def hash_value(self, value: bytes) -> bytes:
        """Compute ``JOIN-ADJ_K(v)`` as a serialised curve point.

        The multiplication always targets the public base point, so it runs
        on the precomputed fixed-base comb table (inversion-free adds).
        """
        return ecc.scalar_multiply_base(self._scalar_for(value)).serialize()

    def hash_values(self, values: list[bytes]) -> list[bytes]:
        """Batch :meth:`hash_value`: one final batched inversion per column."""
        scalars = [self._scalar_for(value) for value in values]
        return [point.serialize() for point in ecc.scalar_multiply_base_many(scalars)]

    def delta_to(self, other: "JoinAdj") -> int:
        """Return the key delta that re-bases *this* column onto ``other``.

        Applying :func:`adjust` with the returned delta to values hashed under
        ``self`` yields values hashed under ``other`` (the join-base column).
        """
        return other.column_key * modinv(self.column_key, ecc.ORDER) % ecc.ORDER


def derive_scalar(master: bytes, table: str, column: str) -> int:
    """Derive the initial JOIN-ADJ scalar key for a column."""
    seed = derive_key(master, "join-adj-key", table, column, length=32)
    scalar = int.from_bytes(seed, "big") % (ecc.ORDER - 1) + 1
    return scalar


def adjust(adj_ciphertext: bytes, delta: int) -> bytes:
    """Server-side key adjustment: re-scale a JOIN-ADJ point by ``delta``.

    This is the UDF the proxy invokes with an ``UPDATE`` when a new pair of
    columns must become joinable; it requires no plaintext access.
    """
    point = ecc.Point.deserialize(adj_ciphertext)
    return ecc.scalar_multiply(delta, point).serialize()


def adjust_many(adj_ciphertexts: list[bytes], delta: int) -> list[bytes]:
    """Batch :func:`adjust` over one column's JOIN-ADJ points.

    The wNAF expansion of ``delta`` is shared and the whole column returns to
    affine coordinates through two batched inversions, so re-keying a column
    costs O(1) inversions instead of one (plus hundreds of affine-add
    inversions) per row.
    """
    points = [ecc.Point.deserialize(ciphertext) for ciphertext in adj_ciphertexts]
    return [point.serialize() for point in ecc.scalar_multiply_many(delta, points)]


def encrypt_eq_layers(
    memo: dict,
    plaintexts: list[bytes],
    adj: JoinAdj,
    det_join: DET,
    det: Optional[DET],
) -> None:
    """Fill ``memo`` with the deterministic Eq-onion ciphertext of each plaintext.

    ``JOIN-ADJ(v) || DET_join(v)``, wrapped in the DET layer when ``det`` is
    given -- the one place the layers are composed, for the proxy's serial
    path and the crypto workers alike.  The column is one JOIN-ADJ batch (a
    single curve-point inversion) and one lockstep CMC batch per layer, and
    ``memo`` is written only after every value succeeded, so a failure leaves
    a shared memo untouched.  ``plaintexts`` must be distinct.
    """
    cells = [
        JoinCiphertext(adj_hash, inner).serialize()
        for adj_hash, inner in zip(
            adj.hash_values(plaintexts), det_join.encrypt_bytes_many(plaintexts)
        )
    ]
    if det is not None:
        cells = det.encrypt_bytes_many(cells)
    memo.update(zip(plaintexts, cells))


def decrypt_eq_layers(
    ciphertexts: list[bytes], det: Optional[DET], det_join: DET
) -> list[bytes]:
    """Invert :func:`encrypt_eq_layers` for a column of ciphertexts.

    ``det`` strips the DET layer first (pass ``None`` for JOIN-layer input);
    each layer is one batched CMC decryption over the whole column.
    """
    if det is not None:
        ciphertexts = det.decrypt_bytes_many(ciphertexts)
    return det_join.decrypt_bytes_many(
        [JoinCiphertext.deserialize(ciphertext).det for ciphertext in ciphertexts]
    )


class JOIN:
    """The complete JOIN encryption scheme (JOIN-ADJ || DET)."""

    def __init__(self, master: bytes, table: str, column: str):
        self.table = table
        self.column = column
        self.adj = JoinAdj.for_column(master, table, column)
        self._det = DET(derive_key(master, "join-det", table, column, length=16))

    def encrypt(self, value: bytes) -> JoinCiphertext:
        """Encrypt a value at the JOIN layer."""
        return JoinCiphertext(self.adj.hash_value(value), self._det.encrypt_bytes(value))

    def decrypt(self, ciphertext: JoinCiphertext) -> bytes:
        """Recover the plaintext from the DET component."""
        return self._det.decrypt_bytes(ciphertext.det)

    def delta_to(self, other: "JOIN") -> int:
        """Key delta making this column's JOIN-ADJ values match ``other``'s."""
        return self.adj.delta_to(other.adj)
