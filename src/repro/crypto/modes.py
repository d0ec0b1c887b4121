"""Block-cipher modes of operation used by the RND and DET layers.

* CBC with a random IV implements RND (probabilistic encryption).
* CMC -- one CBC pass followed by a second pass over the blocks in reverse
  order with a zero IV -- implements DET for multi-block values, so that two
  plaintexts sharing a long prefix do not produce ciphertexts with equal
  prefixes (section 3.1 of the paper).
* CTR is the keystream of the wire protocol's ``SecureChannel`` and of the
  key-chaining wrapping of principal keys.

Every mode is written once, for a *column* of values under one key, on top
of the cipher's batched ECB (:meth:`repro.crypto.aes.AES.encrypt_blocks` /
``decrypt_blocks``); the scalar ``cbc_*`` / ``cmc_*`` functions are the same
code on a column of one.  What can run block-parallel does: CBC decryption,
both CMC-decryption passes and the CTR keystream are a single cipher call
over every block of the column (of each ~16 KiB run of a long one) followed
by one integer XOR against the neighbouring ciphertext blocks.  CBC/CMC
*encryption* chains inside a value, so it runs in lockstep across the column
instead -- step ``i`` encrypts block ``i`` of every value that still has one.
A one-value chain is one block per step, which the cipher serves from its
single-block path.

``None`` cells (SQL NULL) pass through every ``*_many`` function untouched.
A cell of the wrong shape (empty, not whole blocks, missing or wrong-length
IV) raises :class:`~repro.errors.CryptoError` before any cipher call is made,
bad padding as soon as its run is decrypted; either way the function returns
nothing, so a failed column leaves its callers' memos as they were.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.crypto.aes import BLOCK_SIZE as BLOCK
from repro.crypto.primitives import pkcs7_pad, pkcs7_unpad, xor_bytes
from repro.errors import CryptoError

_ZERO_BLOCK = bytes(BLOCK)

#: A column is decrypted in runs of about this many bytes (one full-width
#: cipher pass), so the joined scratch buffers stay small however long the
#: column is -- a cold onion adjustment hands over every row of a table.
_RUN_BYTES = 1024 * BLOCK


class BlockCipher(Protocol):
    """ECB over any number of independent 16-byte blocks."""

    def encrypt_blocks(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decrypt_blocks(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def _live_cells(cells: Sequence[Optional[bytes]]) -> tuple[list[int], list[bytes]]:
    """Positions and values of the non-NULL cells of a column."""
    positions = [i for i, cell in enumerate(cells) if cell is not None]
    return positions, [cells[i] for i in positions]


def _with_cells(column: Sequence, positions: list[int], cells: list) -> list:
    """``column`` (NULLs kept) with ``cells`` written at ``positions``."""
    out = list(column)
    for position, cell in zip(positions, cells):
        out[position] = cell
    return out


def _check_ivs(ivs: Sequence[Optional[bytes]], positions: list[int]) -> list[bytes]:
    live = [ivs[i] for i in positions]
    for iv in live:
        if iv is None or len(iv) != BLOCK:
            raise CryptoError("IV must match the cipher block size")
    return live


def _check_ciphertexts(ciphertexts: list[bytes]) -> None:
    for ciphertext in ciphertexts:
        if len(ciphertext) % BLOCK:
            raise CryptoError("data length is not a multiple of the block size")
        if not ciphertext:
            raise CryptoError("padded data length is not a multiple of the block size")


def _runs(cells: list[bytes]):
    """``(start, end)`` slices of ``cells``, each about ``_RUN_BYTES`` long."""
    start = size = 0
    for index, cell in enumerate(cells):
        size += len(cell)
        if size >= _RUN_BYTES:
            yield start, index + 1
            start, size = index + 1, 0
    if start < len(cells):
        yield start, len(cells)


def _spans(cells: list[bytes]) -> list[tuple[int, int]]:
    """``(start, end)`` of each cell inside the concatenation of ``cells``."""
    spans = []
    start = 0
    for cell in cells:
        spans.append((start, start + len(cell)))
        start += len(cell)
    return spans


def _reverse_blocks(data: bytes) -> bytes:
    if len(data) == BLOCK:
        return data
    return b"".join([data[i : i + BLOCK] for i in range(len(data) - BLOCK, -1, -BLOCK)])


def _chain_encrypt(cipher: BlockCipher, ivs: list[bytes], messages: list[bytes]) -> list[bytes]:
    """CBC-chain whole-block ``messages`` in lockstep, one cipher call per step.

    Longest first, so the values that still have a block at step ``i`` are a
    prefix of the order and the previous step's output lines up with it.
    """
    if not messages:
        return []
    order = sorted(range(len(messages)), key=lambda i: len(messages[i]), reverse=True)
    ordered = [messages[i] for i in order]
    previous = b"".join([ivs[i] for i in order])
    active = len(ordered)
    steps = []
    for offset in range(0, len(ordered[0]), BLOCK):
        while len(ordered[active - 1]) <= offset:
            active -= 1
        blocks = b"".join([message[offset : offset + BLOCK] for message in ordered[:active]])
        previous = cipher.encrypt_blocks(xor_bytes(blocks, previous[: len(blocks)]))
        steps.append(previous)
    out: list = [None] * len(messages)
    for rank, index in enumerate(order):
        at = rank * BLOCK
        out[index] = b"".join(
            [step[at : at + BLOCK] for step in steps[: len(ordered[rank]) // BLOCK]]
        )
    return out


# ---------------------------------------------------------------------------
# CBC (the RND layer)
# ---------------------------------------------------------------------------
def cbc_encrypt_many(
    cipher: BlockCipher,
    ivs: Sequence[Optional[bytes]],
    plaintexts: Sequence[Optional[bytes]],
) -> list[Optional[bytes]]:
    """CBC-encrypt a column (PKCS#7 padded), ``ivs[i]`` chaining value ``i``."""
    positions, live = _live_cells(plaintexts)
    live_ivs = _check_ivs(ivs, positions)
    padded = [pkcs7_pad(plaintext, BLOCK) for plaintext in live]
    return _with_cells(plaintexts, positions, _chain_encrypt(cipher, live_ivs, padded))


def cbc_decrypt_many(
    cipher: BlockCipher,
    ivs: Sequence[Optional[bytes]],
    ciphertexts: Sequence[Optional[bytes]],
) -> list[Optional[bytes]]:
    """Invert :func:`cbc_encrypt_many`: one cipher call per run of the column."""
    positions, live = _live_cells(ciphertexts)
    live_ivs = _check_ivs(ivs, positions)
    _check_ciphertexts(live)
    plain: list[bytes] = []
    for start, end in _runs(live):
        run = live[start:end]
        chained = b"".join(
            [iv + ciphertext[:-BLOCK] for iv, ciphertext in zip(live_ivs[start:end], run)]
        )
        padded = xor_bytes(cipher.decrypt_blocks(b"".join(run)), chained)
        plain += [pkcs7_unpad(padded[lo:hi], BLOCK) for lo, hi in _spans(run)]
    return _with_cells(ciphertexts, positions, plain)


def cbc_encrypt(cipher: BlockCipher, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7 padded) under ``iv``."""
    return cbc_encrypt_many(cipher, [iv], [plaintext])[0]


def cbc_decrypt(cipher: BlockCipher, iv: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`cbc_encrypt`."""
    return cbc_decrypt_many(cipher, [iv], [ciphertext])[0]


# ---------------------------------------------------------------------------
# CMC (the DET layer)
# ---------------------------------------------------------------------------
def cmc_encrypt_many(
    cipher: BlockCipher, plaintexts: Sequence[Optional[bytes]]
) -> list[Optional[bytes]]:
    """CMC-style encryption with a zero tweak, used for DET on long values.

    Approximated as in the paper's description: one round of CBC followed by
    another round of CBC applied to the blocks in reverse order, both with a
    zero IV, so equal plaintexts map to equal ciphertexts but shared prefixes
    do not leak.
    """
    positions, live = _live_cells(plaintexts)
    zero_ivs = [_ZERO_BLOCK] * len(live)
    first_pass = _chain_encrypt(
        cipher, zero_ivs, [pkcs7_pad(plaintext, BLOCK) for plaintext in live]
    )
    second_pass = _chain_encrypt(
        cipher, zero_ivs, [_reverse_blocks(blocks) for blocks in first_pass]
    )
    return _with_cells(plaintexts, positions, second_pass)


def cmc_decrypt_many(
    cipher: BlockCipher, ciphertexts: Sequence[Optional[bytes]]
) -> list[Optional[bytes]]:
    """Invert :func:`cmc_encrypt_many`: two cipher calls per run of the column."""
    positions, live = _live_cells(ciphertexts)
    _check_ciphertexts(live)
    plain: list[bytes] = []
    for start, end in _runs(live):
        run = live[start:end]
        # Undo the second pass: x[k] = D(c[k]) ^ c[k-1], with c[-1] = 0.
        chained = b"".join([_ZERO_BLOCK + ciphertext[:-BLOCK] for ciphertext in run])
        inner = xor_bytes(cipher.decrypt_blocks(b"".join(run)), chained)
        # x is the first pass in reverse block order, so undoing the first
        # pass chains each block to its *successor*: q[k] = D(x[k]) ^ x[k+1],
        # with x[len] = 0; the padded plaintext is q with its blocks reversed.
        spans = _spans(run)
        successors = b"".join([inner[lo + BLOCK : hi] + _ZERO_BLOCK for lo, hi in spans])
        outer = xor_bytes(cipher.decrypt_blocks(inner), successors)
        plain += [pkcs7_unpad(_reverse_blocks(outer[lo:hi]), BLOCK) for lo, hi in spans]
    return _with_cells(ciphertexts, positions, plain)


def cmc_encrypt(cipher: BlockCipher, plaintext: bytes) -> bytes:
    """CMC-encrypt one value (see :func:`cmc_encrypt_many`)."""
    return cmc_encrypt_many(cipher, [plaintext])[0]


def cmc_decrypt(cipher: BlockCipher, ciphertext: bytes) -> bytes:
    """Invert :func:`cmc_encrypt`."""
    return cmc_decrypt_many(cipher, [ciphertext])[0]


# ---------------------------------------------------------------------------
# CTR (the wire protocol's keystream)
# ---------------------------------------------------------------------------
def ctr_transform(cipher: BlockCipher, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream XOR; encryption and decryption are the same operation.

    Every counter block of the message goes to the cipher in one call.
    """
    if len(nonce) > BLOCK - 4:
        raise CryptoError("nonce too long for a 32-bit counter")
    if not data:
        return b""
    counter_size = BLOCK - len(nonce)
    counters = b"".join(
        [nonce + counter.to_bytes(counter_size, "big") for counter in range(-(-len(data) // BLOCK))]
    )
    return xor_bytes(data, cipher.encrypt_blocks(counters)[: len(data)])
