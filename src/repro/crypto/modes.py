"""Block-cipher modes of operation used by the RND and DET layers.

* CBC with a random IV implements RND (probabilistic encryption).
* CMC -- one CBC pass followed by a second pass over the blocks in reverse
  order with a zero IV -- implements DET for multi-block values, so that two
  plaintexts sharing a long prefix do not produce ciphertexts with equal
  prefixes (section 3.1 of the paper).
* CTR is provided for completeness and for the key-chaining wrapping of
  principal keys.
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.primitives import (
    pkcs7_pad,
    pkcs7_unpad,
    split_blocks,
    xor_bytes,
)
from repro.errors import CryptoError


class BlockCipher(Protocol):
    """Anything with encrypt_block/decrypt_block over fixed-size blocks."""

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def _block_size(cipher: BlockCipher) -> int:
    return getattr(cipher, "block_size", 16)


def cbc_encrypt(cipher: BlockCipher, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7 padded) under ``iv``."""
    size = _block_size(cipher)
    if len(iv) != size:
        raise CryptoError("IV must match the cipher block size")
    padded = pkcs7_pad(plaintext, size)
    previous = iv
    out = bytearray()
    for block in split_blocks(padded, size):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`cbc_encrypt`."""
    size = _block_size(cipher)
    if len(iv) != size:
        raise CryptoError("IV must match the cipher block size")
    previous = iv
    out = bytearray()
    for block in split_blocks(ciphertext, size):
        out.extend(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return pkcs7_unpad(bytes(out), size)


def cmc_encrypt(cipher: BlockCipher, plaintext: bytes) -> bytes:
    """CMC-style encryption with a zero tweak, used for DET on long values.

    Approximated as in the paper's description: one round of CBC followed by
    another round of CBC applied to the blocks in reverse order, both with a
    zero IV, so equal plaintexts map to equal ciphertexts but shared prefixes
    do not leak.
    """
    size = _block_size(cipher)
    zero_iv = bytes(size)
    padded = pkcs7_pad(plaintext, size)
    # First CBC pass (forward).
    previous = zero_iv
    first_pass = []
    for block in split_blocks(padded, size):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        first_pass.append(encrypted)
        previous = encrypted
    # Second CBC pass over the reversed block sequence.
    previous = zero_iv
    second_pass = []
    for block in reversed(first_pass):
        encrypted = cipher.encrypt_block(xor_bytes(block, previous))
        second_pass.append(encrypted)
        previous = encrypted
    return b"".join(second_pass)


def cmc_decrypt(cipher: BlockCipher, ciphertext: bytes) -> bytes:
    """Invert :func:`cmc_encrypt`."""
    size = _block_size(cipher)
    zero_iv = bytes(size)
    blocks = split_blocks(ciphertext, size)
    # Undo the second pass.
    previous = zero_iv
    first_pass_reversed = []
    for block in blocks:
        first_pass_reversed.append(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    first_pass = list(reversed(first_pass_reversed))
    # Undo the first pass.
    previous = zero_iv
    out = bytearray()
    for block in first_pass:
        out.extend(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return pkcs7_unpad(bytes(out), size)


def ctr_transform(cipher: BlockCipher, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream XOR; encryption and decryption are the same operation."""
    size = _block_size(cipher)
    if len(nonce) > size - 4:
        raise CryptoError("nonce too long for a 32-bit counter")
    out = bytearray()
    counter = 0
    offset = 0
    while offset < len(data):
        counter_block = nonce + counter.to_bytes(size - len(nonce), "big")
        keystream = cipher.encrypt_block(counter_block)
        chunk = data[offset : offset + size]
        out.extend(xor_bytes(chunk, keystream[: len(chunk)]))
        offset += size
        counter += 1
    return bytes(out)
