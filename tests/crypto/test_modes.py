"""Block cipher modes: CBC, CMC and CTR used by RND and DET."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.crypto.primitives import pkcs7_pad, pkcs7_unpad, xor_bytes
from repro.errors import CryptoError

KEY = b"0123456789abcdef"
IV = b"\x01" * 16


def test_cbc_roundtrip():
    cipher = AES(KEY)
    for message in (b"", b"short", b"exactly sixteen!", b"a longer message spanning blocks"):
        assert modes.cbc_decrypt(cipher, IV, modes.cbc_encrypt(cipher, IV, message)) == message


def test_cbc_is_probabilistic_across_ivs():
    cipher = AES(KEY)
    message = b"same message"
    assert modes.cbc_encrypt(cipher, IV, message) != modes.cbc_encrypt(cipher, b"\x02" * 16, message)


def test_cbc_requires_matching_iv_size():
    with pytest.raises(CryptoError):
        modes.cbc_encrypt(AES(KEY), b"short iv", b"data")


def test_cmc_roundtrip_and_determinism():
    cipher = AES(KEY)
    message = b"deterministic encryption input"
    first = modes.cmc_encrypt(cipher, message)
    second = modes.cmc_encrypt(cipher, message)
    assert first == second
    assert modes.cmc_decrypt(cipher, first) == message


def test_cmc_hides_shared_prefixes():
    """Unlike plain CBC with a fixed IV, CMC must not leak long shared prefixes."""
    cipher = AES(KEY)
    prefix = b"A" * 32
    first = modes.cmc_encrypt(cipher, prefix + b"ending-one....")
    second = modes.cmc_encrypt(cipher, prefix + b"ending-two....")
    assert first[:16] != second[:16]


def test_ctr_roundtrip_and_symmetry():
    cipher = AES(KEY)
    message = b"counter mode payload of arbitrary length!"
    ciphertext = modes.ctr_transform(cipher, b"nonce0000000", message)
    assert modes.ctr_transform(cipher, b"nonce0000000", ciphertext) == message


def test_ctr_matches_the_per_byte_reference():
    """The keystream XOR is one integer XOR per block; the bytes must not move."""
    cipher = AES(KEY)
    nonce = b"nonce0000000"
    for length in (0, 1, 15, 16, 17, 41, 64):
        message = bytes(range(length))
        expected = bytearray()
        for counter in range(-(-length // 16)):
            keystream = cipher.encrypt_block(nonce + counter.to_bytes(4, "big"))
            chunk = message[16 * counter : 16 * counter + 16]
            expected.extend(x ^ k for x, k in zip(chunk, keystream))
        assert modes.ctr_transform(cipher, nonce, message) == bytes(expected)


def test_pkcs7_padding_roundtrip_and_validation():
    padded = pkcs7_pad(b"abc", 16)
    assert len(padded) == 16
    assert pkcs7_unpad(padded, 16) == b"abc"
    with pytest.raises(CryptoError):
        pkcs7_unpad(b"\x00" * 16, 16)
    with pytest.raises(CryptoError):
        pkcs7_unpad(b"not a multiple", 16)


def test_xor_bytes_requires_equal_lengths():
    with pytest.raises(CryptoError):
        xor_bytes(b"ab", b"abc")


@settings(max_examples=50, deadline=None)
@given(pair=st.integers(min_value=0, max_value=40).flatmap(
    lambda size: st.tuples(st.binary(min_size=size, max_size=size),
                           st.binary(min_size=size, max_size=size))))
def test_xor_bytes_matches_the_per_byte_reference(pair):
    left, right = pair
    # Leading zero bytes and the empty string survive the integer round trip.
    assert xor_bytes(left, right) == bytes(x ^ y for x, y in zip(left, right))
    assert xor_bytes(bytes(len(left)), left) == left


@settings(max_examples=30, deadline=None)
@given(message=st.binary(min_size=0, max_size=200))
def test_cbc_roundtrip_property(message):
    cipher = AES(KEY)
    assert modes.cbc_decrypt(cipher, IV, modes.cbc_encrypt(cipher, IV, message)) == message


@settings(max_examples=30, deadline=None)
@given(message=st.binary(min_size=0, max_size=200))
def test_cmc_roundtrip_property(message):
    cipher = AES(KEY)
    assert modes.cmc_decrypt(cipher, modes.cmc_encrypt(cipher, message)) == message
