"""AES block cipher: FIPS-197 vectors, round trips, error handling.

The batched ``encrypt_blocks``/``decrypt_blocks`` kernel is pinned against the
same published vectors and against the per-block cipher as its reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import AES
from repro.errors import CryptoError


def test_fips197_aes128_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES(key).encrypt_block(plaintext).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_fips197_aes192_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES(key).encrypt_block(plaintext).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"


def test_fips197_aes256_vector():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES(key).encrypt_block(plaintext).hex() == "8ea2b7ca516745bfeafc49904b496089"


def test_fips197_decrypt_vectors_all_key_sizes():
    """The inverse T-table cipher against the FIPS-197 appendix C vectors."""
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    vectors = [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ]
    for key_hex, ciphertext_hex in vectors:
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(ciphertext_hex)) == plaintext


def test_fips197_appendix_b_vector():
    """The worked example of FIPS-197 appendix B."""
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    assert cipher.encrypt_block(plaintext).hex() == "3925841d02dc09fbdc118597196a0b32"


def test_decrypt_inverts_encrypt():
    cipher = AES(b"0123456789abcdef")
    block = bytes(range(16))
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=15, deadline=None)
@given(key=st.binary(min_size=24, max_size=24), block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property_192(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=15, deadline=None)
@given(key=st.binary(min_size=32, max_size=32), block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_rejects_bad_key_length():
    with pytest.raises(CryptoError):
        AES(b"short")


def test_rejects_bad_block_length():
    cipher = AES(b"0123456789abcdef")
    with pytest.raises(CryptoError):
        cipher.encrypt_block(b"too short")
    with pytest.raises(CryptoError):
        cipher.decrypt_block(b"x" * 17)


def test_different_keys_give_different_ciphertexts():
    block = b"A" * 16
    assert AES(b"k" * 16).encrypt_block(block) != AES(b"j" * 16).encrypt_block(block)


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=20, deadline=None)
@given(block=st.binary(min_size=16, max_size=16))
def test_encryption_is_a_permutation(block):
    cipher = AES(b"fixedfixedfixed!")
    encrypted = cipher.encrypt_block(block)
    assert len(encrypted) == 16
    # A permutation never maps two distinct inputs to the same output; check
    # the contrapositive on a perturbed block.
    perturbed = bytes([block[0] ^ 1]) + block[1:]
    assert cipher.encrypt_block(perturbed) != encrypted


# -- column-wide ECB: encrypt_blocks / decrypt_blocks ------------------------
FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_APPENDIX_C = [
    # C.1 AES-128, C.2 AES-192, C.3 AES-256
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


def _block_loop(one_block, data):
    """The per-block reference the batched kernel must equal."""
    return b"".join(one_block(data[i : i + 16]) for i in range(0, len(data), 16))


@pytest.mark.parametrize("key_hex,ciphertext_hex", FIPS197_APPENDIX_C)
@pytest.mark.parametrize(
    "blocks", [1, aes.BATCH_MIN_BLOCKS - 1, aes.BATCH_MIN_BLOCKS, 7, 64]
)
def test_fips197_vectors_through_the_batched_entry_points(key_hex, ciphertext_hex, blocks):
    """Appendix C on both sides of the crossover, every lane the same vector."""
    cipher = AES(bytes.fromhex(key_hex))
    ciphertext = bytes.fromhex(ciphertext_hex)
    assert cipher.encrypt_blocks(FIPS197_PLAINTEXT * blocks) == ciphertext * blocks
    assert cipher.decrypt_blocks(ciphertext * blocks) == FIPS197_PLAINTEXT * blocks


def test_fips197_vector_in_one_lane_among_others():
    """Lanes are independent: the vector survives any neighbours and position."""
    cipher = AES(bytes.fromhex(FIPS197_APPENDIX_C[0][0]))
    expected = bytes.fromhex(FIPS197_APPENDIX_C[0][1])
    for position in (0, 3, 9):
        data = bytearray(bytes(range(160)))
        data[16 * position : 16 * position + 16] = FIPS197_PLAINTEXT
        out = cipher.encrypt_blocks(bytes(data))
        assert out[16 * position : 16 * position + 16] == expected
        assert cipher.decrypt_blocks(out) == bytes(data)


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    data=st.integers(min_value=0, max_value=70).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)
    ),
)
def test_batched_blocks_equal_the_per_block_loop(key, data):
    cipher = AES(key)
    assert cipher.encrypt_blocks(data) == _block_loop(cipher.encrypt_block, data)
    assert cipher.decrypt_blocks(data) == _block_loop(cipher.decrypt_block, data)


def test_inputs_wider_than_one_pass_are_cut_into_passes():
    cipher = AES(b"0123456789abcdef")
    blocks = 2 * aes.MAX_LANES + 1  # two full passes and a one-block remainder
    data = bytes(i * 7 & 0xFF for i in range(16 * blocks))
    before = aes.BATCH_TALLY.snapshot()
    assert cipher.encrypt_blocks(data) == _block_loop(cipher.encrypt_block, data)
    assert cipher.decrypt_blocks(data) == _block_loop(cipher.decrypt_block, data)
    after = aes.BATCH_TALLY.snapshot()
    assert (after[0] - before[0], after[1] - before[1]) == (2 * blocks, 6)


def test_batch_tally_counts_only_batched_blocks():
    cipher = AES(b"0123456789abcdef")
    before = aes.BATCH_TALLY.snapshot()
    cipher.encrypt_blocks(b"")
    cipher.decrypt_blocks(bytes(16 * (aes.BATCH_MIN_BLOCKS - 1)))
    assert aes.BATCH_TALLY.snapshot() == before
    cipher.decrypt_blocks(bytes(16 * 40))
    assert aes.BATCH_TALLY.snapshot() == (before[0] + 40, before[1] + 1)


def test_batched_entry_points_reject_partial_blocks():
    cipher = AES(b"0123456789abcdef")
    with pytest.raises(CryptoError):
        cipher.encrypt_blocks(b"x" * 17)
    with pytest.raises(CryptoError):
        cipher.decrypt_blocks(b"x" * 100)
