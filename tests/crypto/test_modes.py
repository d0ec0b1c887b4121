"""Block cipher modes: CBC, CMC and CTR used by RND and DET.

The modes run a column at a time on the batched AES kernel.  The per-block
loops they replaced are kept here as ``reference_*`` -- one ``encrypt_block``
/ ``decrypt_block`` call per block, one value at a time -- and every
``*_many`` mode must return exactly their bytes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes, modes
from repro.crypto.aes import AES
from repro.crypto.primitives import pkcs7_pad, pkcs7_unpad, split_blocks, xor_bytes
from repro.errors import CryptoError

KEY = b"0123456789abcdef"
IV = b"\x01" * 16
ZERO_IV = bytes(16)


# -- the per-block reference ---------------------------------------------------
def _reference_chain(cipher, iv, blocks):
    previous, out = iv, []
    for block in blocks:
        previous = cipher.encrypt_block(xor_bytes(block, previous))
        out.append(previous)
    return out


def _reference_unchain(cipher, iv, blocks):
    previous, out = iv, []
    for block in blocks:
        out.append(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return out


def reference_cbc_encrypt(cipher, iv, plaintext):
    return b"".join(_reference_chain(cipher, iv, split_blocks(pkcs7_pad(plaintext, 16), 16)))


def reference_cbc_decrypt(cipher, iv, ciphertext):
    return pkcs7_unpad(b"".join(_reference_unchain(cipher, iv, split_blocks(ciphertext, 16))), 16)


def reference_cmc_encrypt(cipher, plaintext):
    first = _reference_chain(cipher, ZERO_IV, split_blocks(pkcs7_pad(plaintext, 16), 16))
    return b"".join(_reference_chain(cipher, ZERO_IV, first[::-1]))


def reference_cmc_decrypt(cipher, ciphertext):
    first = _reference_unchain(cipher, ZERO_IV, split_blocks(ciphertext, 16))[::-1]
    return pkcs7_unpad(b"".join(_reference_unchain(cipher, ZERO_IV, first)), 16)


def reference_ctr(cipher, nonce, data):
    out = bytearray()
    for counter in range(-(-len(data) // 16)):
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(16 - len(nonce), "big"))
        chunk = data[16 * counter : 16 * counter + 16]
        out.extend(x ^ k for x, k in zip(chunk, keystream))
    return bytes(out)


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
    for length in (0, 1, 15, 16, 17, 41, 64, 1000):
        message = bytes(i & 0xFF for i in range(length))
        assert modes.ctr_transform(cipher, nonce, message) == reference_ctr(cipher, nonce, message)


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


# -- NIST SP 800-38A known answers (AES-128, appendix F) -----------------------
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_CBC_CIPHERTEXT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)
NIST_CTR_INITIAL_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_CTR_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


@pytest.mark.parametrize("copies", [1, 5])
def test_nist_sp800_38a_cbc_aes128(copies):
    """F.2.1 / F.2.2, alone (single-block path) and as a column (batched)."""
    cipher = AES(NIST_KEY)
    column = [NIST_PLAINTEXT] * copies
    encrypted = modes.cbc_encrypt_many(cipher, [NIST_CBC_IV] * copies, column)
    # Our CBC pads with PKCS#7: one more block follows the standard's four.
    assert all(ct[:64] == NIST_CBC_CIPHERTEXT and len(ct) == 80 for ct in encrypted)
    assert modes.cbc_decrypt_many(
        cipher, [NIST_CBC_IV] * copies, [NIST_CBC_CIPHERTEXT + encrypted[0][64:]] * copies
    ) == column


class _CounterFrom:
    """A cipher whose counter blocks start at the standard's initial counter."""

    def __init__(self, cipher, start):
        self.cipher, self.start = cipher, int.from_bytes(start, "big")

    def encrypt_blocks(self, data):
        shifted = b"".join(
            (int.from_bytes(block, "big") + self.start).to_bytes(16, "big")
            for block in split_blocks(data, 16)
        )
        return self.cipher.encrypt_blocks(shifted)


def test_nist_sp800_38a_ctr_aes128():
    """F.5.1 / F.5.2: ``ctr_transform`` counts from zero, the vector from f0..ff."""
    cipher = _CounterFrom(AES(NIST_KEY), NIST_CTR_INITIAL_COUNTER)
    assert modes.ctr_transform(cipher, b"", NIST_PLAINTEXT) == NIST_CTR_CIPHERTEXT
    assert modes.ctr_transform(cipher, b"", NIST_CTR_CIPHERTEXT) == NIST_PLAINTEXT
    assert modes.ctr_transform(cipher, b"", NIST_PLAINTEXT[:23]) == NIST_CTR_CIPHERTEXT[:23]


# -- every *_many mode equals the per-block reference ---------------------------
_VALUE_POOL = st.lists(st.binary(min_size=0, max_size=100), min_size=1, max_size=6)


@st.composite
def columns(draw):
    """1..70 cells of mixed length drawn from a small pool: duplicates, NULLs."""
    pool = draw(_VALUE_POOL)
    cells = draw(
        st.lists(st.one_of(st.none(), st.sampled_from(pool)), min_size=1, max_size=70)
    )
    ivs = draw(
        st.lists(st.binary(min_size=16, max_size=16), min_size=len(cells), max_size=len(cells))
    )
    return cells, ivs


def _map(function, cells, *columns_):
    return [
        None if cell is None else function(*args, cell)
        for cell, *args in zip(cells, *columns_)
    ]


@settings(max_examples=60, deadline=None)
@given(column=columns())
def test_many_modes_equal_the_per_block_reference(column):
    cells, ivs = column
    cipher = AES(KEY)
    cbc = _map(lambda iv, cell: reference_cbc_encrypt(cipher, iv, cell), cells, ivs)
    assert modes.cbc_encrypt_many(cipher, ivs, cells) == cbc
    assert modes.cbc_decrypt_many(cipher, ivs, cbc) == cells
    assert _map(lambda iv, ct: reference_cbc_decrypt(cipher, iv, ct), cbc, ivs) == cells
    cmc = _map(lambda cell: reference_cmc_encrypt(cipher, cell), cells)
    assert modes.cmc_encrypt_many(cipher, cells) == cmc
    assert modes.cmc_decrypt_many(cipher, cmc) == cells
    assert _map(lambda ct: reference_cmc_decrypt(cipher, ct), cmc) == cells


def test_a_long_column_is_decrypted_in_bounded_runs():
    """Past ~16 KiB a column is cut into runs; bytes and NULLs are unaffected."""
    cipher = AES(KEY)
    cells = [None if i % 50 == 7 else b"%05d" % i * (4 + i % 19) for i in range(600)]
    ivs = [bytes([i % 251]) * 16 for i in range(600)]
    cbc = modes.cbc_encrypt_many(cipher, ivs, cells)
    cmc = modes.cmc_encrypt_many(cipher, cells)
    assert sum(len(ct) for ct in cbc if ct) > 2 * 1024 * 16
    assert cbc[:40] == _map(lambda iv, c: reference_cbc_encrypt(cipher, iv, c), cells[:40], ivs)
    assert cmc[-40:] == _map(lambda c: reference_cmc_encrypt(cipher, c), cells[-40:])
    before = aes.BATCH_TALLY.snapshot()
    assert modes.cbc_decrypt_many(cipher, ivs, cbc) == cells
    after_cbc = aes.BATCH_TALLY.snapshot()
    assert modes.cmc_decrypt_many(cipher, cmc) == cells
    after_cmc = aes.BATCH_TALLY.snapshot()
    blocks = sum(len(ct) // 16 for ct in cbc if ct)
    assert after_cbc[0] - before[0] == blocks and after_cmc[0] - after_cbc[0] == 2 * blocks
    assert after_cbc[1] - before[1] == 3  # three runs, none wider than one pass
    assert after_cmc[1] - after_cbc[1] == 6


def test_scalar_modes_are_the_column_of_one():
    cipher = AES(KEY)
    for message in (b"", b"exactly sixteen!", b"a longer message spanning blocks"):
        assert modes.cbc_encrypt(cipher, IV, message) == reference_cbc_encrypt(cipher, IV, message)
        assert modes.cmc_encrypt(cipher, message) == reference_cmc_encrypt(cipher, message)


# -- error semantics of a batch --------------------------------------------------
def _good_column(cipher, rows=40):
    cells = [b"value-%d" % i * (i % 5 + 1) for i in range(rows)]
    ivs = [bytes([i]) * 16 for i in range(rows)]
    return cells, ivs, modes.cbc_encrypt_many(cipher, ivs, cells), modes.cmc_encrypt_many(cipher, cells)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts every cipher call, batched or per block."""
    calls = {"count": 0}
    for name in ("encrypt_blocks", "decrypt_blocks"):
        original = getattr(AES, name)

        def counted(self, data, _original=original):
            calls["count"] += 1
            return _original(self, data)

        monkeypatch.setattr(AES, name, counted)
    return calls


@pytest.mark.parametrize(
    "bad_cell",
    [b"", b"x" * 15, b"x" * 33],
    ids=["empty", "short", "not-a-multiple-of-16"],
)
def test_one_malformed_ciphertext_fails_the_column_before_any_cipher_call(bad_cell, kernel_calls):
    cipher = AES(KEY)
    _, ivs, cbc, cmc = _good_column(cipher)
    kernel_calls["count"] = 0
    cbc[17] = cmc[17] = bad_cell
    with pytest.raises(CryptoError):
        modes.cbc_decrypt_many(cipher, ivs, cbc)
    with pytest.raises(CryptoError):
        modes.cmc_decrypt_many(cipher, cmc)
    # The per-value path raises the same error type for the same cell.
    with pytest.raises(CryptoError):
        reference_cbc_decrypt(cipher, ivs[17], bad_cell)
    with pytest.raises(CryptoError):
        reference_cmc_decrypt(cipher, bad_cell)
    assert kernel_calls["count"] == 0


def test_bad_padding_in_one_cell_fails_the_column():
    cipher = AES(KEY)
    _, ivs, cbc, cmc = _good_column(cipher)
    cbc[3] = cipher.encrypt_block(ivs[3])  # decrypts to sixteen zero bytes: not PKCS#7
    with pytest.raises(CryptoError):
        modes.cbc_decrypt_many(cipher, ivs, cbc)
    with pytest.raises(CryptoError):
        reference_cbc_decrypt(cipher, ivs[3], cbc[3])
    cmc[3] = bytes(32)
    with pytest.raises(CryptoError):
        modes.cmc_decrypt_many(cipher, cmc)
    with pytest.raises(CryptoError):
        reference_cmc_decrypt(cipher, cmc[3])


@pytest.mark.parametrize("bad_iv", [None, b"short iv", b"x" * 17], ids=["missing", "short", "long"])
def test_missing_or_wrong_length_iv_fails_the_column(bad_iv, kernel_calls):
    cipher = AES(KEY)
    cells, ivs, cbc, _ = _good_column(cipher)
    kernel_calls["count"] = 0
    ivs[5] = bad_iv
    with pytest.raises(CryptoError):
        modes.cbc_encrypt_many(cipher, ivs, cells)
    with pytest.raises(CryptoError):
        modes.cbc_decrypt_many(cipher, ivs, cbc)
    assert kernel_calls["count"] == 0


def test_null_cells_pass_through_and_ignore_their_iv():
    cipher = AES(KEY)
    cells = [None, b"kept", None]
    ivs = [None, IV, b"ignored"]
    encrypted = modes.cbc_encrypt_many(cipher, ivs, cells)
    assert encrypted == [None, reference_cbc_encrypt(cipher, IV, b"kept"), None]
    assert modes.cbc_decrypt_many(cipher, ivs, encrypted) == cells
    assert modes.cmc_decrypt_many(cipher, modes.cmc_encrypt_many(cipher, cells)) == cells


def test_empty_and_all_null_columns_make_no_cipher_call(kernel_calls):
    cipher = AES(KEY)
    for column in ([], [None, None]):
        ivs = [None] * len(column)
        assert modes.cbc_encrypt_many(cipher, ivs, column) == column
        assert modes.cbc_decrypt_many(cipher, ivs, column) == column
        assert modes.cmc_encrypt_many(cipher, column) == column
        assert modes.cmc_decrypt_many(cipher, column) == column
    assert modes.ctr_transform(cipher, b"nonce0000000", b"") == b""
    assert kernel_calls["count"] == 0


def test_a_column_goes_through_the_batched_kernel_and_a_lone_value_does_not(monkeypatch):
    """Decryption is one pass per column; a one-value chain stays per block."""
    calls = {"encrypt_block": 0, "decrypt_block": 0}
    for name in calls:
        original = getattr(AES, name)

        def counted(self, block, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, block)

        monkeypatch.setattr(AES, name, counted)
    cipher = AES(KEY)
    cells, ivs, cbc, cmc = _good_column(cipher)
    calls.update(encrypt_block=0, decrypt_block=0)
    before = aes.BATCH_TALLY.snapshot()
    modes.cbc_decrypt_many(cipher, ivs, cbc)
    modes.cmc_decrypt_many(cipher, cmc)
    modes.cbc_encrypt_many(cipher, ivs, cells)
    assert calls == {"encrypt_block": 0, "decrypt_block": 0}
    blocks = sum(len(ct) // 16 for ct in cbc)
    after = aes.BATCH_TALLY.snapshot()
    assert after[0] - before[0] == 4 * blocks  # CBC dec + 2 CMC passes + CBC enc
    assert after[1] - before[1] == 3 + max(len(ct) // 16 for ct in cbc)
    lone = b"z" * 40  # three blocks once padded, chained one at a time
    modes.cbc_encrypt(cipher, IV, lone)
    assert calls == {"encrypt_block": 3, "decrypt_block": 0}
    assert aes.BATCH_TALLY.snapshot() == after
