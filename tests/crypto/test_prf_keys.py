"""PRF, key derivation (Equation 1) and the reference OPE coin stream."""

import hashlib
import hmac

import pytest
from ope_reference import DeterministicStream

from repro.crypto import prf
from repro.crypto.keys import KeyManager, MasterKey
from repro.errors import CryptoError


def test_prf_is_deterministic_and_key_dependent():
    assert prf.prf(b"k", b"m") == prf.prf(b"k", b"m")
    assert prf.prf(b"k", b"m") != prf.prf(b"k2", b"m")
    assert prf.prf(b"k", b"m") != prf.prf(b"k", b"m2")


def test_expand_lengths():
    assert len(prf.expand(b"k", b"m", 0)) == 0
    assert len(prf.expand(b"k", b"m", 100)) == 100
    assert prf.expand(b"k", b"m", 100)[:32] == prf.expand(b"k", b"m", 32)


def test_derive_key_distinguishes_label_tuples():
    master = b"master-key"
    # ("ab", "c") and ("a", "bc") must produce different keys (length prefixing).
    assert prf.derive_key(master, "ab", "c") != prf.derive_key(master, "a", "bc")
    assert prf.derive_key(master, "t", "c", "Eq", "DET") != prf.derive_key(
        master, "t", "c", "Eq", "RND"
    )


def test_prf_rejects_empty_key():
    with pytest.raises(CryptoError):
        prf.prf(b"", b"m")


def test_deterministic_stream_reproducible():
    a = DeterministicStream(b"key", b"label")
    b = DeterministicStream(b"key", b"label")
    assert a.read(40) == b.read(40)
    assert a.uniform_int(1000) == b.uniform_int(1000)
    assert a.uniform_float() == b.uniform_float()


def test_deterministic_stream_uniform_int_bounds():
    stream = DeterministicStream(b"key", b"label")
    for upper in (1, 2, 7, 1000, 2**33):
        value = stream.uniform_int(upper)
        assert 0 <= value < upper


def test_master_key_validation_and_derivation():
    with pytest.raises(CryptoError):
        MasterKey(b"short")
    mk = MasterKey.from_passphrase("secret passphrase")
    assert mk == MasterKey.from_passphrase("secret passphrase")
    assert mk != MasterKey.from_passphrase("other passphrase")


def test_key_manager_equation_one():
    manager = KeyManager(MasterKey.from_passphrase("mk"))
    key = manager.key_for("t1", "c1", "Eq", "DET")
    assert key == manager.key_for("t1", "c1", "Eq", "DET")
    assert key != manager.key_for("t1", "c1", "Eq", "RND")
    assert key != manager.key_for("t1", "c2", "Eq", "DET")
    assert key != manager.key_for("t2", "c1", "Eq", "DET")


def test_key_manager_subordinate_differs():
    manager = KeyManager(MasterKey.from_passphrase("mk"))
    sub = manager.subordinate("principal-5")
    assert sub.key_for("t", "c", "Eq", "DET") != manager.key_for("t", "c", "Eq", "DET")


# ---------------------------------------------------------------------------
# Known-answer tests.  ``expand`` is HMAC-SHA256 in counter mode with a
# 0-based 4-byte big-endian counter, which is neither RFC 5869 nor SP 800-108
# (1-based), so no published vector applies: the functions are pinned against
# a re-implementation of their docstrings with ``hmac`` and ``hashlib``, and
# RFC 4231 guards the HMAC call itself.
# ---------------------------------------------------------------------------

#: ``derive_key(b"master-key", "t", "c", "Eq", "DET")``.
GOLDEN_EQ_DET = "193f569d22d50d7fcb2a23a3c2278939"


def _spec_expand(key: bytes, message: bytes, n_bytes: int) -> bytes:
    blocks = -(-n_bytes // 32)
    stream = b"".join(
        hmac.new(key, message + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        for counter in range(blocks)
    )
    return stream[:n_bytes]


def _spec_prf_int(key: bytes, message: bytes, bits: int) -> int:
    n_bytes = -(-bits // 8)
    return int.from_bytes(_spec_expand(key, message, n_bytes), "big") >> (8 * n_bytes - bits)


def _spec_derive_key(master: bytes, *labels, length: int = 16) -> bytes:
    encoded = b""
    for label in labels:
        part = str(label).encode("utf-8")
        encoded += len(part).to_bytes(4, "big") + part
    return _spec_expand(master, encoded, length)


@pytest.mark.parametrize("n_bytes", [0, 1, 31, 32, 33, 64, 100])
def test_expand_matches_counter_mode_hmac(n_bytes):
    for key, message in ((b"k", b""), (b"\x00" * 32, b"message"), (b"key", bytes(range(70)))):
        assert prf.expand(key, message, n_bytes) == _spec_expand(key, message, n_bytes)


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 64, 192, 255, 256, 257, 521])
def test_prf_int_matches_the_truncated_stream(bits):
    value = prf.prf_int(b"prf-int-key", b"value", bits)
    assert value == _spec_prf_int(b"prf-int-key", b"value", bits)
    assert 0 <= value < 1 << bits


@pytest.mark.parametrize(
    "labels, length",
    [
        (("t", "c", "Eq", "DET"), 16),
        (("ab", "c"), 16),
        (("a", "bc"), 16),
        (("join-adj-key", "table", "column"), 32),
        (("feistel-round", 3), 32),
        (("ünïcödé", ""), 48),
        ((), 16),
    ],
)
def test_derive_key_matches_length_prefixed_labels(labels, length):
    master = b"master-key-material-0123456789ab"
    assert prf.derive_key(master, *labels, length=length) == _spec_derive_key(
        master, *labels, length=length
    )


def test_derive_key_golden_value():
    """Every stored ciphertext depends on these bytes: a change re-keys all data."""
    assert _spec_derive_key(b"master-key", "t", "c", "Eq", "DET").hex() == GOLDEN_EQ_DET
    assert prf.derive_key(b"master-key", "t", "c", "Eq", "DET").hex() == GOLDEN_EQ_DET


@pytest.mark.parametrize(
    "key, data, digest",
    [
        (  # RFC 4231 test case 1
            b"\x0b" * 20,
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (  # test case 2: a key shorter than the output
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (  # test case 3: combined key and data length above 64 bytes
            b"\xaa" * 20,
            b"\xdd" * 50,
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (  # test case 4
            bytes(range(1, 26)),
            b"\xcd" * 50,
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
    ],
)
def test_prf_is_hmac_sha256_rfc4231(key, data, digest):
    assert prf.prf(key, data).hex() == digest
