"""The proxy may refuse, but must not lie: exactness of the Ord and Search onions.

The Ord onion stores a monotone key that is not injective everywhere:
integers saturate at 32 bits after a 2^31 offset (DECIMAL after a 10^4
scale), and text is ordered by its first four bytes.  A LIKE with ``%``
is answered as a one-token SEARCH.  Each test compares the encrypted proxy
with a plaintext twin fed the same statements and accepts either the
twin's answer or a clean ``NotSupportedError``.

MIN/MAX over encrypted text is refused.  The other shapes still answer
wrongly; they are strict xfails, so the change that refuses them must
drop the marker.
"""

import pytest

import repro
from repro.api.exceptions import NotSupportedError
from repro.core.onion import Onion
from repro.workloads.tpcc import TPCCWorkload

#: A wrong answer fails the assertion; any other exception is a real failure.
_WRONG_ANSWER = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Ord/Search onion answers this shape wrongly (ROADMAP item 18)",
)


def _twins(paillier_keypair, backend="memory"):
    encrypted = repro.connect(backend=backend, paillier=paillier_keypair)
    plain = repro.connect(backend=backend, encrypted=False)
    return encrypted, plain


def _run_both(encrypted, plain, setup, query):
    """Run ``setup`` on both connections; return (encrypted rows or the
    refusal, plaintext rows) for ``query``."""
    for conn in (encrypted, plain):
        cursor = conn.cursor()
        for statement in setup:
            cursor.execute(statement)
    expected = plain.cursor().execute(query).fetchall()
    try:
        got = encrypted.cursor().execute(query).fetchall()
    except NotSupportedError as refusal:
        return refusal, expected
    return got, expected


def _assert_exact_or_refused(paillier_keypair, setup, query):
    encrypted, plain = _twins(paillier_keypair)
    try:
        got, expected = _run_both(encrypted, plain, setup, query)
    finally:
        encrypted.close()
        plain.close()
    if not isinstance(got, NotSupportedError):
        assert got == expected


_TEXT_ROWS = [
    "CREATE TABLE words (id INT, name VARCHAR(40))",
    "INSERT INTO words (id, name) VALUES (1, 'alpha')",
    "INSERT INTO words (id, name) VALUES (2, 'alphabet')",
    "INSERT INTO words (id, name) VALUES (3, 'alphabravo')",
]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("aggregate", ["MIN", "MAX"])
def test_min_max_over_encrypted_text_is_refused(paillier_keypair, backend, aggregate):
    encrypted, plain = _twins(paillier_keypair, backend)
    try:
        got, expected = _run_both(
            encrypted, plain, _TEXT_ROWS, f"SELECT {aggregate}(name) FROM words"
        )
        assert expected == ([("alpha",)] if aggregate == "MIN" else [("alphabravo",)])
        assert isinstance(got, NotSupportedError), got
        assert "words.name" in str(got)
        # Refused before the Ord onion was lowered for it.
        column = encrypted.proxy.schema.column("words", "name")
        assert column.onion_state(Onion.ORD).level.value == "RND"
        # Numeric MIN/MAX still run.
        assert encrypted.cursor().execute("SELECT MIN(id), MAX(id) FROM words").fetchall() == [
            (1, 3)
        ]
    finally:
        encrypted.close()
        plain.close()


_TIMESTAMPS = [
    "CREATE TABLE events (id INT, ts BIGINT)",
    "INSERT INTO events (id, ts) VALUES (1, 1700000000000)",
    "INSERT INTO events (id, ts) VALUES (2, 1800000000000)",
]


@_WRONG_ANSWER
def test_wide_integer_between(paillier_keypair):
    _assert_exact_or_refused(
        paillier_keypair,
        _TIMESTAMPS,
        "SELECT id FROM events WHERE ts BETWEEN 1750000000000 AND 1900000000000",
    )


@_WRONG_ANSWER
def test_wide_integer_order_by_desc_limit(paillier_keypair):
    _assert_exact_or_refused(
        paillier_keypair, _TIMESTAMPS, "SELECT id FROM events ORDER BY ts DESC LIMIT 1"
    )


@_WRONG_ANSWER
def test_wide_integer_max(paillier_keypair):
    _assert_exact_or_refused(paillier_keypair, _TIMESTAMPS, "SELECT MAX(ts) FROM events")


@_WRONG_ANSWER
def test_text_range_past_the_four_byte_prefix(paillier_keypair):
    _assert_exact_or_refused(
        paillier_keypair, _TEXT_ROWS, "SELECT id FROM words WHERE name > 'alphabet'"
    )


_PHRASES = [
    "CREATE TABLE notes (id INT, body TEXT)",
    "INSERT INTO notes (id, body) VALUES (1, 'alphabet soup')",
    "INSERT INTO notes (id, body) VALUES (2, 'gamma ray')",
]


@_WRONG_ANSWER
def test_like_substring_of_a_word(paillier_keypair):
    _assert_exact_or_refused(
        paillier_keypair, _PHRASES, "SELECT id FROM notes WHERE body LIKE '%alpha%'"
    )


@_WRONG_ANSWER
def test_like_short_substring(paillier_keypair):
    _assert_exact_or_refused(
        paillier_keypair, _PHRASES, "SELECT id FROM notes WHERE body LIKE '%alp%'"
    )


@_WRONG_ANSWER
def test_tpcc_decimal_beyond_the_ord_domain(paillier_keypair):
    encrypted, plain = _twins(paillier_keypair)
    try:
        for conn in (encrypted, plain):
            TPCCWorkload().load_into(conn)
        query = "SELECT MAX(w_ytd) FROM warehouse"
        expected = plain.cursor().execute(query).fetchall()
        assert expected == [(300000.0,)]
        try:
            got = encrypted.cursor().execute(query).fetchall()
        except NotSupportedError:
            return
        assert got == expected
    finally:
        encrypted.close()
        plain.close()
