"""Index access paths: which rows a WHERE clause makes the engine examine.

The executor serves a WHERE clause from at most one index: an equality
conjunct on a hash or ordered index, else the range conjuncts on one
ordered-indexed column merged into a single interval and bisected at both
ends.  The full WHERE still runs on every candidate, so a path may only
change how many rows are examined (counted here through ``Table.get``),
never the answer.
"""

import pytest

import repro
from repro.sql.engine import Database
from repro.sql.storage import Table


@pytest.fixture()
def examined(monkeypatch):
    """Row ids fetched through an index path, in fetch order."""
    row_ids = []
    original = Table.get

    def get(self, row_id):
        row_ids.append(row_id)
        return original(self, row_id)

    monkeypatch.setattr(Table, "get", get)
    return row_ids


# ---------------------------------------------------------------------------
# Index answers equal scan answers, whatever the literal
# ---------------------------------------------------------------------------
#: SQL literal pairs by kind, against an INT column holding 1, 5 and 9.
LITERALS = {
    "int": ("5", "9"),
    "float": ("5.0", "8.5"),
    "numeric string": ("'5'", "'8.5'"),
    "non-numeric string": ("'x'", "'y'"),
    "null": ("NULL", "NULL"),
}
PREDICATES = {
    "=": "a = {0}",
    "<": "a < {0}",
    ">=": "a >= {0}",
    "between": "a BETWEEN {0} AND {1}",
}
#: The scan's answer (numbers compare as numbers, a non-numeric string
#: compares with the value's text, NULL matches nothing).
SCAN_ANSWERS = {
    "int": {"=": [5], "<": [1], ">=": [5, 9], "between": [5, 9]},
    "float": {"=": [5], "<": [1], ">=": [5, 9], "between": [5]},
    "numeric string": {"=": [5], "<": [1], ">=": [5, 9], "between": [5]},
    "non-numeric string": {"=": [], "<": [1, 5, 9], ">=": [], "between": []},
    "null": {"=": [], "<": [], ">=": [], "between": []},
}


@pytest.mark.parametrize("literal", list(LITERALS))
@pytest.mark.parametrize("op", list(PREDICATES))
@pytest.mark.parametrize("index", [None, "hash", "ordered"])
def test_index_answer_equals_scan_answer(index, op, literal):
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    for value in (1, 5, 9):
        db.execute(f"INSERT INTO t (a) VALUES ({value})")
    if index == "hash":
        db.execute("CREATE INDEX i ON t (a)")
    elif index == "ordered":
        db.table("t").create_index("a", ordered=True)
    predicate = PREDICATES[op].format(*LITERALS[literal])
    rows = db.execute(f"SELECT a FROM t WHERE {predicate}").rows
    assert rows == [(value,) for value in SCAN_ANSWERS[literal][op]], predicate


def test_plaintext_and_encrypted_connections_agree_on_numeric_string(paillier_keypair):
    answers = []
    for conn in (repro.connect(encrypted=False), repro.connect(paillier=paillier_keypair)):
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE t (a INT)")
        cursor.execute("CREATE INDEX i ON t (a)")
        cursor.executemany("INSERT INTO t (a) VALUES (?)", [(1,), (5,), (9,)])
        cursor.execute("SELECT a FROM t WHERE a = ?", ("5",))
        answers.append(cursor.fetchall())
        conn.close()
    assert answers == [[(5,)], [(5,)]]


# ---------------------------------------------------------------------------
# Bounded range scans examine only the rows in the interval
# ---------------------------------------------------------------------------
@pytest.fixture()
def accts():
    """The ``wire_reads`` table: 240 rows, an ordered index on ``id``."""
    db = Database()
    db.execute("CREATE TABLE accts (id INT, balance INT, region INT)")
    for i in range(240):
        db.execute(f"INSERT INTO accts (id, balance, region) VALUES ({i}, {i * 10}, {i % 8})")
    db.table("accts").create_index("id", ordered=True)
    db.table("accts").create_index("region")
    return db


@pytest.mark.parametrize("where", [
    "id >= 100 AND id < 107",
    "100 <= id AND 107 > id",
    "id BETWEEN 100 AND 110 AND id < 107",
    "id > 50 AND balance >= 0 AND id >= 100 AND id <= 300 AND 107 > id",
])
def test_range_examines_only_rows_in_interval(accts, examined, where):
    rows = accts.execute(f"SELECT id, balance FROM accts WHERE {where}").rows
    assert rows == [(i, i * 10) for i in range(100, 107)]
    assert len(examined) == 7


def test_empty_interval_examines_nothing(accts, examined):
    assert accts.execute("SELECT id FROM accts WHERE id > 100 AND id < 100").rows == []
    assert examined == []


def test_equality_beats_range_on_another_indexed_column(accts, examined):
    rows = accts.execute("SELECT id FROM accts WHERE id >= 0 AND id < 240 AND region = 3").rows
    assert rows == [(i,) for i in range(3, 240, 8)]
    assert len(examined) == 30


def test_column_with_most_bounds_is_probed(accts, examined):
    accts.table("accts").create_index("balance", ordered=True)
    rows = accts.execute(
        "SELECT id FROM accts WHERE balance > 0 AND id >= 10 AND id < 20"
    ).rows
    assert rows == [(i,) for i in range(10, 20)]
    assert len(examined) == 10


@pytest.mark.parametrize("statement", [
    "UPDATE accts SET balance = 0 WHERE id >= 100 AND id < 107",
    "DELETE FROM accts WHERE 100 <= id AND id < 107",
])
def test_update_and_delete_take_the_same_path(accts, examined, statement):
    assert accts.execute(statement).rowcount == 7
    assert len(examined) == 7


def test_encrypted_range_reads_only_its_rows(paillier_keypair, examined):
    conn = repro.connect(paillier=paillier_keypair)
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE accts (id INT, balance INT)")
    cursor.execute("CREATE INDEX accts_id ON accts (id)")
    cursor.executemany(
        "INSERT INTO accts (id, balance) VALUES (?, ?)", [(i, i * 10) for i in range(240)]
    )
    sql = "SELECT id, balance FROM accts WHERE id >= ? AND id < ?"
    cursor.execute(sql, (100, 107))  # the first range lowers the Ord onion
    examined.clear()
    cursor.execute(sql, (100, 107))
    assert cursor.fetchall() == [(i, i * 10) for i in range(100, 107)]
    assert len(examined) == 7
    conn.close()
