"""Storage layer: tables, secondary indexes, transactions at the API level."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SchemaError, SQLExecutionError
from repro.sql.indexes import HashIndex, OrderedIndex
from repro.sql.storage import Catalog, Table
from repro.sql.types import INT, VARCHAR, ColumnDef


def _table() -> Table:
    return Table("t", [ColumnDef("id", INT(), primary_key=True), ColumnDef("name", VARCHAR(20))])


def test_insert_get_update_delete():
    table = _table()
    row_id = table.insert({"id": 1, "name": "a"})
    assert table.get(row_id)["name"] == "a"
    previous = table.update(row_id, {"name": "b"})
    assert previous["name"] == "a"
    assert table.get(row_id)["name"] == "b"
    removed = table.delete(row_id)
    assert removed["name"] == "b"
    with pytest.raises(SQLExecutionError):
        table.get(row_id)


def test_restore_after_delete_preserves_row_id():
    table = _table()
    row_id = table.insert({"id": 1, "name": "a"})
    row = table.delete(row_id)
    table.restore(row_id, row)
    assert table.get(row_id)["id"] == 1
    with pytest.raises(SQLExecutionError):
        table.restore(row_id, row)


def test_duplicate_and_unknown_columns_rejected():
    with pytest.raises(SchemaError):
        Table("bad", [ColumnDef("x", INT()), ColumnDef("x", INT())])
    table = _table()
    with pytest.raises(SQLExecutionError):
        table.insert({"id": 1, "nope": 2})


def test_primary_key_indexed_by_default():
    table = _table()
    table.insert({"id": 5, "name": "x"})
    assert table.indexes.hash_indexes["id"].lookup(5)


def test_hash_index_add_remove():
    index = HashIndex("c")
    index.insert("v", 1)
    index.insert("v", 2)
    index.insert(None, 3)
    assert index.lookup("v") == {1, 2}
    assert index.lookup(None) == set()
    index.remove("v", 1)
    assert index.lookup("v") == {2}
    assert len(index) == 1


def test_ordered_index_range_queries():
    index = OrderedIndex("c")
    for value, row_id in [(5, 1), (10, 2), (15, 3), (20, 4)]:
        index.insert(value, row_id)
    assert index.range(low=10, high=15) == {2, 3}
    assert index.range(low=10, high=15, include_low=False) == {3}
    assert index.range(high=10) == {1, 2}
    assert index.range(low=16) == {4}
    assert index.lookup(15) == {3}
    index.remove(15, 3)
    assert index.lookup(15) == set()


_NUMBERS = st.integers(-4, 4) | st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 1))
_KEYS = st.lists(_NUMBERS, max_size=24) | st.builds(
    lambda key, count: [key] * count, _NUMBERS, st.integers(1, 6)  # all-equal keys
)


@settings(max_examples=300, deadline=None)
@given(
    keys=_KEYS,
    low=st.none() | _NUMBERS,
    high=st.none() | _NUMBERS,
    include_low=st.booleans(),
    include_high=st.booleans(),
)
@example(keys=[1, 2, 3], low=3, high=1, include_low=True, include_high=True)  # low > high
@example(keys=[2, 2, 2], low=2, high=2, include_low=True, include_high=False)
@example(keys=[2, 2, 2], low=2, high=2, include_low=False, include_high=True)
@example(keys=[1, 2, 2, 3], low=2, high=2, include_low=True, include_high=True)
@example(keys=[1, 2, 2, 3], low=None, high=2, include_low=True, include_high=False)
@example(keys=[1, 2, 2, 3], low=2, high=None, include_low=False, include_high=True)
def test_ordered_index_range_matches_brute_force(keys, low, high, include_low, include_high):
    index = OrderedIndex("c")
    for row_id, key in enumerate(keys, 1):
        index.insert(key, row_id)
    expected = {
        row_id
        for value, row_id in index._entries
        if (low is None or value > low or (include_low and value == low))
        and (high is None or value < high or (include_high and value == high))
    }
    assert index.range(low, high, include_low, include_high) == expected


def test_index_kind_follows_inserts_and_removes():
    hashed, ordered = HashIndex("c"), OrderedIndex("c")
    assert hashed.kind is None and ordered.kind is None  # empty
    for row_id, key in enumerate([1, 2.5, True], 1):
        hashed.insert(key, row_id)
        ordered.insert(key, row_id)
    assert hashed.kind is float and ordered.kind is float  # one numeric kind
    hashed.insert("1", 4)
    assert hashed.kind is None  # mixed: a probe cannot coerce for both
    hashed.remove("1", 4)
    assert hashed.kind is float


def test_create_index_populates_existing_rows():
    table = _table()
    for i in range(10):
        table.insert({"id": i, "name": f"n{i % 3}"})
    table.create_index("name")
    assert len(table.indexes.hash_indexes["name"].lookup("n0")) == 4
    table.create_index("id", ordered=True)
    assert len(table.indexes.ordered_indexes["id"].range(2, 5)) == 4


def test_add_column_backfills_default():
    table = _table()
    table.insert({"id": 1, "name": "a"})
    table.add_column(ColumnDef("extra", INT()), default=7)
    assert table.get(1)["extra"] == 7
    with pytest.raises(SchemaError):
        table.add_column(ColumnDef("extra", INT()))


def test_catalog():
    catalog = Catalog()
    catalog.create_table("a", [ColumnDef("x", INT())])
    assert catalog.has_table("a")
    catalog.create_table("a", [ColumnDef("x", INT())], if_not_exists=True)
    with pytest.raises(SchemaError):
        catalog.create_table("a", [ColumnDef("x", INT())])
    assert catalog.table_names() == ["a"]
    catalog.drop_table("a")
    with pytest.raises(SchemaError):
        catalog.table("a")
