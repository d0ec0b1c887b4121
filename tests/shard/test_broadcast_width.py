"""Broadcast scratch engines carry only the columns a statement reads.

Every shape that falls back to a broadcast is answered three ways: by the
sharded backend (pruned scratch), by the same sharded backend with the
scratch forced back to every recorded column, and by a single in-memory
backend holding the same rows.  The pruned answer must equal the full-width
one exactly (rows, order, column names, error text) and the single
backend's answer up to row order where the statement leaves order open.
"""

from __future__ import annotations

import pytest

import repro
from repro.api.backends import create_backend
from repro.errors import SQLExecutionError
from repro.shard import ShardedBackend
from repro.shard.merge import referenced_tables
from repro.shard.router import ShardRouter
from repro.workloads.tpcc import TPCCWorkload

SHARDS = 3

SCHEMA = [
    "CREATE TABLE a (id INTEGER, grp TEXT, label TEXT, pad TEXT)",
    # b.id shares a bare name with a.id: unqualified `id` is ambiguous.
    "CREATE TABLE b (bid INTEGER, aid INTEGER, v INTEGER, id INTEGER, note TEXT)",
    "CREATE TABLE empty (eid INTEGER, aid INTEGER, w TEXT)",
    "CREATE TABLE remote (rid INTEGER, aid INTEGER, tag TEXT, junk TEXT)",
]
ROUTING = {"a": "id", "b": "bid", "empty": "eid", "remote": "rid"}


def _inserts() -> list[str]:
    a_rows = ", ".join(
        f"({i}, 'g{i % 3}', 'label{i}', 'pad{i}')" for i in range(12)
    )
    b_rows = ", ".join(
        f"({100 + j}, {j % 9}, {j * 7 % 23}, {j % 4}, 'note{j}')" for j in range(20)
    )
    # Every `remote` row routes to one shard, so most left rows meet no
    # right-side partner on their own shard.
    router = ShardRouter(SHARDS)
    rids = [rid for rid in range(200) if router.route(rid) == 2][:4]
    remote_rows = ", ".join(
        f"({rid}, {k * 2}, 't{k}', 'junk{k}')" for k, rid in enumerate(rids)
    )
    return [
        f"INSERT INTO a (id, grp, label, pad) VALUES {a_rows}",
        f"INSERT INTO b (bid, aid, v, id, note) VALUES {b_rows}",
        f"INSERT INTO remote (rid, aid, tag, junk) VALUES {remote_rows}",
    ]


def _load(backend) -> None:
    for statement in SCHEMA:
        backend.execute(statement)
    if isinstance(backend, ShardedBackend):
        for table, column in ROUTING.items():
            backend.declare_routing(table, column)
    for statement in _inserts():
        backend.execute(statement)


@pytest.fixture(params=["memory", "sqlite"])
def backends(request):
    sharded = ShardedBackend(shards=SHARDS, base=request.param)
    single = create_backend("memory")
    _load(sharded)
    _load(single)
    assert sum(1 for shard in sharded.backends if shard.row_counts().get("a")) > 1
    yield sharded, single
    sharded.close()


def _answer(backend, sql: str, ordered: bool):
    try:
        result = backend.execute(sql)
    except SQLExecutionError as exc:
        return ("error", str(exc))
    rows = list(result.rows) if ordered else sorted(result.rows, key=repr)
    return ("ok", list(result.columns), rows)


def _full_width(backend: ShardedBackend):
    """The unpruned layout: every recorded column of every referenced table."""

    def layout(statement):
        names = {ref.name for ref in referenced_tables(statement.from_clause)}
        return [
            (table, backend._ddl[table].columns)
            for table in backend._ddl_order
            if table in names
        ]

    return layout


def _check(backends, monkeypatch, sql: str, ordered: bool = False) -> int:
    """Assert the three answers agree; return the pruned broadcast's cells."""
    sharded, single = backends
    sharded.reset_counters()
    pruned = _answer(sharded, sql, ordered=True)
    cells = sharded.counters["broadcast_cells"]
    assert sharded.counters["broadcast_selects"] == 1, "statement did not broadcast"
    with monkeypatch.context() as patch:
        patch.setattr(sharded, "_broadcast_layout", _full_width(sharded))
        assert _answer(sharded, sql, ordered=True) == pruned
    if not ordered and pruned[0] == "ok":
        pruned = ("ok", pruned[1], sorted(pruned[2], key=repr))
    assert pruned == _answer(single, sql, ordered)
    return cells


def test_star_join_keeps_every_column(backends, monkeypatch):
    cells = _check(backends, monkeypatch, "SELECT * FROM a JOIN b ON a.id = b.aid")
    assert cells == 12 * 4 + 20 * 5


def test_qualified_star_keeps_only_its_table(backends, monkeypatch):
    cells = _check(
        backends, monkeypatch, "SELECT a.*, b.v FROM a JOIN b ON a.id = b.aid"
    )
    assert cells == 12 * 4 + 20 * 2  # b carries aid and v


def test_ambiguous_bare_name_still_refused(backends, monkeypatch):
    _check(backends, monkeypatch, "SELECT id FROM a JOIN b ON a.id = b.aid")
    sharded, _ = backends
    with pytest.raises(SQLExecutionError, match="ambiguous column id"):
        sharded.execute("SELECT id, v FROM a JOIN b ON a.id = b.aid")


def test_alias_qualified_references(backends, monkeypatch):
    cells = _check(
        backends,
        monkeypatch,
        "SELECT x.label, y.v FROM a AS x JOIN b AS y ON x.id = y.aid "
        "WHERE y.v > 3",
    )
    assert cells == 12 * 2 + 20 * 2


def test_self_join_unions_both_aliases(backends, monkeypatch):
    cells = _check(
        backends,
        monkeypatch,
        "SELECT p.id, q.label FROM a AS p JOIN a AS q ON p.grp = q.grp "
        "WHERE p.id < q.id",
    )
    assert cells == 12 * 3  # id, grp, label of the one physical table


def test_order_by_column_outside_projection(backends, monkeypatch):
    cells = _check(
        backends,
        monkeypatch,
        "SELECT a.label FROM a JOIN b ON a.id = b.aid ORDER BY b.v DESC, b.bid ASC",
        ordered=True,
    )
    assert cells == 12 * 2 + 20 * 3


def test_group_by_and_having_outside_projection(backends, monkeypatch):
    cells = _check(
        backends,
        monkeypatch,
        "SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid "
        "GROUP BY a.grp HAVING SUM(b.v) > 20",
    )
    assert cells == 12 * 2 + 20 * 2


def test_count_star_over_a_join(backends, monkeypatch):
    cells = _check(
        backends, monkeypatch, "SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid"
    )
    assert cells == 12 * 1 + 20 * 1


def test_cross_join_naming_no_column_keeps_multiplicity(backends, monkeypatch):
    cells = _check(backends, monkeypatch, "SELECT COUNT(*) FROM a, b")
    assert cells == 12 * 1 + 20 * 1  # first recorded column of each


def test_left_join_right_side_empty_everywhere(backends, monkeypatch):
    _check(
        backends,
        monkeypatch,
        "SELECT a.id, empty.w FROM a LEFT JOIN empty ON a.id = empty.aid "
        "ORDER BY a.id ASC",
        ordered=True,
    )


def test_left_join_right_side_on_another_shard(backends, monkeypatch):
    sharded, _ = backends
    holders = [i for i, shard in enumerate(sharded.backends) if shard.row_counts().get("remote")]
    assert holders == [2]
    cells = _check(
        backends,
        monkeypatch,
        "SELECT a.id, remote.tag FROM a LEFT JOIN remote ON a.id = remote.aid "
        "ORDER BY a.id ASC",
        ordered=True,
    )
    assert cells == 12 * 1 + 4 * 2


def test_distinct_aggregate_broadcast(backends, monkeypatch):
    cells = _check(backends, monkeypatch, "SELECT COUNT(DISTINCT grp) FROM a")
    assert cells == 12 * 1


def test_limit_without_order_broadcast(backends, monkeypatch):
    sharded, _ = backends
    sql = "SELECT label FROM a WHERE id > 2 LIMIT 4"
    sharded.reset_counters()
    rows = sharded.execute(sql).rows
    assert sharded.counters["broadcast_selects"] == 1
    assert sharded.counters["broadcast_cells"] == 12 * 2
    with monkeypatch.context() as patch:
        patch.setattr(sharded, "_broadcast_layout", _full_width(sharded))
        assert sharded.execute(sql).rows == rows
    # Which four rows is unspecified; they must be four of the qualifying ones.
    assert len(rows) == 4
    assert {row[0] for row in rows} <= {f"label{i}" for i in range(3, 12)}


def test_broadcast_cells_in_stats_and_reset(backends):
    sharded, _ = backends
    sharded.execute("SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid")
    assert sharded.stats()["broadcast_cells"] == 32
    sharded.reset_counters()
    assert sharded.stats()["broadcast_cells"] == 0


def test_tpcc_join_gathers_six_columns(paillier_keypair):
    """The TPC-C Join reads 4 customer and 2 orders columns of ~100."""
    data = TPCCWorkload(
        warehouses=1, districts_per_warehouse=2, customers_per_district=5,
        items=5, orders_per_district=4,
    )
    backend = ShardedBackend(shards=SHARDS, base="sqlite")
    conn = repro.connect(backend=backend, paillier=paillier_keypair)
    plain = repro.connect(encrypted=False)
    try:
        data.load_into(conn)
        data.load_into(plain)
        sql, params = data.query_params("Join")
        widths, full_widths = [], []
        layout, full_layout = backend._broadcast_layout, _full_width(backend)

        def spy(statement):
            result = layout(statement)
            widths.append([len(columns) for _table, columns in result])
            full_widths.append([len(columns) for _table, columns in full_layout(statement)])
            return result

        backend._broadcast_layout = spy
        backend.reset_counters()
        rows = conn.cursor().execute(sql, params).fetchall()
        expected = plain.cursor().execute(sql, params).fetchall()
        assert rows and sorted(rows) == sorted(expected)
        # customer: the Eq onions of c_id, c_w_id and c_last plus c_last's
        # IV; orders: the Eq onions of o_id and o_c_id.
        assert widths == [[4, 2]]
        customers, orders = 2 * 5, 2 * 4
        assert backend.counters["broadcast_cells"] == 4 * customers + 2 * orders
        # Without pruning the scratch gathered every recorded column.
        assert sum(full_widths[0]) > 100
    finally:
        conn.close()
        plain.close()
