"""Merge-layer unit tests: homomorphic recombination, k-way heap, pushdown."""

from __future__ import annotations

from repro.crypto.paillier import (
    decode_partial_sums,
    encode_partial_sums,
    is_partial_sum_blob,
)
from repro.shard.merge import (
    RowScatterPlan,
    classify_aggregate_items,
    combine_hom_sums,
    merge_aggregate_results,
    merge_row_results,
    plan_row_scatter,
)
from repro.sql import ast_nodes as ast
from repro.sql.executor import ResultSet


def _select(sql_items, **kwargs):
    return ast.Select(items=sql_items, from_clause=ast.TableRef("t"), **kwargs)


def _col_items(*names):
    return [ast.SelectItem(ast.ColumnRef(name)) for name in names]


# ---------------------------------------------------------------------------
# homomorphic partial-sum recombination
# ---------------------------------------------------------------------------
def _product(keypair, values):
    total = 1
    for value in values:
        total = (total * keypair.encrypt(value)) % keypair.public.n_squared
    return total


def _decrypt_pooled(keypair, merged):
    """Plaintext total of a merged partial: one decrypt per pooled chunk."""
    if is_partial_sum_blob(merged):
        return sum(keypair.decrypt(c) for c in decode_partial_sums(merged))
    return keypair.decrypt(merged)


def test_packed_hom_merge_concatenates_chunks(paillier_keypair):
    """Packed partials pool chunks; decrypting every chunk equals python sum.

    Chunk ciphertexts must NOT be multiplied together -- each chunk's count
    subfield has limited headroom -- so the merged value is a PSUM blob
    carrying all chunks from all shards.
    """
    shard_chunks = [[4, 6], [10], [1, 2, 3]]
    partials = []
    for chunks in shard_chunks:
        ciphertexts = [paillier_keypair.encrypt(v) for v in chunks]
        partials.append(
            ciphertexts[0] if len(ciphertexts) == 1 else encode_partial_sums(ciphertexts)
        )
    merged = combine_hom_sums(partials)
    assert is_partial_sum_blob(merged)
    decrypted = _decrypt_pooled(paillier_keypair, merged)
    assert decrypted == sum(v for chunks in shard_chunks for v in chunks)


def test_packed_hom_merge_single_chunk_stays_scalar(paillier_keypair):
    partial = paillier_keypair.encrypt(9)
    merged = combine_hom_sums([partial, None])
    assert isinstance(merged, int)
    assert paillier_keypair.decrypt(merged) == 9


def test_packed_hom_merge_skips_empty_shards(paillier_keypair):
    partial = paillier_keypair.encrypt(42)
    assert paillier_keypair.decrypt(combine_hom_sums([None, partial, None])) == 42
    assert combine_hom_sums([None, None]) is None  # SUM of zero rows is NULL


# ---------------------------------------------------------------------------
# k-way ordered merge
# ---------------------------------------------------------------------------
def _rows(*rows):
    return ResultSet(["a", "b"], [tuple(r) for r in rows], len(rows))


def test_kway_merge_interleaves_sorted_streams():
    plan = RowScatterPlan(per_shard=None, order=[(0, True)])
    merged = merge_row_results(
        plan, [_rows((1, "x"), (4, "y")), _rows((2, "p")), _rows((3, "q"), (5, "r"))]
    )
    assert [row[0] for row in merged.rows] == [1, 2, 3, 4, 5]


def test_kway_merge_stable_on_duplicate_ope_keys():
    """Equal sort keys keep shard order: the merge is deterministic even when
    OPE ciphertexts collide (same plaintext on several shards)."""
    plan = RowScatterPlan(per_shard=None, order=[(0, True)])
    shard0 = _rows((7, "s0-a"), (7, "s0-b"))
    shard1 = _rows((7, "s1-a"))
    shard2 = _rows((7, "s2-a"), (9, "s2-b"))
    merged = merge_row_results(plan, [shard0, shard1, shard2])
    assert [row[1] for row in merged.rows] == ["s0-a", "s0-b", "s1-a", "s2-a", "s2-b"]
    # And identically when shard result objects arrive in the same order
    # again -- heapq.merge's tie-break is positional, not value-based.
    again = merge_row_results(plan, [shard0, shard1, shard2])
    assert merged.rows == again.rows


def test_kway_merge_descending_with_nulls_last():
    plan = RowScatterPlan(per_shard=None, order=[(0, False)])
    merged = merge_row_results(
        plan, [_rows((3, "x"), (None, "n1")), _rows((8, "y"), (1, "z"), (None, "n2"))]
    )
    assert [row[0] for row in merged.rows] == [8, 3, 1, None, None]


def test_merge_applies_offset_after_merge():
    """Satellite regression: OFFSET must discard *merged* rows, not per-shard
    rows.  With OFFSET 2 the dropped rows both come from different shards."""
    plan = RowScatterPlan(per_shard=None, order=[(0, True)], offset=2, limit=2)
    merged = merge_row_results(plan, [_rows((1, "a"), (4, "d")), _rows((2, "b"), (3, "c"))])
    assert [row[0] for row in merged.rows] == [3, 4]


def test_merge_strips_hidden_order_columns():
    plan = RowScatterPlan(per_shard=None, order=[(1, True)], hidden=1)
    merged = merge_row_results(plan, [_rows((10, 2)), _rows((20, 1))])
    assert merged.rows == [(20,), (10,)]
    assert merged.columns == ["a"]


def test_merge_distinct_dedupes_across_shards():
    plan = RowScatterPlan(per_shard=None, distinct=True)
    merged = merge_row_results(plan, [_rows((1, "x")), _rows((1, "x"), (2, "y"))])
    assert sorted(merged.rows) == [(1, "x"), (2, "y")]


# ---------------------------------------------------------------------------
# scatter planning (LIMIT/OFFSET pushdown)
# ---------------------------------------------------------------------------
def test_plan_pushes_offset_plus_limit_per_shard():
    """Satellite regression: each shard must fetch OFFSET+LIMIT candidates
    and keep no per-shard OFFSET -- a pushed-down OFFSET silently drops rows
    that interleave ahead of another shard's."""
    select = _select(
        _col_items("a", "b"),
        order_by=[ast.OrderItem(ast.ColumnRef("a"))],
        limit=5,
        offset=3,
    )
    plan = plan_row_scatter(select)
    assert plan.per_shard.limit == 8  # OFFSET + LIMIT candidates per shard
    assert plan.per_shard.offset is None  # never pushed down
    assert plan.offset == 3 and plan.limit == 5  # applied post-merge


def test_plan_resolves_order_through_aliases_and_star():
    aliased = ast.Select(
        items=[ast.SelectItem(ast.ColumnRef("a"), alias="x")],
        from_clause=ast.TableRef("t"),
        order_by=[ast.OrderItem(ast.ColumnRef("x"), ascending=False)],
    )
    plan = plan_row_scatter(aliased)
    assert plan.order == [(0, False)]

    star = ast.Select(
        items=[ast.SelectItem(ast.Star())],
        from_clause=ast.TableRef("t"),
        order_by=[ast.OrderItem(ast.ColumnRef("b"))],
    )
    plan = plan_row_scatter(star, star_columns=["a", "b", "c"])
    assert plan.order == [(1, True)]


def test_plan_appends_hidden_column_for_unprojected_order_key():
    select = _select(
        _col_items("a"),
        order_by=[ast.OrderItem(ast.ColumnRef("b"))],
    )
    plan = plan_row_scatter(select)
    assert plan.hidden == 1
    assert len(plan.per_shard.items) == 2
    assert plan.order == [(1, True)]


def test_plan_refuses_unsafe_scatters():
    # LIMIT without a total order cannot merge deterministically.
    assert plan_row_scatter(_select(_col_items("a"), limit=3)) is None
    # DISTINCT under LIMIT: cross-shard duplicates could under-fill windows.
    assert (
        plan_row_scatter(
            _select(
                _col_items("a"),
                order_by=[ast.OrderItem(ast.ColumnRef("a"))],
                limit=3,
                distinct=True,
            )
        )
        is None
    )
    # Non-aggregate GROUP BY dedupes across shards; scatter can't.
    assert (
        plan_row_scatter(_select(_col_items("a"), group_by=[ast.ColumnRef("a")]))
        is None
    )
    # Unresolvable ORDER BY on a * projection: unknown width, no hidden slot.
    assert (
        plan_row_scatter(
            ast.Select(
                items=[ast.SelectItem(ast.Star())],
                from_clause=ast.TableRef("t"),
                order_by=[ast.OrderItem(ast.ColumnRef("zz"))],
            )
        )
        is None
    )


# ---------------------------------------------------------------------------
# aggregate recombination
# ---------------------------------------------------------------------------
def test_grouped_aggregates_recombine_per_group(paillier_keypair):
    from repro.core import udfs

    select = ast.Select(
        items=[
            ast.SelectItem(ast.ColumnRef("g")),
            ast.SelectItem(ast.FunctionCall("COUNT", [ast.Star()])),
            ast.SelectItem(ast.FunctionCall(udfs.HOM_SUM, [ast.ColumnRef("v")])),
        ],
        from_clause=ast.TableRef("t"),
        group_by=[ast.ColumnRef("g")],
    )
    specs = classify_aggregate_items(select)
    assert specs == [None, "COUNT", udfs.HOM_SUM]
    columns = ["g", "COUNT(*)", "SUM(v)"]
    shard0 = ResultSet(columns, [("alpha", 2, _product(paillier_keypair, [1, 2]))], 1)
    shard1 = ResultSet(
        columns,
        [
            ("alpha", 1, _product(paillier_keypair, [4])),
            ("beta", 3, _product(paillier_keypair, [5, 5, 5])),
        ],
        2,
    )
    merged = merge_aggregate_results(select, specs, [shard0, shard1])
    by_group = {row[0]: row for row in merged.rows}
    assert by_group["alpha"][1] == 3
    assert _decrypt_pooled(paillier_keypair, by_group["alpha"][2]) == 7
    assert by_group["beta"][1] == 3
    assert _decrypt_pooled(paillier_keypair, by_group["beta"][2]) == 15


def test_hom_sum_over_zero_rows_on_every_shard_merges_to_null(paillier_keypair):
    """Ungrouped HOM_SUM: shards with no rows add nothing, all-empty is NULL."""
    from repro.core import udfs

    select = ast.Select(
        items=[
            ast.SelectItem(ast.FunctionCall("COUNT", [ast.Star()])),
            ast.SelectItem(ast.FunctionCall(udfs.HOM_SUM, [ast.ColumnRef("v")])),
        ],
        from_clause=ast.TableRef("t"),
    )
    specs = classify_aggregate_items(select)
    columns = ["COUNT(*)", "SUM(v)"]
    empty = [ResultSet(columns, [(0, None)], 1) for _ in range(3)]
    assert merge_aggregate_results(select, specs, empty).rows == [(0, None)]
    one = ResultSet(columns, [(2, _product(paillier_keypair, [8, 3]))], 1)
    merged = merge_aggregate_results(select, specs, [empty[0], one, empty[1]])
    (count, total), = merged.rows
    assert count == 2
    assert _decrypt_pooled(paillier_keypair, total) == 11


def test_min_max_count_recombination():
    select = ast.Select(
        items=[
            ast.SelectItem(ast.FunctionCall("MIN", [ast.ColumnRef("o")])),
            ast.SelectItem(ast.FunctionCall("MAX", [ast.ColumnRef("o")])),
            ast.SelectItem(ast.FunctionCall("COUNT", [ast.ColumnRef("o")])),
        ],
        from_clause=ast.TableRef("t"),
    )
    specs = classify_aggregate_items(select)
    columns = ["MIN(o)", "MAX(o)", "COUNT(o)"]
    shards = [
        ResultSet(columns, [(5, 90, 4)], 1),
        ResultSet(columns, [(None, None, 0)], 1),  # empty shard: NULL extrema
        ResultSet(columns, [(2, 40, 2)], 1),
    ]
    merged = merge_aggregate_results(select, specs, shards)
    assert merged.rows == [(2, 90, 6)]


def test_unmergeable_aggregates_classify_to_none():
    distinct_count = ast.Select(
        items=[
            ast.SelectItem(
                ast.FunctionCall("COUNT", [ast.ColumnRef("a")], distinct=True)
            )
        ],
        from_clause=ast.TableRef("t"),
    )
    assert classify_aggregate_items(distinct_count) is None
    plain_avg = ast.Select(
        items=[ast.SelectItem(ast.FunctionCall("AVG", [ast.ColumnRef("a")]))],
        from_clause=ast.TableRef("t"),
    )
    assert classify_aggregate_items(plain_avg) is None
