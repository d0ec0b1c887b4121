"""Scatter-gather merge semantics: recombining per-shard answers.

Everything here operates on the *rewritten* (ciphertext-level) statement
and the raw per-shard result sets, before the proxy decrypts anything:

* ``CRYPTDB_HOM_SUM`` partials combine without any key: their packed
  chunks are pooled into one ``PSUM`` blob (never multiplied, so no slot's
  count subfield can overflow), and the proxy decrypts each chunk.
* ``COUNT`` partials add; ``AVG`` needs no count column at all because the
  divisor rides the slot's count subfield through the merged chunks.
* ``MIN``/``MAX`` over OPE integers (order-preserving, so the per-shard
  extremum of ciphertexts is the ciphertext of the per-shard plaintext
  extremum) take the min/max across shards.
* Ordered row streams merge with a k-way heap over the per-shard (already
  sorted) streams, using exactly the proxy's NULL-placement key.  Each
  shard is asked for ``OFFSET + LIMIT`` rows and the OFFSET is applied
  only *after* the merge -- a per-shard OFFSET would silently drop rows
  that a different interleaving puts inside the window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import udfs
from repro.core.results import row_sort_key
from repro.crypto.paillier import (
    decode_partial_sums,
    encode_partial_sums,
    is_partial_sum_blob,
)
from repro.sql import ast_nodes as ast
from repro.sql.executor import ResultSet

#: Aggregate function names a scatter can merge (upper-case), including the
#: rewriter's homomorphic SUM UDF.  AVG is recognised but never merged -- a
#: plaintext AVG cannot be recombined from per-shard AVGs, and the rewriter
#: replaces encrypted AVG with HOM_SUM before the backend ever sees it.
MERGEABLE_AGGREGATES = frozenset({"COUNT", "SUM", "MIN", "MAX", "TOTAL", udfs.HOM_SUM})
AGGREGATE_FUNCTIONS = MERGEABLE_AGGREGATES | frozenset({"AVG"})

#: Alias prefix for ORDER BY columns a scatter appends to the projection so
#: the merge can see the sort key; stripped again after the merge.
HIDDEN_ORDER_PREFIX = "__shard_ord_"


# ---------------------------------------------------------------------------
# partial recombination
# ---------------------------------------------------------------------------
def combine_hom_sums(partials: list) -> Any:
    """Pool per-shard ``CRYPTDB_HOM_SUM`` partials into one value, keylessly.

    Chunks stay separate: multiplying two packed partials would fold up to
    2x ``chunk_rows`` rows into one chunk and could carry a count subfield
    into its neighbour.  The proxy's ``Encryptor.hom_plaintexts`` decrypts
    each chunk (or finds it in its memo) and the slot sums are added in
    plaintext, so the merge point needs no key at all -- not even the public
    one.
    """
    chunks: list[int] = []
    for value in partials:
        if value is None:
            continue  # SUM over zero rows is NULL on that shard
        if is_partial_sum_blob(value):
            chunks.extend(decode_partial_sums(bytes(value)))
        else:
            chunks.append(int(value))
    if not chunks:
        return None
    if len(chunks) == 1:
        return chunks[0]
    return encode_partial_sums(chunks)


def _combine_plain_sum(partials: list) -> Any:
    values = [value for value in partials if value is not None]
    if not values:
        return None
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _combine_count(partials: list) -> int:
    return sum(int(value) for value in partials if value is not None)


def _combine_min(partials: list) -> Any:
    values = [value for value in partials if value is not None]
    return min(values) if values else None


def _combine_max(partials: list) -> Any:
    values = [value for value in partials if value is not None]
    return max(values) if values else None


# ---------------------------------------------------------------------------
# statement classification
# ---------------------------------------------------------------------------
def aggregate_name(expr: ast.Expression) -> Optional[str]:
    """The upper-cased name when ``expr`` is a top-level aggregate call."""
    if isinstance(expr, ast.FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
        return expr.name.upper()
    return None


def is_aggregate_select(select: ast.Select) -> bool:
    return any(aggregate_name(item.expr) is not None for item in select.items)


def referenced_tables(from_clause: Optional[ast.FromClause]) -> list[ast.TableRef]:
    """Every base-table reference of a FROM clause, joins flattened."""
    if from_clause is None:
        return []
    if isinstance(from_clause, ast.TableRef):
        return [from_clause]
    return referenced_tables(from_clause.left) + [from_clause.right]


# ---------------------------------------------------------------------------
# row scatter planning (ORDER BY / LIMIT / OFFSET pushdown)
# ---------------------------------------------------------------------------
@dataclass
class RowScatterPlan:
    """How one non-aggregate SELECT scatters and merges."""

    per_shard: ast.Select
    #: ``(projection index, ascending)`` per ORDER BY item, or [] (unordered).
    order: list[tuple[int, bool]] = field(default_factory=list)
    #: Hidden trailing projection columns to strip after the merge.
    hidden: int = 0
    #: Global OFFSET/LIMIT, applied only after the merge.
    offset: Optional[int] = None
    limit: Optional[int] = None
    distinct: bool = False


def _resolve_order_index(
    item: ast.OrderItem,
    select: ast.Select,
    star_columns: Optional[list[str]],
) -> Optional[int]:
    """Projection index serving ``item``'s expression, if any."""
    target = item.expr.to_sql()
    bare = item.expr.name if isinstance(item.expr, ast.ColumnRef) else None
    position = 0
    for select_item in select.items:
        if isinstance(select_item.expr, ast.Star):
            if star_columns is None:
                return None
            if bare is not None and bare in star_columns:
                return position + star_columns.index(bare)
            position += len(star_columns)
            continue
        if select_item.alias is not None and select_item.alias == bare:
            return position
        if select_item.expr.to_sql() == target:
            return position
        if (
            bare is not None
            and isinstance(select_item.expr, ast.ColumnRef)
            and select_item.expr.name == bare
        ):
            # An unqualified ORDER BY name matches a qualified projection of
            # the same column (single-table scatters only reach here).
            return position
        position += 1
    return None


def plan_row_scatter(
    select: ast.Select, star_columns: Optional[list[str]] = None
) -> Optional[RowScatterPlan]:
    """Build the per-shard statement + merge recipe, or None for broadcast.

    ``star_columns`` is the table's physical column order, used to resolve
    ORDER BY names through a ``SELECT *`` projection.  Returns None when a
    faithful scatter is impossible (LIMIT without a total order, DISTINCT
    under LIMIT where cross-shard duplicates could under-fill the window,
    an unresolvable sort column on a DISTINCT or ``*`` projection).
    """
    if select.group_by or select.having:
        # A non-aggregate GROUP BY dedupes groups across the whole table;
        # per-shard grouping would emit one row per (shard, group).
        return None
    if not select.order_by:
        if select.limit is not None or select.offset is not None:
            return None  # LIMIT without ORDER BY: no deterministic merge
        return RowScatterPlan(per_shard=select, distinct=select.distinct)

    if select.distinct and (select.limit is not None or select.offset is not None):
        return None

    order: list[tuple[int, bool]] = []
    unresolved: list[ast.OrderItem] = []
    for item in select.order_by:
        index = _resolve_order_index(item, select, star_columns)
        if index is None:
            unresolved.append(item)
        else:
            order.append((index, item.ascending))
    hidden = 0
    items = select.items
    if unresolved:
        if select.distinct or any(isinstance(i.expr, ast.Star) for i in select.items):
            # Appending projection columns would change DISTINCT semantics,
            # and a * projection's width is unknown to the merge.
            return None
        items = list(select.items)
        width = sum(
            len(star_columns) if isinstance(i.expr, ast.Star) else 1
            for i in select.items
        )
        for item in unresolved:
            items.append(
                ast.SelectItem(item.expr, alias=f"{HIDDEN_ORDER_PREFIX}{hidden}")
            )
            order.append((width + hidden, item.ascending))
            hidden += 1
        # Re-slot resolved and hidden entries back into ORDER BY order (the
        # loops above appended them as two runs: resolved first, hidden last).
        resolved_iter = iter(order[: len(select.order_by) - hidden])
        hidden_iter = iter(order[len(select.order_by) - hidden:])
        order = [
            next(hidden_iter) if item in unresolved else next(resolved_iter)
            for item in select.order_by
        ]

    per_shard_limit = select.limit
    if select.limit is not None:
        # Satellite fix: each shard must produce OFFSET + LIMIT candidates;
        # pushing the OFFSET down would drop rows other shards contribute
        # inside the window.  The global OFFSET applies after the merge.
        per_shard_limit = select.limit + (select.offset or 0)

    per_shard = ast.Select(
        items=items,
        from_clause=select.from_clause,
        where=select.where,
        group_by=select.group_by,
        having=select.having,
        order_by=select.order_by,
        limit=per_shard_limit,
        offset=None,
        distinct=select.distinct,
    )
    return RowScatterPlan(
        per_shard=per_shard,
        order=order,
        hidden=hidden,
        offset=select.offset,
        limit=select.limit,
        distinct=select.distinct,
    )


def merge_row_results(
    plan: RowScatterPlan, shard_results: list[ResultSet]
) -> ResultSet:
    """K-way merge of per-shard row streams according to ``plan``."""
    if plan.order:
        # Each shard's stream is already sorted by its server-side ORDER BY;
        # heapq.merge interleaves them and, on equal keys, is stable across
        # input order -- rows from lower shard indexes surface first, which
        # keeps the merge deterministic on duplicate OPE keys.
        rows = list(
            heapq.merge(
                *[result.rows for result in shard_results],
                key=lambda row: row_sort_key(row, plan.order),
            )
        )
    else:
        rows = [row for result in shard_results for row in result.rows]
    if plan.distinct:
        seen = set()
        unique = []
        for row in rows:
            marker = tuple(row)
            if marker not in seen:
                seen.add(marker)
                unique.append(row)
        rows = unique
    if plan.offset is not None:
        rows = rows[plan.offset:]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    columns = shard_results[0].columns if shard_results else []
    if plan.hidden:
        rows = [tuple(row[: len(row) - plan.hidden]) for row in rows]
        columns = columns[: len(columns) - plan.hidden]
    return ResultSet(columns, rows, len(rows))


# ---------------------------------------------------------------------------
# aggregate merging
# ---------------------------------------------------------------------------
def classify_aggregate_items(select: ast.Select) -> Optional[list[Optional[str]]]:
    """Per projection item: the aggregate name, or None for a group key.

    Returns None when this aggregate SELECT cannot be merged column-wise
    (DISTINCT aggregates, AVG, expressions mixing aggregates into
    arithmetic) and must broadcast instead.
    """
    specs: list[Optional[str]] = []
    saw_aggregate = False
    for item in select.items:
        name = aggregate_name(item.expr)
        if name is None:
            specs.append(None)
            continue
        call = item.expr
        if call.distinct:
            return None  # per-shard distinct counts cannot be summed
        if name not in MERGEABLE_AGGREGATES:
            return None
        specs.append(name)
        saw_aggregate = True
    if not saw_aggregate:
        return None
    return specs


_COMBINERS = {
    "COUNT": _combine_count,
    "SUM": _combine_plain_sum,
    "TOTAL": _combine_plain_sum,
    "MIN": _combine_min,
    "MAX": _combine_max,
    udfs.HOM_SUM: combine_hom_sums,
}


def merge_aggregate_results(
    select: ast.Select,
    specs: list[Optional[str]],
    shard_results: list[ResultSet],
) -> ResultSet:
    """Recombine per-shard aggregate rows, grouped by the non-aggregate keys."""
    key_indexes = [index for index, spec in enumerate(specs) if spec is None]
    grouped = bool(select.group_by)
    # Group value -> per-column list of partials, insertion-ordered so the
    # merged output is deterministic across runs.
    partials: dict[tuple, list[list]] = {}
    for result in shard_results:
        for row in result.rows:
            key = tuple(row[index] for index in key_indexes)
            bucket = partials.setdefault(key, [[] for _ in specs])
            for index, value in enumerate(row):
                bucket[index].append(value)

    if not grouped and not partials:
        # Every shard returned its mandatory single aggregate row, so this
        # only happens with zero shards; keep the shape regardless.
        partials[()] = [[] for _ in specs]

    rows = []
    for key, bucket in partials.items():
        row = []
        for index, spec in enumerate(specs):
            if spec is None:
                row.append(bucket[index][0] if bucket[index] else None)
            else:
                row.append(_COMBINERS[spec](bucket[index]))
        rows.append(tuple(row))
    columns = shard_results[0].columns if shard_results else []
    return ResultSet(columns, rows, len(rows))
