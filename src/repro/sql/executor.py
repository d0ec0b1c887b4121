"""Query execution: translate AST statements into operations on storage."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator, Optional

from repro.errors import SQLExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    RowContext,
    evaluate,
    find_aggregates,
    is_truthy,
    parse_number,
)
from repro.sql.functions import FunctionRegistry
from repro.sql.indexes import OrderedIndex, key_kind
from repro.sql.storage import Catalog, Table
from repro.sql.transactions import TransactionManager


class ResultSet:
    """The outcome of a statement: column names, result rows and a rowcount."""

    def __init__(self, columns: list[str], rows: list[tuple], rowcount: int = 0):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount if rowcount else len(rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """Return the single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError("result is not a single scalar")
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


class Executor:
    """Executes parsed statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        functions: FunctionRegistry,
        transactions: TransactionManager,
    ):
        self.catalog = catalog
        self.functions = functions
        self.transactions = transactions
        #: SELECTs served by streaming ORDER BY ... LIMIT off an ordered index.
        self.index_order_scans = 0

    # -- dispatch -----------------------------------------------------------
    def execute(self, statement: ast.Statement) -> ResultSet:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTable):
            self.catalog.create_table(statement.table, statement.columns, statement.if_not_exists)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.table, statement.if_exists)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.CreateIndex):
            table = self.catalog.table(statement.table)
            for column in statement.columns:
                table.create_index(column)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Begin):
            self.transactions.begin()
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Commit):
            self.transactions.commit()
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Rollback):
            self.transactions.rollback()
            return ResultSet([], [], 0)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    # -- INSERT / UPDATE / DELETE --------------------------------------------
    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        table = self.catalog.table(statement.table)
        columns = statement.columns or table.column_names
        count = 0
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SQLExecutionError(
                    f"INSERT into {statement.table} has {len(row_exprs)} values "
                    f"for {len(columns)} columns"
                )
            values = {
                column: evaluate(expr, None, self.functions)
                for column, expr in zip(columns, row_exprs)
            }
            row_id = table.insert(values)
            self.transactions.record_insert(table.name, row_id)
            count += 1
        return ResultSet([], [], count)

    def _execute_update(self, statement: ast.Update) -> ResultSet:
        table = self.catalog.table(statement.table)
        matching = self._matching_rows(table, statement.where)
        # Assignments that call a UDF with a registered batch variant (the
        # shape of CryptDB's onion-adjustment UPDATEs) are evaluated
        # column-at-a-time, so per-row setup such as key schedules happens
        # once per column instead of once per cell.
        batch_values = self._batch_assignment_columns(statement, table, matching)
        count = 0
        for row_index, (row_id, row) in enumerate(matching):
            context = None
            changes = {}
            for position, (column, expr) in enumerate(statement.assignments):
                if position in batch_values:
                    changes[column] = batch_values[position][row_index]
                    continue
                if context is None:
                    context = RowContext.from_row(table.name, row)
                changes[column] = evaluate(expr, context, self.functions)
            previous = table.update(row_id, changes)
            self.transactions.record_update(table.name, row_id, previous)
            count += 1
        return ResultSet([], [], count)

    def _batch_assignment_columns(
        self,
        statement: ast.Update,
        table: Table,
        matching: list[tuple[int, dict[str, Any]]],
    ) -> dict[int, list]:
        """Evaluate batchable UDF assignments column-wise.

        Returns per-assignment-position result columns for assignments of
        the form ``col = UDF(literal-or-column, ...)`` where the UDF has a
        vectorized variant registered; everything else stays on the per-row
        path.
        """
        results: dict[int, list] = {}
        if not matching:
            return results
        for position, (_column, expr) in enumerate(statement.assignments):
            if not isinstance(expr, ast.FunctionCall):
                continue
            batch = self.functions.batch_scalar(expr.name)
            if batch is None or not expr.args:
                continue
            arg_columns: list[list] = []
            for arg in expr.args:
                if isinstance(arg, ast.Literal):
                    arg_columns.append([arg.value] * len(matching))
                elif (
                    isinstance(arg, ast.ColumnRef)
                    and (arg.table is None or arg.table == table.name)
                    and table.has_column(arg.name)
                ):
                    arg_columns.append([row[arg.name] for _, row in matching])
                else:
                    arg_columns = []
                    break
            else:
                results[position] = batch(*arg_columns)
        return results

    def _execute_delete(self, statement: ast.Delete) -> ResultSet:
        table = self.catalog.table(statement.table)
        matching = self._matching_rows(table, statement.where)
        count = 0
        for row_id, row in matching:
            removed = table.delete(row_id)
            self.transactions.record_delete(table.name, row_id, removed)
            count += 1
        return ResultSet([], [], count)

    def _matching_rows(
        self, table: Table, where: Optional[ast.Expression]
    ) -> list[tuple[int, dict[str, Any]]]:
        candidates = self._candidate_rows(table, where)
        if where is None:
            return candidates
        matched = []
        for row_id, row in candidates:
            context = RowContext.from_row(table.name, row)
            if is_truthy(evaluate(where, context, self.functions)):
                matched.append((row_id, row))
        return matched

    # -- index-aware row scans ------------------------------------------------
    def _candidate_rows(
        self, table: Table, where: Optional[ast.Expression]
    ) -> list[tuple[int, dict[str, Any]]]:
        """Use an index to narrow the scan when the WHERE clause allows it."""
        path = self._access_path(table, where)
        if path is None:
            return list(table.scan())
        return [(row_id, table.get(row_id)) for row_id in sorted(path())]

    def _access_path(
        self, table: Table, where: Optional[ast.Expression]
    ) -> Optional[Callable[[], set[int]]]:
        """The index probe that serves ``where``, not yet run; None to scan.

        An equality conjunct on a hash or ordered index wins.  Otherwise the
        range conjuncts on each ordered-indexed column merge into one
        interval (the tighter bound wins on each side) and the column with
        the most bounds is probed.  The probe need only return a superset of
        the answer: callers still check the full WHERE on every candidate.
        """
        indexes = table.indexes
        if where is None or not (indexes.hash_indexes or indexes.ordered_indexes):
            return None
        intervals: dict[str, _Interval] = {}
        for column, op, literal in _index_comparisons(where, table):
            if op == "=":
                index = indexes.hash_indexes.get(column)
                if index is None:
                    index = indexes.ordered_indexes.get(column)
                key = _UNRESOLVED if index is None else _index_key(literal, index.kind)
                if key is not _UNRESOLVED:
                    return partial(index.lookup, key)
                continue
            ordered = indexes.ordered_indexes.get(column)
            if ordered is None:
                continue
            key = _index_key(literal, ordered.kind)
            if key is not _UNRESOLVED:
                intervals.setdefault(column, _Interval(ordered)).add(op, key)
        if not intervals:
            return None
        best = max(intervals.values(), key=lambda interval: interval.bounds)
        return partial(
            best.index.range, best.low, best.high, best.include_low, best.include_high
        )

    # -- SELECT ---------------------------------------------------------------
    def _execute_select(self, statement: ast.Select) -> ResultSet:
        fast = self._indexed_order_limit(statement)
        if fast is not None:
            return fast
        contexts = self._from_contexts(statement)

        if statement.where is not None:
            contexts = [
                c for c in contexts
                if is_truthy(evaluate(statement.where, c, self.functions))
            ]

        aggregates = self._collect_aggregates(statement)
        if statement.group_by or aggregates:
            rows, columns, order_keys = self._grouped_select(statement, contexts, aggregates)
        else:
            rows, columns, order_keys = self._plain_select(statement, contexts)

        if statement.distinct:
            seen = set()
            unique_rows = []
            unique_keys = []
            for position, row in enumerate(rows):
                key = tuple(_hashable(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    if order_keys:
                        unique_keys.append(order_keys[position])
            rows, order_keys = unique_rows, unique_keys

        if statement.order_by:
            paired = sorted(zip(order_keys, rows), key=lambda pair: pair[0])
            rows = [row for _, row in paired]

        offset = statement.offset or 0
        if offset:
            rows = rows[offset:]
        if statement.limit is not None:
            rows = rows[: statement.limit]

        return ResultSet(columns, rows)

    def _indexed_order_limit(self, statement: ast.Select) -> Optional[ResultSet]:
        """Serve ``ORDER BY col LIMIT k`` by streaming an ordered index.

        When the sort column has an ordered index over a single-table FROM,
        rows are visited in sort order and the scan stops after
        ``OFFSET + LIMIT`` matches, instead of materialising and sorting the
        full match set.  Returns None when the statement does not qualify
        (joins, grouping, aggregates, DISTINCT, a non-column sort key, a
        WHERE clause an index can already narrow, or a sort column with
        NULLs, which the index does not cover).
        """
        if not statement.limit or statement.distinct:  # None or LIMIT 0
            return None
        if statement.group_by or statement.having is not None:
            return None
        if len(statement.order_by) != 1:
            return None
        if not isinstance(statement.from_clause, ast.TableRef):
            return None
        order = statement.order_by[0]
        if not isinstance(order.expr, ast.ColumnRef):
            return None
        effective = statement.from_clause.effective_name
        if order.expr.table is not None and order.expr.table != effective:
            return None
        table = self.catalog.table(statement.from_clause.name)
        index = table.indexes.ordered_indexes.get(order.expr.name)
        if index is None:
            return None
        if len(index) != table.row_count():
            return None  # NULL sort keys are absent from the index
        if self._collect_aggregates(statement):
            return None
        if self._access_path(table, statement.where) is not None:
            # A selective indexed WHERE (e.g. the TPC-C "latest order for
            # one customer" shape) narrows better than walking the whole
            # ordered index; keep the materialising path for it.
            return None
        self.index_order_scans += 1
        needed = (statement.offset or 0) + statement.limit
        contexts: list[RowContext] = []
        for row_id in index.scan_sorted(descending=not order.ascending):
            context = RowContext.from_row(effective, table.get(row_id))
            if statement.where is not None and not is_truthy(
                evaluate(statement.where, context, self.functions)
            ):
                continue
            contexts.append(context)
            if len(contexts) >= needed:
                break
        contexts = contexts[statement.offset or 0 :]
        # Contexts already arrive in sort order and sliced to LIMIT, so the
        # shared projection's order keys are computed but not needed.
        rows, columns, _order_keys = self._plain_select(statement, contexts)
        return ResultSet(columns, rows)

    def _collect_aggregates(self, statement: ast.Select) -> list[ast.FunctionCall]:
        aggregates: list[ast.FunctionCall] = []
        for item in statement.items:
            aggregates.extend(find_aggregates(item.expr, self.functions))
        aggregates.extend(find_aggregates(statement.having, self.functions))
        for order in statement.order_by:
            aggregates.extend(find_aggregates(order.expr, self.functions))
        return aggregates

    # -- FROM clause ------------------------------------------------------------
    def _from_contexts(self, statement: ast.Select) -> list[RowContext]:
        if statement.from_clause is None:
            return [RowContext({})]
        return self._clause_contexts(statement.from_clause, statement.where)

    def _clause_contexts(
        self, clause: ast.FromClause, where: Optional[ast.Expression]
    ) -> list[RowContext]:
        if isinstance(clause, ast.TableRef):
            table = self.catalog.table(clause.name)
            effective = clause.effective_name
            rows = self._candidate_rows(table, where if _single_table(where, effective, table) else None)
            return [RowContext.from_row(effective, row) for _, row in rows]
        if isinstance(clause, ast.Join):
            left_contexts = self._clause_contexts(clause.left, None)
            right_table = self.catalog.table(clause.right.name)
            right_name = clause.right.effective_name
            right_rows = [
                RowContext.from_row(right_name, row) for _, row in right_table.scan()
            ]
            # NULL-extension template for LEFT joins, built from the schema:
            # an empty right table must still contribute its column names.
            null_row = RowContext(
                {(right_name, column): None for column in right_table.column_names}
            )
            return self._join(left_contexts, right_rows, clause, null_row)
        raise SQLExecutionError(f"unsupported FROM clause {clause!r}")

    def _join(
        self,
        left_contexts: list[RowContext],
        right_contexts: list[RowContext],
        clause: ast.Join,
        null_row: RowContext,
    ) -> list[RowContext]:
        """Join two context sets, hash-joining on any equality conjunct.

        Equality terms may be plain column references or single-column UDF
        calls -- in particular the ``ADJ_PART(C_Eq) = ADJ_PART(C_Eq)``
        comparisons CryptDB's rewriter emits for equi-joins over DET-JOIN
        ciphertexts, which previously fell through to the nested loop and
        paid two UDF evaluations per candidate *pair*.  The hash join
        evaluates each side's key expression once per row; remaining
        conjuncts are applied as a residual filter.  Non-equi conditions
        fall back to the nested loop.
        """
        for terms in _hash_join_candidates(clause.condition):
            joined = self._try_hash_join(
                left_contexts, right_contexts, clause, terms, null_row
            )
            if joined is not None:
                return joined
        return self._nested_loop_join(left_contexts, right_contexts, clause, null_row)

    def _try_hash_join(
        self,
        left_contexts: list[RowContext],
        right_contexts: list[RowContext],
        clause: ast.Join,
        terms: tuple[tuple[ast.Expression, ast.Expression], Optional[ast.Expression]],
        null_row: RowContext,
    ) -> Optional[list[RowContext]]:
        """Hash-join on one equality term, or None if it cannot key a side.

        A key expression that is not evaluable against one side alone (e.g.
        it mixes columns of both tables) would silently drop rows, so the
        caller falls through to the next candidate term -- and ultimately to
        the nested loop.
        """
        (left_expr, right_expr), residual = terms
        buckets: dict[Any, list[RowContext]] = {}
        for context in right_contexts:
            key = self._join_key(right_expr, left_expr, context)
            if key is _UNRESOLVED:
                return None
            if key is not None:
                buckets.setdefault(key, []).append(context)
        joined: list[RowContext] = []
        for left in left_contexts:
            key = self._join_key(left_expr, right_expr, left)
            if key is _UNRESOLVED:
                return None
            matched = False
            if key is not None:
                for right in buckets.get(key, ()):
                    merged = left.merged_with(right)
                    if residual is None or is_truthy(
                        evaluate(residual, merged, self.functions)
                    ):
                        joined.append(merged)
                        matched = True
            if not matched and clause.join_type == "LEFT":
                joined.append(left.merged_with(null_row))
        return joined

    def _join_key(
        self, primary: ast.Expression, fallback: ast.Expression, context: RowContext
    ) -> Any:
        """Evaluate a row's join key, trying the term bound to its side first.

        Returns ``_UNRESOLVED`` when neither term can be evaluated against
        this context, and None for a genuine NULL key (which joins nothing).
        """
        for expr in (primary, fallback):
            try:
                value = evaluate(expr, context, self.functions)
            except SQLExecutionError:
                continue
            return None if value is None else _hashable(value)
        return _UNRESOLVED

    def _nested_loop_join(
        self,
        left_contexts: list[RowContext],
        right_contexts: list[RowContext],
        clause: ast.Join,
        null_row: RowContext,
    ) -> list[RowContext]:
        condition = clause.condition
        joined: list[RowContext] = []
        for left in left_contexts:
            matched = False
            for right in right_contexts:
                merged = left.merged_with(right)
                if condition is None or is_truthy(evaluate(condition, merged, self.functions)):
                    joined.append(merged)
                    matched = True
            if not matched and clause.join_type == "LEFT":
                joined.append(left.merged_with(null_row))
        return joined

    # -- projection --------------------------------------------------------------
    def _expand_items(
        self, statement: ast.Select, sample: Optional[RowContext]
    ) -> list[ast.SelectItem]:
        items: list[ast.SelectItem] = []
        for item in statement.items:
            if isinstance(item.expr, ast.Star):
                if sample is None:
                    raise SQLExecutionError("SELECT * requires a FROM clause")
                for table, column in sample.columns():
                    if item.expr.table is None or item.expr.table == table:
                        items.append(ast.SelectItem(ast.ColumnRef(column, table), None))
            else:
                items.append(item)
        return items

    def _output_name(self, item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return item.expr.to_sql()

    def _plain_select(
        self, statement: ast.Select, contexts: list[RowContext]
    ) -> tuple[list[tuple], list[str], list]:
        sample = contexts[0] if contexts else self._sample_context(statement)
        items = self._expand_items(statement, sample)
        columns = [self._output_name(i) for i in items]
        rows = []
        order_keys = []
        for context in contexts:
            row = tuple(evaluate(i.expr, context, self.functions) for i in items)
            rows.append(row)
            if statement.order_by:
                order_keys.append(
                    self._order_keys(statement, row, columns, context, None)
                )
        return rows, columns, order_keys

    def _sample_context(self, statement: ast.Select) -> Optional[RowContext]:
        """A row context with NULLs for every column, used when no rows match."""
        if statement.from_clause is None:
            return None
        values: dict[tuple[Optional[str], str], Any] = {}

        def add_table(ref: ast.TableRef) -> None:
            table = self.catalog.table(ref.name)
            for column in table.column_names:
                values[(ref.effective_name, column)] = None

        clause = statement.from_clause
        while isinstance(clause, ast.Join):
            add_table(clause.right)
            clause = clause.left
        add_table(clause)
        return RowContext(values)

    # -- grouping / aggregation -----------------------------------------------
    def _grouped_select(
        self,
        statement: ast.Select,
        contexts: list[RowContext],
        aggregates: list[ast.FunctionCall],
    ) -> tuple[list[tuple], list[str], list]:
        sample = contexts[0] if contexts else self._sample_context(statement)
        items = self._expand_items(statement, sample)
        columns = [self._output_name(i) for i in items]

        groups: dict[tuple, list[RowContext]] = {}
        if statement.group_by:
            for context in contexts:
                key = tuple(
                    _hashable(evaluate(g, context, self.functions)) for g in statement.group_by
                )
                groups.setdefault(key, []).append(context)
        else:
            groups[()] = contexts

        rows: list[tuple] = []
        order_keys: list = []
        for _, members in groups.items():
            aggregate_values = self._compute_aggregates(aggregates, members)
            representative = members[0] if members else sample
            if statement.having is not None:
                having_value = evaluate(
                    statement.having, representative, self.functions, aggregate_values
                )
                if not is_truthy(having_value):
                    continue
            row = tuple(
                evaluate(i.expr, representative, self.functions, aggregate_values)
                for i in items
            )
            rows.append(row)
            if statement.order_by:
                order_keys.append(
                    self._order_keys(statement, row, columns, representative, aggregate_values)
                )
        return rows, columns, order_keys

    def _compute_aggregates(
        self, aggregates: list[ast.FunctionCall], members: list[RowContext]
    ) -> dict[int, Any]:
        results: dict[int, Any] = {}
        for call in aggregates:
            spec = self.functions.aggregate(call.name)
            state = spec.initial()
            seen_distinct: set = set()
            for context in members:
                if call.args and not isinstance(call.args[0], ast.Star):
                    value = evaluate(call.args[0], context, self.functions)
                else:
                    value = 1  # COUNT(*)
                if value is None and spec.skip_nulls:
                    continue
                if call.distinct:
                    key = _hashable(value)
                    if key in seen_distinct:
                        continue
                    seen_distinct.add(key)
                state = spec.step(state, value)
            results[id(call)] = spec.finalize(state)
        return results

    # -- ordering ----------------------------------------------------------------
    def _order_keys(
        self,
        statement: ast.Select,
        row: tuple,
        columns: list[str],
        context: Optional[RowContext],
        aggregate_values: Optional[dict[int, Any]],
    ) -> list["_SortKey"]:
        """Sort keys for one result row.

        ORDER BY may reference an output column (alias or position), or any
        column/expression of the underlying row -- including columns that are
        not projected -- so we evaluate against the row's context when the
        output row does not carry the value.
        """
        keys = []
        for order in statement.order_by:
            value = self._order_value(order.expr, row, columns, context, aggregate_values)
            keys.append(_SortKey(value, order.ascending))
        return keys

    def _order_value(
        self,
        expr: ast.Expression,
        row: tuple,
        columns: list[str],
        context: Optional[RowContext],
        aggregate_values: Optional[dict[int, Any]],
    ) -> Any:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if 0 <= position < len(row):
                return row[position]
        if context is not None:
            try:
                return evaluate(expr, context, self.functions, aggregate_values)
            except SQLExecutionError:
                pass
        if isinstance(expr, ast.ColumnRef) and expr.name in columns:
            return row[columns.index(expr.name)]
        output_context = RowContext({(None, name): value for name, value in zip(columns, row)})
        try:
            return evaluate(expr, output_context, self.functions, aggregate_values)
        except SQLExecutionError:
            return None


class _SortKey:
    """Sort helper implementing NULLS FIRST and DESC ordering."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return self.ascending
        if b is None:
            return not self.ascending
        try:
            less = a < b
        except TypeError:
            less = str(a) < str(b)
        return less if self.ascending else (not less and a != b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


#: Sentinel for join keys that could not be evaluated against one side.
_UNRESOLVED = object()


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _conjuncts(expr: ast.Expression) -> list[ast.Expression]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


#: Each indexable comparison, and the same comparison with its operands swapped.
_SWAPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _index_comparisons(
    where: ast.Expression, table: Table
) -> Iterator[tuple[str, str, Any]]:
    """``(column, op, literal)`` per conjunct an index could serve, column first.

    ``literal op column`` is turned round, and a non-negated BETWEEN gives a
    ``>=`` and a ``<=`` bound.
    """
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _SWAPPED:
            left, right, op = conjunct.left, conjunct.right, conjunct.op
            if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
                left, right, op = right, left, _SWAPPED[op]
            if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal) \
                    and table.has_column(left.name):
                yield left.name, op, right.value
        elif isinstance(conjunct, ast.Between) and not conjunct.negated \
                and isinstance(conjunct.expr, ast.ColumnRef) \
                and table.has_column(conjunct.expr.name):
            for op, bound in ((">=", conjunct.low), ("<=", conjunct.high)):
                if isinstance(bound, ast.Literal):
                    yield conjunct.expr.name, op, bound.value


def _index_key(literal: Any, kind: Optional[type]) -> Any:
    """``literal`` as the key the WHERE check compares with index keys of ``kind``.

    Mirrors ``_coerce_comparison``: a numeric string probes a numeric index
    as its number.  Returns ``_UNRESOLVED`` -- scan instead -- for NULL, an
    empty or mixed-kind index, and any literal the check would not compare
    with the keys as they are (which a probe cannot reproduce).
    """
    if literal is None or kind is None:
        return _UNRESOLVED
    if key_kind(literal) is kind:
        return literal
    if kind is float and isinstance(literal, str):
        try:
            return parse_number(literal)
        except ValueError:
            pass
    return _UNRESOLVED


class _Interval:
    """The range conjuncts on one ordered-indexed column, merged."""

    __slots__ = ("index", "low", "high", "include_low", "include_high", "bounds")

    def __init__(self, index: OrderedIndex):
        self.index = index
        self.low = self.high = None
        self.include_low = self.include_high = True
        self.bounds = 0

    def add(self, op: str, key: Any) -> None:
        """Intersect with ``column op key``."""
        self.bounds += 1
        inclusive = op in ("<=", ">=")
        if op in (">", ">="):
            if self.low is None or key > self.low or (key == self.low and not inclusive):
                self.low, self.include_low = key, inclusive
        elif self.high is None or key < self.high or (key == self.high and not inclusive):
            self.high, self.include_high = key, inclusive


def _single_table(
    where: Optional[ast.Expression], table_name: str, table: Table
) -> bool:
    """True when the WHERE clause only references this table's columns."""
    if where is None:
        return True
    for node in ast.walk_expression(where):
        if isinstance(node, ast.ColumnRef):
            if node.table is not None and node.table != table_name:
                return False
            if node.table is None and not table.has_column(node.name):
                return False
    return True


def _is_join_key_expression(expr: ast.Expression) -> bool:
    """True for expressions usable as one side of a hash-join key.

    A plain column reference, or a scalar function call over column
    references and literals (at least one column) -- the shape the CryptDB
    rewriter produces for DET-JOIN equality (``ADJ_PART(C_Eq)``).
    """
    if isinstance(expr, ast.ColumnRef):
        return True
    if isinstance(expr, ast.FunctionCall) and expr.args:
        has_column = False
        for arg in expr.args:
            if isinstance(arg, ast.ColumnRef):
                has_column = True
            elif not isinstance(arg, ast.Literal):
                return False
        return has_column
    return False


def _hash_join_candidates(
    condition: Optional[ast.Expression],
) -> list[tuple[tuple[ast.Expression, ast.Expression], Optional[ast.Expression]]]:
    """Split a join condition into hashable equalities and residual filters.

    Returns one ``((left_term, right_term), residual)`` entry per
    ``expr = expr`` conjunct whose sides are both join-key expressions, with
    the remaining conjuncts folded back into one residual predicate (or
    None).  The executor tries each candidate in turn, since an equality
    whose sides both live in one table cannot key a hash join even though it
    is shaped like one.
    """
    if condition is None:
        return []
    conjuncts = _conjuncts(condition)
    candidates = []
    for position, conjunct in enumerate(conjuncts):
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and _is_join_key_expression(conjunct.left)
            and _is_join_key_expression(conjunct.right)
        ):
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            residual = None
            for other in rest:
                residual = other if residual is None else ast.BinaryOp("AND", residual, other)
            candidates.append(((conjunct.left, conjunct.right), residual))
    return candidates


