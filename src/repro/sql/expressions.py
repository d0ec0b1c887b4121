"""Expression evaluation with SQL three-valued logic.

Comparisons and arithmetic involving NULL yield NULL; AND/OR follow Kleene
logic; the WHERE clause keeps a row only when the predicate evaluates to a
truthy (non-NULL, non-false) value.  CryptDB exposes NULLs to the DBMS
unencrypted (section 3.3), so the engine's NULL semantics must match a stock
DBMS for rewritten queries to behave identically.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.errors import SQLExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.functions import FunctionRegistry


class RowContext:
    """Resolves column references against the current row.

    ``values`` maps ``(table_or_alias, column)`` tuples to values; unqualified
    lookups succeed when the column name is unambiguous across tables.
    """

    def __init__(self, values: dict[tuple[Optional[str], str], Any]):
        self._values = values
        self._unqualified: dict[str, list[Any]] = {}
        for (table, column), value in values.items():
            self._unqualified.setdefault(column, []).append(value)

    @classmethod
    def from_row(cls, table_name: Optional[str], row: dict[str, Any]) -> "RowContext":
        return cls({(table_name, column): value for column, value in row.items()})

    def merged_with(self, other: "RowContext") -> "RowContext":
        combined = dict(self._values)
        combined.update(other._values)
        return RowContext(combined)

    def lookup(self, ref: ast.ColumnRef) -> Any:
        if ref.table is not None:
            key = (ref.table, ref.name)
            if key in self._values:
                return self._values[key]
            raise SQLExecutionError(f"unknown column {ref.table}.{ref.name}")
        candidates = self._unqualified.get(ref.name)
        if candidates is None:
            raise SQLExecutionError(f"unknown column {ref.name}")
        if len(candidates) > 1:
            raise SQLExecutionError(f"ambiguous column {ref.name}")
        return candidates[0]

    def columns(self) -> list[tuple[Optional[str], str]]:
        return list(self._values.keys())

    def value_map(self) -> dict[tuple[Optional[str], str], Any]:
        return dict(self._values)


def is_truthy(value: Any) -> bool:
    """SQL WHERE semantics: NULL and false both reject the row."""
    if value is None:
        return False
    return bool(value)


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern (%, _) to a compiled regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def evaluate(
    expr: ast.Expression,
    context: Optional[RowContext],
    functions: FunctionRegistry,
    aggregate_values: Optional[dict[int, Any]] = None,
) -> Any:
    """Evaluate an expression against a row context.

    ``aggregate_values`` maps ``id(FunctionCall)`` of already-computed
    aggregate calls to their value, which is how grouped queries inject
    aggregate results into HAVING and projection expressions.
    """
    if aggregate_values is not None and id(expr) in aggregate_values:
        return aggregate_values[id(expr)]

    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        if context is None:
            raise SQLExecutionError(f"column {expr.name} referenced without a row context")
        return context.lookup(expr)
    if isinstance(expr, ast.Star):
        raise SQLExecutionError("* is only valid in projections and COUNT(*)")
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, context, functions, aggregate_values)
    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, context, functions, aggregate_values)
        if expr.op == "NOT":
            if operand is None:
                return None
            return not is_truthy(operand)
        if expr.op == "-":
            return None if operand is None else -operand
        raise SQLExecutionError(f"unknown unary operator {expr.op}")
    if isinstance(expr, ast.FunctionCall):
        if functions.is_aggregate(expr.name):
            raise SQLExecutionError(
                f"aggregate {expr.name} used outside of a grouped query context"
            )
        args = [evaluate(a, context, functions, aggregate_values) for a in expr.args]
        return functions.call_scalar(expr.name, args)
    if isinstance(expr, ast.InList):
        value = evaluate(expr.expr, context, functions, aggregate_values)
        if value is None:
            return None
        found = False
        saw_null = False
        for item in expr.items:
            candidate = evaluate(item, context, functions, aggregate_values)
            if candidate is None:
                saw_null = True
            elif _compare_equal(value, candidate):
                found = True
                break
        if found:
            return not expr.negated
        if saw_null:
            return None
        return expr.negated
    if isinstance(expr, ast.Between):
        value = evaluate(expr.expr, context, functions, aggregate_values)
        low = evaluate(expr.low, context, functions, aggregate_values)
        high = evaluate(expr.high, context, functions, aggregate_values)
        if value is None or low is None or high is None:
            return None
        result = _compare("<=", low, value) and _compare("<=", value, high)
        return not result if expr.negated else result
    if isinstance(expr, ast.Like):
        value = evaluate(expr.expr, context, functions, aggregate_values)
        pattern = evaluate(expr.pattern, context, functions, aggregate_values)
        if value is None or pattern is None:
            return None
        result = bool(like_to_regex(str(pattern)).match(str(value)))
        return not result if expr.negated else result
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.expr, context, functions, aggregate_values)
        result = value is None
        return not result if expr.negated else result
    raise SQLExecutionError(f"cannot evaluate expression {expr!r}")


def _compare_equal(a: Any, b: Any) -> bool:
    try:
        return a == b
    except TypeError:
        return False


def parse_number(text: str) -> int | float:
    """A string compared with a number, read as one (ValueError if it is not)."""
    return float(text) if "." in text else int(text)


def _coerce_comparison(a: Any, b: Any) -> tuple[Any, Any]:
    """Allow numeric-vs-string comparisons the way MySQL loosely does."""
    if isinstance(a, (int, float)) and isinstance(b, str):
        try:
            return a, parse_number(b)
        except ValueError:
            return str(a), b
    if isinstance(b, (int, float)) and isinstance(a, str):
        try:
            return parse_number(a), b
        except ValueError:
            return a, str(b)
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    return a, b


def _compare(op: str, left: Any, right: Any) -> bool:
    """``left op right`` for two non-NULL values, after loose coercion."""
    a, b = _coerce_comparison(left, right)
    try:
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    except TypeError as exc:
        raise SQLExecutionError(
            f"cannot compare {type(left).__name__} and {type(right).__name__}"
        ) from exc


def _evaluate_binary(
    expr: ast.BinaryOp,
    context: Optional[RowContext],
    functions: FunctionRegistry,
    aggregate_values: Optional[dict[int, Any]],
) -> Any:
    op = expr.op
    if op in ("AND", "OR"):
        left = evaluate(expr.left, context, functions, aggregate_values)
        right = evaluate(expr.right, context, functions, aggregate_values)
        return _kleene(op, left, right)

    left = evaluate(expr.left, context, functions, aggregate_values)
    right = evaluate(expr.right, context, functions, aggregate_values)
    if left is None or right is None:
        return None

    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _compare(op, left, right)

    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise SQLExecutionError(f"unknown operator {op}")


def _kleene(op: str, left: Any, right: Any) -> Any:
    left_bool = None if left is None else is_truthy(left)
    right_bool = None if right is None else is_truthy(right)
    if op == "AND":
        if left_bool is False or right_bool is False:
            return False
        if left_bool is None or right_bool is None:
            return None
        return True
    # OR
    if left_bool is True or right_bool is True:
        return True
    if left_bool is None or right_bool is None:
        return None
    return False


def find_aggregates(expr: Optional[ast.Expression], functions: FunctionRegistry) -> list[ast.FunctionCall]:
    """Return all aggregate FunctionCall nodes inside ``expr``."""
    found: list[ast.FunctionCall] = []
    for node in ast.walk_expression(expr):
        if isinstance(node, ast.FunctionCall) and functions.is_aggregate(node.name):
            found.append(node)
    return found
