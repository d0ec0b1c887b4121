"""Result-set decryption: step 4 of CryptDB's query processing.

The DBMS returns encrypted rows; the proxy walks the rewrite plan's output
specifications and decrypts the result **column-at-a-time** through the
encryptor's batch API: for each output spec the ciphertext column (plus the
per-row IV column the rewriter appended when the Eq onion was still at RND)
is sliced out of the server rows, decrypted in one call -- deduplicating
repeated ciphertexts through the cache subsystem -- and the plaintext
columns are zipped back into rows under the application's original column
names.  AVG divides the decrypted packed sum by the row count carried in
the same slot, and any in-proxy ordering (§3.5.1) is applied at the end.
"""

from __future__ import annotations

from typing import Any

from repro.core.encryptor import Encryptor
from repro.core.rewriter import OutputSpec, RewritePlan
from repro.sql.executor import ResultSet


def decrypt_results(
    plan: RewritePlan, server_result: ResultSet, encryptor: Encryptor
) -> ResultSet:
    """Decrypt a server result set according to the rewrite plan."""
    if not plan.output:
        return ResultSet([], [], server_result.rowcount)

    columns = [spec.name for spec in plan.output]
    server_rows = server_result.rows
    decrypted_columns = [
        _decrypt_column(spec, server_rows, encryptor) for spec in plan.output
    ]
    rows = [tuple(col[i] for col in decrypted_columns) for i in range(len(server_rows))]

    if plan.proxy_order:
        rows = _proxy_sort(rows, plan.proxy_order)

    return ResultSet(columns, rows, len(rows))


def _decrypt_column(
    spec: OutputSpec, server_rows: list[tuple], encryptor: Encryptor
) -> list[Any]:
    """Decrypt one output column of the whole result set."""
    values = [row[spec.source_index] for row in server_rows]
    if spec.kind == "plain":
        return values
    if spec.kind == "column":
        ivs = (
            [row[spec.iv_index] for row in server_rows]
            if spec.iv_index is not None
            else None
        )
        return encryptor.decrypt_column(spec.column, spec.onion, spec.level, values, ivs)
    if spec.kind == "hom_sum":
        return encryptor.decrypt_hom_sums(spec.column, values)
    if spec.kind == "avg":
        # The divisor is the slot's count subfield, read out of the same
        # decrypted aggregate (no COUNT item shipped).
        return encryptor.decrypt_hom_avgs(spec.column, values)
    if spec.kind == "ope_agg":
        return encryptor.decrypt_column(spec.column, spec.onion, spec.level, values, None)
    raise ValueError(f"unknown output spec kind {spec.kind}")


class _Descending:
    """Wraps one column's sort key so tuple comparison runs in reverse.

    Python's sort has no per-column ``reverse``; negation only works for
    numbers, while OPE integers, DET bytes and plaintext strings all flow
    through these keys.  Inverting ``<`` is type-agnostic.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key


def column_sort_key(value, ascending: bool):
    """One column's contribution to an ORDER BY sort key.

    NULL placement must match what the DBMS would have produced had the
    sort run server-side (NULLS FIRST ascending, NULLS LAST descending) --
    the conformance harness compares the two modes directly.  The non-NULL
    flag leads the key: ascending puts the False (NULL) group first, and
    the descending wrapper flips the whole pair, which lands NULLs last.
    Shared with the sharded backend's k-way merge so per-shard ORDER BY
    streams interleave with exactly the single-backend NULL semantics.
    """
    key = (value is not None, value)
    return key if ascending else _Descending(key)


def row_sort_key(row: tuple, order: list[tuple[int, bool]]) -> tuple:
    """The full composite ORDER BY key for one row."""
    return tuple(column_sort_key(row[index], ascending) for index, ascending in order)


def _proxy_sort(rows: list[tuple], order: list[tuple[int, bool]]) -> list[tuple]:
    """In-proxy ORDER BY (§3.5.1), applied after decryption."""
    # sorted() is stable, so one composite-key pass is equivalent to the
    # classic least-significant-first cascade of stable sorts.
    return sorted(rows, key=lambda row: row_sort_key(row, order))
