"""Secondary indexes over table columns.

The DBMS builds indexes on encrypted data exactly as it would on plaintext
(section 3.3): a hash index over DET/JOIN ciphertexts supports equality
look-ups, and an ordered index over OPE ciphertexts supports range scans,
which is precisely why the strawman design (everything under RND) loses its
indexes and collapses in Figure 11.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Optional

_KEY = itemgetter(0)


def key_kind(value: Any) -> type:
    """The class an index key compares within: ints, floats and bools are one."""
    return float if isinstance(value, (int, float)) else type(value)


class HashIndex:
    """Equality index: value -> set of row ids."""

    def __init__(self, column: str):
        self.column = column
        self._buckets: dict[Any, set[int]] = {}
        #: Number of buckets per key kind (see :attr:`kind`).
        self._kinds: dict[type, int] = {}

    @property
    def kind(self) -> Optional[type]:
        """The :func:`key_kind` of every key, or None when empty or mixed."""
        return next(iter(self._kinds)) if len(self._kinds) == 1 else None

    def insert(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is None:
            bucket = self._buckets[value] = set()
            kind = key_kind(value)
            self._kinds[kind] = self._kinds.get(kind, 0) + 1
        bucket.add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]
                kind = key_kind(value)
                self._kinds[kind] -= 1
                if not self._kinds[kind]:
                    del self._kinds[kind]

    def lookup(self, value: Any) -> set[int]:
        if value is None:
            return set()
        return set(self._buckets.get(value, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class OrderedIndex:
    """Ordered index supporting range scans (used over OPE ciphertexts)."""

    def __init__(self, column: str):
        self.column = column
        self._entries: list[tuple[Any, int]] = []

    @property
    def kind(self) -> Optional[type]:
        """The :func:`key_kind` of every key (mutually ordered), or None when empty."""
        return key_kind(self._entries[0][0]) if self._entries else None

    def insert(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        bisect.insort(self._entries, (value, row_id))

    def remove(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        position = bisect.bisect_left(self._entries, (value, row_id))
        if position < len(self._entries) and self._entries[position] == (value, row_id):
            self._entries.pop(position)

    def lookup(self, value: Any) -> set[int]:
        if value is None:
            return set()
        return self.range(value, value)

    def scan_sorted(self, descending: bool = False) -> Iterable[int]:
        """Row ids in index-key order (ties broken by ascending row id).

        This is what lets the executor stream ``ORDER BY col LIMIT k``
        straight off the index instead of materialising and sorting the full
        match set.
        """
        if not descending:
            for _value, row_id in self._entries:
                yield row_id
            return
        # Descending: walk the key groups back to front, but keep row ids
        # ascending within a group, matching the stable full-sort order.
        entries = self._entries
        end = len(entries)
        while end:
            start = bisect.bisect_left(entries, (entries[end - 1][0], -1), 0, end)
            for position in range(start, end):
                yield entries[position][1]
            end = start

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> set[int]:
        """Row ids whose value falls in the given (possibly open) interval.

        Both ends are found by bisection: O(log n + k) for k rows returned.
        """
        entries = self._entries
        start, end = 0, len(entries)
        if low is not None:
            find = bisect.bisect_left if include_low else bisect.bisect_right
            start = find(entries, low, key=_KEY)
        if high is not None:
            find = bisect.bisect_right if include_high else bisect.bisect_left
            end = find(entries, high, key=_KEY)
        return {row_id for _value, row_id in entries[start:end]}

    def __len__(self) -> int:
        return len(self._entries)


class IndexSet:
    """All indexes attached to one table."""

    def __init__(self) -> None:
        self.hash_indexes: dict[str, HashIndex] = {}
        self.ordered_indexes: dict[str, OrderedIndex] = {}

    def columns(self) -> set[str]:
        return set(self.hash_indexes) | set(self.ordered_indexes)

    def add_hash(self, column: str) -> HashIndex:
        index = self.hash_indexes.setdefault(column, HashIndex(column))
        return index

    def add_ordered(self, column: str) -> OrderedIndex:
        index = self.ordered_indexes.setdefault(column, OrderedIndex(column))
        return index

    def insert_row(self, row: dict[str, Any], row_id: int) -> None:
        for column, index in self.hash_indexes.items():
            index.insert(row.get(column), row_id)
        for column, index in self.ordered_indexes.items():
            index.insert(row.get(column), row_id)

    def remove_row(self, row: dict[str, Any], row_id: int) -> None:
        for column, index in self.hash_indexes.items():
            index.remove(row.get(column), row_id)
        for column, index in self.ordered_indexes.items():
            index.remove(row.get(column), row_id)

    def populate(self, rows: Iterable[tuple[int, dict[str, Any]]]) -> None:
        for row_id, row in rows:
            self.insert_row(row, row_id)
