"""Durable proxy metadata: write-ahead-logged catalog + crash recovery.

The proxy is CryptDB's single stateful trust root; this package makes that
state survive a crash.  See :mod:`repro.durability.wal` for the on-disk
format, :mod:`repro.durability.catalog` for the record types and replay,
and :mod:`repro.durability.recovery` for the write-through and restart
paths: the proxy's metadata image (capture, diff, apply), the logging
helpers ``CryptDBProxy`` calls, crash recovery and in-doubt resolution.
"""

from repro.durability.catalog import (
    CatalogState,
    MetadataCatalog,
    replay_records,
    tag_value,
    untag_value,
)
from repro.durability.wal import WriteAheadLog, decode_records, encode_record

__all__ = [
    "CatalogState",
    "MetadataCatalog",
    "WriteAheadLog",
    "decode_records",
    "encode_record",
    "replay_records",
    "tag_value",
    "untag_value",
]
