"""Horizontal sharding: partition encrypted tables across backend instances.

The proxy stays the single point of trust (it alone holds keys); this
package partitions the *ciphertext* store across N backend instances and
merges scattered results without weakening the threat model:

* :mod:`repro.shard.router` -- DET-hash or OPE-range placement of rows by
  the shard-key ciphertext (placement only; reads never depend on it).
* :mod:`repro.shard.merge` -- merge semantics: k-way ordered merge with
  post-merge OFFSET, keyless pooling of packed Paillier partial sums (the
  merge point holds no key and cannot decrypt), COUNT/MIN/MAX
  recombination, broadcast classification for joins and HAVING.
* :mod:`repro.shard.backend` -- :class:`ShardedBackend`, a drop-in
  :class:`~repro.api.backends.BackendAdapter` the proxy drives unchanged.
"""

from repro.shard.backend import ShardedBackend, ShardedBackendError
from repro.shard.router import ShardRouter, ShardRoutingError

__all__ = [
    "ShardedBackend",
    "ShardedBackendError",
    "ShardRouter",
    "ShardRoutingError",
]
