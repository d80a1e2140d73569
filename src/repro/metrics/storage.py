"""Out-of-core storage counters.

Two sources feed one snapshot: every :class:`~repro.storage.chunkstore.
ChunkStore` bound to the runtime contributes its I/O counters (chunk
reads/writes, bytes, manifest commits), and the runtime's
:class:`~repro.storage.residency.SpillManager` contributes the
residency statistics (spills, faults, resident/peak bytes and chunk
count).  ``StorageMetrics.from_runtime(rt)`` -- or
``rt.metrics("storage")`` -- takes the snapshot; ``snapshot()`` feeds
benchmark ``extra_info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.metrics.report import Record


@dataclass
class StorageMetrics(Record):
    """One runtime's aggregated out-of-core counters."""

    TITLE = "storage metrics"

    #: chunk stores bound to the runtime
    stores: int = 0
    #: last committed fence epoch, summed over stores (one store is the
    #: common case, where this *is* the checkpoint count)
    committed_epochs: int = 0
    #: chunk-granular store I/O
    chunk_reads: int = 0
    chunk_writes: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    #: atomic manifest commits (durable checkpoints)
    commits: int = 0
    #: the residency counters, named as ``SpillManager.counters()``
    #: names them: capacity-pressure evictions (chunk written back +
    #: freed) and faults (chunk re-read from the store)
    spills: int = 0
    spill_bytes: int = 0
    faults: int = 0
    fault_bytes: int = 0
    #: resident chunk-cache footprint
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    resident_chunks: int = 0

    @classmethod
    def from_runtime(cls, runtime: Any) -> "StorageMetrics":
        spill = getattr(runtime, "storage_spill", None)
        m = cls(**spill.counters()) if spill is not None else cls()
        stores_of = getattr(runtime, "stores", None)
        for store in (stores_of() if stores_of is not None else []):
            c = store.counters()
            m.stores += 1
            m.committed_epochs += c["epoch"]
            m.chunk_reads += c["chunk_reads"]
            m.chunk_writes += c["chunk_writes"]
            m.read_bytes += c["read_bytes"]
            m.written_bytes += c["written_bytes"]
            m.commits += c["commits"]
        return m


__all__ = ["StorageMetrics"]
