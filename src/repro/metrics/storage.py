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
from typing import Any, Dict

from repro.metrics.report import Table


@dataclass
class StorageMetrics:
    """One runtime's aggregated out-of-core counters."""

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
    #: capacity-pressure evictions (chunk written back + freed) and
    #: faults (chunk re-read from the store)
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
        m = cls()
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
        spill = getattr(runtime, "storage_spill", None)
        if spill is not None:
            c = spill.counters()
            m.spills = c["spills"]
            m.spill_bytes = c["spill_bytes"]
            m.faults = c["faults"]
            m.fault_bytes = c["fault_bytes"]
            m.resident_bytes = c["resident_bytes"]
            m.peak_resident_bytes = c["peak_resident_bytes"]
            m.resident_chunks = c["resident_chunks"]
        return m

    # ----------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, Any]:
        return {
            "stores": self.stores,
            "committed_epochs": self.committed_epochs,
            "chunk_reads": self.chunk_reads,
            "chunk_writes": self.chunk_writes,
            "read_bytes": self.read_bytes,
            "written_bytes": self.written_bytes,
            "commits": self.commits,
            "spills": self.spills,
            "spill_bytes": self.spill_bytes,
            "faults": self.faults,
            "fault_bytes": self.fault_bytes,
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "resident_chunks": self.resident_chunks,
        }

    def render(self) -> str:
        table = Table(["counter", "value"], title="storage metrics")
        for key, value in self.snapshot().items():
            table.add_row(key, value)
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageMetrics(stores={self.stores}, "
            f"commits={self.commits}, spills={self.spills}, "
            f"resident_bytes={self.resident_bytes})"
        )


__all__ = ["StorageMetrics"]
