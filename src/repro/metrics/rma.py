"""One-sided (RMA) path counters.

The RMA subsystem's performance claims -- the intra-node zero-copy
load/store fast path and the process backend's per-origin mirror-copy
emulation -- are made observable here.  Counters live on each window's
shared state (:class:`repro.runtime.rma._WinShared`) and are
*aggregated on read* across every window a runtime ever created, the
same snapshot pattern as :class:`~repro.metrics.p2p.P2PMetrics`.

``RMAMetrics.from_runtime(rt)`` -- or ``rt.metrics("rma")`` -- takes the
snapshot; ``snapshot()`` returns it as a plain dict for benchmark
``extra_info``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.metrics.report import Record


@dataclass
class RMAMetrics(Record):
    """One runtime's aggregated one-sided counters."""

    TITLE = "rma metrics"
    DERIVED = {"windows": ("ops",), "zero_copy_bytes": ("zero_copy_fraction",)}
    ROUND = {"zero_copy_fraction": 3}

    #: windows ever created on the runtime
    windows: int = 0
    #: one-sided operations issued
    puts: int = 0
    gets: int = 0
    accumulates: int = 0
    #: single-element atomics (fetch-and-op / compare-and-swap)
    fetch_and_ops: int = 0
    compare_and_swaps: int = 0
    #: payload bytes moved by all one-sided operations
    bytes: int = 0
    #: staging copies made on non-direct accesses (origin serialisation,
    #: plus the process backend's mirror delivery copy)
    staged_copies: int = 0
    staged_bytes: int = 0
    #: direct load/store accesses against the target segment (the
    #: intra-node zero-copy fast path) and the bytes they moved without
    #: any staging copy
    zero_copy_hits: int = 0
    zero_copy_bytes: int = 0
    #: blocking epoch calls (start/wait/lock/lock_all) that parked
    epoch_waits: int = 0
    #: fence episodes and passive-target lock acquisitions
    fences: int = 0
    locks: int = 0
    #: bytes of per-origin mirror copies (process-backend emulation)
    mirror_bytes: int = 0
    #: per-chunk data-lock traffic (the PR 8 refactor of the old
    #: whole-window data_lock): acquisitions counts every chunk lock
    #: taken by puts/staged gets/RMWs (and storage flush/spill), waits
    #: counts only contended acquisitions -- operations on disjoint
    #: chunks therefore add acquisitions but zero waits
    chunk_lock_acquisitions: int = 0
    chunk_lock_waits: int = 0

    @classmethod
    def from_runtime(cls, runtime: Any) -> "RMAMetrics":
        """Aggregate the per-window counters of one runtime."""
        m = cls()
        win_lock = getattr(runtime, "_win_lock", None)
        if win_lock is not None:
            with win_lock:
                windows = list(getattr(runtime, "_windows", []))
        else:
            windows = list(getattr(runtime, "_windows", []))
        for st in windows:
            if st is None:
                continue
            m.windows += 1
            c = st.counters
            with st.stats_lock:
                for name in WIN_COUNTERS:
                    setattr(m, name, getattr(m, name) + getattr(c, name))
            # chunk-lock traffic: the window-wide table (in-memory
            # windows), plus each storage segment's per-chunk table
            syncs = [getattr(st, "sync", None)]
            for buf in getattr(st, "buffers", []):
                syncs.append(getattr(buf, "sync", None))
            for sync in syncs:
                if sync is None:
                    continue
                acq, waits = sync.counters()
                m.chunk_lock_acquisitions += acq
                m.chunk_lock_waits += waits
        return m

    # ------------------------------------------------------------- derived
    @property
    def ops(self) -> int:
        """All one-sided operations issued."""
        return (self.puts + self.gets + self.accumulates
                + self.fetch_and_ops + self.compare_and_swaps)

    @property
    def zero_copy_fraction(self) -> float:
        """Fraction of payload bytes moved without a staging copy."""
        return self.zero_copy_bytes / self.bytes if self.bytes else 0.0

#: the counters each window keeps itself (``_WinShared.counters``): every
#: field but the window count and the chunk-lock pair, which are read
#: off the runtime and the synchronizers
WIN_COUNTERS = tuple(
    f.name for f in fields(RMAMetrics)
    if f.name not in ("windows", "chunk_lock_acquisitions", "chunk_lock_waits")
)


__all__ = ["RMAMetrics", "WIN_COUNTERS"]
