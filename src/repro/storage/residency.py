"""Residency tracking and LRU spill for storage-backed chunks.

One :class:`SpillManager` per runtime.  Every resident chunk of every
registered :class:`~repro.storage.array.ChunkedArray` has an entry in
one global LRU (an ``OrderedDict`` keyed ``(array_uid, chunk_idx)``,
recency = insertion order with ``move_to_end`` on touch).  When an
:class:`~repro.memory.arena.Arena` overruns its live-bytes *capacity*,
its ``alloc`` retry loop calls :meth:`reclaim`, which walks the LRU
from cold to hot, try-locks each candidate chunk (skipping chunks
pinned by in-flight spans -- a non-blocking acquire can never deadlock
against an operation that already holds locks), writes dirty data back
to the chunk's store and frees its arena charge, until enough bytes are
free or the LRU runs dry.

Determinism: recency is a monotonic counter bumped under one lock, so
under ``backend="coop"`` (one runnable task at a time, virtual clock)
the touch order -- and therefore the spill order recorded in
``spill_log`` -- is a pure function of the schedule seed.  The
deterministic-spill test asserts exactly that.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple


class SpillManager:
    """Global chunk-residency LRU + spill policy for one runtime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (array_uid, chunk_idx) -> nbytes, coldest first
        self._lru: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        #: array_uid -> ChunkedArray
        self._arrays: Dict[int, Any] = {}
        # counters (guarded by self._lock)
        self.spills = 0
        self.spill_bytes = 0
        self.faults = 0
        self.fault_bytes = 0
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        #: (array_name, chunk_idx) in eviction order -- the determinism
        #: witness the coop spill test compares across runs
        self.spill_log: List[Tuple[str, int]] = []

    # ------------------------------------------------------------- registry
    def register_array(self, array: Any) -> None:
        with self._lock:
            self._arrays[array.uid] = array

    def unregister_array(self, array: Any) -> None:
        with self._lock:
            self._arrays.pop(array.uid, None)
            stale = [k for k in self._lru if k[0] == array.uid]
            for key in stale:
                self.resident_bytes -= self._lru.pop(key)

    # ----------------------------------------------------------- accounting
    def charge(self, array: Any, idx: int, nbytes: int) -> None:
        """A chunk became resident (caller holds its chunk lock)."""
        with self._lock:
            self._lru[(array.uid, idx)] = nbytes
            self._lru.move_to_end((array.uid, idx))
            self.resident_bytes += nbytes
            self.peak_resident_bytes = max(
                self.peak_resident_bytes, self.resident_bytes
            )

    def discharge(self, array: Any, idx: int, nbytes: int) -> None:
        """A chunk left memory by a non-spill path (close)."""
        with self._lock:
            if self._lru.pop((array.uid, idx), None) is not None:
                self.resident_bytes -= nbytes

    def touch(self, array: Any, idx: int) -> None:
        """Mark a resident chunk most-recently-used."""
        with self._lock:
            if (array.uid, idx) in self._lru:
                self._lru.move_to_end((array.uid, idx))

    def count_fault(self, nbytes: int) -> None:
        """A chunk was faulted back in from the store."""
        with self._lock:
            self.faults += 1
            self.fault_bytes += nbytes

    # ---------------------------------------------------------------- spill
    def reclaim(self, arena: Any, need: int) -> int:
        """Evict cold chunks charged to ``arena`` until ``need`` bytes
        are free (or no evictable candidate remains).  Returns the
        bytes actually freed; 0 tells the arena to re-raise."""
        freed = 0
        for key in self._cold_first():
            if freed >= need:
                break
            with self._lock:
                nbytes = self._lru.get(key)
                array = self._arrays.get(key[0])
            if nbytes is None or array is None:
                continue
            if array.arena is not arena:
                continue
            uid, idx = key
            # non-blocking: a chunk pinned by an in-flight span (maybe
            # our own caller's) is simply skipped -- never a deadlock
            if not array.sync.try_acquire(idx):
                continue
            try:
                with self._lock:
                    if key not in self._lru:
                        continue  # lost a race with close()
                # write-back first: if it raises, the chunk is still
                # resident, dirty, charged and in the LRU
                got = array.evict_locked(idx)
                with self._lock:
                    if self._lru.pop(key, None) is not None:
                        self.resident_bytes -= nbytes
            finally:
                array.sync.release(idx)
            if got:
                freed += got
                with self._lock:
                    self.spills += 1
                    self.spill_bytes += got
                    self.spill_log.append((array.name, idx))
        return freed

    def _cold_first(self):
        """The LRU's keys, coldest first -- then, for as long as the walk
        goes on, the keys that became resident after it began.  Under
        threads the resident set can turn over completely while one task
        walks a snapshot of it; giving up then would report a full arena
        with evictable chunks in it."""
        seen: set = set()
        while True:
            with self._lock:
                fresh = [key for key in self._lru if key not in seen]
            if not fresh:
                return
            seen.update(fresh)
            yield from fresh

    # ------------------------------------------------------------ reporting
    def resident_chunk_count(self) -> int:
        with self._lock:
            return len(self._lru)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "spills": self.spills,
                "spill_bytes": self.spill_bytes,
                "faults": self.faults,
                "fault_bytes": self.fault_bytes,
                "resident_bytes": self.resident_bytes,
                "peak_resident_bytes": self.peak_resident_bytes,
                "resident_chunks": len(self._lru),
            }


__all__ = ["SpillManager"]
