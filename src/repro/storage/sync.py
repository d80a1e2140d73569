"""Per-chunk lock tables (the zarr ``ThreadSynchronizer`` shape).

One :class:`ChunkSynchronizer` guards one keyspace -- for a
storage-backed window segment the keys are chunk indices, for an
in-memory window they are ``(rank, chunk_idx)`` pairs.  Operations that
span several chunks take all their locks through :meth:`span`, which
sorts the keys first so two overlapping multi-chunk operations always
acquire in the same global order (no deadlock, by the classic
lock-ordering argument).

The table also does the wait accounting the contention regression test
asserts on: every acquisition first tries a non-blocking acquire and
counts a *wait* only when that fails, so operations on disjoint chunks
report zero waits where the old whole-window ``data_lock`` would have
serialised them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, List, Tuple


class ChunkSynchronizer:
    """Lazy per-key lock table with acquisition/wait counters."""

    def __init__(self) -> None:
        self._master = threading.Lock()
        self._locks: Dict[Hashable, threading.Lock] = {}
        self.acquisitions = 0
        self.waits = 0

    def lock_for(self, key: Hashable) -> threading.Lock:
        # a key's lock never changes once made, so only a miss needs the
        # master lock (a dict read is atomic)
        lock = self._locks.get(key)
        if lock is None:
            with self._master:
                lock = self._locks.setdefault(key, threading.Lock())
        return lock

    def acquire(self, key: Hashable) -> threading.Lock:
        """Acquire one key's lock, counting a wait if it was contended."""
        lock = self.lock_for(key)
        if not lock.acquire(False):
            with self._master:
                self.waits += 1
            lock.acquire()
        with self._master:
            self.acquisitions += 1
        return lock

    def try_acquire(self, key: Hashable) -> bool:
        """Non-blocking acquire; no wait is ever counted.  Used by the
        spill path to skip chunks pinned by in-flight operations."""
        got = self.lock_for(key).acquire(False)
        if got:
            with self._master:
                self.acquisitions += 1
        return got

    def release(self, key: Hashable) -> None:
        self.lock_for(key).release()

    @contextmanager
    def span(self, keys: Iterable[Hashable]):
        """Hold the locks of every key in ``keys`` (deduplicated,
        acquired in sorted order)."""
        ordered: List[Hashable] = sorted(set(keys))
        held: List[Hashable] = []
        try:
            for key in ordered:
                self.acquire(key)
                held.append(key)
            yield
        finally:
            for key in reversed(held):
                self.release(key)

    def counters(self) -> Tuple[int, int]:
        """(acquisitions, waits) so far."""
        with self._master:
            return self.acquisitions, self.waits


__all__ = ["ChunkSynchronizer"]
