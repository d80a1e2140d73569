"""Chunked array: the in-memory face of a :class:`ChunkStore` array.

One :class:`ChunkedArray` is one named 1-D array in a store, accessed
through a resident-chunk cache whose entries are charged to a real
:class:`~repro.memory.arena.Arena` allocation -- so out-of-core data
obeys the same accounting as every other byte in the simulation, and
arena *capacity* pressure is what drives eviction (via the runtime's
:class:`~repro.storage.residency.SpillManager`).

Locking follows the zarr per-chunk-synchronizer shape: every operation
spans the chunk indices it touches via :class:`ChunkSynchronizer.span`
(sorted acquisition, deadlock-free).  All access goes through one walk,
:meth:`ChunkedArray.chunkwise`, which hands the caller each resident
chunk's own slice under that chunk's lock -- which is how ``Win``
storage windows compose puts/gets/accumulates/atomics with chunk
residency without ever holding a whole-window lock or copying a byte
twice; the ``*_locked`` entry points are the same walk for a caller
that already holds the span.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.storage.chunkstore import ChunkStore, DEFAULT_CHUNK_ELEMS
from repro.storage.sync import ChunkSynchronizer

_next_uid_lock = threading.Lock()
_next_uid = [0]


def _new_uid() -> int:
    with _next_uid_lock:
        _next_uid[0] += 1
        return _next_uid[0]


def copy_out(out: np.ndarray) -> Callable[[np.ndarray, int], None]:
    """Walk step: copy each chunk slice to its place in ``out``."""
    def step(region: np.ndarray, pos: int) -> None:
        out[pos:pos + region.size] = region
    return step


def copy_in(values: np.ndarray) -> Callable[[np.ndarray, int], None]:
    """Walk step: overwrite each chunk slice from its place in ``values``."""
    def step(region: np.ndarray, pos: int) -> None:
        region[...] = values[pos:pos + region.size]
    return step


class _Chunk:
    """One resident chunk: its data, its arena charge, its dirty bit."""

    __slots__ = ("data", "alloc", "dirty")

    def __init__(self, data: np.ndarray, alloc: Any, dirty: bool) -> None:
        self.data = data
        self.alloc = alloc
        self.dirty = dirty


class ChunkedArray:
    """A 1-D chunked array cached over a :class:`ChunkStore`."""

    def __init__(
        self,
        store: ChunkStore,
        name: str,
        length: int,
        dtype: Any = np.float64,
        chunk_elems: Optional[int] = None,
        *,
        arena: Any = None,
        spill: Any = None,
        owner: Optional[int] = None,
    ) -> None:
        if chunk_elems is None:
            chunk_elems = (
                int(store.array_meta(name)["chunk_elems"])
                if store.has_array(name)
                else DEFAULT_CHUNK_ELEMS
            )
        self.store = store
        self.name = name
        self.length = int(length)
        self.dtype = np.dtype(dtype)
        self.chunk_elems = int(chunk_elems)
        #: arena the resident chunks are charged to (None = unaccounted)
        self.arena = arena
        #: the runtime's SpillManager, tracking residency/LRU (optional)
        self.spill = spill
        #: task rank attributed as the owner of the arena charges
        self.owner = owner
        self.uid = _new_uid()
        self.sync = ChunkSynchronizer()
        self._chunks: Dict[int, _Chunk] = {}
        self._chunks_lock = threading.Lock()
        self._closed = False
        # registers the array (or validates dtype/length/chunking
        # against a previous run's manifest on the restore path)
        store.ensure_array(name, self.length, self.dtype, self.chunk_elems)
        if spill is not None:
            spill.register_array(self)

    # ------------------------------------------------------------- geometry
    @property
    def n_chunks(self) -> int:
        return (self.length + self.chunk_elems - 1) // self.chunk_elems

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_elems * self.dtype.itemsize

    def chunk_range(self, start: int, count: int) -> range:
        """Chunk indices overlapped by ``[start, start+count)``."""
        if count <= 0:
            return range(0)
        return range(start // self.chunk_elems,
                     (start + count - 1) // self.chunk_elems + 1)

    def _chunk_len(self, idx: int) -> int:
        return min(self.chunk_elems, self.length - idx * self.chunk_elems)

    # ------------------------------------------------------------ residency
    def _ensure(self, idx: int, task: int) -> _Chunk:
        """Materialise chunk ``idx`` (caller holds its span lock)."""
        with self._chunks_lock:
            chunk = self._chunks.get(idx)
        if chunk is not None:
            if self.spill is not None:
                self.spill.touch(self, idx)
            return chunk
        n = self._chunk_len(idx)
        nbytes = n * self.dtype.itemsize
        alloc = None
        if self.arena is not None:
            alloc = self.arena.alloc(
                max(nbytes, 1),
                label=f"chunk:{self.name}[{idx}]",
                kind="storage",
                owner=self.owner if self.owner is not None else task,
            )
        try:
            if self.store.has_chunk(self.name, idx):
                data = self.store.read_chunk(self.name, idx, task=task)[:n]
                if self.spill is not None:
                    self.spill.count_fault(nbytes)
            else:
                data = np.zeros(n, dtype=self.dtype)
        except BaseException:
            if alloc is not None:
                self.arena.free(alloc)
            raise
        chunk = _Chunk(np.ascontiguousarray(data, dtype=self.dtype),
                       alloc, dirty=False)
        with self._chunks_lock:
            self._chunks[idx] = chunk
        if self.spill is not None:
            self.spill.charge(self, idx, nbytes)
        return chunk

    def resident_chunks(self) -> List[int]:
        with self._chunks_lock:
            return sorted(self._chunks)

    def evict_locked(self, idx: int, *, task: int = 0) -> int:
        """Write chunk ``idx`` back if dirty and drop it from memory.
        Caller holds the chunk's lock.  Returns bytes freed.  The chunk
        leaves memory only after its write-back succeeded: if that
        raises, it stays resident, dirty and charged."""
        with self._chunks_lock:
            chunk = self._chunks.get(idx)
        if chunk is None:
            return 0
        if chunk.dirty:
            self.store.write_chunk(self.name, idx, chunk.data, task=task)
        with self._chunks_lock:
            del self._chunks[idx]
        if chunk.alloc is not None:
            self.arena.free(chunk.alloc)
        return chunk.data.nbytes

    # ------------------------------------------------------------ access
    def chunkwise(
        self,
        start: int,
        count: int,
        fn: Callable[[np.ndarray, int], None],
        *,
        task: int = 0,
        dirty: bool = False,
        lock: bool = True,
    ) -> None:
        """The one chunk-slice walk: for each chunk overlapped by
        ``[start, start+count)`` run ``fn(region, pos)``, where ``region``
        is the resident chunk's own slice (a view, never a copy) and
        ``pos`` its offset in the access; ``dirty`` marks the chunk
        modified.  Holds only that chunk's lock -- MPI one-sided
        semantics promise at most element-wise atomicity across a
        multi-chunk access, and an access that pins one chunk at a time
        can stream through the spill layer however large it is (a span
        over every chunk would pin the whole array resident).
        ``lock=False`` is for a caller that already holds the span."""
        ce = self.chunk_elems
        for idx in self.chunk_range(start, count):
            lo = max(start, idx * ce) - idx * ce
            hi = min(start + count, (idx + 1) * ce) - idx * ce
            with self.sync.span([idx] if lock else ()):
                chunk = self._ensure(idx, task)
                chunk.dirty |= dirty
                fn(chunk.data[lo:hi], idx * ce + lo - start)

    def read_locked(
        self, start: int, count: int, *,
        out: Optional[np.ndarray] = None, task: int = 0,
    ) -> np.ndarray:
        """Copy ``[start, start+count)`` into ``out`` (a fresh array by
        default) and return it (caller holds the span)."""
        if out is None:
            out = np.empty(count, dtype=self.dtype)
        self.chunkwise(start, count, copy_out(out), task=task, lock=False)
        return out

    def apply_locked(
        self, start: int, count: int,
        fn: Callable[[np.ndarray, int], None], *, task: int = 0,
    ) -> None:
        """Modify ``[start, start+count)`` in place: ``fn(region, pos)``
        per resident chunk slice (caller holds the span)."""
        self.chunkwise(start, count, fn, task=task, dirty=True, lock=False)

    def write_locked(self, start: int, values: np.ndarray, *, task: int = 0) -> None:
        """Write ``values`` at ``start`` (caller holds the span)."""
        values = np.asarray(values).reshape(-1)
        self.apply_locked(start, values.size, copy_in(values), task=task)

    def rmw_locked(
        self,
        start: int,
        count: int,
        fn: Callable[[np.ndarray], Optional[np.ndarray]],
        *,
        task: int = 0,
    ) -> np.ndarray:
        """Atomic read-modify-write over ``[start, start+count)``
        (caller holds the span): applies the elementwise ``fn`` to each
        chunk slice in place (or via its return value).  Returns the
        *old* values."""
        old = np.empty(count, dtype=self.dtype)

        def rmw(region: np.ndarray, pos: int) -> None:
            old[pos:pos + region.size] = region
            res = fn(region)
            if res is not None:
                region[...] = res

        self.apply_locked(start, count, rmw, task=task)
        return old

    # --------------------------------------------------------- maintenance
    def flush(self, *, task: int = 0) -> int:
        """Write every dirty resident chunk back to the store (pending,
        durable at the next commit).  Returns the number written."""
        with self._chunks_lock:
            indices = sorted(self._chunks)
        wrote = 0
        for idx in indices:
            with self.sync.span([idx]):
                with self._chunks_lock:
                    chunk = self._chunks.get(idx)
                if chunk is None or not chunk.dirty:
                    continue
                self.store.write_chunk(self.name, idx, chunk.data, task=task)
                chunk.dirty = False
                wrote += 1
        return wrote

    def close(self, *, task: int = 0) -> None:
        """Drop every resident chunk (freeing its arena charge) and
        deregister from the spill manager.  Dirty data is *not* written
        back -- call :meth:`flush` (and commit) first."""
        if self._closed:
            return
        self._closed = True
        with self._chunks_lock:
            indices = sorted(self._chunks)
        for idx in indices:
            with self.sync.span([idx]):
                with self._chunks_lock:
                    chunk = self._chunks.pop(idx, None)
                if chunk is None:
                    continue
                if chunk.alloc is not None:
                    self.arena.free(chunk.alloc)
                if self.spill is not None:
                    self.spill.discharge(self, idx, chunk.data.nbytes)
        if self.spill is not None:
            self.spill.unregister_array(self)

    # ---------------------------------------------------------- conveniences
    @property
    def size(self) -> int:
        return self.length

    @property
    def nbytes(self) -> int:
        return self.length * self.dtype.itemsize

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key):
        start, count = self._key_span(key)
        out = np.empty(count, dtype=self.dtype)
        self.chunkwise(start, count, copy_out(out))
        return out[0] if isinstance(key, (int, np.integer)) else out

    def __setitem__(self, key, value) -> None:
        start, count = self._key_span(key)
        values = np.broadcast_to(np.asarray(value, dtype=self.dtype), (count,))
        self.chunkwise(start, count, copy_in(values), dirty=True)

    def __array__(self, dtype=None):
        out = self[0:self.length]
        return out if dtype is None else out.astype(dtype)

    def _key_span(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise IndexError("ChunkedArray supports contiguous slices only")
            return start, max(0, stop - start)
        idx = int(key)
        if idx < 0:
            idx += self.length
        if not 0 <= idx < self.length:
            raise IndexError(f"index {key} out of range for length {self.length}")
        return idx, 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedArray({self.name!r}, length={self.length}, "
            f"dtype={self.dtype}, chunk_elems={self.chunk_elems}, "
            f"resident={len(self._chunks)}/{self.n_chunks})"
        )


__all__ = ["ChunkedArray", "copy_in", "copy_out"]
